"""Paired before/after runs of the benchmark, written as one BENCH record.

Usage (from the repository root):

    python3 tools/benchpair.py --base main~1 --head main --workload codec-sweep \\
        --pairs 10 --seconds 20 --seed 17001 --out bench.json

Each side is a local ``git clone`` of this repository, checked out at its
revision in a temporary directory outside it, so only committed files are
measured and no network is used. Each pair runs both sides' own unchanged
``perfbench/run.py --trace 0`` on one seed (``--seed``, ``--seed + 1``, ...),
and which side goes first alternates from pair to pair. ``--base`` equal to
``--head`` is the A/A mode: two clones of one commit. ``--workload`` may be
repeated. The record holds, per workload and per end-to-end metric of the
head's ``BENCHMARK.json``, each side's quartiles, the ratio to its base, wins
and losses, the parent's interquartile range, the median gap and the raw
pairs; "parent" is the base side and "change" the head. Exits 1 when any run
is incorrect or has a failed op (the record is still written).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RATIO_BASE = ("ratio = change median / parent median; base = parent median; quartiles by "
              "statistics.quantiles(method='inclusive'); median_gap = parent median - change "
              "median, signed so that a positive gap is an improvement; a win is a pair whose "
              "change run is better, ties counting for neither")


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], spec: list[dict]) -> dict[str, dict]:
    """Per-metric comparison of the pairs' two sides, for each metric of
    ``spec`` (BENCHMARK.json's ``end_to_end`` entries: name, better, bound)
    that every run reports."""
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        if any(p[side].get(name) is None for p in pairs for side in SIDES):
            continue
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        qp, qc = quartiles(parent), quartiles(change)
        sign = 1 if lower else -1
        ratio = qc["median"] / qp["median"]
        out[name] = {
            "parent": qp,
            "change": qc,
            "ratio": ratio,
            "base": qp["median"],
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "change_losses": sum(sign * (a - b) < 0 for a, b in zip(parent, change)),
            "pairs": len(pairs),
            "parent_iqr": qp["q3"] - qp["q1"],
            "median_gap": sign * (qp["median"] - qc["median"]),
            "within_bound": (ratio <= 1 + metric["bound"] if lower
                             else ratio >= 1 - metric["bound"]),
        }
    return out


def figures_median(details: list[dict]) -> dict[str, float]:
    """Median of each numeric figure the runs' detail lines report."""
    numeric = {k for d in details for k, v in d.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return {k: statistics.median(d[k] for d in details if k in d) for k in sorted(numeric)}


def workload_record(pairs: list[dict], details: dict[str, list[dict]], spec: list[dict]) -> dict:
    return {
        "pairs": pairs,
        "metrics": summarize(pairs, spec),
        "figures_median": {side: figures_median(details[side]) for side in SIDES},
        "ops_failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "ops_attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
    }


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def checkout(rev: str, where: Path) -> Path:
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(where))
    git("checkout", "--quiet", "--detach", rev, cwd=where)
    return where


def run_once(clone: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run.py in a clone: its (detail, result) lines, as printed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=clone, text=True, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{clone.name}: {' '.join(command[1:])} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", required=True, help="changed revision")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    base, head = (git("rev-parse", "--verify", f"{rev}^{{commit}}")
                  for rev in (args.base, args.head))

    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        clones = {"parent": checkout(base, Path(tmp) / "parent"),
                  "change": checkout(head, Path(tmp) / "change")}
        spec = json.loads((clones["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        workloads = {}
        for workload in args.workload:
            pairs, details = [], {side: [] for side in SIDES}
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    detail, result = run_once(clones[side], workload, seed, args.seconds)
                    details[side].append(detail["figures"])
                    pair[side] = {"correct": result["correct"], "attempted": result["attempted"],
                                  "failed": result["failed"],
                                  **{k: v["value"] for k, v in result["metrics"].items()}}
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]}" for side in SIDES), file=sys.stderr)
            workloads[workload] = workload_record(pairs, details, spec)

    record = {
        "benchmark": (f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {args.seconds:g} --trace 0"),
        "parent_commit": base,
        "change_commit": head,
        "protocol": ("each side runs its own unchanged perfbench/run.py from a git clone outside "
                     "the repository; parent and change alternate which runs first in each pair"),
        "ratio_base": RATIO_BASE,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    bad = [w for w, r in workloads.items()
           if not r["all_correct"] or any(r["ops_failed"].values())]
    if bad:
        print(f"error: incorrect runs or failed ops in {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
