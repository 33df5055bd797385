"""hypc benchmark: four workloads, each output checked apart from the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-chain --seed 1 --seconds 20 --trace 0

Workloads: cli-chain, codec-sweep, serve-infer, perc-estimate (see README.md).
With --trace 0 the last stdout line holds the end-to-end metrics of the named
workload; with --trace 1 it holds the per-layer metrics, gathered by wrapping
hypc's public functions while every workload runs. The line before it holds
the workload's detailed figures. Both lines are also written to
perfbench/out/. Exits 2, printing no result, when hypc's sources are absent.
"""

import os
import sys

# Set before numpy loads; subprocesses inherit them.
PINNED_ENV = {
    # One BLAS thread: the pipeline's decoder thread and the compute thread
    # then fill the two cores.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # No transparent huge pages for numpy arrays: whether a large array gets
    # them depends on the host's free memory. With them, serve-infer rounds
    # spread over 0.19-0.25 s from run to run; without, over 0.29-0.30 s.
    "NUMPY_MADVISE_HUGEPAGE": "0",
    # Set and dict order shape the heap's layout: without a fixed hash seed,
    # one seed's codec-sweep peak RSS read 323 MB in one run, 336 in another.
    "PYTHONHASHSEED": "0",
}
# The interpreter reads its hash seed at start-up, so the script restarts
# itself once with these set.
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])
os.environ.update(PINNED_ENV)

import argparse
import json
import math
import shutil
import statistics
import struct
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import reference as ref
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_ROUNDS = 3
TRACE_MIN_ROUNDS = 2
CSV_ROWS = 256
SERVE_INPUTS = 3  # distinct requests per batch size, used in turn
# Finite-size tolerance of the kernel-2 estimate around the square lattice's
# exact 1/2; README.md gives the measurements behind it.
K2_TOLERANCE = 0.025


def median(values):
    return statistics.median(values)


def add_samples(samples: dict, values: dict) -> None:
    """Append each measured value to its metric's samples; None means not seen."""
    for name, value in values.items():
        if value is not None:
            samples.setdefault(name, []).append(value)


def medians(samples: dict) -> dict:
    """Median of each metric's samples; a metric never seen stays absent."""
    return {name: median(values) for name, values in samples.items()}


def own_peak_rss_mb() -> float:
    """This process's peak RSS. ru_maxrss would also count the memory of the
    process that started the benchmark, which VmHWM does not."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Op:
    """One timed operation: its name, wall seconds and how it ended."""

    def __init__(self, name: str, seconds: float, status: str, detail=None, result=None):
        self.name = name
        self.seconds = seconds
        self.status = status  # "ok", "wrong" (a check failed) or "error"
        self.detail = detail or {}
        self.result = result


def timed(name, call, check) -> Op:
    """Run call(), time it, then check its result outside the timed part."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the op failed; record it and go on
        return Op(name, time.perf_counter() - start, "error", {"error": repr(exc)})
    seconds = time.perf_counter() - start
    return Op(name, seconds, "ok" if check(result) else "wrong", result=result)


class Workload:
    """Set up once, then run whole rounds of the same ops; see the subclasses."""

    def __init__(self, seed, work, tracer=None):
        self.seed = seed
        self.work = Path(work)
        self.tracer = tracer

    def peak_rss(self, rounds) -> float:
        return own_peak_rss_mb()

    def close(self):
        pass


# --- cli-chain ---------------------------------------------------------------


class CliChain(Workload):
    """compress -> decompress -> eval -> infer --pipeline, one subprocess at a time."""

    name = "cli-chain"

    def __init__(self, seed, work, tracer=None):
        super().__init__(seed, work, tracer)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.model_path = self.work / "model.ntb"
        self.hcmp_path = self.work / "model.hcmp"
        self.restored_path = self.work / "restored.ntb"
        self.csv_path = self.work / "data.csv"

    def setup(self):
        self.tensors = ref.make_model(self.seed)
        self.model_path.write_bytes(ref.dump_ntb(self.tensors))
        self.inputs = ref.make_inputs(self.seed, 0, CSV_ROWS)
        logits = ref.forward(ref.as_layers(self.tensors), self.inputs)
        self.labels = np.argmax(logits, axis=1)
        ref.write_csv(self.csv_path, self.inputs, self.labels)
        self.bounds = [ref.error_bound(data, 225, 3, 0.1) for _, _, data in self.tensors]

    def _cli(self, argv, spans_path):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "hypc.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), "--", *argv]
        request = {"cmd": cmd, "cwd": str(self.work), "env": self.env}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def close(self):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def _op(self, name, argv, check) -> Op:
        spans_path = self.work / f"spans-{name}.json"
        spans_path.unlink(missing_ok=True)
        reply = self._cli(argv, spans_path)
        seconds, code, out = reply["seconds"], reply["code"], reply["output"]
        detail = {"rss_mb": reply["maxrss_kb"] / 1024.0, "stdout": out}
        if self.tracer is not None and spans_path.exists():
            detail["spans"] = json.loads(spans_path.read_text())
        if code != 0:
            return Op(name, seconds, "error", detail)
        try:
            payload = json.loads(out.strip().splitlines()[-1])
            ok = check(payload)
        except (ValueError, IndexError, KeyError, TypeError, OSError, struct.error):
            ok = False  # missing or malformed output
        return Op(name, seconds, "ok" if ok else "wrong", detail)

    def round(self):
        m, h, r, d = (str(p) for p in (self.model_path, self.hcmp_path,
                                       self.restored_path, self.csv_path))
        self.restored = None
        return [
            self._op("compress", ["compress", "--input", m, "--output", h], self.check_compress),
            self._op("decompress", ["decompress", "--input", h, "--output", r],
                     self.check_decompress),
            self._op("eval", ["eval", "--original", m, "--restored", r], self.check_eval),
            self._op("infer", ["infer", "--model", h, "--data", d, "--pipeline"],
                     self.check_infer),
        ]

    def check_compress(self, payload) -> bool:
        return (payload["output_bytes"] == self.hcmp_path.stat().st_size
                and payload["input_bytes"] == self.model_path.stat().st_size
                and payload["layers"] == len(self.tensors))

    def check_decompress(self, payload) -> bool:
        restored = ref.load_ntb(self.restored_path.read_bytes())
        if [(n, s) for n, s, _ in restored] != [(n, s) for n, s, _ in self.tensors]:
            return False
        if not all(ref.within_bound(orig, got, bound, float32_output=True)
                   for (_, _, orig), (_, _, got), bound
                   in zip(self.tensors, restored, self.bounds)):
            return False
        self.restored = restored
        return payload["layers"] == len(self.tensors)

    def check_eval(self, payload) -> bool:
        if self.restored is None:
            return False
        orig = np.concatenate([t for _, _, t in self.tensors]).astype(np.float64)
        got = np.concatenate([t for _, _, t in self.restored]).astype(np.float64)
        return payload["max_abs"] == float(np.abs(orig - got).max())

    def check_infer(self, payload) -> bool:
        if self.restored is None:
            return False
        logits = ref.forward(ref.as_layers(self.restored), self.inputs)
        return payload["accuracy"] == float(np.mean(np.argmax(logits, axis=1) == self.labels))

    def figures(self, rounds) -> dict:
        out = {f"{name}_s": median(op.seconds for r in rounds for op in r if op.name == name)
               for name in ("compress", "decompress", "eval", "infer")}
        out["hcmp_bytes"] = self.hcmp_path.stat().st_size
        return out

    def peak_rss(self, rounds) -> float:
        return median(max(op.detail["rss_mb"] for op in r) for r in rounds)

    def layer_metrics(self, rounds, windows) -> dict:
        samples = {}
        for r in rounds:
            spans = [sp for op in r for sp in op.detail.get("spans", [])]
            for name in ("container.read_ntb", "container.write_hcmp", "container.read_hcmp",
                         "container.write_ntb", "analysis.error_stats"):
                found = [sp["end"] - sp["start"] for sp in spans if sp["name"] == name]
                add_samples(samples, {f"{name}_ms": 1e3 * sum(found) if found else None})
            add_samples(samples, {f"cli.{op.name}_rss_mb": op.detail["rss_mb"]
                                  for op in r if op.name != "eval"})
        out = medians(samples)
        probe = [sys.executable, "-c",
                 "import sys, hypc.cli; "
                 "print(sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"]
        times, counts = [], []
        for _ in range(3):
            start = time.perf_counter()
            done = subprocess.run(probe, capture_output=True, env=self.env, check=True)
            times.append(time.perf_counter() - start)
            counts.append(int(done.stdout))
        out["cli.import_s"] = median(times)
        out["cli.scipy_modules"] = counts[-1]
        return out


# --- codec-sweep -------------------------------------------------------------

# (U, M, l): bit widths 10, 12, 14 and 20 over the reference model.
SWEEP = ((225, 3, 0.1), (361, 8, 0.01), (4096, 3, 0.1), (65536, 15, 0.1))


class CodecSweep(Workload):
    """encode_layer then decode_layer over every tensor, at four settings per op."""

    name = "codec-sweep"

    def setup(self):
        from hypc.codec import EncodeParams

        self.tensors = ref.make_model(self.seed)
        self.weights = sum(t.size for _, _, t in self.tensors)
        self.settings = [
            (EncodeParams(box_side=l, num_points=u, max_category=m),
             [ref.error_bound(data, u, m, l) for _, _, data in self.tensors])
            for u, m, l in SWEEP
        ]

    def round(self):
        from hypc.codec import decode_layer, encode_layer

        encode_s = decode_s = 0.0
        ok = True
        self.encoded_default = None
        try:
            for params, bounds in self.settings:
                start = time.perf_counter()
                encoded = [encode_layer(data, name, shape, params)
                           for name, shape, data in self.tensors]
                mid = time.perf_counter()
                restored = [decode_layer(enc) for enc in encoded]
                end = time.perf_counter()
                encode_s += mid - start
                decode_s += end - mid
                if self.encoded_default is None:
                    self.encoded_default = encoded
                ok = ok and self.check(restored, bounds)
        except Exception as exc:  # the op failed; record it and go on
            return [Op("sweep", encode_s + decode_s, "error", {"error": repr(exc)})]
        return [Op("sweep", encode_s + decode_s, "ok" if ok else "wrong",
                   {"encode_s": encode_s, "decode_s": decode_s})]

    def check(self, restored, bounds) -> bool:
        return all(ref.within_bound(data, got, bound, float32_output=False)
                   for (_, _, data), got, bound in zip(self.tensors, restored, bounds))

    def figures(self, rounds) -> dict:
        ops = [r[0] for r in rounds if r[0].status == "ok"]
        if not ops:
            return {}
        mid = sorted(ops, key=lambda op: op.seconds)[(len(ops) - 1) // 2]
        swept = len(SWEEP) * self.weights / 1e6
        return {"encode_mwps": swept / mid.detail["encode_s"],
                "decode_mwps": swept / mid.detail["decode_s"]}

    def layer_metrics(self, rounds, windows) -> dict:
        spans = self.tracer.spans
        spent = [sp["end"] - sp["start"] for sp in spans]
        own = self_times(spans)
        samples = {}
        for lo, hi in windows:
            inside = [i for i, sp in enumerate(spans) if lo <= sp["start"] and sp["end"] <= hi]

            def ms(name, times=spent):
                found = [times[i] for i in inside if spans[i]["name"] == name]
                return 1e3 * sum(found) if found else None

            nearest = "codebook.Codebook.nearest_many"
            lookups = sum(int(spans[i]["tag"]) for i in inside if spans[i]["name"] == nearest)
            add_samples(samples, {
                "codebook.build_ms": ms("codebook.build_codebook"),
                "codebook.nearest_ns": 1e6 * ms(nearest) / lookups if lookups else None,
                "codebook.lookups": lookups or None,
                "codec.pair_ms": ms("codec.group_pairs"),
                "codec.plan_ms": ms("codec.encode_layer", own),
                "codec.pack_ms": ms("codec.pack_bits"),
                "codec.unpack_ms": ms("codec.unpack_bits"),
                "codec.rescale_ms": ms("codec.decode_layer", own),
            })
            for i in inside:
                kind = {"codec.encode_layer": "encode",
                        "codec.decode_layer": "decode"}.get(spans[i]["name"])
                tensor, _, num_points = spans[i]["tag"].partition(":")
                if kind and num_points == "225":
                    add_samples(samples, {f"codec.{kind}_ms.{tensor}": 1e3 * spent[i]})
        out = medians(samples)
        enc = self.encoded_default
        out["codec.bits_per_weight"] = (8 * sum(len(e.payload) for e in enc)
                                        / sum(e.element_count for e in enc))
        # One more round with tracemalloc on around pack_bits and unpack_bits.
        first = len(spans)
        self.tracer.memory_mode = True
        try:
            self.round()
        finally:
            self.tracer.memory_mode = False
        for key, name in (("codec.pack_peak_mb", "codec.pack_bits"),
                          ("codec.unpack_peak_mb", "codec.unpack_bits")):
            peaks = [s["peak_bytes"] for s in spans[first:]
                     if s["name"] == name and "peak_bytes" in s]
            if peaks:
                out[key] = max(peaks) / 2**20
        return out


# --- serve-infer -------------------------------------------------------------

BATCHES = (1, 2048)


class ServeInfer(Workload):
    """Closed loop, one client: pipelined_forward at batch 1, then at batch 2048."""

    name = "serve-infer"

    def __init__(self, seed, work, tracer=None):
        super().__init__(seed, work, tracer)
        self.turn = 0

    def setup(self):
        from hypc.codec import decode_layer, encode_layer
        from hypc.container import CompressedModel

        tensors = ref.make_model(self.seed)
        self.model = CompressedModel([encode_layer(data, name, shape)
                                      for name, shape, data in tensors])
        decoded = []
        for (name, shape, data), enc in zip(tensors, self.model.layers):
            got = decode_layer(enc)
            if not ref.within_bound(data, got, ref.error_bound(data, 225, 3, 0.1),
                                    float32_output=False):
                raise RuntimeError(f"decoded {name} breaks its error bound")
            decoded.append((name, shape, got.astype(np.float32)))
        layers = ref.as_layers(decoded)
        self.requests = {
            b: [(x, ref.forward(layers, x))
                for x in (ref.make_inputs(self.seed, 1 + k + SERVE_INPUTS * i, b)
                          for k in range(SERVE_INPUTS))]
            for i, b in enumerate(BATCHES)
        }

    @staticmethod
    def same_bits(out, expected) -> bool:
        out = np.asarray(out)
        return (out.dtype == np.float32 and out.shape == expected.shape
                and np.array_equal(out.view(np.uint32), expected.view(np.uint32)))

    def round(self):
        from hypc.inference import mlp_forward, model_to_network, pipelined_forward

        ops = []
        for b in BATCHES:
            x, expected = self.requests[b][self.turn % SERVE_INPUTS]
            if self.tracer is None:
                ops.append(timed(f"b{b}", lambda: pipelined_forward(self.model, x),
                                 lambda out: self.same_bits(out, expected)))
                continue
            op = timed(f"b{b}", lambda: pipelined_forward(self.model, x, with_trace=True),
                       lambda res: self.same_bits(res[0], expected))
            if op.status != "error":
                op.detail.update(pipeline_breakdown(op.result[1]))
            start = time.perf_counter()
            seq = mlp_forward(model_to_network(self.model), x)
            op.detail["sequential"] = time.perf_counter() - start
            if op.status == "ok" and not self.same_bits(seq, expected):
                op.status = "wrong"
            ops.append(op)
        self.turn += 1
        return ops

    def figures(self, rounds) -> dict:
        out = {}
        for b in BATCHES:
            times = sorted(1e3 * op.seconds for r in rounds for op in r if op.name == f"b{b}")
            out[f"infer_b{b}_ms"] = median(times)
            out[f"infer_b{b}_samples"] = len(times)
            # p90 only when at least ten samples lie beyond it.
            if len(times) >= 100:
                out[f"infer_b{b}_p90_ms"] = statistics.quantiles(times, n=10)[-1]
        return out

    def layer_metrics(self, rounds, windows) -> dict:
        spans = self.tracer.spans
        cached = [sp["tag"] for lo, hi in windows for sp in spans
                  if lo <= sp["start"] and sp["end"] <= hi
                  and sp["name"] == "codebook.cached_codebook"]
        samples = {}
        add_samples(samples, {"codebook.cache_hit_ratio":
                              cached.count("hit") / len(cached) if cached else None})
        for r in rounds:
            for op in r:
                add_samples(samples, {f"inference.{key}_ms.{op.name}": 1e3 * op.detail[key]
                                      for key in ("decode", "compute", "wait", "overlap",
                                                  "sequential") if key in op.detail})
        return medians(samples)


def pipeline_breakdown(trace) -> dict:
    """Decode and compute busy time, waiting, and their overlap, in seconds."""
    decode = [s for s in trace.decode_spans if s]
    compute = [s for s in trace.compute_spans if s]
    overlap = sum(max(0.0, min(d1, c1) - max(d0, c0))
                  for d0, d1 in decode for c0, c1 in compute)
    busy = sum(c1 - c0 for c0, c1 in compute)
    return {"decode": sum(d1 - d0 for d0, d1 in decode), "compute": busy,
            "wait": trace.wall - busy, "overlap": overlap}


# --- perc-estimate -----------------------------------------------------------

PERC_SIZE = 100
PERC_TRIALS = 100
# (kernel, p) pairs near each threshold, twelve trials each, for the
# union-find cross-check of percolation_trial.
PERC_SAMPLE = ((2, 0.485), (3, 0.31))
PERC_SAMPLE_TRIALS = 12


class PercEstimate(Workload):
    """estimate_threshold for kernels 2 and 3 at 100 x 100, 100 trials."""

    name = "perc-estimate"

    def setup(self):
        from hypc.percolation import percolation_trial

        self.p0 = ref.comparison_root()
        self.sample_agrees = self.sample_check(percolation_trial)

    def sample_check(self, trial) -> bool:
        """Does `trial` agree with the benchmark's union-find on the sample?"""
        from hypc.percolation import LatticeSpec

        agree = True
        for kernel, p in PERC_SAMPLE:
            for t in range(PERC_SAMPLE_TRIALS):
                s = ref.trial_seed(self.seed, t)
                mine = ref.crosses(kernel, PERC_SIZE, PERC_SIZE, p, s)
                agree = agree and mine == trial(LatticeSpec(kernel, PERC_SIZE, PERC_SIZE, p, s))
        return agree

    def check(self, kernel, est) -> bool:
        if not self.sample_agrees or est.kernel != kernel or est.trials != PERC_TRIALS:
            return False
        if kernel == 2:
            return abs(est.p_hat - 0.5) <= K2_TOLERANCE
        return 1.0 / (2 * kernel - 1) <= est.p_hat <= self.p0 + 0.005

    def round(self):
        from hypc.percolation import estimate_threshold

        ops = []
        for kernel in (2, 3):
            op = timed(f"k{kernel}",
                       lambda: estimate_threshold(kernel, PERC_SIZE, PERC_SIZE,
                                                  PERC_TRIALS, seed=self.seed),
                       lambda est: self.check(kernel, est))
            ops.append(op)
        return ops

    def figures(self, rounds) -> dict:
        out = {f"estimate_k{k}_s": median(op.seconds for r in rounds for op in r
                                          if op.name == f"k{k}") for k in (2, 3)}
        out["estimate_s"] = median(sum(op.seconds for op in r) for r in rounds)
        return out

    def layer_metrics(self, rounds, windows) -> dict:
        samples = {}
        for lo, hi in windows:
            inside = [sp for sp in self.tracer.spans if lo <= sp["start"] and sp["end"] <= hi]
            trials = [sp for sp in inside if sp["name"] == "percolation.percolation_trial"]
            estimates = sum(sp["name"] == "percolation.estimate_threshold" for sp in inside)
            for k in (2, 3):
                times = [sp["end"] - sp["start"] for sp in trials if sp["tag"] == str(k)]
                add_samples(samples, {f"percolation.trial_ms.k{k}":
                                      1e3 * sum(times) / len(times) if times else None})
            add_samples(samples, {"percolation.trial_calls":
                                  len(trials) / estimates if estimates else None})
        return medians(samples)


WORKLOADS = {w.name: w for w in (CliChain, CodecSweep, ServeInfer, PercEstimate)}


# --- running a workload -----------------------------------------------------


def run_rounds(workload, seconds, min_rounds, tracer=None):
    """One discarded warm-up round, then whole rounds until `seconds` pass.

    Returns the rounds and, when tracing, each round's (start, end) window.
    """
    workload.round()
    rounds, windows = [], []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        start = time.perf_counter()
        if tracer is None:
            rounds.append(workload.round())
        else:
            with tracer.span("bench.round", workload.name):
                rounds.append(workload.round())
        windows.append((start, time.perf_counter()))
    return rounds, windows


def tally(rounds) -> tuple[bool, int, int]:
    ops = [op for r in rounds for op in r]
    return (all(op.status != "wrong" for op in ops), len(ops),
            sum(op.status != "ok" for op in ops))


def untraced(name, seed, seconds, work):
    setup_s = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            # A fresh workload per set-up, so no two set-ups' data coexist.
            workload = WORKLOADS[name](seed, work)
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        rounds, _ = run_rounds(workload, seconds, MIN_ROUNDS)
        rss = workload.peak_rss(rounds)
    finally:
        if workload is not None:
            workload.close()
    correct, attempted, failed = tally(rounds)
    metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": rss,
        "round_s": median(sum(op.seconds for op in r) for r in rounds),
    }
    figures = dict(workload.figures(rounds), rounds=len(rounds), setup_runs_s=setup_s)
    return correct, attempted, failed, metrics, figures


def traced(name, seed, seconds, work):
    """Run every workload traced, the named one first, a quarter of the time each.

    Each per-layer metric belongs to one workload; running them all makes
    every per-layer metric present in every traced run.
    """
    import hypc.cli  # noqa: F401  (loads every hypc module before wrapping)

    tracer = Tracer()
    tracer.install()
    order = [name] + [n for n in WORKLOADS if n != name]
    correct, attempted, failed = True, 0, 0
    metrics, figures = {}, {}
    try:
        for n in order:
            workload = WORKLOADS[n](seed, work, tracer)
            try:
                workload.setup()
                rounds, windows = run_rounds(workload, seconds / len(order),
                                             TRACE_MIN_ROUNDS, tracer)
                metrics.update(workload.layer_metrics(rounds, windows))
            finally:
                workload.close()
            ok, att, fail = tally(rounds)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            figures[n] = {"traced_round_s": median(sum(op.seconds for op in r)
                                                   for r in rounds),
                          "rounds": len(rounds)}
    finally:
        tracer.uninstall()
    return correct, attempted, failed, metrics, figures, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypc" / "__init__.py").is_file():
        print(f"error: hypc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            correct, attempted, failed, values, figures, tracer = traced(
                args.workload, args.seed, args.seconds, work)
            tracer.dump(OUT / f"{stem}-spans.json")
        else:
            correct, attempted, failed, values, figures = untraced(
                args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric, unit in units.items():
        value = values.get(metric)
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            metrics[metric] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[metric] = {"value": value, "unit": unit}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "figures": figures}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    lines = [json.dumps(detail), json.dumps(result)]
    (OUT / f"{stem}.json").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
