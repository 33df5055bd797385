"""The summary of tools/benchpair.py on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)

SPEC = [
    {"name": "round_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
    {"name": "throughput", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def pair(seed, parent, change):
    run = {"correct": True, "attempted": 10, "failed": 0}
    return {"seed": seed, "first": "parent" if seed % 2 else "change",
            "parent": {**run, **parent}, "change": {**run, **change}}


PAIRS = [
    pair(1, {"round_s": 1.0, "peak_rss_mb": 100.0, "throughput": 5.0, "setup_s": None},
         {"round_s": 0.8, "peak_rss_mb": 100.0, "throughput": 6.0, "setup_s": 0.1}),
    pair(2, {"round_s": 2.0, "peak_rss_mb": 101.0, "throughput": 5.0, "setup_s": 0.2},
         {"round_s": 1.5, "peak_rss_mb": 140.0, "throughput": 4.0, "setup_s": 0.1}),
    pair(3, {"round_s": 3.0, "peak_rss_mb": 102.0, "throughput": 5.0, "setup_s": 0.2},
         {"round_s": 3.5, "peak_rss_mb": 140.0, "throughput": 7.0, "setup_s": 0.1}),
    pair(4, {"round_s": 4.0, "peak_rss_mb": 103.0, "throughput": 5.0, "setup_s": 0.2},
         {"round_s": 2.0, "peak_rss_mb": 140.0, "throughput": 5.0, "setup_s": 0.1}),
    pair(5, {"round_s": 5.0, "peak_rss_mb": 104.0, "throughput": 5.0, "setup_s": 0.2},
         {"round_s": 4.0, "peak_rss_mb": 140.0, "throughput": 8.0, "setup_s": 0.1}),
]


def test_lower_is_better_metric():
    m = benchpair.summarize(PAIRS, SPEC)["round_s"]
    # inclusive quartiles of 1..5 are 2, 3, 4; of 0.8, 1.5, 2, 3.5, 4: 1.5, 2, 3.5
    assert m["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert m["change"] == {"q1": 1.5, "median": 2.0, "q3": 3.5}
    assert m["ratio"] == pytest.approx(2.0 / 3.0)
    assert m["base"] == 3.0
    assert (m["change_wins"], m["change_losses"], m["pairs"]) == (4, 1, 5)
    assert m["parent_iqr"] == 2.0
    assert m["median_gap"] == 1.0
    assert m["within_bound"]


def test_worse_metric_is_out_of_bound_and_ties_count_for_neither():
    m = benchpair.summarize(PAIRS, SPEC)["peak_rss_mb"]
    assert m["ratio"] == pytest.approx(140.0 / 102.0)
    assert (m["change_wins"], m["change_losses"]) == (0, 4)  # pair 1 ties
    assert m["median_gap"] == -38.0
    assert not m["within_bound"]


def test_higher_is_better_metric():
    m = benchpair.summarize(PAIRS, SPEC)["throughput"]
    assert m["ratio"] == pytest.approx(6.0 / 5.0)
    assert (m["change_wins"], m["change_losses"]) == (3, 1)
    assert m["median_gap"] == 1.0
    assert m["parent_iqr"] == 0.0
    assert m["within_bound"]


def test_metric_missing_from_a_run_is_left_out():
    assert "setup_s" not in benchpair.summarize(PAIRS, SPEC)


def test_workload_record_totals():
    details = {"parent": [{"encode_mwps": 1.0, "rounds": 3, "setup_runs_s": [0.1]},
                          {"encode_mwps": 3.0, "rounds": 5, "setup_runs_s": [0.2]}],
               "change": [{"encode_mwps": 2.0, "rounds": 4}, {"encode_mwps": 4.0, "rounds": 6}]}
    pairs = PAIRS[:4] + [pair(5, {**PAIRS[4]["parent"], "failed": 2, "correct": False},
                              PAIRS[4]["change"])]
    record = benchpair.workload_record(pairs, details, SPEC)
    assert record["figures_median"] == {"parent": {"encode_mwps": 2.0, "rounds": 4},
                                        "change": {"encode_mwps": 3.0, "rounds": 5}}
    assert record["ops_failed"] == {"parent": 2, "change": 0}
    assert record["ops_attempted"] == {"parent": 50, "change": 50}
    assert not record["all_correct"]
    assert record["pairs"] is pairs
