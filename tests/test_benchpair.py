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


def ten_pairs(parent: list[float], change: list[float], name="round_s"):
    return [pair(i, {name: a}, {name: b}) for i, (a, b) in enumerate(zip(parent, change))]


def test_claim_needs_nine_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    # Nine wins and a median gap of 1.0 against an IQR of 0.45: a claim.
    m = benchpair.summarize(ten_pairs(parent, [p - 1.0 for p in parent[:9]] + [11.0]),
                            SPEC)["round_s"]
    assert m["change_wins"] == 9 and m["parent_iqr"] == pytest.approx(0.45)
    assert m["median_gap"] == pytest.approx(1.0)
    assert m["wins_9_of_10"] and m["gap_beyond_iqr"] and m["claim_met"]
    # Eight wins: no claim, whatever the gap.
    m = benchpair.summarize(ten_pairs(parent, [p - 1.0 for p in parent[:8]] + [11.0, 11.0]),
                            SPEC)["round_s"]
    assert m["change_wins"] == 8 and not m["wins_9_of_10"] and not m["claim_met"]
    # Ten wins by 0.1: the gap stays inside the parent's IQR.
    m = benchpair.summarize(ten_pairs(parent, [p - 0.1 for p in parent]), SPEC)["round_s"]
    assert m["change_wins"] == 10 and m["wins_9_of_10"]
    assert not m["gap_beyond_iqr"] and not m["claim_met"]
    # A loss beyond the IQR is beyond it too, but no claim.
    m = benchpair.summarize(ten_pairs(parent, [p + 1.0 for p in parent]), SPEC)["round_s"]
    assert m["gap_beyond_iqr"] and not m["claim_met"]


def test_sign_interval_on_ten_ratios():
    ratios = [0.80, 0.95, 0.70, 0.85, 0.90, 0.75, 1.05, 0.82, 0.88, 0.78]
    interval, confidence = benchpair.sign_interval(ratios)
    # Second smallest and second largest: 1 - 2 * (1 + 10) / 1024.
    assert interval == [0.75, 0.95]
    assert confidence == 1 - 22 / 1024


def test_sign_interval_on_five_ratios_is_the_range():
    # No interval of five reaches 95%: the widest covers 1 - 2 / 32.
    interval, confidence = benchpair.sign_interval([1.2, 0.9, 1.1, 1.0, 0.8])
    assert interval == [0.8, 1.2] and confidence == 0.9375


def test_summary_carries_the_ratio_interval():
    m = benchpair.summarize(PAIRS, SPEC)["round_s"]
    assert m["ratio_interval"] == [0.5, pytest.approx(7 / 6)]
    assert m["ratio_interval_confidence"] == 0.9375


def test_wide_parent_spread_is_unresolved():
    # round_s: parent IQR 2.0 around a median of 3.0, beyond the 0.25 bound;
    # peak_rss_mb: IQR 2.0 around 102.0, inside it.
    summary = benchpair.summarize(PAIRS, SPEC)
    assert summary["round_s"]["unresolved"]
    assert not summary["peak_rss_mb"]["unresolved"]
