"""The verdicts of ``tools/bench_pairs.py``, on fixed numbers (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [100.0, 104.0, 96.0, 101.0, 99.0, 102.0, 98.0, 100.0, 103.0, 97.0]


def test_a_clear_gain_needs_nine_wins_and_a_gap_past_the_spread():
    change = [p * 1.2 for p in PARENT]
    s = summarize(PARENT, change, "higher", 0.25)
    assert s["wins"] == "10/10"
    assert s["verdict"] == "gain"
    assert s["parent"]["median"] == 100.0
    assert s["parent"]["q1"] == pytest.approx(97.75)
    assert s["parent"]["q3"] == pytest.approx(102.25)
    assert s["ratio"] == pytest.approx(1.2)
    # eight wins out of ten is not enough, however large the gap
    losing = change[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert summarize(PARENT, losing, "higher", 0.25)["verdict"] != "gain"


def test_a_gap_inside_the_parents_spread_is_no_gain():
    change = [p + 1.0 for p in PARENT]  # wins every pair, by less than q3 - q1
    s = summarize(PARENT, change, "higher", 0.25)
    assert s["wins"] == "10/10"
    assert s["verdict"] == "within bound"


def test_lower_is_better_and_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] = 90.0
    s = summarize(PARENT, change, "lower", 0.25)
    assert s["wins"] == "1/10"
    assert s["verdict"] == "within bound"
    s = summarize(PARENT, [p * 0.5 for p in PARENT], "lower", 0.25)
    assert s["verdict"] == "gain"


def test_worse_beyond_the_bound_and_unresolved_when_the_spread_is_wider():
    s = summarize(PARENT, [p * 1.1 for p in PARENT], "lower", 0.05)
    assert s["verdict"] == "worse"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 100.0, 70.0, 130.0, 90.0, 110.0]
    s = summarize(noisy, [v * 0.98 for v in noisy], "higher", 0.25)
    assert s["verdict"] == "unresolved"
    # unless every run of the change reads better than every parent run
    parent = [1.0] * 5 + [10.0] * 5
    s = summarize(parent, [10.5] * 10, "higher", 0.1)
    assert (s["wins"], s["verdict"]) == ("10/10", "within bound")


def test_needs_ten_pairs():
    # five wins out of five would pass the 9/10 share: too few pairs
    with pytest.raises(ValueError):
        summarize(PARENT[:5], [p * 1.2 for p in PARENT[:5]], "higher", 0.25)
    with pytest.raises(ValueError):
        summarize(PARENT, PARENT[:9], "higher", 0.25)


def _runs(change_failed, change_correct=True):
    metrics = [{"name": "prices_per_s", "better": "higher", "bound": 0.25}]
    runs = [
        {"parent": {"correct": True, "attempted": 1000, "failed": 1,
                    "metrics": {"prices_per_s": p}},
         "change": {"correct": change_correct, "attempted": 1000, "failed": change_failed,
                    "metrics": {"prices_per_s": 1.2 * p}}}
        for p in PARENT
    ]
    return bench_pairs.summarize_runs(runs, metrics)


def test_a_gain_is_void_when_the_change_fails_more_or_is_not_correct():
    assert _runs(change_failed=1)["prices_per_s"]["verdict"] == "gain"
    assert _runs(change_failed=0)["prices_per_s"]["verdict"] == "gain"
    assert _runs(change_failed=2)["prices_per_s"]["verdict"] == "gain void"
    assert _runs(change_failed=1, change_correct=False)["prices_per_s"]["verdict"] == "gain void"


def test_seeds_where_the_change_failed_a_larger_share_are_named():
    def run(seed, parent, change):
        return {"seed": seed,
                "parent": {"failed": parent[0], "attempted": parent[1]},
                "change": {"failed": change[0], "attempted": change[1]}}

    runs = [
        run(1, (1, 1000), (1, 1000)),
        run(2, (1, 1000), (3, 1200)),  # a larger share: named
        run(3, (1, 1000), (2, 2000)),  # more failures, the same share: not named
        run(4, (0, 1000), (1, 1400)),
        run(5, (2, 1000), (0, 1000)),
    ]
    assert bench_pairs.more_failures(runs) == [
        {"seed": 2, "parent": {"failed": 1, "attempted": 1000},
         "change": {"failed": 3, "attempted": 1200}},
        {"seed": 4, "parent": {"failed": 0, "attempted": 1000},
         "change": {"failed": 1, "attempted": 1400}},
    ]
    assert bench_pairs.more_failures(runs[:1]) == []
