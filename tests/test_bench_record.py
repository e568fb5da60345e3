"""The verdict that ``tools/bench_record.py`` writes per workload and metric."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))

from bench_record import summarize  # noqa: E402

#: ten parent runs with quartiles 0.9875 and 1.0125 (statistics.quantiles), IQR 0.025
PARENT = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]


def test_a_gain_wins_nine_of_ten_pairs_by_more_than_the_parent_iqr():
    change = [p - 0.05 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    got = summarize(PARENT, change, "lower", 0.25)
    assert got["parent_iqr"] == pytest.approx(0.025)
    assert (got["change_better"], got["pairs"]) == (9, 10)
    assert got["parent_median"] == 1.0 and got["change_median"] == pytest.approx(0.95)
    assert got["verdict"] == "gain"


def test_nine_wins_smaller_than_the_parent_iqr_are_no_gain():
    change = [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    got = summarize(PARENT, change, "lower", 0.25)
    assert got["change_better"] == 9
    assert 1.0 - got["change_median"] < got["parent_iqr"]
    assert got["verdict"] == "within bound"


def test_eight_wins_are_no_gain():
    change = [p - 0.05 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    got = summarize(PARENT, change, "lower", 0.25)
    assert got["change_better"] == 8 and got["verdict"] == "within bound"


def test_ties_count_for_neither_side():
    got = summarize(PARENT, list(PARENT), "lower", 0.25)
    assert got["change_better"] == 0 and got["verdict"] == "within bound"


def test_a_change_worse_by_more_than_the_bound():
    change = [1.3 * p for p in PARENT]
    assert summarize(PARENT, change, "lower", 0.25)["verdict"] == "worse than bound"
    assert summarize(PARENT, [1.2 * p for p in PARENT], "lower", 0.25)["verdict"] == "within bound"


def test_higher_is_better_reverses_every_comparison():
    change = [p + 0.05 for p in PARENT[:9]] + [PARENT[9] - 0.01]
    got = summarize(PARENT, change, "higher", 0.25)
    assert got["change_better"] == 9 and got["verdict"] == "gain"
    assert summarize(PARENT, [0.7 * p for p in PARENT], "higher", 0.25)["verdict"] == (
        "worse than bound"
    )


def test_a_spread_wider_than_the_bound_is_unresolved():
    # against the parent IQR of 2.5 % of its median, a 5 % bound is resolved, 1 % is not
    change = [p + 0.005 for p in PARENT]
    assert summarize(PARENT, change, "lower", 0.05)["verdict"] == "within bound"
    assert summarize(PARENT, change, "lower", 0.01)["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the
    # parent: here the parent's IQR is 0.5, all of its runs read 1.0 or more
    wide = [1.0] * 7 + [1.5] * 3
    got = summarize(wide, [0.99] * 10, "lower", 0.25)
    assert got["parent_iqr"] == 0.5 and got["change_better"] == 10
    assert got["verdict"] == "within bound"
    assert summarize(wide, [1.0] * 9 + [0.99], "lower", 0.25)["verdict"] == "unresolved"
