"""Efficiency, max-min fair shares, and Jain fairness."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import water_fill_oracle
from ubrsim.metrics import (MetricError, efficiency, fairness, jain_index,
                            max_min_allocation)


def test_max_min_hand_examples():
    # two sources fit under an equal split, the third absorbs the rest
    assert max_min_allocation((2, 4, 20), 12) == [2, 4, 6]
    assert max_min_allocation((3, 20), 10) == [3, 7]
    # everyone under-demands: allocations equal demands
    assert max_min_allocation((1, 2, 3), 100) == [1, 2, 3]
    # nobody satisfiable: equal split
    assert max_min_allocation((9, 9, 9), 6) == [2, 2, 2]
    # zero-demand sources get nothing and do not dilute the shares
    assert max_min_allocation((0, 5, 0, 20), 10) == [0, 5, 0, 5]
    assert max_min_allocation((), 10) == []


def test_max_min_rejects_bad_input():
    with pytest.raises(MetricError):
        max_min_allocation((1, -2), 10)
    with pytest.raises(MetricError):
        max_min_allocation((1, 2), -1)


def test_max_min_matches_oracle_exhaustively():
    # every integer demand multiset with N <= 4 here (acceptance covers 6)
    capacities = (1, 3, 5, 7, 10, 15, 25, 60)
    for n in range(1, 5):
        for demands in itertools.combinations_with_replacement(range(11), n):
            for cap in capacities:
                got = max_min_allocation(demands, cap)
                want = water_fill_oracle(demands, cap)
                for g, w in zip(got, want):
                    assert g == pytest.approx(float(w), abs=1e-9), \
                        (demands, cap, got, want)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8),
       st.floats(min_value=0.1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_max_min_properties(demands, capacity):
    alloc = max_min_allocation(demands, capacity)
    assert all(0 <= a <= d + 1e-9 for a, d in zip(alloc, demands))
    assert sum(alloc) <= min(capacity, sum(demands)) + 1e-6


def test_efficiency_is_goodput_over_best_case():
    # 45 Mbps of cells carrying 1024-byte segments tops out at 37.8 Mbps
    assert efficiency([37.8009e6], 1024, 45e6) == pytest.approx(1.0, abs=1e-3)
    assert efficiency([10e6, 8.9e6], 1024, 45e6) == \
        pytest.approx(18.9e6 / 37.8009e6, abs=1e-4)
    assert efficiency([], 1024, 45e6) == 0.0


def test_jain_index_hand_values():
    assert jain_index([1, 1, 1]) == pytest.approx(1.0)
    assert jain_index([1, 1, 1, 0]) == pytest.approx(0.75)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0
    assert jain_index([0, 0]) == 1.0


def test_fairness_perfect_when_throughput_equals_share():
    demands = [5e6, 20e6, 1e6]
    alloc = max_min_allocation(demands, 37.8e6)
    assert fairness(alloc, demands, 1024, 45e6) == pytest.approx(1.0)


def test_fairness_excludes_idle_connections():
    # the idle connection neither earns nor costs fairness
    f = fairness([5e6, 0.0, 5e6], [10e6, 0.0, 10e6], 1024, 45e6)
    assert f == pytest.approx(1.0)


def test_fairness_refuses_a_run_with_no_offered_load():
    # with no fair share to measure against, Jain's index of nothing (1.0)
    # would read as perfect fairness
    with pytest.raises(MetricError, match="^no connection offered any load$"):
        fairness([0.0, 0.0], [0.0, 0.0], 1024, 45e6)


def test_fairness_refuses_a_run_that_delivered_nothing():
    # every connection has a share and a ratio of 0, and Jain's index of
    # all-zero ratios (1.0) would read as perfect fairness
    with pytest.raises(MetricError, match="^no connection received any data$"):
        fairness([0.0, 0.0], [5e6, 20e6], 1024, 45e6)


def test_fairness_detects_impossible_accounting():
    with pytest.raises(MetricError):
        fairness([1e6], [0.0], 1024, 45e6)
    with pytest.raises(MetricError):
        fairness([1e6, 2e6], [1e6], 1024, 45e6)


def test_fairness_scale_invariance():
    xs = [3e6, 9e6, 1e6, 14e6]
    ds = [4e6, 30e6, 1e6, 20e6]
    f1 = fairness(xs, ds, 1024, 45e6)
    f2 = fairness([x / 10 for x in xs], [d / 10 for d in ds], 1024, 4.5e6)
    assert f1 == pytest.approx(f2)


def test_fairness_penalizes_skew():
    ds = [50e6, 50e6]
    even = fairness([10e6, 10e6], ds, 1024, 45e6)
    skewed = fairness([19e6, 1e6], ds, 1024, 45e6)
    assert even == pytest.approx(1.0)
    assert skewed < 0.7
