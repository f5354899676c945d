import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musearch.matrix import Grouping, SymmetricMatrix, ZeroPattern, build_zero_pattern
from musearch.oracle import oracle_count, oracle_maxima
from musearch.search import select_maxima, verify_identity

from test_search import instances


def test_oracle_count_fig1(fig1):
    pattern, grouping = fig1
    assert oracle_count(pattern, grouping, 5) == 6  # unit 6
    assert oracle_count(pattern, grouping, 6) == 0  # unit 7


def test_oracle_count_all_ones():
    pattern = build_zero_pattern(SymmetricMatrix(np.ones((6, 6))))
    grouping = Grouping([0, 0, 1, 1, 2, 2], 3)
    for unit in range(6):
        assert oracle_count(pattern, grouping, unit) == 0


def test_oracle_maxima_tennis(tennis):
    pattern, grouping = tennis
    report = oracle_maxima(pattern, grouping)
    assert report.argmax_by_group[0] == (5, 6)  # units 6, 7
    assert report.max_by_group[0] == 3
    assert report.argmax_by_group[1] == (7,)  # unit 8
    assert report.max_by_group[1] == 5


def test_oracle_maxima_fig1(fig1):
    pattern, grouping = fig1
    report = oracle_maxima(pattern, grouping)
    assert report.argmax_by_group[0] == (1, 2)
    assert report.max_by_group[0] == 3
    assert report.argmax_by_group[1] == (5,)
    assert report.max_by_group[1] == 6
    assert report.argmax_by_group[2] == (8,)
    assert report.max_by_group[2] == 5


def test_oracle_maxima_empty_pattern():
    pattern = build_zero_pattern(SymmetricMatrix(np.ones((5, 5))))
    grouping = Grouping([0, 0, 0, 1, 1], 2)
    report = oracle_maxima(pattern, grouping)
    assert report.max_by_group == (0, 0)
    assert report.argmax_by_group == ((), ())
    assert report.total == 0


def test_oracle_size_guard():
    # 101^4 tuple tests just exceed the 1e8 limit; the guard trips before
    # any enumeration happens
    n, k = 404, 4
    pattern = build_zero_pattern(SymmetricMatrix(np.ones((n, n))))
    grouping = Grouping([i % k for i in range(n)], k)
    with pytest.raises(ValueError, match="too large"):
        oracle_maxima(pattern, grouping)


def test_oracle_count_size_guard(monkeypatch):
    pattern = build_zero_pattern(SymmetricMatrix(np.eye(8)))
    grouping = Grouping([i % 2 for i in range(8)], 2)
    monkeypatch.setattr("musearch.oracle.TUPLE_TEST_LIMIT", 3)
    with pytest.raises(ValueError, match="too large"):
        oracle_count(pattern, grouping, 0)


def test_oracle_total_matches_counts(fig1):
    pattern, grouping = fig1
    report = oracle_maxima(pattern, grouping)
    for unit in range(pattern.n):
        assert report.counts[unit] == oracle_count(pattern, grouping, unit)
    # each identity tuple holds one unit of every group
    groups = [grouping.member_index(g).tolist() for g in range(grouping.k)]
    for members in groups:
        assert report.total == sum(report.counts[u] for u in members)
    tuples = [t for t in itertools.product(*groups) if verify_identity(pattern, t, grouping)]
    assert report.total == len(tuples) > 0


def test_oracle_total_is_exact_past_ten_thousand():
    # every cross-group pair is zero: all 30^3 tuples are identity tuples,
    # where the report once kept 10 000 and flagged the rest
    labels = [u % 3 for u in range(90)]
    zero = np.not_equal.outer(labels, labels)
    report = oracle_maxima(ZeroPattern(zero), Grouping(labels, 3))
    assert report.total == 30**3
    assert set(report.counts) == {30**2}


@given(instances(min_n=4, max_n=10))
@settings(max_examples=100, deadline=None)
def test_search_agrees_with_oracle_at_full_budget(inst):
    pattern, grouping = inst
    report = oracle_maxima(pattern, grouping)
    result = select_maxima(pattern, grouping, max(grouping.sizes))
    for g in range(grouping.k):
        outcome = result.outcomes[g]
        if outcome.found:
            assert outcome.selected in report.argmax_by_group[g]
            assert outcome.count == report.max_by_group[g]
        else:
            assert report.max_by_group[g] == 0
        for unit, count in outcome.examined:
            assert count == report.counts[unit]
