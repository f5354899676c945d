import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musearch.matrix import (
    Grouping,
    SymmetricMatrix,
    ZeroPattern,
    build_zero_pattern,
)
from musearch import search
from musearch.oracle import oracle_count
from musearch.search import (
    count_identity_submatrices,
    group_partners,
    select_candidates,
    select_maxima,
    verify_identity,
)

from conftest import permute_instance, random_instance


def all_ones_instance(n=6, k=2):
    pattern = build_zero_pattern(SymmetricMatrix(np.ones((n, n))))
    labels = [i % k for i in range(n)]
    return pattern, Grouping(labels, k)


def test_candidates_fig1(fig1):
    pattern, grouping = fig1
    cs = select_candidates(pattern, grouping, 2)
    assert set(cs.units(0)) == {1, 2}  # units 2, 3
    assert set(cs.units(1)) == {3, 5}  # units 4, 6
    assert set(cs.units(2)) == {7, 8}  # units 8, 9
    by_unit = {c.unit: c.cross_group_zeros for grp in cs.per_group for c in grp}
    assert by_unit == {1: 4, 2: 4, 3: 3, 5: 5, 7: 5, 8: 5}


def test_candidates_tennis(tennis):
    pattern, grouping = tennis
    cs = select_candidates(pattern, grouping, 3)
    assert cs.units(0)[:2] == (5, 6)  # units 6 and 7, three cross zeros each
    assert cs.units(1) == (7, 0, 1)  # unit 8 first with five cross zeros
    assert cs.per_group[1][0].cross_group_zeros == 5


def test_candidates_all_ones_empty():
    pattern, grouping = all_ones_instance()
    cs = select_candidates(pattern, grouping, 4)
    assert cs.per_group == ((), ())


def test_candidate_ordering_is_deterministic(fig1):
    pattern, grouping = fig1
    cs = select_candidates(pattern, grouping, 3)
    for grp in cs.per_group:
        keys = [(-c.cross_group_zeros, c.unit) for c in grp]
        assert keys == sorted(keys)


def test_m_bar_validation(fig1):
    pattern, grouping = fig1
    with pytest.raises(ValueError, match="m_bar"):
        select_candidates(pattern, grouping, 0)


def test_partners_fig1_candidate2(fig1):
    pattern, grouping = fig1
    pg = group_partners(pattern, grouping, 1)
    assert pg.members_by_group == {1: (3, 5), 2: (7, 8)}


def test_partners_fig1_candidate9(fig1):
    pattern, grouping = fig1
    pg = group_partners(pattern, grouping, 8)
    assert pg.members_by_group == {0: (0, 1, 2), 1: (3, 5)}


def test_partners_all_ones_empty():
    pattern, grouping = all_ones_instance()
    pg = group_partners(pattern, grouping, 0)
    assert pg.members_by_group == {1: ()}


def test_counts_fig1(fig1):
    pattern, grouping = fig1
    expected = {1: 3, 2: 3, 3: 2, 5: 6, 7: 3, 8: 5}
    for unit, count in expected.items():
        pg = group_partners(pattern, grouping, unit)
        assert count_identity_submatrices(pattern, grouping, pg) == count


def test_count_k2_equals_partner_size(tennis):
    pattern, grouping = tennis
    for unit in range(pattern.n):
        pg = group_partners(pattern, grouping, unit)
        (members,) = pg.members_by_group.values()
        assert count_identity_submatrices(pattern, grouping, pg) == len(members)


def test_select_maxima_fig1(fig1):
    pattern, grouping = fig1
    result = select_maxima(pattern, grouping, 2)
    assert result.maxima == (1, 5, 8)  # units 2, 6, 9
    assert result.identity_verified
    # group 1 ties at count 3; lowest index wins
    assert result.outcomes[0].examined == ((1, 3), (2, 3))
    assert result.outcomes[1].count == 6
    assert result.outcomes[2].count == 5


def test_select_maxima_tennis(tennis):
    pattern, grouping = tennis
    result = select_maxima(pattern, grouping, 3)
    assert result.maxima == (5, 7)  # units 6 and 8
    assert [o.count for o in result.outcomes] == [3, 5]
    assert result.identity_verified


def test_select_maxima_all_ones_not_found():
    pattern, grouping = all_ones_instance()
    result = select_maxima(pattern, grouping, 5)
    assert not result.all_found
    assert result.maxima is None
    assert all(not o.found and o.count == 0 for o in result.outcomes)


def test_verify_identity_fig1(fig1):
    pattern, grouping = fig1
    assert verify_identity(pattern, (1, 5, 8), grouping)
    assert not verify_identity(pattern, (1, 3, 7), grouping)  # C(4,8) = 1


def test_verify_identity_tennis(tennis):
    pattern, _ = tennis
    assert verify_identity(pattern, (5, 7))


def test_verify_identity_errors(fig1):
    pattern, grouping = fig1
    with pytest.raises(ValueError, match="duplicate"):
        verify_identity(pattern, (1, 1, 5))
    with pytest.raises(ValueError, match="share a group"):
        verify_identity(pattern, (0, 1, 5), grouping)


# -- randomized properties ---------------------------------------------------


@st.composite
def instances(draw, min_n=4, max_n=12, max_k=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    k = draw(st.integers(min_value=2, max_value=min(max_k, n)))
    # first k units pin one member per group, the rest are free
    tail = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = list(range(k)) + tail
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ij: ij[0] < ij[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    zero = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        zero[i, j] = zero[j, i] = True
    return ZeroPattern(zero), Grouping(labels, k)


@given(instances(), st.integers(1, 6))
@settings(max_examples=120)
def test_candidate_lists_nest_across_m_bar(inst, m_bar):
    pattern, grouping = inst
    small = select_candidates(pattern, grouping, m_bar)
    large = select_candidates(pattern, grouping, m_bar + 3)
    for g in range(grouping.k):
        assert large.per_group[g][:m_bar] == small.per_group[g]


@given(instances(), st.integers(1, 6))
@settings(max_examples=120)
def test_selected_count_non_decreasing_in_m_bar(inst, m_bar):
    pattern, grouping = inst
    small = select_maxima(pattern, grouping, m_bar)
    large = select_maxima(pattern, grouping, m_bar + 3)
    for g in range(grouping.k):
        assert large.outcomes[g].count >= small.outcomes[g].count


@given(instances())
@settings(max_examples=120)
def test_argmax_dominance(inst):
    pattern, grouping = inst
    result = select_maxima(pattern, grouping, 4)
    for o in result.outcomes:
        best = max((m for _, m in o.examined), default=0)
        assert o.count == best if o.found else best == 0


@given(instances())
@settings(max_examples=120)
def test_selected_tuple_soundness(inst):
    pattern, grouping = inst
    result = select_maxima(pattern, grouping, 3)
    if result.all_found and result.identity_verified:
        assert verify_identity(pattern, result.maxima, grouping)


@given(instances(min_n=5, max_n=10), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_search_permutation_equivariance(inst, rnd):
    # full candidate budget: a smaller m_bar can cut different units at a
    # cross-zero tie once indices are relabeled
    pattern, grouping = inst
    order = list(range(pattern.n))
    rnd.shuffle(order)
    moved_pattern, moved_grouping, position = permute_instance(
        pattern, grouping, order
    )
    budget = max(grouping.sizes)
    base = select_maxima(pattern, grouping, budget)
    moved = select_maxima(moved_pattern, moved_grouping, budget)
    for g in range(grouping.k):
        a, b = base.outcomes[g], moved.outcomes[g]
        assert a.count == b.count
        assert sorted(m for _, m in a.examined) == sorted(m for _, m in b.examined)
        if a.found:
            # the count tie-break follows unit indices, which the relabeling
            # reorders: the moved pick is some relabeled best unit, and the
            # exact image of the base pick whenever the best unit is unique
            best = {position[u] for u, m in a.examined if m == a.count}
            assert b.selected in best
            if len(best) == 1:
                assert b.selected == position[a.selected]


@st.composite
def dense_zero_instances(draw, k):
    # zero densities up to one, so that cliques through five partner sets
    # occur and the counts are not mostly zero
    n = draw(st.integers(min_value=k, max_value=3 * k))
    tail = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    density = draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    return ZeroPattern(upper | upper.T), Grouping(list(range(k)) + tail, k)


@pytest.mark.parametrize("k", range(2, 7))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_count_matches_oracle(k, data):
    # K - 1 partner sets: size (K=2), block sum (K=3), product (K=4) and
    # the recursion down to the product (K=5, 6)
    pattern, grouping = data.draw(dense_zero_instances(k))
    for unit in range(pattern.n):
        pg = group_partners(pattern, grouping, unit)
        assert count_identity_submatrices(pattern, grouping, pg) == oracle_count(
            pattern, grouping, unit
        )


def test_product_count_refuses_inexact_sizes(monkeypatch):
    pattern, grouping = random_instance(5, 40, 4, 0.2)
    pg = group_partners(pattern, grouping, 0)
    assert all(pg.members_by_group.values())
    monkeypatch.setattr(search, "_FLOAT_EXACT", 8)
    with pytest.raises(ValueError, match="too large for an exact count"):
        count_identity_submatrices(pattern, grouping, pg)
