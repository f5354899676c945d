import math

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
from musearch import matrix, search
from musearch.oracle import oracle_count
from musearch.search import (
    count_identity_submatrices,
    group_partners,
    select_candidates,
    select_maxima,
    verify_identity,
)

from conftest import WORD_EDGES, candidate_units, permute_instance, random_instance


def all_ones_instance(n=6, k=2):
    pattern = build_zero_pattern(SymmetricMatrix(np.ones((n, n))))
    labels = [i % k for i in range(n)]
    return pattern, Grouping(labels, k)


def test_candidates_fig1(fig1):
    pattern, grouping = fig1
    cs = select_candidates(pattern, grouping, 2)
    assert set(candidate_units(cs, 0)) == {1, 2}  # units 2, 3
    assert set(candidate_units(cs, 1)) == {3, 5}  # units 4, 6
    assert set(candidate_units(cs, 2)) == {7, 8}  # units 8, 9
    by_unit = {c.unit: c.cross_group_zeros for grp in cs.per_group for c in grp}
    assert by_unit == {1: 4, 2: 4, 3: 3, 5: 5, 7: 5, 8: 5}


def test_candidates_tennis(tennis):
    pattern, grouping = tennis
    cs = select_candidates(pattern, grouping, 3)
    assert candidate_units(cs, 0)[:2] == (5, 6)  # units 6 and 7, three cross zeros each
    assert candidate_units(cs, 1) == (7, 0, 1)  # unit 8 first with five cross zeros
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


def partner_lists(pg):
    """The partner sets of ``pg`` as lists, after checking that each is a
    read-only intp index array."""
    for units in pg.members_by_group.values():
        assert units.dtype == np.intp and units.ndim == 1
        assert not units.flags.writeable
    return {group: units.tolist() for group, units in pg.members_by_group.items()}


def test_partners_fig1_candidate2(fig1):
    pattern, grouping = fig1
    pg = group_partners(pattern, grouping, 1)
    assert partner_lists(pg) == {1: [3, 5], 2: [7, 8]}


def test_partners_fig1_candidate9(fig1):
    pattern, grouping = fig1
    pg = group_partners(pattern, grouping, 8)
    assert partner_lists(pg) == {0: [0, 1, 2], 1: [3, 5]}


def test_partners_all_ones_empty():
    pattern, grouping = all_ones_instance()
    pg = group_partners(pattern, grouping, 0)
    assert partner_lists(pg) == {1: []}


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
    density = draw(st.sampled_from([0.2, 0.3, 0.5, 0.8, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    return ZeroPattern(upper | upper.T), Grouping(list(range(k)) + tail, k)


@pytest.mark.parametrize("k", range(2, 8))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_count_matches_oracle(k, data):
    # K - 1 partner sets: size (K=2), block sum (K=3), product (K=4), four
    # sets (K=5) and the recursion down to them (K=6, 7)
    pattern, grouping = data.draw(dense_zero_instances(k))
    for unit in range(pattern.n):
        pg = group_partners(pattern, grouping, unit)
        assert count_identity_submatrices(pattern, grouping, pg) == oracle_count(
            pattern, grouping, unit
        )


# -- popcounts over bit-packed zero rows --------------------------------------

@st.composite
def word_edge_instances(draw):
    # three groups, or two at n = 2 (n = 1 cannot hold two groups). Unit 1
    # is zero to no unit of the last group, so that partner set is empty,
    # and unit 0 is zero to every unit.
    n = draw(st.sampled_from([n for n in WORD_EDGES if n >= 2]))
    k = min(3, n)
    tail = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    grouping = Grouping(list(range(k)) + tail, k)
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    zero = upper | upper.T
    last = grouping.member_index(k - 1)
    zero[1, last] = zero[last, 1] = False
    zero[0, 1:] = zero[1:, 0] = True
    return ZeroPattern(zero), grouping


@given(word_edge_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_two_set_counts_match_oracle_across_word_boundaries(inst, data):
    pattern, grouping = inst
    drawn = data.draw(st.lists(st.integers(0, pattern.n - 1), max_size=6))
    for unit in sorted({0, 1, *drawn}):
        pg = group_partners(pattern, grouping, unit)
        assert count_identity_submatrices(pattern, grouping, pg) == oracle_count(
            pattern, grouping, unit
        )


@given(word_edge_instances())
@settings(max_examples=60, deadline=None)
def test_candidate_zeros_match_plain_definition(inst):
    # with the full budget every unit with a cross-group zero is a
    # candidate, so every unit left out must have none
    pattern, grouping = inst
    cs = select_candidates(pattern, grouping, max(grouping.sizes))
    chosen = {c.unit: c.cross_group_zeros for grp in cs.per_group for c in grp}
    for unit in range(pattern.n):
        own = grouping.label(unit)
        cross = sum(grouping.label(p) != own for p in pattern.partners(unit))
        assert chosen.get(unit, 0) == cross


def test_search_packs_the_zero_rows_once(monkeypatch):
    # the rows are packed when the pattern is built, and the search packs
    # none; the K = 4 case builds the shared tables (see the rule test
    # below), and K = 6 fixes units in turn
    packed = []
    pack = matrix._pack_rows
    monkeypatch.setattr(matrix, "_pack_rows", lambda zero: packed.append(zero.shape) or pack(zero))
    for seed, k, m_bar in ((3, 3, 5), (11, 4, 20), (3, 6, 2)):
        packed.clear()
        pattern, grouping = random_instance(seed, 200, k, 0.2)
        result = select_maxima(pattern, grouping, m_bar)
        assert sum(len(o.examined) for o in result.outcomes) == k * m_bar
        assert packed == [(200, 200)]


# the four-set pair product as it runs, in one-row chunks and in two-row
# chunks, so that chunk boundaries and the row cap are crossed
FOUR_SET_CHUNKS = [{}, {"_FRONTIER_CELLS": 1}, {"_FLOAT32_EXACT": 3}]


def counts_with(pattern, grouping, chunks):
    with pytest.MonkeyPatch.context() as patch:
        for name, value in chunks.items():
            patch.setattr(search, name, value)
        return [
            count_identity_submatrices(
                pattern, grouping, group_partners(pattern, grouping, unit)
            )
            for unit in range(pattern.n)
        ]


@pytest.mark.parametrize("k", range(5, 8))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_four_set_chunks_match_oracle(k, data):
    pattern, grouping = data.draw(dense_zero_instances(k))
    expected = [oracle_count(pattern, grouping, unit) for unit in range(pattern.n)]
    for chunks in FOUR_SET_CHUNKS:
        assert counts_with(pattern, grouping, chunks) == expected, chunks


@pytest.mark.parametrize("chunks", FOUR_SET_CHUNKS)
def test_four_sets_without_zero_pairs_count_zero(chunks):
    # unit 0 is zero to every unit, and so is every pair but those across
    # the two smallest partner sets (groups 1 and 2): no pair product row
    labels = [0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4]
    zero = np.ones((len(labels), len(labels)), dtype=bool)
    np.fill_diagonal(zero, False)
    zero[1:3, 3:5] = zero[3:5, 1:3] = False
    pattern, grouping = ZeroPattern(zero), Grouping(labels, 5)
    assert oracle_count(pattern, grouping, 0) == 0
    assert counts_with(pattern, grouping, chunks)[0] == 0


def test_product_count_refuses_inexact_sizes(monkeypatch):
    pattern, grouping = random_instance(5, 40, 4, 0.2)
    pg = group_partners(pattern, grouping, 0)
    assert all(units.size for units in pg.members_by_group.values())
    # every set, the middle one of the product included, reaches the bound
    smallest = min(len(units) for units in pg.members_by_group.values())
    monkeypatch.setattr(search, "_FLOAT32_EXACT", smallest)
    with pytest.raises(ValueError, match="too large for an exact count"):
        count_identity_submatrices(pattern, grouping, pg)


# -- K = 4 counts through complements, against tables shared by a group ------


def examined_with_tables(pattern, grouping, m_bar, tables):
    # the table rule forced to build (True) or never build (False) tables
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_tables_pay", lambda *sizes: tables)
        result = select_maxima(pattern, grouping, m_bar)
    return [pair for outcome in result.outcomes for pair in outcome.examined]


@given(data=st.data(), full_budget=st.booleans())
@settings(max_examples=80, deadline=None)
def test_shared_tables_match_oracle(data, full_budget):
    pattern, grouping = data.draw(dense_zero_instances(4))
    m_bar = max(grouping.sizes) if full_budget else data.draw(st.integers(1, 2))
    for tables in (True, False):
        examined = examined_with_tables(pattern, grouping, m_bar, tables)
        expected = [(unit, oracle_count(pattern, grouping, unit)) for unit, _ in examined]
        assert examined == expected, tables


def test_select_maxima_shares_tables_by_the_rule(monkeypatch):
    # groups of about 50 with partner sets of about 40: tables pay for 20
    # candidates a group, never for one
    pattern, grouping = random_instance(11, 200, 4, 0.2)
    passed = []
    count = search.count_identity_submatrices

    def recorded(*args, _tables=None):
        passed.append(_tables is not None)
        return count(*args, _tables=_tables)

    monkeypatch.setattr(search, "count_identity_submatrices", recorded)
    for m_bar, shared in ((20, True), (1, False)):
        passed.clear()
        result = select_maxima(pattern, grouping, m_bar)
        assert passed == [shared] * sum(len(o.examined) for o in result.outcomes)
        assert len(passed) == 4 * m_bar


def four_group_instance(covered=(), missed=()):
    # unit 0 of group 0 is made zero to every unit of the ``covered`` groups
    # (an empty complement) and to none of the ``missed`` ones (an empty
    # partner set); the rest is random at zero density 0.7
    labels = [0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    rng = np.random.default_rng(7)
    upper = np.triu(rng.random((len(labels), len(labels))) < 0.7, 1)
    zero = upper | upper.T
    grouping = Grouping(labels, 4)
    for group, value in [(g, True) for g in covered] + [(g, False) for g in missed]:
        units = grouping.member_index(group)
        zero[0, units] = zero[units, 0] = value
    return ZeroPattern(zero), grouping


def count_with_tables(pattern, grouping, unit, batch=None):
    # in a batch of its own, or in ``batch`` with other units of its group
    own = grouping.label(unit)
    tables = search._shared_tables(pattern, grouping, own, {}, batch or [unit])
    partners = group_partners(pattern, grouping, unit)
    return count_identity_submatrices(pattern, grouping, partners, _tables=tables)


@pytest.mark.parametrize(
    "covered, missed",
    [((1, 2, 3), ()), ((2,), ()), ((1, 3), ()), ((), (2,)), ((1, 2), (3,)), ((), (1, 2, 3))],
)
def test_shared_tables_at_empty_sets(covered, missed):
    pattern, grouping = four_group_instance(covered, missed)
    expected = oracle_count(pattern, grouping, 0)
    assert (expected == 0) == bool(missed)
    assert count_with_tables(pattern, grouping, 0) == expected


@pytest.mark.parametrize(
    "covered, missed",
    [((1, 2, 3), ()), ((2,), ()), ((1, 3), ()), ((), (2,)), ((1, 2), (3,)), ((), (1, 2, 3))],
)
def test_shared_tables_at_empty_sets_in_a_batch(covered, missed):
    # the whole of group 0, units 0 and 1, is counted in one batch; unit 1
    # has partners in every group, so with ``missed`` the batch holds an
    # empty partner set beside one that is not
    pattern, grouping = four_group_instance(covered, missed)
    partners = group_partners(pattern, grouping, 1).members_by_group
    assert all(units.size for units in partners.values())
    for unit in (0, 1):
        expected = oracle_count(pattern, grouping, unit)
        assert count_with_tables(pattern, grouping, unit, [0, 1]) == expected


@st.composite
def uneven_four_group_instances(draw):
    # each unit draws its own zero density and a pair is zero below the
    # smaller of its two, so that complement sizes differ within a group
    n = draw(st.integers(min_value=8, max_value=40))
    tail = draw(st.lists(st.integers(0, 3), min_size=n - 4, max_size=n - 4))
    densities = draw(
        st.lists(st.sampled_from([0.2, 0.5, 0.8, 0.95, 1.0]), min_size=n, max_size=n)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = np.array(densities)
    upper = np.triu(rng.random((n, n)) < np.minimum.outer(density, density), 1)
    return ZeroPattern(upper | upper.T), Grouping(list(range(4)) + tail, 4)


@given(uneven_four_group_instances(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_complement_batches_match_oracle(inst, whole_groups):
    # every unit of a group in one batch, or each unit in a batch of its own
    pattern, grouping = inst
    for group in range(4):
        units = grouping.member_index(group).tolist()
        batches = [units] if whole_groups else [[unit] for unit in units]
        for batch in batches:
            tables = search._shared_tables(pattern, grouping, group, {}, batch)
            for unit in batch:
                partners = group_partners(pattern, grouping, unit)
                got = count_identity_submatrices(pattern, grouping, partners, _tables=tables)
                assert got == oracle_count(pattern, grouping, unit), (group, unit)
            assert sorted(tables.counts) == sorted(batch)


def test_search_builds_each_group_block_once(monkeypatch):
    # the tables pay for all four groups here (see the rule test above), and
    # together they use the six blocks of the four groups
    pattern, grouping = random_instance(11, 200, 4, 0.2)
    built = []
    build = search._group_block

    def recorded(zero, grouping, x, y):
        built.append((x, y))
        return build(zero, grouping, x, y)

    monkeypatch.setattr(search, "_group_block", recorded)
    for _ in range(2):
        built.clear()
        select_maxima(pattern, grouping, 20)
        assert sorted(built) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_shared_tables_refuse_inexact_complement_sums(monkeypatch):
    pattern, grouping = random_instance(5, 40, 4, 0.2)
    # the triples of the three other groups of group 0 are the largest
    # complement sum; the bound at that number refuses, one above it counts
    triples = math.prod(grouping.sizes[1:])
    assert triples == max(math.prod(grouping.sizes) // size for size in grouping.sizes)
    monkeypatch.setattr(search, "_FLOAT64_EXACT", triples + 1)
    expected = examined_with_tables(pattern, grouping, 2, False)
    assert examined_with_tables(pattern, grouping, 2, True) == expected
    monkeypatch.setattr(search, "_FLOAT64_EXACT", triples)
    with pytest.raises(ValueError, match="too large for an exact count"):
        examined_with_tables(pattern, grouping, 2, True)


def test_shared_tables_refuse_inexact_group_sizes(monkeypatch):
    pattern, grouping = random_instance(5, 40, 4, 0.2)
    # below the largest group, every partner set stays exact
    monkeypatch.setattr(search, "_FLOAT32_EXACT", max(grouping.sizes))
    assert examined_with_tables(pattern, grouping, 2, False)
    with pytest.raises(ValueError, match="too large for an exact count"):
        examined_with_tables(pattern, grouping, 2, True)


def test_result_types_are_immutable_values(fig1):
    pattern, grouping = fig1
    result = select_maxima(pattern, grouping, 2)
    partners = group_partners(pattern, grouping, 1)
    values = [
        result,
        result.outcomes[0],
        result.candidates,
        result.candidates.per_group[0][0],
        partners,
    ]
    for value in values:
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert select_maxima(pattern, grouping, 2) == result
    assert result.outcomes[0] != result.outcomes[1]
    assert repr(result.outcomes[0]) == (
        "GroupOutcome(group=0, selected=1, count=3, examined=((1, 3), (2, 3)))"
    )
    assert repr(partners) == (
        "PartnerGroups(candidate=1, members_by_group={1: array([3, 5]), 2: array([7, 8])})"
    )
    assert hash(result.candidates) == hash(select_candidates(pattern, grouping, 2))
    # partner sets are arrays, which have no truth value: identity decides
    # == and hash, so neither raises
    again = group_partners(pattern, grouping, 1)
    assert partners == partners and partners != again
    assert hash(partners) == hash(partners) and {partners, again} == {again, partners}
