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
from musearch import cli, matrix, search
from musearch.fixtures import extract
from musearch.oracle import OracleReport, oracle_count, oracle_maxima
from musearch.search import (
    Candidate,
    CandidateSet,
    GroupOutcome,
    PartnerGroups,
    PivotResult,
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


@pytest.mark.parametrize("k", range(2, 9))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_count_matches_oracle(k, data):
    # K - 1 partner sets: size (K=2), popcount (K=3), the frontier kernel
    # (K=4, 5) and one unit fixed before it (K=6 to 8)
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


# the frontier kernel as it runs, in one-row chunks and in two-row chunks,
# so that chunk boundaries and the row cap are crossed at every depth that
# extends a frontier
FRONTIER_CHUNKS = [{}, {"_FRONTIER_ROWS": 1}, {"_FRONTIER_ROWS": 2}]


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


@pytest.mark.parametrize("k", range(4, 9))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_frontier_chunks_match_oracle(k, data):
    pattern, grouping = data.draw(dense_zero_instances(k))
    expected = [oracle_count(pattern, grouping, unit) for unit in range(pattern.n)]
    for chunks in FRONTIER_CHUNKS:
        assert counts_with(pattern, grouping, chunks) == expected, chunks


@pytest.mark.parametrize("chunks", FRONTIER_CHUNKS)
def test_four_sets_without_zero_pairs_count_zero(chunks):
    # unit 0 is zero to every unit, and so is every pair but those across
    # two of its partner groups. At K = 5 they are the two smallest partner
    # sets (groups 1 and 2): the frontier empties at its first extension,
    # to pairs. At K = 7 the count fixes the unit of group 1 and hands the
    # other five sets to the kernel, smallest first, so that groups 2 and 3
    # make the pairs and groups 3 and 4 empty the second extension, to
    # triples.
    for labels, removed in (
        ([0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4], (1, 2)),
        ([0, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6], (3, 4)),
    ):
        grouping = Grouping(labels, max(labels) + 1)
        zero = np.ones((len(labels), len(labels)), dtype=bool)
        np.fill_diagonal(zero, False)
        zero[np.ix_(*(grouping.member_index(g) for g in removed))] = False
        pattern = ZeroPattern(zero & zero.T)
        assert oracle_count(pattern, grouping, 0) == 0
        assert counts_with(pattern, grouping, chunks)[0] == 0


def test_patterns_stay_below_the_float32_bound(fig1, tmp_path, capsys, monkeypatch):
    # a float32 product of the search sums at most one row per unit or per
    # frontier chunk row, so patterns are kept below the bound: fig1 has 9
    # units, refused by the library and the command line at a bound of 9
    pattern, _ = fig1
    matrix_path, groups_path = extract("fig1", tmp_path)
    argv = ["run", "--matrix", str(matrix_path), "--groups", str(groups_path)]
    message = "zero pattern must cover fewer than 9 units, got 9"
    monkeypatch.setattr(matrix, "_FLOAT32_EXACT", 9)
    with pytest.raises(ValueError, match=message):
        ZeroPattern(pattern.to_array())
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    monkeypatch.setattr(matrix, "_FLOAT32_EXACT", 10)
    assert ZeroPattern(pattern.to_array()).n == 9
    assert cli.main(argv) == 0


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


def group_instance(covered=(), missed=(), k=4):
    # k groups of 2, 3, 4, ... units. Unit 0 of group 0 is made zero to
    # every unit of the ``covered`` groups (an empty complement) and to none
    # of the ``missed`` ones (an empty partner set); the rest is random at
    # zero density 0.7
    labels = [0, 0] + [g for g in range(1, k) for _ in range(g + 2)]
    rng = np.random.default_rng(7)
    upper = np.triu(rng.random((len(labels), len(labels))) < 0.7, 1)
    zero = upper | upper.T
    grouping = Grouping(labels, k)
    for group, value in [(g, True) for g in covered] + [(g, False) for g in missed]:
        units = grouping.member_index(group)
        zero[0, units] = zero[units, 0] = value
    return ZeroPattern(zero), grouping


def countable(partners):
    # a candidate whose partner sets are all non-empty, one select_maxima
    # may put in a K = 4 batch
    return all(units.size for units in partners.members_by_group.values())


def count_with_tables(pattern, grouping, unit, batch=None):
    # in a batch of its own, or in ``batch`` with other units of its group
    own = grouping.label(unit)
    tables = search._GroupTables(pattern, grouping, own, {}, batch or [unit])
    partners = group_partners(pattern, grouping, unit)
    return count_identity_submatrices(pattern, grouping, partners, _tables=tables)


@pytest.mark.parametrize(
    "covered, missed",
    [((1, 2, 3), ()), ((2,), ()), ((1, 3), ()), ((), (2,)), ((1, 2), (3,)), ((), (1, 2, 3))],
)
def test_shared_tables_at_empty_sets(covered, missed):
    pattern, grouping = group_instance(covered, missed)
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
    pattern, grouping = group_instance(covered, missed)
    partners = group_partners(pattern, grouping, 1).members_by_group
    assert all(units.size for units in partners.values())
    for unit in (0, 1):
        expected = oracle_count(pattern, grouping, unit)
        assert count_with_tables(pattern, grouping, unit, [0, 1]) == expected


@pytest.mark.parametrize(
    "covered, missed",
    [((1, 2, 3), ()), ((2,), ()), ((1, 3), ()), ((), (2,)), ((1, 2), (3,)), ((), (1, 2, 3))],
)
def test_complement_triangles_go_through_the_frontier_kernel(monkeypatch, covered, missed):
    # group 0's units with no empty partner set, counted in one batch, as
    # select_maxima builds it: each hands the kernel, once and in batch
    # order, the members of groups 1, 2 and 3 outside its partner sets.
    # Unit 0 with ``missed`` is in no batch: it counts 0 and hands the
    # kernel nothing
    pattern, grouping = group_instance(covered, missed)
    calls = []
    count = search._count_cliques
    monkeypatch.setattr(
        search, "_count_cliques", lambda zp, sets: calls.append(sets) or count(zp, sets)
    )
    partners = [group_partners(pattern, grouping, unit) for unit in (0, 1)]
    batch = [p.candidate for p in partners if countable(p)]
    assert batch == ([1] if missed else [0, 1])
    tables = search._GroupTables(pattern, grouping, 0, {}, batch)
    expected = []
    for unit_partners in partners:
        members = unit_partners.members_by_group
        got = count_identity_submatrices(pattern, grouping, unit_partners, _tables=tables)
        if unit_partners.candidate in batch:
            expected.append(
                [np.setdiff1d(grouping.member_index(g), members[g]) for g in (1, 2, 3)]
            )
        else:
            assert (got, calls) == (0, [])
    assert len(calls) == len(expected) == len(batch)
    for sets, complements in zip(calls, expected):
        assert len(sets) == 3
        for got, want in zip(sets, complements):
            assert np.array_equal(got, want)


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


def refused(*args):
    raise AssertionError("a kernel ran")


@given(uneven_four_group_instances(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_complement_batches_match_oracle(inst, whole_groups):
    # a group's units with no empty partner set in one batch, as
    # select_maxima builds it, or each in a batch of its own; the others
    # count 0 with no kernel and no table count called
    pattern, grouping = inst
    for group in range(4):
        units = grouping.member_index(group).tolist()
        partners = [group_partners(pattern, grouping, unit) for unit in units]
        batch = [p for p in partners if countable(p)]
        for part in [batch] if whole_groups else [[p] for p in batch]:
            tables = search._GroupTables(pattern, grouping, group, {}, [p.candidate for p in part])
            for p in part:
                got = count_identity_submatrices(pattern, grouping, p, _tables=tables)
                assert got == oracle_count(pattern, grouping, p.candidate), (group, p.candidate)
            assert sorted(tables.counts) == [p.candidate for p in part]
        tables = search._GroupTables(pattern, grouping, group, {}, [p.candidate for p in batch])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_count_cliques", refused)
            patch.setattr(search._GroupTables, "count", refused)
            for p in partners:
                if p not in batch:
                    got = count_identity_submatrices(pattern, grouping, p, _tables=tables)
                    assert got == 0 == oracle_count(pattern, grouping, p.candidate)


@pytest.mark.parametrize("k, tables", [(2, None), (3, None), (4, True), (4, False), (5, None)])
def test_an_empty_partner_set_counts_zero_before_any_kernel(monkeypatch, k, tables):
    # unit 0 of group 0 has no zero partner in group k - 1: it counts 0
    # before either kernel or its group's tables are asked, and at K = 4,
    # with the tables forced on or off, it is in no batch
    pattern, grouping = group_instance(missed=(k - 1,), k=k)
    empty = group_partners(pattern, grouping, 0)
    assert not countable(empty)
    cliques, counted, batches = [], [], []
    count, build = search._count_cliques, search._GroupTables
    count_batch = build.count
    monkeypatch.setattr(
        search, "_count_cliques", lambda zp, sets: cliques.append(sets) or count(zp, sets)
    )
    monkeypatch.setattr(
        build, "count", lambda self, unit: counted.append(unit) or count_batch(self, unit)
    )
    monkeypatch.setattr(
        search, "_GroupTables", lambda *args: batches.append(args[4]) or build(*args)
    )
    if tables is not None:
        monkeypatch.setattr(search, "_tables_pay", lambda *sizes: tables)
    own_tables = build(pattern, grouping, 0, {}, []) if k == 4 else None
    assert count_identity_submatrices(pattern, grouping, empty, _tables=own_tables) == 0
    assert (cliques, counted) == ([], [])
    result = select_maxima(pattern, grouping, max(grouping.sizes))
    examined = [pair for outcome in result.outcomes for pair in outcome.examined]
    # at K = 2 a unit with no partner has no cross-group zero: no candidate
    assert ((0, 0) in examined) == (k > 2)
    assert examined == [(unit, oracle_count(pattern, grouping, unit)) for unit, _ in examined]
    # one kernel call for each countable candidate, in or out of a batch
    units = [unit for unit, _ in examined if countable(group_partners(pattern, grouping, unit))]
    assert len(cliques) == len(units)
    assert 0 not in counted
    assert sorted(sum(batches, [])) == (sorted(units) if tables else [])


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


def test_inexact_tables_give_way_to_the_direct_form(monkeypatch):
    # at m_bar 20 the tables pay for all four groups; group 0 alone has the
    # largest number of triples across its three other groups, the largest
    # complement sum. With the float64 bound at that number its tables
    # would be inexact, and the direct form counts its candidates instead.
    pattern, grouping = random_instance(1, 60, 4, 0.2)
    triples = [math.prod(grouping.sizes) // size for size in grouping.sizes]
    assert triples.index(max(triples)) == 0 and triples.count(max(triples)) == 1
    built = []
    build = search._GroupTables
    monkeypatch.setattr(
        search, "_GroupTables", lambda *args: built.append(args[2]) or build(*args)
    )
    for bound, groups in ((max(triples) + 1, [0, 1, 2, 3]), (max(triples), [1, 2, 3])):
        built.clear()
        monkeypatch.setattr(search, "_FLOAT64_EXACT", bound)
        result = select_maxima(pattern, grouping, 20)
        assert built == groups
        examined = [pair for outcome in result.outcomes for pair in outcome.examined]
        assert len(examined) == pattern.n
        assert examined == [(unit, oracle_count(pattern, grouping, unit)) for unit, _ in examined]


# -- the K group sums agree at full budget ------------------------------------


def full_budget_group_sums(pattern, grouping, tables):
    # each group's counts summed over every unit (a unit that is no
    # candidate has no cross-group zero and counts 0): the identity tuples,
    # each found once through each group's own counts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_tables_pay", lambda *sizes: tables)
        result = select_maxima(pattern, grouping, max(grouping.sizes))
    return [sum(count for _, count in outcome.examined) for outcome in result.outcomes]


@given(
    n=st.integers(12, 150),
    k=st.integers(3, 6),
    p=st.sampled_from([0.05, 0.2, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_group_sums_agree_at_full_budget(n, k, p, seed):
    # the tables forced on and off (they count only at K = 4); the oracle
    # checks the common sum where it is quick
    pattern, grouping = random_instance(seed, n, k, p)
    sums = {tables: full_budget_group_sums(pattern, grouping, tables) for tables in (True, False)}
    assert sums[True] == sums[False] == [sums[True][0]] * k, sums
    if math.prod(grouping.sizes) <= 20000:
        assert sums[True][0] == oracle_maxima(pattern, grouping).total


def test_group_sums_agree_past_the_oracle_limit():
    pattern, grouping = random_instance(5, 480, 4, 0.2)
    with pytest.raises(ValueError, match="too large for the oracle"):
        oracle_maxima(pattern, grouping)
    for tables in (True, False):
        sums = full_budget_group_sums(pattern, grouping, tables)
        assert sums == [sums[0]] * 4 and sums[0] > 0, tables


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


def test_a_record_never_equals_a_value_of_another_type():
    outcome = GroupOutcome(0, None, 0, ())
    assert not outcome == (0, None, 0, ())
    assert outcome != (0, None, 0, ())
    assert outcome == GroupOutcome(0, None, 0, ())


def record_fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize(
    "record_type",
    [Candidate, CandidateSet, PartnerGroups, GroupOutcome, PivotResult, OracleReport],
    ids=lambda t: t.__name__,
)
def test_records_are_built_by_position_or_by_field_name(record_type):
    names = record_type.__slots__
    values = tuple(range(10, 10 + len(names)))
    by_position = record_type(*values)
    by_name = record_type(**dict(zip(reversed(names), reversed(values))))
    mixed = record_type(values[0], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_name, mixed):
        assert record_fields(record) == values
    if record_type is not PartnerGroups:  # which compares by identity
        assert by_position == by_name == mixed
        assert hash(by_position) == hash(by_name) == hash(mixed)
    wrong = [
        (values[:-1], {}),  # the last field missing
        ((), dict(zip(names[1:], values[1:]))),  # the first field missing
        (values + (0,), {}),  # a value too many
        (values, {"extra": 0}),  # an unknown field besides every field
        (values[:-1], {"extra": 0}),  # an unknown field in place of the last
        (values, {names[-1]: 0}),  # the last field twice
        (values[:-1], {names[0]: 0}),  # the first field twice, the last missing
    ]
    for given, named in wrong:
        with pytest.raises(TypeError, match=record_type.__name__):
            record_type(*given, **named)
