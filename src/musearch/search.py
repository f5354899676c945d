"""Maxima units search: pick one pivotal unit per group.

The search runs in three steps. For every group, take the units with the
most zeros toward the other groups (the candidate maxima, at most
``m_bar`` per group). For each candidate, count the distinct k-by-k
identity submatrices it participates in, built from one unit per other
group drawn among the candidate's cross-group zero partners; a submatrix
counts only if *all* off-diagonal pairs are zero, including pairs that do
not involve the candidate. Finally each group selects the candidate with
the largest count, ties going to the lowest unit index.

A count is the number of cliques with one vertex per partner set in the
zero graph, counted exactly: matrix products run in float32 only where
every entry stays below 2^24, and are summed in int64. Two sets take one
popcount over the zero pattern's bit-packed rows, three one product. Four
take one product over the zero pairs of the two smallest sets; more than
four fix each unit of the smallest set in turn, down to four.

Three sets (K = 4) may instead be counted through their complements in
the full other groups, by inclusion-exclusion against triangle tables
that the candidates of one group share, all of the group's candidates in
one batch. ``select_maxima`` builds those tables for a group only when
they take fewer multiply-adds than the candidates' own products, from
group-pair blocks that it builds once per search.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .matrix import Grouping, ZeroPattern, _Record, check_consistent

__all__ = [
    "Candidate",
    "CandidateSet",
    "PartnerGroups",
    "GroupOutcome",
    "PivotResult",
    "select_candidates",
    "group_partners",
    "count_identity_submatrices",
    "select_maxima",
    "verify_identity",
]


class Candidate(_Record):
    __slots__ = ("unit", "cross_group_zeros")

    def __init__(self, unit: int, cross_group_zeros: int) -> None:
        self._init(unit, cross_group_zeros)


class CandidateSet(_Record):
    """Per group, up to ``m_bar`` candidates ordered by cross-group zero
    count descending, ties by ascending unit index. Units with no
    cross-group zeros are excluded: they cannot appear in any identity
    submatrix."""

    __slots__ = ("m_bar", "per_group")

    def __init__(self, m_bar: int, per_group: tuple[tuple[Candidate, ...], ...]) -> None:
        self._init(m_bar, per_group)


class PartnerGroups(_Record):
    """Cross-group zero partners of one candidate, split by group.

    ``members_by_group`` maps every group label other than the
    candidate's own to the ascending units of that group that have a zero
    against the candidate, as a read-only index array (possibly empty).
    Arrays have no single truth value, so two of these compare equal only
    when they are the same object.
    """

    __slots__ = ("candidate", "members_by_group")

    def __init__(self, candidate: int, members_by_group: dict[int, np.ndarray]) -> None:
        self._init(candidate, members_by_group)

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class GroupOutcome(_Record):
    __slots__ = ("group", "selected", "count", "examined")

    def __init__(
        self,
        group: int,
        selected: int | None,
        count: int,
        examined: tuple[tuple[int, int], ...],  # (unit, count) in candidate order
    ) -> None:
        self._init(group, selected, count, examined)

    @property
    def found(self) -> bool:
        return self.selected is not None


class PivotResult(_Record):
    __slots__ = ("outcomes", "maxima", "identity_verified", "candidates")

    def __init__(
        self,
        outcomes: tuple[GroupOutcome, ...],
        maxima: tuple[int, ...] | None,
        identity_verified: bool,
        candidates: CandidateSet,
    ) -> None:
        self._init(outcomes, maxima, identity_verified, candidates)

    @property
    def all_found(self) -> bool:
        return self.maxima is not None


def select_candidates(
    zero_pattern: ZeroPattern, grouping: Grouping, m_bar: int
) -> CandidateSet:
    """Step one: the top ``m_bar`` units of each group by cross-group zeros.

    Groups may yield fewer than ``m_bar`` candidates, or none at all.
    """
    check_consistent(zero_pattern, grouping)
    if m_bar < 1:
        raise ValueError(f"m_bar must be >= 1, got {m_bar}")
    packed = zero_pattern._packed_rows()
    zeros = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    per_group = []
    for group in range(grouping.k):
        units = grouping.member_index(group)
        own = packed[units] & zero_pattern._packed_mask(units)
        cross = zeros[units] - np.bitwise_count(own).sum(axis=1, dtype=np.int64)
        keep = cross > 0
        units, cross = units[keep], cross[keep]
        order = np.lexsort((units, -cross))[:m_bar]
        per_group.append(
            tuple(
                Candidate(u, c)
                for u, c in zip(units[order].tolist(), cross[order].tolist())
            )
        )
    return CandidateSet(m_bar=m_bar, per_group=tuple(per_group))


def group_partners(
    zero_pattern: ZeroPattern, grouping: Grouping, candidate: int
) -> PartnerGroups:
    """Step two, part one: the candidate's zero partners in every other group."""
    check_consistent(zero_pattern, grouping)
    own_label = grouping.label(candidate)
    zeros = zero_pattern.array[candidate]
    members = {}
    for group in range(grouping.k):
        if group == own_label:
            continue
        units = grouping.member_index(group)
        partners = units[zeros[units]]
        partners.setflags(write=False)
        members[group] = partners
    return PartnerGroups(candidate=candidate, members_by_group=members)


# float32 holds every integer below this exactly, and an entry of a
# product of 0/1 matrices is at most their inner dimension: |B| for
# Z[A,B] @ Z[B,C], the rows of a chunk for the pair product, a full group
# for the shared K = 4 tables. The int64 sums are at most the number of
# cliques, far below 2^63 for any zero matrix that fits in memory.
_FLOAT32_EXACT = 2**24
# float64 holds every integer below this exactly. The complement terms of
# a K = 4 group are float64 sums of table entries, each partial sum at
# most |G_A||G_B||G_C|, the number of triples across the full groups.
_FLOAT64_EXACT = 2**53
# Mask cells (rows times |C| + |D|) per chunk of the pair product, so that
# its temporaries stay near 5 MB. On sets of 100 to 400 units, 2^20 was
# faster than 2^18, 2^19 or 2^21: smaller chunks pay more calls per row,
# larger ones fall out of cache.
_FRONTIER_CELLS = 2**20


def count_identity_submatrices(
    zero_pattern: ZeroPattern,
    grouping: Grouping,
    partners: PartnerGroups,
    *,
    _tables: _GroupTables | None = None,
) -> int:
    """Step two, part two: exact identity-submatrix count for one candidate.

    Counts tuples of one unit per other group, drawn from ``partners``,
    such that every pair among them is zero (pairs with the candidate are
    zero already, by construction of the partner sets). That is the number
    of cliques with one vertex per partner set in the zero graph. One set
    counts its size. Two count their zero block in int64, as the popcount
    of the smaller set's packed rows masked by the other set's packed
    indicator. Three count triangles by a float32 matrix product summed in
    int64. Four sets A <= B <= C <= D are counted by the same kind of
    product over the zero pairs (a, b) of A and B, taken in chunks of pairs.
    With more than four, each unit of the smallest set is fixed in turn
    and the other sets shrink to its zero partners, down to four.

    ``select_maxima`` may pass the private ``_tables`` of the candidate's
    group (K = 4 only). The count is then taken through the complements of
    the candidate's partner sets in their full groups, as read from its
    zero row (see ``_count_through_complements``), together with those of
    the group's other candidates on the first call that asks for one.
    """
    check_consistent(zero_pattern, grouping)
    if _tables is not None:
        return _tables.count(zero_pattern.array, partners.candidate)
    return _count_cliques(zero_pattern, list(partners.members_by_group.values()))


def _count_cliques(zero_pattern: ZeroPattern, sets: list[np.ndarray]) -> int:
    if any(s.size == 0 for s in sets):
        return 0
    if len(sets) == 1:
        return int(sets[0].size)
    sets = sorted(sets, key=len)
    if len(sets) == 2:
        a, b = sets
        block = zero_pattern._packed_rows()[a] & zero_pattern._packed_mask(b)
        return int(np.bitwise_count(block).sum(dtype=np.int64))
    zero = zero_pattern.array
    if len(sets) == 3:
        return _count_triangles(zero, *sets)
    if len(sets) == 4:
        return _count_four(zero, *sets)
    smallest, rest = sets[0], sets[1:]
    return sum(
        _count_cliques(zero_pattern, [s[zero[unit, s]] for s in rest])
        for unit in smallest.tolist()
    )


def _count_triangles(
    zero: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> int:
    if b.size >= _FLOAT32_EXACT:
        raise ValueError(
            f"partner sets of sizes {a.size}, {b.size}, {c.size} are too large "
            "for an exact count"
        )
    # the mask is taken C-contiguous, in the product's own layout: as
    # Fortran-ordered rows_a[:, c] it costs about as much as the product
    rows_a = zero[a]
    ab = rows_a[:, b].astype(np.float32)
    bc = zero[b][:, c].astype(np.float32)
    return int(((ab @ bc) * np.take(rows_a, c, axis=1)).sum(dtype=np.int64))


def _count_four(
    zero: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> int:
    # the rows are the zero pairs (a, b); np.take keeps the blocks
    # C-contiguous, so that the rows gathered per pair are contiguous too
    rows_a, rows_b = zero[a], zero[b]
    ia, ib = np.nonzero(np.take(rows_a, b, axis=1))
    ac, ad = np.take(rows_a, c, axis=1), np.take(rows_a, d, axis=1)
    bc, bd = np.take(rows_b, c, axis=1), np.take(rows_b, d, axis=1)
    cd = np.take(zero[c], d, axis=1)
    # the (c, d) entry of a chunk's product counts its pairs zero to both c
    # and d, so it is at most the chunk's rows
    step = max(1, min(_FLOAT32_EXACT - 1, _FRONTIER_CELLS // (c.size + d.size)))
    count = 0
    for start in range(0, ia.size, step):
        pa, pb = ia[start : start + step], ib[start : start + step]
        mask_c = (ac[pa] & bc[pb]).astype(np.float32)
        mask_d = (ad[pa] & bd[pb]).astype(np.float32)
        count += int(((mask_c.T @ mask_d) * cd).sum(dtype=np.int64))
    return count


class _GroupTables:
    """Triangle tables over the three groups other than a K = 4 group's own
    (see ``_shared_tables``), and the counts of the group's candidates in
    ``batch``, taken in one batch by the first count that asks for one."""

    __slots__ = ("groups", "blocks", "pairs", "sums", "total", "batch", "counts")

    def __init__(self, groups, blocks, pairs, sums, total, batch) -> None:
        self.groups, self.blocks, self.pairs = groups, blocks, pairs
        self.sums, self.total, self.batch = sums, total, batch
        self.counts: dict[int, int] = {}

    def count(self, zero: np.ndarray, unit: int) -> int:
        if unit not in self.counts:
            units = self.batch if unit in self.batch else [unit]
            self.counts.update(zip(units, _count_through_complements(zero, self, units)))
        return self.counts[unit]


def _group_block(zero: np.ndarray, grouping: Grouping, x: int, y: int) -> np.ndarray:
    """Z[G_x, G_y] in float32."""
    rows = zero[grouping.member_index(x)]
    return np.take(rows, grouping.member_index(y), axis=1).astype(np.float32)


def _shared_tables(
    zero: np.ndarray,
    grouping: Grouping,
    group: int,
    blocks: dict[tuple[int, int], np.ndarray],
    batch: tuple[int, ...] | list[int] = (),
) -> _GroupTables:
    """Triangle counts over the full groups A, B, C other than ``group``,
    in ascending label order, for the candidates of ``group`` in ``batch``.

    The blocks Z[G_A,G_B], Z[G_A,G_C] and Z[G_B,G_C] are taken from
    ``blocks``, keyed by label pair, and built there on first use, so that
    the K = 4 groups of one search build each of their six blocks once.
    ``pairs`` holds M_AB, M_AC and M_BC: entry (a, b) of M_AB is the number
    of c in C with (a, b, c) a triangle, and so on. ``sums`` holds F_A, F_B
    and F_C, the triangles through each unit, and ``total`` all triangles.
    """
    labels = [g for g in range(grouping.k) if g != group]
    groups = [grouping.member_index(g) for g in labels]
    # an entry of each product counts the units of the third group zero to
    # both ends of a pair, so it is at most that group's size
    sizes = [g.size for g in groups]
    if max(sizes) >= _FLOAT32_EXACT or math.prod(sizes) >= _FLOAT64_EXACT:
        raise ValueError(
            f"groups of sizes {', '.join(map(str, sizes))} are too large for an "
            "exact count"
        )
    keys = list(itertools.combinations(labels, 2))
    for key in keys:
        if key not in blocks:
            blocks[key] = _group_block(zero, grouping, *key)
    ab, ac, bc = (blocks[key] for key in keys)
    pairs = ((ac @ bc.T) * ab, (ab @ bc) * ac, (ab.T @ ac) * bc)
    # each sum is at most |G_A||G_B||G_C|, exact in float64
    sum_a = pairs[0].sum(axis=1, dtype=np.float64)
    sums = (sum_a, pairs[0].sum(axis=0, dtype=np.float64), pairs[1].sum(axis=0, dtype=np.float64))
    return _GroupTables(groups, (ab, ac, bc), pairs, sums, int(sum_a.sum()), batch)


def _count_through_complements(
    zero: np.ndarray, tables: _GroupTables, units: list[int]
) -> list[int]:
    """The counts of ``units``, candidates of the tables' group, through
    the complements Y_A = G_A minus A, Y_B and Y_C of their partner sets.

    By inclusion-exclusion a count is the triangles of the full groups,
    minus those through a unit of a complement, plus those through an
    edge between two complements, minus the triangles among the
    complements themselves. The unit and edge terms are float64 products
    over the candidates' complements as bool rows; the last term is one
    batched float32 product over the complements padded to the longest,
    with validity masks. A candidate with an empty partner set counts 0
    and is left out, since its complement is a whole group.
    """
    ab, ac, bc = tables.blocks
    rows = zero[np.asarray(units, dtype=np.intp)]
    outside = [~np.take(rows, g, axis=1) for g in tables.groups]
    live = ~np.logical_or.reduce([y.all(axis=1) for y in outside])
    counts = np.zeros(len(units), dtype=np.int64)
    if not live.any():
        return counts.tolist()
    outside = [y[live] for y in outside]
    ys = [y.astype(np.float64) for y in outside]
    count = np.full(len(ys[0]), tables.total, dtype=np.int64)
    for through_unit, y in zip(tables.sums, ys):
        count -= (y @ through_unit).astype(np.int64)
    for through_edge, (i, j) in zip(tables.pairs, itertools.combinations(range(3), 2)):
        count += ((ys[i] @ through_edge) * ys[j]).sum(axis=1).astype(np.int64)
    # each complement's positions in its group, ascending, then padding up
    # to the longest complement; va, vb and vc are False on the padding
    longest = [int(y.sum(axis=1).max()) for y in outside]
    ia, ib, ic = (
        np.argsort(~y, axis=1, kind="stable")[:, :size] for y, size in zip(outside, longest)
    )
    va, vb, vc = (np.take_along_axis(y, i, axis=1) for y, i in zip(outside, (ia, ib, ic)))
    # a padded a or b is masked out of Z[Y_A,Y_B], a padded c out of
    # Z[Y_A,Y_C]; an entry of the product is at most the longest Y_B
    block_ab = _gather(ab, ia, ib) * (va[:, :, None] & vb[:, None, :])
    block_ac = _gather(ac, ia, ic) * vc[:, None, :]
    count -= (np.matmul(block_ab, _gather(bc, ib, ic)) * block_ac).sum(axis=(1, 2), dtype=np.int64)
    counts[live] = count
    return counts.tolist()


def _gather(block: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """block[rows[s], :][:, cols[s]] for every s, stacked, by one flat take
    (about 1.5 times as fast as the same fancy index)."""
    return np.take(block, rows[:, :, None] * block.shape[1] + cols[:, None, :])


def _tables_pay(group_sizes: list[int], partner_sizes: list[list[int]]) -> bool:
    """True when a group's shared tables take fewer multiply-adds than its
    candidates' own triangle products: three products over the full groups
    plus the batched product over the candidates' padded complements,
    against one product over each candidate's partner sets. Candidates with
    an empty partner set are in neither."""
    g_a, g_b, g_c = group_sizes
    batch = [(g_a - a, g_b - b, g_c - c) for a, b, c in partner_sizes if a and b and c]
    shared = 3 * g_a * g_b * g_c
    if batch:
        shared += len(batch) * math.prod(max(sizes) for sizes in zip(*batch))
    return shared < sum(a * b * c for a, b, c in partner_sizes)


def select_maxima(
    zero_pattern: ZeroPattern, grouping: Grouping, m_bar: int
) -> PivotResult:
    """Run the full three-step search.

    A group whose best count is zero (or which produced no candidates)
    reports not-found rather than raising; the counts of every examined
    candidate are kept in the result. At K = 4 a group's candidates share
    triangle tables over the other three groups whenever ``_tables_pay``,
    and are then counted in one batch.
    """
    candidates = select_candidates(zero_pattern, grouping, m_bar)
    blocks: dict[tuple[int, int], np.ndarray] = {}  # shared by the groups' tables
    outcomes = []
    for group, group_candidates in enumerate(candidates.per_group):
        partners = [group_partners(zero_pattern, grouping, c.unit) for c in group_candidates]
        tables = None
        if grouping.k == 4 and partners:
            others = [size for g, size in enumerate(grouping.sizes) if g != group]
            sizes = [[u.size for u in p.members_by_group.values()] for p in partners]
            if _tables_pay(others, sizes):
                tables = _shared_tables(
                    zero_pattern.array, grouping, group, blocks, [p.candidate for p in partners]
                )
        examined = []
        best_unit: int | None = None
        best_count = 0
        for cand, cand_partners in zip(group_candidates, partners):
            count = count_identity_submatrices(
                zero_pattern, grouping, cand_partners, _tables=tables
            )
            examined.append((cand.unit, count))
            if count >= 1 and (
                count > best_count or (count == best_count and cand.unit < best_unit)
            ):
                best_unit = cand.unit
                best_count = count
        outcomes.append(
            GroupOutcome(
                group=group,
                selected=best_unit,
                count=best_count,
                examined=tuple(examined),
            )
        )
    if all(o.found for o in outcomes):
        maxima = tuple(o.selected for o in outcomes)
        verified = verify_identity(zero_pattern, maxima, grouping)
    else:
        maxima = None
        verified = False
    return PivotResult(
        outcomes=tuple(outcomes),
        maxima=maxima,
        identity_verified=verified,
        candidates=candidates,
    )


def verify_identity(
    zero_pattern: ZeroPattern,
    units: tuple[int, ...] | list[int],
    grouping: Grouping | None = None,
) -> bool:
    """True iff every unordered pair among ``units`` is a zero pair.

    With a grouping supplied, the units must also lie one per group.
    """
    units = tuple(units)
    if len(set(units)) != len(units):
        raise ValueError(f"duplicate units in {units}")
    if grouping is not None:
        labels = [grouping.label(u) for u in units]
        if len(set(labels)) != len(labels):
            raise ValueError(f"two of {units} share a group")
    return all(
        zero_pattern.has_zero(a, b) for a, b in itertools.combinations(units, 2)
    )
