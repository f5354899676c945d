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
that the candidates of one group share. ``select_maxima`` builds those
tables for a group only when they take fewer multiply-adds than the
candidates' own products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .matrix import Grouping, ZeroPattern, check_consistent

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


@dataclass(frozen=True)
class Candidate:
    unit: int
    cross_group_zeros: int


@dataclass(frozen=True)
class CandidateSet:
    """Per group, up to ``m_bar`` candidates ordered by cross-group zero
    count descending, ties by ascending unit index. Units with no
    cross-group zeros are excluded: they cannot appear in any identity
    submatrix."""

    m_bar: int
    per_group: tuple[tuple[Candidate, ...], ...]

    def units(self, group: int) -> tuple[int, ...]:
        return tuple(c.unit for c in self.per_group[group])


@dataclass(frozen=True)
class PartnerGroups:
    """Cross-group zero partners of one candidate, split by group.

    ``members_by_group`` maps every group label other than the
    candidate's own to the sorted tuple of its units that have a zero
    against the candidate (possibly empty).
    """

    candidate: int
    members_by_group: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class GroupOutcome:
    group: int
    selected: int | None
    count: int
    examined: tuple[tuple[int, int], ...]  # (unit, count) in candidate order

    @property
    def found(self) -> bool:
        return self.selected is not None


@dataclass(frozen=True)
class PivotResult:
    outcomes: tuple[GroupOutcome, ...]
    maxima: tuple[int, ...] | None
    identity_verified: bool
    candidates: CandidateSet

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
        members[group] = tuple(units[zeros[units]].tolist())
    return PartnerGroups(candidate=candidate, members_by_group=members)


# float32 holds every integer below this exactly, and an entry of a
# product of 0/1 matrices is at most their inner dimension: |B| for
# Z[A,B] @ Z[B,C], the rows of a chunk for the pair product, a full group
# for the shared K = 4 tables. The int64 sums are at most the number of
# cliques, far below 2^63 for any zero matrix that fits in memory.
_FLOAT32_EXACT = 2**24
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
    _tables: tuple | None = None,
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
    group (three sets only). The count is then taken through the
    complements Y_A = G_A minus A, Y_B and Y_C of the sets in their full
    groups: the triangles of the full groups, minus those through a unit
    of a complement, plus those through an edge between two complements,
    minus the triangles among the complements themselves.
    """
    check_consistent(zero_pattern, grouping)
    sets = [np.array(units, dtype=np.intp) for units in partners.members_by_group.values()]
    if _tables is not None:
        return _count_through_complements(zero_pattern, sets, _tables)
    return _count_cliques(zero_pattern, sets)


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


def _shared_tables(zero: np.ndarray, groups: list[np.ndarray]) -> tuple:
    """Triangle counts over the full groups A, B, C other than a K = 4
    candidate's own, in ascending label order: (groups, pairs, sums, total).

    ``pairs`` holds M_AB, M_AC and M_BC: entry (a, b) of M_AB is the number
    of c in C with (a, b, c) a triangle, and so on. ``sums`` holds F_A, F_B
    and F_C, the triangles through each unit, and ``total`` all triangles.
    """
    # an entry of each product counts the units of the third group zero to
    # both ends of a pair, so it is at most that group's size
    if max(g.size for g in groups) >= _FLOAT32_EXACT:
        raise ValueError(
            f"groups of sizes {', '.join(str(g.size) for g in groups)} are too "
            "large for an exact count"
        )
    group_a, group_b, group_c = groups
    rows_a = zero[group_a]
    ab = np.take(rows_a, group_b, axis=1).astype(np.float32)
    ac = np.take(rows_a, group_c, axis=1).astype(np.float32)
    bc = np.take(zero[group_b], group_c, axis=1).astype(np.float32)
    pairs = ((ac @ bc.T) * ab, (ab @ bc) * ac, (ab.T @ ac) * bc)
    sum_a = pairs[0].sum(axis=1, dtype=np.int64)
    sums = (sum_a, pairs[0].sum(axis=0, dtype=np.int64), pairs[1].sum(axis=0, dtype=np.int64))
    return groups, pairs, sums, int(sum_a.sum())


def _count_through_complements(
    zero_pattern: ZeroPattern, sets: list[np.ndarray], tables: tuple
) -> int:
    groups, pairs, sums, total = tables
    # each set's complement, as positions in its full group
    outside = []
    for full, units in zip(groups, sets):
        keep = np.ones(full.size, dtype=bool)
        keep[np.searchsorted(full, units)] = False
        outside.append(np.flatnonzero(keep))
    count = total
    for through_unit, y in zip(sums, outside):
        count -= int(through_unit[y].sum())
    for through_edge, (i, j) in zip(pairs, itertools.combinations(range(3), 2)):
        count += int(np.take(through_edge[outside[i]], outside[j], axis=1).sum(dtype=np.int64))
    return count - _count_cliques(zero_pattern, [g[y] for g, y in zip(groups, outside)])


def _tables_pay(group_sizes: list[int], partner_sizes: list[list[int]]) -> bool:
    """True when a group's shared tables take fewer multiply-adds than its
    candidates' own triangle products: three products over the full groups
    plus one over each candidate's complements, against one over each
    candidate's partner sets."""
    g_a, g_b, g_c = group_sizes
    shared, direct = 3 * g_a * g_b * g_c, 0
    for a, b, c in partner_sizes:
        shared += (g_a - a) * (g_b - b) * (g_c - c)
        direct += a * b * c
    return shared < direct


def select_maxima(
    zero_pattern: ZeroPattern, grouping: Grouping, m_bar: int
) -> PivotResult:
    """Run the full three-step search.

    A group whose best count is zero (or which produced no candidates)
    reports not-found rather than raising; the counts of every examined
    candidate are kept in the result. At K = 4 a group's candidates share
    triangle tables over the other three groups whenever ``_tables_pay``.
    """
    candidates = select_candidates(zero_pattern, grouping, m_bar)
    outcomes = []
    for group, group_candidates in enumerate(candidates.per_group):
        partners = [group_partners(zero_pattern, grouping, c.unit) for c in group_candidates]
        tables = None
        if grouping.k == 4 and partners:
            others = [grouping.member_index(g) for g in range(4) if g != group]
            sizes = [[len(u) for u in p.members_by_group.values()] for p in partners]
            if _tables_pay([g.size for g in others], sizes):
                tables = _shared_tables(zero_pattern.array, others)
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
