"""Maxima units search: pick one pivotal unit per group.

The search runs in three steps. For every group, take the units with the
most zeros toward the other groups (the candidate maxima, at most
``m_bar`` per group). For each candidate, count the distinct k-by-k
identity submatrices it participates in, built from one unit per other
group drawn among the candidate's cross-group zero partners; a submatrix
counts only if *all* off-diagonal pairs are zero, including pairs that do
not involve the candidate. Finally each group selects the candidate with
the largest count, ties going to the lowest unit index.
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
    zero = zero_pattern.array
    per_group = []
    for group in range(grouping.k):
        units = grouping.member_index(group)
        rows = zero[units]
        cross = np.count_nonzero(rows, axis=1) - np.count_nonzero(rows[:, units], axis=1)
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


# float64 sums of 0/1 products stay exact below this
_FLOAT_EXACT = 2**53


def count_identity_submatrices(
    zero_pattern: ZeroPattern, grouping: Grouping, partners: PartnerGroups
) -> int:
    """Step two, part two: exact identity-submatrix count for one candidate.

    Counts tuples of one unit per other group, drawn from ``partners``,
    such that every pair among them is zero (pairs with the candidate are
    zero already, by construction of the partner sets). That is the number
    of cliques with one vertex per partner set in the zero graph. One set
    counts its size, two count their zero block, and three count triangles
    by a float64 matrix product; with more, each unit of the smallest set
    is fixed in turn and the other sets shrink to its zero partners.
    """
    check_consistent(zero_pattern, grouping)
    sets = [np.array(units, dtype=np.intp) for units in partners.members_by_group.values()]
    return _count_cliques(zero_pattern.array, sets)


def _count_cliques(zero: np.ndarray, sets: list[np.ndarray]) -> int:
    if any(s.size == 0 for s in sets):
        return 0
    if len(sets) == 1:
        return int(sets[0].size)
    # blocks are taken rows first, then columns: several times faster than
    # one np.ix_ gather
    if len(sets) == 2:
        a, b = sets
        return int(np.count_nonzero(zero[a][:, b]))
    if len(sets) == 3:
        a, b, c = sets
        if a.size * b.size * c.size >= _FLOAT_EXACT:
            raise ValueError(
                f"partner sets of sizes {a.size}, {b.size}, {c.size} are too large "
                "for an exact count"
            )
        rows_a = zero[a]
        ab = rows_a[:, b].astype(np.float64)
        bc = zero[b][:, c].astype(np.float64)
        return int(((ab @ bc) * rows_a[:, c]).sum())
    sets = sorted(sets, key=len)
    smallest, rest = sets[0], sets[1:]
    return sum(
        _count_cliques(zero, [s[zero[unit, s]] for s in rest])
        for unit in smallest.tolist()
    )


def select_maxima(
    zero_pattern: ZeroPattern, grouping: Grouping, m_bar: int
) -> PivotResult:
    """Run the full three-step search.

    A group whose best count is zero (or which produced no candidates)
    reports not-found rather than raising; the counts of every examined
    candidate are kept in the result.
    """
    candidates = select_candidates(zero_pattern, grouping, m_bar)
    outcomes = []
    for group, group_candidates in enumerate(candidates.per_group):
        examined = []
        best_unit: int | None = None
        best_count = 0
        for cand in group_candidates:
            partners = group_partners(zero_pattern, grouping, cand.unit)
            count = count_identity_submatrices(zero_pattern, grouping, partners)
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
