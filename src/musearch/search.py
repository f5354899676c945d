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
zero graph, counted exactly. Two sets take one popcount, three or more
one frontier kernel: a masked float32 product, summed in int64, over at
most max(N, ``_FRONTIER_ROWS``) rows, and a zero pattern has N < 2^24
units, which keeps every entry exact. More than four sets first fix each
unit of the smallest once. The zero pattern is read as bool rows or zero
counts. A candidate with an empty partner set counts 0 in
``count_identity_submatrices`` itself, before any kernel runs.

Three sets (K = 4) may instead be counted through their complements in
the full other groups, as a telescoped sum over triangle tables that the
candidates of one group share (``_GroupTables``): three bilinear terms
for the group's candidates with no empty partner set in one batch, the
triangles among each one's complements by the frontier kernel.
``select_maxima`` builds those tables for a group only when they are
exact, below 2^53 triples across the three other groups, and take fewer
multiply-adds than the candidates' own products, from group-pair blocks
that it builds once per search; other groups take the direct form, exact
at any size.
"""

from __future__ import annotations

import itertools

import numpy as np

from .matrix import _FLOAT64_EXACT, Grouping, ZeroPattern, _Record, check_consistent

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
    """A unit that may be its group's maximum: ``unit`` (int) and
    ``cross_group_zeros`` (int), its zeros toward units of other groups."""

    __slots__ = ("unit", "cross_group_zeros")


class CandidateSet(_Record):
    """Per group, up to ``m_bar`` (int) candidates: ``per_group`` holds
    one tuple of ``Candidate`` per group label, ordered by cross-group zero
    count descending, ties by ascending unit index. Units with no
    cross-group zeros are excluded: they cannot appear in any identity
    submatrix."""

    __slots__ = ("m_bar", "per_group")


class PartnerGroups(_Record):
    """Cross-group zero partners of one ``candidate`` (int), split by group.

    ``members_by_group`` maps every group label other than the
    candidate's own to the ascending units of that group that have a zero
    against the candidate, as a read-only index array (possibly empty).
    Arrays have no single truth value, so two of these compare equal only
    when they are the same object.
    """

    __slots__ = ("candidate", "members_by_group")

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class GroupOutcome(_Record):
    """One group's pick: ``group`` (int) label, the ``selected`` unit (int,
    or None when no candidate counts above zero), its ``count`` (int), and
    ``examined``: (unit, count) in candidate order."""

    __slots__ = ("group", "selected", "count", "examined")

    @property
    def found(self) -> bool:
        return self.selected is not None


class PivotResult(_Record):
    """The search's result: ``outcomes``, one ``GroupOutcome`` per group;
    ``maxima``, the selected units in group order, or None unless every
    group found one; ``identity_verified`` (bool), whether the maxima form
    an identity submatrix; and the ``candidates`` (``CandidateSet``)."""

    __slots__ = ("outcomes", "maxima", "identity_verified", "candidates")

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
    per_group = []
    for group in range(grouping.k):
        units = grouping.member_index(group)
        cross = zero_pattern._zero_counts(units) - zero_pattern._zero_counts(units, units)
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
    zeros = zero_pattern._rows(candidate)
    members = {}
    for group in range(grouping.k):
        if group == own_label:
            continue
        units = grouping.member_index(group)
        partners = units[zeros[units]]
        partners.setflags(write=False)
        members[group] = partners
    return PartnerGroups(candidate=candidate, members_by_group=members)


# Rows per chunk of an extended frontier. A fixed count of mask cells was
# either too few rows to keep BLAS busy on wide sets or, on narrow ones,
# enough memory per chunk that the allocator returned it and faulted it in
# again each chunk (CHANGES.md).
_FRONTIER_ROWS = 2**10


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
    counts its size, two the zeros of the smaller set's rows within the
    other, in int64. Three or more, smallest first, grow a frontier of
    cliques over every set but the last two, C and D, one set at a time;
    each row keeps its common zeros in the sets ahead, and the final rows
    add the sum of (M_C.T @ M_D) * Z[C,D] over their zeros M_C in C and
    M_D in D. With more than four sets each unit of the smallest is fixed
    once, and the others shrink to its zero partners first.

    A candidate with an empty partner set counts 0 here, before any
    kernel or table is consulted.

    ``select_maxima`` may pass the private ``_tables`` of the candidate's
    group (K = 4 only), whose batch holds every candidate of the group with
    no empty partner set. The count is then taken through the complements
    of the candidate's partner sets in their full groups (see
    ``_GroupTables.count``), together with those of the rest of the batch
    on the first call that asks for one.
    """
    check_consistent(zero_pattern, grouping)
    sets = list(partners.members_by_group.values())
    if not all(s.size for s in sets):
        return 0
    if _tables is not None:
        return _tables.count(partners.candidate)
    return _count_cliques(zero_pattern, sets)


def _count_cliques(zero_pattern: ZeroPattern, sets: list[np.ndarray]) -> int:
    if len(sets) == 1:
        return int(sets[0].size)
    sets = sorted(sets, key=len)
    if len(sets) == 2:
        return int(zero_pattern._zero_counts(*sets, total=True))
    if len(sets) <= 4:
        return _count_frontier(zero_pattern, sets)
    return sum(
        _count_frontier(zero_pattern, sorted((s[zeros[s]] for s in sets[1:]), key=len))
        for zeros in zero_pattern._rows(sets[0])
    )


def _count_frontier(zero_pattern: ZeroPattern, sets: list[np.ndarray]) -> int:
    """The cliques across three or more ``sets``, smallest first."""
    # Z[S_i,S_j] is Z[S_j,S_i] transposed: that column gather is laid out in
    # Fortran order, so the block is C-contiguous, for gathers of its rows
    rows = [zero_pattern._rows(s) for s in sets[1:]]
    blocks = [[r[:, s].T for r in rows[i:]] for i, s in enumerate(sets[:-1])]
    blocks[-1][0] = blocks[-1][0].astype(np.float32)  # only multiplied
    return _extend(blocks[1:], blocks[0])


def _extend(blocks: list[list[np.ndarray]], masks: list[np.ndarray]) -> int:
    """The cliques that extend some frontier row by one unit of each set
    ahead: ``masks[i]`` holds the rows' zeros in the i-th set ahead, and
    ``blocks[i][j]`` is Z between the i-th and the (i + 1 + j)-th."""
    if len(masks) == 2:
        # an entry counts the rows zero to both c and d: at most max(N,
        # _FRONTIER_ROWS) < matrix._FLOAT32_EXACT, so exact. The cast is
        # about 1.5 times as fast from uint8 as from bool
        mask_c, mask_d = (m.view(np.uint8).astype(np.float32) for m in masks)
        product = mask_c.T @ mask_d
        product *= blocks[0][0]
        return int(product.sum(dtype=np.int64))
    rows, units = np.nonzero(masks[0])
    count = 0
    for start in range(0, rows.size, _FRONTIER_ROWS):
        r, u = rows[start : start + _FRONTIER_ROWS], units[start : start + _FRONTIER_ROWS]
        # on small blocks, take gathers rows about twice as fast as indexing
        ahead = [m.take(r, axis=0) & b.take(u, axis=0) for m, b in zip(masks[1:], blocks[0])]
        count += _extend(blocks[1:], ahead)
    return count


def _group_block(zero_pattern: ZeroPattern, grouping: Grouping, x: int, y: int) -> np.ndarray:
    """Z[G_x, G_y] in float32."""
    rows = zero_pattern._rows(grouping.member_index(x))
    return np.take(rows, grouping.member_index(y), axis=1).astype(np.float32)


class _GroupTables:
    """Triangle tables over the full groups A, B, C other than a K = 4
    ``group``, in ascending label order, and the counts of the group's
    candidates in ``batch``, none with an empty partner set.

    The blocks Z[G_A,G_B], Z[G_A,G_C] and Z[G_B,G_C] are taken from
    ``blocks``, keyed by label pair, and built there on first use, so that
    the K = 4 groups of one search build each of their six blocks once.
    ``pairs`` holds M_AB, M_AC and M_BC: entry (a, b) of M_AB is the number
    of c in C with (a, b, c) a triangle, and so on.
    """

    __slots__ = ("zero_pattern", "groups", "pairs", "batch", "counts")

    def __init__(
        self,
        zero_pattern: ZeroPattern,
        grouping: Grouping,
        group: int,
        blocks: dict[tuple[int, int], np.ndarray],
        batch: list[int],
    ) -> None:
        labels = [g for g in range(grouping.k) if g != group]
        keys = list(itertools.combinations(labels, 2))
        for key in keys:
            if key not in blocks:
                blocks[key] = _group_block(zero_pattern, grouping, *key)
        ab, ac, bc = (blocks[key] for key in keys)
        self.zero_pattern = zero_pattern
        self.pairs = ((ac @ bc.T) * ab, (ab @ bc) * ac, (ab.T @ ac) * bc)
        self.groups = [grouping.member_index(g) for g in labels]
        self.batch = batch
        self.counts: dict[int, int] = {}

    def count(self, unit: int) -> int:
        """The count of ``unit``, one of the batch, with those of the whole
        batch on the first call. With Y_A = G_A minus the partner set A, and
        so on, and [P, Q, R] the triangles with one unit in each set, peeling
        one partner set at a time telescopes a count to

            [A, B, C] = [A, B, G_C] - [A, G_B, Y_C] + [G_A, Y_B, Y_C] - [Y_A, Y_B, Y_C].

        The first three terms are float64 bilinear forms of the candidates'
        sets and complements, as 0/1 rows, against M_AB, M_AC and M_BC, each
        at most |G_A||G_B||G_C| and so exact (``_tables_pay``); the last is
        each candidate's own frontier count over its complements.
        """
        if not self.counts:
            rows = self.zero_pattern._rows(np.asarray(self.batch, dtype=np.intp))
            inside = [np.take(rows, g, axis=1) for g in self.groups]
            outside = [~x for x in inside]
            x_a, x_b, y_b, y_c = (m.astype(np.float64) for m in inside[:2] + outside[1:])
            terms = [
                ((left @ table) * right).sum(axis=1).astype(np.int64)
                for left, table, right in zip((x_a, x_a, y_b), self.pairs, (x_b, y_c, y_c))
            ]
            count = terms[0] - terms[1] + terms[2] - [
                _count_cliques(self.zero_pattern, [g[y] for g, y in zip(self.groups, complements)])
                for complements in zip(*outside)
            ]
            self.counts.update(zip(self.batch, count.tolist()))
        return self.counts[unit]


def _tables_pay(group_sizes: list[int], partner_sizes: list[list[int]]) -> bool:
    """True when a group's shared tables are exact, their float64 terms
    at most |G_A||G_B||G_C| < ``_FLOAT64_EXACT``, and take fewer
    multiply-adds than its candidates' own frontier products: three
    products over the full groups plus each candidate's frontier product
    over its complements, against one over its partner sets. The caller
    prices only the candidates with no empty partner set."""
    g_a, g_b, g_c = group_sizes
    if g_a * g_b * g_c >= _FLOAT64_EXACT:
        return False
    shared = 3 * g_a * g_b * g_c + sum(
        (g_a - a) * (g_b - b) * (g_c - c) for a, b, c in partner_sizes
    )
    return shared < sum(a * b * c for a, b, c in partner_sizes)


def select_maxima(
    zero_pattern: ZeroPattern, grouping: Grouping, m_bar: int
) -> PivotResult:
    """Run the full three-step search.

    A group whose best count is zero (or which produced no candidates)
    reports not-found rather than raising; the counts of every examined
    candidate are kept in the result. At K = 4 a group's candidates with no
    empty partner set share triangle tables over the other three groups
    whenever ``_tables_pay``, and are then counted in one batch; otherwise
    each is counted directly.
    """
    candidates = select_candidates(zero_pattern, grouping, m_bar)
    blocks: dict[tuple[int, int], np.ndarray] = {}  # shared by the groups' tables
    outcomes = []
    for group, group_candidates in enumerate(candidates.per_group):
        partners = [group_partners(zero_pattern, grouping, c.unit) for c in group_candidates]
        tables = None
        if grouping.k == 4:
            others = [size for g, size in enumerate(grouping.sizes) if g != group]
            sizes = {p.candidate: [u.size for u in p.members_by_group.values()] for p in partners}
            batch = [unit for unit, s in sizes.items() if all(s)]
            if _tables_pay(others, [sizes[unit] for unit in batch]):
                tables = _GroupTables(zero_pattern, grouping, group, blocks, batch)
        examined = tuple(
            (p.candidate, count_identity_submatrices(zero_pattern, grouping, p, _tables=tables))
            for p in partners
        )
        # the largest count, ties to the lowest unit; a count of 0 selects none
        unit, count = max(examined, key=lambda e: (e[1], -e[0]), default=(None, 0))
        outcomes.append(GroupOutcome(group, unit if count else None, count, examined))
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
