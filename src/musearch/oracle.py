"""Brute-force reference for identity-submatrix counts.

Shares no enumeration logic with the search module: plain set lookups
and exhaustive tuple products, so agreement between the two is evidence
rather than tautology. Only usable on small instances.
"""

from __future__ import annotations

import itertools
import math

from .matrix import Grouping, ZeroPattern, _Record, check_consistent

__all__ = ["TUPLE_TEST_LIMIT", "OracleReport", "oracle_count", "oracle_maxima"]

# Keeps any guarded run at desk scale (well under a minute).
TUPLE_TEST_LIMIT = 10**8


class OracleReport(_Record):
    """Exhaustive per-unit counts and per-group argmax sets: ``counts``,
    one int per unit; ``max_by_group``, each group's best count; and
    ``argmax_by_group``, a tuple per group of the units with that count.

    ``total`` (int) counts the identity tuples, one unit per group: the sum
    of the counts over any one group. Argmax sets are empty for groups
    whose best count is zero.
    """

    __slots__ = ("counts", "max_by_group", "argmax_by_group", "total")


def _identity_tuples(zero_pattern: ZeroPattern, unit_lists: list[list[int]]):
    """Every tuple of one unit from each of ``unit_lists`` whose pairs are
    all zero, found by testing every combination, with no pre-filtering
    and no pruning. Refuses, before any test, more than
    ``TUPLE_TEST_LIMIT`` combinations."""
    work = math.prod(len(units) for units in unit_lists)
    if work > TUPLE_TEST_LIMIT:
        raise ValueError(
            f"instance too large for the oracle: {work} tuple tests "
            f"exceed the {TUPLE_TEST_LIMIT} limit"
        )
    zero_sets = [set(zero_pattern.partners(i)) for i in range(zero_pattern.n)]
    for combo in itertools.product(*unit_lists):
        if all(b in zero_sets[a] for a, b in itertools.combinations(combo, 2)):
            yield combo


def oracle_count(zero_pattern: ZeroPattern, grouping: Grouping, unit: int) -> int:
    """Exact count for one unit: the identity tuples of the unit with one
    unit per other group."""
    check_consistent(zero_pattern, grouping)
    own = grouping.label(unit)
    others = [grouping.member_index(g).tolist() for g in range(grouping.k) if g != own]
    return sum(1 for _ in _identity_tuples(zero_pattern, [[unit], *others]))


def oracle_maxima(zero_pattern: ZeroPattern, grouping: Grouping) -> OracleReport:
    """Exhaustive counts for every unit, via one pass over all tuples.

    Walks the full product of the groups (not candidate subsets), so the
    argmax sets are global per-group maxima.
    """
    check_consistent(zero_pattern, grouping)
    groups = [grouping.member_index(g).tolist() for g in range(grouping.k)]
    counts = [0] * zero_pattern.n
    for combo in _identity_tuples(zero_pattern, groups):
        for u in combo:
            counts[u] += 1
    max_by_group = []
    argmax_by_group = []
    for members in groups:
        best = max(counts[u] for u in members)
        max_by_group.append(best)
        if best > 0:
            argmax_by_group.append(tuple(u for u in members if counts[u] == best))
        else:
            argmax_by_group.append(())
    return OracleReport(
        counts=tuple(counts),
        max_by_group=tuple(max_by_group),
        argmax_by_group=tuple(argmax_by_group),
        total=sum(counts[u] for u in groups[0]),
    )
