"""Expected reports, computed without any code from ``musearch``.

The search is re-derived here in numpy from its definition: per group the
``m_bar`` units with the most zeros toward other groups (ties to the lower
index, units with none left out); per candidate the number of identity
submatrices through it, counted on its partner sets; per group the
candidate with the largest count of at least one (ties to the lower
index). Counting is by matrix algebra rather than by the bitset recursion
in ``musearch.search``:

- two partner sets A, B: ``Z[A,B].sum()``;
- three sets A, B, C: ``((Z[A,C] @ Z[C,B]) * Z[A,B]).sum()``, triangles
  by matrix product;
- four or more: enumerate the smallest set, keep each other set's zero
  partners of the chosen unit, and recurse down to three.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

_EXACT = 2**53  # float64 matrix products are exact below this


def expected_report(ones: np.ndarray, labels: np.ndarray, k: int, m_bar: int) -> dict:
    """The digest fields of the report ``musearch run`` should print (1-based)."""
    zero = ~ones
    np.fill_diagonal(zero, False)
    members = [np.flatnonzero(labels == g) for g in range(k)]
    cross = (zero & (labels[:, None] != labels[None, :])).sum(axis=1)
    zf = zero.astype(np.float64)
    candidates, maxima = [], []
    for g in range(k):
        units = members[g][cross[members[g]] > 0]
        order = np.lexsort((units, -cross[units]))
        examined = []
        for unit in units[order][:m_bar].tolist():
            sets = [members[h][zero[unit, members[h]]] for h in range(k) if h != g]
            examined.append([unit + 1, _count(zf, sets)])
        candidates.append(examined)
        best = min(
            (c for c in examined if c[1] >= 1), key=lambda c: (-c[1], c[0]), default=None
        )
        maxima.append(None if best is None else best[0])
    if None in maxima:
        return {"maxima": None, "candidates": candidates, "identity_verified": False}
    verified = all(zero[a - 1, b - 1] for a, b in itertools.combinations(maxima, 2))
    return {"maxima": maxima, "candidates": candidates, "identity_verified": verified}


def _count(zf: np.ndarray, sets: list[np.ndarray]) -> int:
    if any(s.size == 0 for s in sets):
        return 0
    if len(sets) == 1:
        return int(sets[0].size)
    if len(sets) == 2:
        a, b = sets
        return int(zf[np.ix_(a, b)].sum())
    if len(sets) == 3:
        a, b, c = sets
        if a.size * b.size * c.size >= _EXACT:
            raise OverflowError("partner sets too large for an exact float64 count")
        paths = zf[np.ix_(a, c)] @ zf[np.ix_(c, b)]
        return int((paths * zf[np.ix_(a, b)]).sum())
    sets = sorted(sets, key=len)
    smallest, rest = sets[0], sets[1:]
    return sum(
        _count(zf, [s[zf[v, s] > 0] for s in rest]) for v in smallest.tolist()
    )


def report_fields(report: dict) -> dict:
    """The digest fields of a parsed ``musearch run --format json`` report."""
    return {
        "maxima": report["maxima"],
        "candidates": [
            [[c["unit"], c["count"]] for c in group["candidates"]]
            for group in report["groups"]
        ],
        "identity_verified": report["identity_verified"],
    }


def report_digest(text: str | bytes) -> str:
    """Digest of a ``musearch run --format json`` report; raises on a malformed one."""
    return digest(report_fields(json.loads(text)))


def digest(fields: dict) -> str:
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
