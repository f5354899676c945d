"""Symmetric matrices, their zero structure, and unit groupings.

Units are indexed 0..n-1 throughout the library. File formats and
command-line reports use 1-based indices; the conversion happens at the
I/O boundary only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "SymmetricMatrix",
    "ZeroPattern",
    "Grouping",
    "build_zero_pattern",
    "zeros_toward_other_groups",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute threshold below which a matrix entry counts as zero.

    The default 0.0 keeps exact-zero semantics for 0/1 matrices; a
    positive epsilon is useful for probability-valued similarity
    matrices estimated numerically.
    """

    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:
            raise ValueError(f"tolerance epsilon must be >= 0, got {self.epsilon}")


class SymmetricMatrix:
    """Dense symmetric real matrix over units 0..n-1.

    Non-finite and asymmetric input is rejected at construction; the
    error names the first offending entry (1-based, as in reports).
    """

    __slots__ = ("n", "_data")

    def __init__(self, data) -> None:
        a = np.array(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must contain at least one unit")
        finite = np.isfinite(a)
        if not finite.all():
            i, j = (int(x) for x in np.argwhere(~finite)[0])
            raise ValueError(f"matrix entry ({i + 1},{j + 1}) is not finite")
        if not (a == a.T).all():
            i, j = (int(x) for x in np.argwhere(a != a.T)[0])
            raise ValueError(
                f"matrix not symmetric: entry ({i + 1},{j + 1}) is "
                f"{float(a[i, j])!r} but ({j + 1},{i + 1}) is {float(a[j, i])!r}"
            )
        a.setflags(write=False)
        self.n = int(a.shape[0])
        self._data = a

    def entry(self, i: int, j: int) -> float:
        return float(self._data[i, j])

    def to_array(self) -> np.ndarray:
        """Copy of the underlying n-by-n array."""
        return self._data.copy()

    def __repr__(self) -> str:
        return f"SymmetricMatrix(n={self.n})"


class ZeroPattern:
    """Zero structure of a symmetric matrix as an n-by-n bool matrix.

    ``array[i, j]`` is True iff entry (i, j) counted as zero. The
    diagonal is False and the matrix is symmetric; both are checked at
    construction. The stored matrix is a private read-only copy.
    """

    __slots__ = ("n", "_zero")

    def __init__(self, zero) -> None:
        z = np.array(zero, dtype=bool)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"zero pattern must be square, got shape {z.shape}")
        if z.shape[0] < 1:
            raise ValueError("zero pattern must cover at least one unit")
        if z.diagonal().any():
            i = int(np.flatnonzero(z.diagonal())[0])
            raise ValueError(f"unit {i} may not be its own zero partner")
        if not (z == z.T).all():
            i, j = (int(x) for x in np.argwhere(z != z.T)[0])
            raise ValueError(f"zero pattern not symmetric at ({i},{j})")
        z.setflags(write=False)
        self.n = int(z.shape[0])
        self._zero = z

    @property
    def array(self) -> np.ndarray:
        """The read-only n-by-n bool zero matrix."""
        return self._zero

    def _check_unit(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"unit index {i} out of range for n={self.n}")

    def partners(self, i: int) -> tuple[int, ...]:
        """Sorted zero partners of unit ``i``."""
        self._check_unit(i)
        return tuple(np.flatnonzero(self._zero[i]).tolist())

    def has_zero(self, i: int, j: int) -> bool:
        self._check_unit(i)
        self._check_unit(j)
        return bool(self._zero[i, j])

    def zero_count(self, i: int) -> int:
        self._check_unit(i)
        return int(np.count_nonzero(self._zero[i]))

    def __repr__(self) -> str:
        total = int(np.count_nonzero(self._zero)) // 2
        return f"ZeroPattern(n={self.n}, zero_pairs={total})"


class Grouping:
    """Partition of units 0..n-1 into k >= 2 nonempty groups labeled 0..k-1."""

    __slots__ = ("n", "k", "_labels", "_members", "_index")

    def __init__(self, labels: Sequence[int], k: int | None = None) -> None:
        lab = tuple(int(x) for x in labels)
        n = len(lab)
        if n < 1:
            raise ValueError("grouping must cover at least one unit")
        if k is None:
            k = max(lab) + 1
        if k < 2:
            raise ValueError(f"need at least 2 groups, got k={k}")
        if k > n:
            raise ValueError(f"cannot split {n} units into {k} nonempty groups")
        members: list[list[int]] = [[] for _ in range(k)]
        for i, g in enumerate(lab):
            if not 0 <= g < k:
                raise ValueError(f"unit {i} has group label {g} outside 0..{k - 1}")
            members[g].append(i)
        for g, units in enumerate(members):
            if not units:
                raise ValueError(f"group {g + 1} is empty")
        self.n = n
        self.k = int(k)
        self._labels = lab
        self._members = tuple(tuple(units) for units in members)
        self._index = tuple(np.array(units, dtype=np.intp) for units in members)
        for index in self._index:
            index.setflags(write=False)

    def label(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"unit index {i} out of range for n={self.n}")
        return self._labels[i]

    def members(self, group: int) -> tuple[int, ...]:
        if not 0 <= group < self.k:
            raise ValueError(f"group {group} out of range for k={self.k}")
        return self._members[group]

    def member_index(self, group: int) -> np.ndarray:
        """Ascending units of ``group`` as a read-only index array."""
        if not 0 <= group < self.k:
            raise ValueError(f"group {group} out of range for k={self.k}")
        return self._index[group]

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self._members)

    def __repr__(self) -> str:
        return f"Grouping(n={self.n}, k={self.k}, sizes={self.sizes})"


def check_consistent(zero_pattern: ZeroPattern, grouping: Grouping) -> None:
    if zero_pattern.n != grouping.n:
        raise ValueError(
            f"zero pattern covers {zero_pattern.n} units but grouping covers {grouping.n}"
        )


def build_zero_pattern(
    matrix: SymmetricMatrix, tolerance: Tolerance | float = 0.0
) -> ZeroPattern:
    """Binarize ``matrix`` into its zero structure.

    Entry (i, j) becomes a zero partner iff |value| <= epsilon and
    i != j; the diagonal never appears regardless of its values.
    """
    tol = tolerance if isinstance(tolerance, Tolerance) else Tolerance(float(tolerance))
    a = matrix._data
    zero = (a <= tol.epsilon) & (a >= -tol.epsilon)
    np.fill_diagonal(zero, False)
    return ZeroPattern(zero)


def zeros_toward_other_groups(
    zero_pattern: ZeroPattern, grouping: Grouping, unit: int
) -> int:
    """Number of zero partners of ``unit`` lying outside its own group."""
    check_consistent(zero_pattern, grouping)
    own = grouping.member_index(grouping.label(unit))
    row = zero_pattern.array[unit]
    return int(np.count_nonzero(row)) - int(np.count_nonzero(row[own]))
