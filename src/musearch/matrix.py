"""Symmetric matrices, their zero structure, and unit groupings.

Units are indexed 0..n-1 throughout the library. File formats and
command-line reports use 1-based indices; the conversion happens at the
I/O boundary only.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

__all__ = ["SymmetricMatrix", "ZeroPattern", "Grouping", "build_zero_pattern"]

# float32 holds every integer below _FLOAT32_EXACT, float64 every one below
# _FLOAT64_EXACT. A ZeroPattern covers fewer units than _FLOAT32_EXACT, so
# every float32 product of the search sums fewer rows and is exact; the
# search builds K = 4 tables, whose float64 sums count triples of units,
# only below _FLOAT64_EXACT triples.
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53


class _Record:
    """Base of the small immutable value types: fields in ``__slots__``,
    given by position or by name, set once by the constructor and never
    assigned again, with ``==``, ``hash`` and ``repr`` over the fields,
    as a frozen dataclass has them. A result type is a ``_Record``, since
    a dataclass would cost about 1 ms of import per class, in every run. A
    type stays a dataclass when code reads its fields' defaults or type
    hints, as the grid's config parser and CSV writer do."""

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        fields = self.__slots__
        if len(values) + len(named) != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} fields "
                f"({', '.join(fields)}), got {len(values) + len(named)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        for name, value in named.items():
            if name not in fields[len(values):]:
                problem = "twice" if name in fields else "it does not have"
                raise TypeError(f"{type(self).__name__}() got field {name!r} {problem}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class SymmetricMatrix:
    """Dense symmetric real matrix over units 0..n-1.

    Non-finite and asymmetric input is rejected at construction; the
    error names the first offending entry (1-based, as in reports).
    The matrix keeps a private read-only copy of ``data``.
    """

    __slots__ = ("n", "_data", "_scale")

    def __init__(self, data, *, _owned: bool = False, _scale: int = 1) -> None:
        # The parsers pass _owned=True to hand over the array they just
        # built, which no one else holds, instead of a second copy. A fixed-
        # width CSV comes as unsigned decimal mantissas m with _scale=10**k,
        # each value being m / 10**k; m / 10**k is injective for m < 10**15,
        # so symmetry holds for the values iff it holds for the mantissas.
        a = data if _owned else np.array(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must contain at least one unit")
        if a.dtype.kind == "f":
            finite = np.isfinite(a)
            if not finite.all():
                i, j = (int(x) for x in np.argwhere(~finite)[0])
                raise ValueError(f"matrix entry ({i + 1},{j + 1}) is not finite")
        a.setflags(write=False)
        self.n = int(a.shape[0])
        self._data = a
        self._scale = _scale
        asymmetric = _asymmetric_entry(a)
        if asymmetric is not None:
            i, j = asymmetric
            raise ValueError(
                f"matrix not symmetric: entry ({i + 1},{j + 1}) is "
                f"{self._entry(i, j)!r} but ({j + 1},{i + 1}) is {self._entry(j, i)!r}"
            )

    def _entry(self, i: int, j: int) -> float:
        # float(m) / 10**k is the correctly rounded m / 10**k
        return float(self._data[i, j]) / self._scale

    def to_array(self) -> np.ndarray:
        """The n-by-n values as a new float64 array."""
        return np.true_divide(self._data, self._scale, dtype=np.float64)

    def __repr__(self) -> str:
        return f"SymmetricMatrix(n={self.n})"


_TILE = 256


def _asymmetric_entry(a: np.ndarray) -> tuple[int, int] | None:
    """The first (i, j) in row order with a[i, j] != a[j, i], or None.

    Compares tiles above the diagonal with their mirror tiles, which keeps
    both in cache where ``a == a.T`` strides down whole columns; only a
    mismatch pays for the full scan that finds the first entry.
    """
    n = a.shape[0]
    for lo in range(0, n, _TILE):
        for hi in range(lo, n, _TILE):
            upper = a[lo : lo + _TILE, hi : hi + _TILE]
            if not (upper == a[hi : hi + _TILE, lo : lo + _TILE].T).all():
                i, j = np.argwhere(a != a.T)[0]
                return int(i), int(j)
    return None


def _pack_rows(zero: np.ndarray) -> np.ndarray:
    """The rows of ``zero`` packed into uint64 words, read-only, the
    padding bits after the last column zero."""
    n = zero.shape[1]
    packed = np.zeros((zero.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(zero, axis=1)
    packed.setflags(write=False)
    return packed.view(np.uint64)


class ZeroPattern:
    """Zero structure of a symmetric matrix over units 0..n-1.

    Entry (i, j) is a zero iff it counted as zero. The diagonal is never a
    zero and the structure is symmetric; both are checked at construction.
    The one stored copy is private and read-only, each row packed into
    64-bit words, an eighth of an n-by-n bool matrix (``to_array``). Only
    ``_rows`` and ``_zero_counts``, which the search uses, read the bits.
    A pattern covers fewer than 2^24 units (``_FLOAT32_EXACT``), which
    keeps the search's float32 counts exact.
    """

    __slots__ = ("n", "_bits")

    def __init__(self, zero, *, _owned: bool = False) -> None:
        # build_zero_pattern passes _owned=True to hand over the bool matrix
        # it just built, which no one else holds, instead of a second copy;
        # it thresholds a matrix checked for symmetry, so its pattern is
        # symmetric by construction and needs no second transpose check
        z = zero if _owned else np.array(zero, dtype=bool)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"zero pattern must be square, got shape {z.shape}")
        if z.shape[0] < 1:
            raise ValueError("zero pattern must cover at least one unit")
        if z.shape[0] >= _FLOAT32_EXACT:
            raise ValueError(
                f"zero pattern must cover fewer than {_FLOAT32_EXACT} units, got {z.shape[0]}"
            )
        if z.diagonal().any():
            i = int(np.flatnonzero(z.diagonal())[0])
            raise ValueError(f"unit {i} may not be its own zero partner")
        asymmetric = None if _owned else _asymmetric_entry(z)
        if asymmetric is not None:
            i, j = asymmetric
            raise ValueError(f"zero pattern not symmetric at ({i},{j})")
        self.n = int(z.shape[0])
        self._bits = _pack_rows(z)

    def _rows(self, units) -> np.ndarray:
        """The bool zero rows of ``units`` (one unit, an index array or a
        slice), over all n columns."""
        packed = self._bits[units].view(np.uint8)
        return np.unpackbits(packed, axis=-1, count=self.n).view(bool)

    def _zero_counts(self, units, columns=None, *, total: bool = False) -> np.ndarray:
        """The zeros in each row of ``units`` (as for ``_rows``) in int64, or
        their ``total``, counting only those in ``columns`` when it is given.
        A total is one sum, about half as costly as the sum of the rows."""
        words = self._bits[units]
        if columns is not None:
            bits = np.zeros(64 * self._bits.shape[1], dtype=bool)
            bits[columns] = True
            words = words & np.packbits(bits).view(np.uint64)
        return np.bitwise_count(words).sum(axis=None if total else -1, dtype=np.int64)

    def to_array(self) -> np.ndarray:
        """The n-by-n zeros as a new bool array."""
        return self._rows(slice(None))

    def _check_unit(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"unit index {i} out of range for n={self.n}")

    def partners(self, i: int) -> tuple[int, ...]:
        """Sorted zero partners of unit ``i``."""
        self._check_unit(i)
        return tuple(np.flatnonzero(self._rows(i)).tolist())

    def has_zero(self, i: int, j: int) -> bool:
        self._check_unit(i)
        self._check_unit(j)
        return bool(self._rows(i)[j])

    def zero_count(self, i: int) -> int:
        self._check_unit(i)
        return int(self._zero_counts(i))

    def __repr__(self) -> str:
        total = int(self._zero_counts(slice(None), total=True)) // 2
        return f"ZeroPattern(n={self.n}, zero_pairs={total})"


class Grouping:
    """Partition of units 0..n-1 into k >= 2 nonempty groups labeled 0..k-1."""

    __slots__ = ("n", "k", "_labels", "_index")

    def __init__(self, labels: Sequence[int] | np.ndarray, k: int | None = None) -> None:
        raw = np.asarray(labels)
        if raw.ndim != 1:
            raise ValueError(f"group labels must be one sequence, got shape {raw.shape}")
        if raw.dtype.kind == "f":
            # refused, not truncated: 1.7 is no group, while 1.0 is group 1
            whole = np.isfinite(raw) & (np.trunc(raw) == raw)
            if not whole.all():
                i = int(np.argmin(whole))
                raise ValueError(f"unit {i} has group label {raw[i]}, which is not an integer")
        lab = np.array(raw, dtype=np.intp)
        n = lab.size
        if n < 1:
            raise ValueError("grouping must cover at least one unit")
        if k is None:
            k = int(lab.max()) + 1
        if k < 2:
            raise ValueError(f"need at least 2 groups, got k={k}")
        if k > n:
            raise ValueError(f"cannot split {n} units into {k} nonempty groups")
        outside = (lab < 0) | (lab >= k)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"unit {i} has group label {lab[i]} outside 0..{k - 1}")
        sizes = np.bincount(lab, minlength=k)
        if not sizes.all():
            raise ValueError(f"group {int(np.argmin(sizes)) + 1} is empty")
        # a stable sort keeps each group's units ascending
        order = np.argsort(lab, kind="stable")
        lab.setflags(write=False)
        order.setflags(write=False)
        self.n = n
        self.k = int(k)
        self._labels = lab
        self._index = tuple(np.split(order, np.cumsum(sizes[:-1])))

    def label(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"unit index {i} out of range for n={self.n}")
        return int(self._labels[i])

    def member_index(self, group: int) -> np.ndarray:
        """Ascending units of ``group`` as a read-only index array."""
        if not 0 <= group < self.k:
            raise ValueError(f"group {group} out of range for k={self.k}")
        return self._index[group]

    @property
    def labels(self) -> np.ndarray:
        """Every unit's group label, as a read-only array."""
        return self._labels

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(index.size for index in self._index)

    def __repr__(self) -> str:
        return f"Grouping(n={self.n}, k={self.k}, sizes={self.sizes})"


def check_consistent(zero_pattern: ZeroPattern, grouping: Grouping) -> None:
    if zero_pattern.n != grouping.n:
        raise ValueError(
            f"zero pattern covers {zero_pattern.n} units but grouping covers {grouping.n}"
        )


def build_zero_pattern(matrix: SymmetricMatrix, epsilon: float = 0.0) -> ZeroPattern:
    """Binarize ``matrix`` into its zero structure.

    Entry (i, j) becomes a zero partner iff |value| <= epsilon and
    i != j; the diagonal never appears regardless of its values. The
    default 0.0 keeps exact zeros, as for 0/1 matrices; a positive
    epsilon suits probability-valued matrices estimated numerically.
    """
    epsilon = float(epsilon)
    if not epsilon >= 0:
        raise ValueError(f"tolerance epsilon must be >= 0, got {epsilon}")
    a = matrix._data
    if a.dtype.kind == "u":
        # A fixed-width CSV's mantissa m (at most 15 digits) stands for
        # m / scale, which Python rounds exactly, as the parser does, and
        # monotonically in m, so the mantissas within epsilon are 0..t.
        top = min(int(np.iinfo(a.dtype).max), _FLOAT64_EXACT)
        t = bisect.bisect_right(range(top + 1), epsilon, key=lambda m: m / matrix._scale) - 1
        zero = a <= t
    else:
        zero = (a <= epsilon) & (a >= -epsilon)
    np.fill_diagonal(zero, False)
    return ZeroPattern(zero, _owned=True)
