"""Reading and writing matrices and groupings.

Two matrix formats are accepted. A dense matrix is CSV: n rows of n
comma-separated reals, no header. A sparse matrix is whitespace-separated
triplets ``i j value`` with 1-based indices; symmetric entries may be
given once and unlisted entries are zero. Its size is the ``n`` the
caller passes (the command line passes the grouping's), so trailing
units may have no entries; without one, it is the largest index seen.
Groupings are CSV lines ``unit,group`` with 1-based units and group
labels 1..k.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
import stat
from pathlib import Path
from typing import Callable, ContextManager, Iterable

import numpy as np

from .matrix import Grouping, SymmetricMatrix

__all__ = [
    "read_matrix",
    "read_grouping",
    "parse_matrix_text",
    "parse_grouping_text",
    "write_matrix_csv",
    "write_grouping_csv",
]


def _numbered_lines(lines: Iterable[str]):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def parse_matrix_text(text: str, source: str = "<matrix>") -> SymmetricMatrix:
    # the byte reader takes only ASCII; "?" stands in for anything else
    lines = text.splitlines()
    return _parse_matrix(
        _load_fixed_width(text.encode("ascii", "replace")),
        lambda: contextlib.nullcontext(lines),
        source,
    )


def _parse_matrix(
    fixed: tuple[np.ndarray, int] | None,
    lines: Callable[[], ContextManager[Iterable[str]]],
    source: str,
    n: int | None = None,
    path: Path | None = None,
) -> SymmetricMatrix:
    """The matrix ``_load_fixed_width`` gave, or else the one read from ``lines``.

    Each call of ``lines`` opens the text anew. Given the ``path`` of a
    regular file, loadtxt reads triplets from it in large chunks, several
    times faster than from lines.
    """
    a, scale = (_load_lines(lines, source, n, path), 1) if fixed is None else fixed
    try:
        return SymmetricMatrix(a, _owned=True, _scale=scale)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _load_lines(
    lines: Callable[[], ContextManager[Iterable[str]]],
    source: str,
    n: int | None,
    path: Path | None,
) -> np.ndarray:
    """Parse with numpy; when numpy refuses, rescan the lines to name the bad one."""
    with lines() as text:
        first = next((line for line in text if line.strip()), None)
    if first is None:
        raise ValueError(f"{source}: no matrix entries found")
    # Commas mean a dense CSV; bare whitespace means triplets.
    dense = "," in first
    try:
        if not dense and path is not None:
            return _load_triplets(path, n)
        with lines() as text:
            nonblank = (line for line in text if line.strip())
            if dense:
                return np.loadtxt(nonblank, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
            return _load_triplets(nonblank, n)
    except ValueError as exc:
        reason = str(exc)
    with lines() as text:
        if dense:
            _check_dense(_numbered_lines(text), source)
        else:
            _check_triplets(_numbered_lines(text), source, n)
    raise ValueError(f"{source}: unreadable matrix: {reason}")


# A mantissa m of at most 15 digits is below 10**15 < 2**53, so m and 10**k
# are exact in float64 and the one division m / 10**k rounds correctly
# (Clinger's fast path): it is the value loadtxt parses. SymmetricMatrix
# keeps m and 10**k and divides only where a value is asked for.
_EXACT_DIGITS = 15
# bytes checked and converted at a time: whole rows, about this many,
# which keeps the temporaries in cache
_BLOCK_BYTES = 1 << 19
_MANTISSA_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def _load_fixed_width(data: bytes | mmap.mmap) -> tuple[np.ndarray, int] | None:
    """Dense CSV kept as its decimal digits, or None when it has another layout.

    Taken only when every field has the width w of the first, every byte
    in a field is an ASCII digit except for a '.' at one position shared by
    all fields, a field has at most 15 digits, and every row holds the same
    two or more fields, separated by ',' and ended by '\\n' (optional at the
    end of the data); a row of one field has no comma and reads as triplets.
    That is what ``write_matrix_csv`` writes for a 0/1 matrix. No array
    returned is a view of ``data``, so a map of it can be closed after.

    Returns the mantissas m, in the narrowest unsigned dtype that holds
    them, and the scale 10**k, k the digits after the '.': each value is
    m / 10**k.
    """
    end = data.find(b"\n")
    row = end + 1 if end >= 0 else len(data) + 1
    width = data.find(b",", 0, row)
    if width < 1:
        return None
    stride = width + 1
    cols, rest = divmod(row, stride)
    rows = -(-len(data) // row)
    missing = rows * row - len(data)  # 1 when the data does not end in '\n'
    dot = data.find(b".", 0, width)
    digits = width - (dot >= 0)
    if rest or cols < 2 or missing > 1 or not 1 <= digits <= _EXACT_DIGITS:
        return None
    # One byte template for a row: byte b at position i is valid iff
    # b - low[i] <= span[i] in uint8, where bytes below low wrap past 255.
    low = np.full((cols, stride), ord("0"), dtype=np.uint8)
    span = np.full((cols, stride), 9, dtype=np.uint8)
    low[:, width] = ord(",")
    low[-1, width] = ord("\n")
    span[:, width] = 0
    if dot >= 0:
        low[:, dot] = ord(".")
        span[:, dot] = 0
    low, span = low.reshape(row), span.reshape(row)
    digit_columns = [c for c in range(width) if c != dot]
    # the narrowest unsigned dtype that holds every mantissa below 10**digits
    dtype = next(t for t in _MANTISSA_DTYPES if 10**digits <= np.iinfo(t).max)
    out = np.empty((rows, cols), dtype=dtype)
    step = max(1, _BLOCK_BYTES // row)
    t = np.empty((min(step, rows), row), dtype=np.uint8)
    ok = np.empty(t.shape, dtype=np.bool_)
    whole = rows - missing
    grid = np.frombuffer(data, dtype=np.uint8, count=whole * row).reshape(whole, row)
    blocks = [(start, grid[start : start + step]) for start in range(0, whole, step)]
    if missing:
        # the last row and its missing '\n', copied alone
        last = np.frombuffer(data[whole * row :] + b"\n", dtype=np.uint8)
        blocks.append((whole, last.reshape(1, row)))
    for start, block in blocks:
        size = len(block)
        np.subtract(block, low, out=t[:size])
        if not np.less_equal(t[:size], span, out=ok[:size]).all():
            return None
        # each digit byte of t is now its value
        digit = t[:size].reshape(size, cols, stride)
        value = out[start : start + size]
        value[:] = digit[:, :, digit_columns[0]]
        for c in digit_columns[1:]:
            value *= 10
            value += digit[:, :, c]
    return out, 10 ** (width - 1 - dot if dot >= 0 else 0)


_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("value", np.float64)])


def _load_triplets(source: Iterable[str] | Path, n: int | None) -> np.ndarray:
    t = np.loadtxt(source, dtype=_TRIPLET, comments=None, ndmin=1)
    i, j, value = t["i"] - 1, t["j"] - 1, t["value"]
    if min(i.min(), j.min()) < 0 or not np.isfinite(value).all():
        raise ValueError("invalid triplet")
    top = int(max(i.max(), j.max())) + 1
    if n is None:
        n = top
    elif top > n:
        raise ValueError(f"index {top} out of range for n={n}")
    a = np.zeros((n, n))
    a[i, j] = value
    a[j, i] = value
    # a duplicate that disagrees leaves one of its two cells unequal to it
    if (a[i, j] != value).any() or (a[j, i] != value).any():
        raise ValueError("conflicting duplicate triplets")
    return a


def _check_dense(lines, source: str) -> None:
    width = None
    for lineno, line in lines:
        fields = [f.strip() for f in line.split(",")]
        for field in fields:
            try:
                float(field)
            except ValueError:
                raise ValueError(f"{source}:{lineno}: invalid number {field!r}") from None
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(
                f"{source}:{lineno}: expected {width} columns, found {len(fields)}"
            )


def _check_triplets(lines, source: str, n: int | None) -> None:
    seen: dict[tuple[int, int], tuple[float, int]] = {}
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(
                f"{source}:{lineno}: expected 'i j value', found {len(fields)} fields"
            )
        try:
            i, j = int(fields[0]), int(fields[1])
            value = float(fields[2])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: invalid triplet {line!r}") from None
        if i < 1 or j < 1:
            raise ValueError(f"{source}:{lineno}: indices are 1-based, got ({i},{j})")
        if n is not None and max(i, j) > n:
            raise ValueError(
                f"{source}:{lineno}: entry ({i},{j}) out of range for n={n}"
            )
        if not math.isfinite(value):
            raise ValueError(f"{source}:{lineno}: entry ({i},{j}) is not finite")
        key = (min(i, j), max(i, j))
        if key in seen:
            prior, prior_line = seen[key]
            if prior != value:
                raise ValueError(
                    f"{source}:{lineno}: entry ({i},{j}) is {value!r} but line "
                    f"{prior_line} gave {prior!r}"
                )
        else:
            seen[key] = (value, lineno)


def parse_grouping_text(text: str, source: str = "<grouping>") -> Grouping:
    labels, k = _grouping_labels(text) or _grouping_labels_by_line(text, source)
    try:
        return Grouping(labels, k)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


# the longest field the fast grouping parse takes, so that its values stay
# far below int64's limit; a longer one goes to the line loop
_GROUPING_DIGITS = 9


def _grouping_labels(text: str) -> tuple[list[int], int] | None:
    """0-based labels and k of a grouping whose every non-blank line is
    ASCII ``digits,digits``, with units 1..n each once and every label
    1..k used; None for any other text, which the line loop then parses
    or rejects with the line that fails."""
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    digit = (data >= ord("0")) & (data <= ord("9"))
    comma = np.flatnonzero(data == ord(","))
    if not comma.size or np.count_nonzero(digit | (data == ord("\n"))) + comma.size != data.size:
        return None
    # every comma sits between two digits, every line that has a digit
    # has exactly one comma, and no field is longer than _GROUPING_DIGITS
    # stop[i + 1] is True where byte i is not a digit, and stop is True at
    # both ends, so the runs between its Trues are the fields
    stop = np.concatenate(([True], ~digit, [True]))
    if stop[comma].any() or stop[comma + 2].any():
        return None
    line = np.cumsum(data == ord("\n"))
    digit_lines = line[digit]  # ascending, so its first of each line marks it
    if not np.array_equal(line[comma], digit_lines[np.diff(digit_lines, prepend=-1) > 0]):
        return None
    if np.diff(np.flatnonzero(stop)).max() > _GROUPING_DIGITS + 1:
        return None
    values = np.fromstring(text.replace(",", " "), dtype=np.int64, sep=" ")
    units, groups = values[0::2], values[1::2]
    n = units.size
    if units.min() < 1 or units.max() != n or groups.min() < 1:
        return None
    k = int(groups.max())
    if k > n or not np.bincount(units)[1:].all() or not np.bincount(groups)[1:].all():
        return None
    labels = np.empty(n, dtype=np.int64)
    labels[units - 1] = groups - 1
    return labels.tolist(), k


def _grouping_labels_by_line(text: str, source: str) -> tuple[list[int], int]:
    assigned: dict[int, tuple[int, int]] = {}
    for lineno, line in _numbered_lines(text.splitlines()):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ValueError(
                f"{source}:{lineno}: expected 'unit,group', found {len(fields)} fields"
            )
        try:
            unit, group = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: invalid assignment {line!r}") from None
        if unit < 1:
            raise ValueError(f"{source}:{lineno}: unit indices are 1-based, got {unit}")
        if group < 1:
            raise ValueError(f"{source}:{lineno}: group labels are 1-based, got {group}")
        if unit in assigned:
            raise ValueError(
                f"{source}:{lineno}: unit {unit} assigned twice "
                f"(first on line {assigned[unit][1]})"
            )
        assigned[unit] = (group, lineno)
    if not assigned:
        raise ValueError(f"{source}: no group assignments found")
    n = max(assigned)
    missing = _first_gap(assigned)
    if missing <= n:
        raise ValueError(f"{source}: unit {missing} has no group assignment")
    used = {group for group, _ in assigned.values()}
    k = max(used)
    unused = _first_gap(used)
    if unused <= k:
        raise ValueError(f"{source}: group labels must cover 1..{k}, label {unused} unused")
    return [assigned[u][0] - 1 for u in range(1, n + 1)], k


def _first_gap(values: Iterable[int]) -> int:
    """The least integer from 1 up that is not among the positive ``values``.

    It takes time and memory for the values given, not for the largest,
    so a unit or label of 10**12 is named as cheaply as one of 10.
    """
    gap = 1
    for value in sorted(values):
        if value != gap:
            break
        gap += 1
    return gap


def read_matrix(path: str | Path, n: int | None = None) -> SymmetricMatrix:
    """Read a dense CSV or triplet matrix; ``n`` sizes a triplet matrix.

    A regular file is mapped, not copied, to check it for the fixed-width
    layout; if it has another, numpy reads it again from the path. Any
    other source, such as a pipe, is read once into memory.
    """
    path = Path(path)
    with path.open("rb") as file:
        info = os.fstat(file.fileno())
        mapped = stat.S_ISREG(info.st_mode) and info.st_size > 0
        if mapped:
            with mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) as data:
                try:
                    fixed = _load_fixed_width(data)
                except BaseException as exc:
                    # the parse's frames in the traceback hold numpy views
                    # of the map, which would make closing it raise instead
                    tb = exc.__traceback__.tb_next
                    while tb is not None:
                        tb.tb_frame.clear()
                        tb = tb.tb_next
                    raise
        else:
            data = file.read()
    if mapped:
        return _parse_matrix(fixed, path.open, str(path), n, path)
    # A pipe cannot be read again, so the format sniff, the parse and the
    # rescan that names a bad line all work on these bytes.
    return _parse_matrix(
        _load_fixed_width(data), lambda: io.TextIOWrapper(io.BytesIO(data)), str(path), n
    )


def read_grouping(path: str | Path) -> Grouping:
    path = Path(path)
    return parse_grouping_text(path.read_text(), source=str(path))


def write_matrix_csv(matrix: SymmetricMatrix, path: str | Path) -> None:
    a = matrix.to_array()
    lines = [",".join(repr(float(v)) for v in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n")


def write_grouping_csv(grouping: Grouping, path: str | Path) -> None:
    lines = [f"{i + 1},{grouping.label(i) + 1}" for i in range(grouping.n)]
    Path(path).write_text("\n".join(lines) + "\n")
