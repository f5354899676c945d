"""Reading and writing matrices and groupings.

Two matrix formats are accepted. A dense matrix is CSV: n rows of n
comma-separated reals, no header. A sparse matrix is whitespace-separated
triplets ``i j value`` with 1-based indices; symmetric entries may be
given once and unlisted entries are zero. Its size is the ``n`` the
caller passes (the command line passes the grouping's), so trailing
units may have no entries; without one, it is the largest index seen.
Groupings are CSV lines ``unit,group`` with 1-based units and group
labels 1..k.

Every reader closes its files before it returns, on error too,
and registers no atexit handler or finalizer. So a process may end with
``os._exit``, as the command line does, which runs neither and skips
the interpreter's teardown, without losing anything a read left open.
"""

from __future__ import annotations

import io
import math
import os
import stat
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Collection, ContextManager, Iterable

import numpy as np

from .matrix import _FLOAT64_EXACT, Grouping, SymmetricMatrix

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
    # the byte reader takes only ASCII; "?" stands in for anything else.
    # Lines end at \n, \r or \r\n, where a file's lines end.
    return _parse_matrix(
        _load_fixed_width(io.BytesIO(text.encode("ascii", "replace"))),
        lambda: io.StringIO(text, newline=None),
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
    except _TooLarge as exc:
        row, reason = exc.args
        with lines() as text:
            lineno = [number for number, _ in _numbered_lines(text)][row]
        raise ValueError(f"{source}:{lineno}: {reason}") from None
    except ValueError as exc:
        reason = str(exc)
    with lines() as text:
        if dense:
            _check_dense(_numbered_lines(text), source)
        else:
            _check_triplets(_numbered_lines(text), source, n)
    raise ValueError(f"{source}: unreadable matrix: {reason}")


# A mantissa m of at most 15 digits is below 10**15 < 2^53, so m and 10**k
# are exact in float64 and the one division m / 10**k rounds correctly
# (Clinger's fast path): it is the value loadtxt parses. SymmetricMatrix
# keeps m and 10**k and divides only where a value is asked for.
_EXACT_DIGITS = 15
# bytes read, checked and converted at a time: whole rows, about this
# many, which keeps the one buffer in cache
_BLOCK_BYTES = 1 << 19


def _load_fixed_width(stream: BinaryIO) -> tuple[np.ndarray, int] | None:
    """Dense CSV kept as its decimal digits, or None when it has another layout.

    Taken only when every field has the width w of the first, every byte
    in a field is an ASCII digit except for a '.' at one position shared by
    all fields, a field has at most 15 digits, and every row holds the same
    two or more fields, separated by ',' and ended by '\\n' (optional at the
    end of the data); a row of one field has no comma and reads as triplets.
    That is what ``write_matrix_csv`` writes for a 0/1 matrix.

    ``stream`` is read from its start in blocks of whole rows, one block
    in memory at a time. When its first row ends past its end, or it yields
    fewer bytes than its end reported, the data changed size while it was
    read, and the result is None.

    Returns the mantissas m, in the narrowest unsigned dtype that holds
    them, and the scale 10**k, k the digits after the '.': each value is
    m / 10**k.
    """
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    first = stream.readline()
    row = len(first) + (not first.endswith(b"\n"))
    width = first.find(b",")
    if width < 1:
        return None
    stride = width + 1
    cols, rest = divmod(row, stride)
    rows = -(-size // row)
    missing = rows * row - size  # 1 when the data does not end in '\n'
    dot = first.find(b".", 0, width)
    digits = width - (dot >= 0)
    if rest or cols < 2 or missing > 1 or size < len(first) or not 1 <= digits <= _EXACT_DIGITS:
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
    out = np.empty((rows, cols), dtype=np.min_scalar_type(10**digits - 1))
    step = max(1, _BLOCK_BYTES // row)
    buffer = np.empty((min(step, rows), row), dtype=np.uint8)
    stream.seek(0)
    for start in range(0, rows, step):
        block = buffer[: min(step, rows - start)]
        flat = block.reshape(-1)
        expected = flat.size - missing * (start + step >= rows)
        if stream.readinto(flat[:expected]) != expected:
            return None
        flat[expected:] = ord("\n")
        np.subtract(block, low, out=block)
        # one maximum per byte position of a row checks the whole block
        if (block.max(axis=0) > span).any():
            return None
        # each digit byte of the block is now its value
        digit = block.reshape(len(block), cols, stride)
        value = out[start : start + len(block)]
        value[:] = digit[:, :, digit_columns[0]]
        for c in digit_columns[1:]:
            value *= 10
            value += digit[:, :, c]
    return out, 10 ** (width - 1 - dot if dot >= 0 else 0)


_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("value", np.float64)])


class _TooLarge(Exception):
    """A triplet matrix too large to allocate: (its largest index's row, why)."""


def _load_triplets(source: Iterable[str] | Path, n: int | None) -> np.ndarray:
    """The n-by-n matrix of a triplet file.

    When every value is an integer in 0..2^53 - 1, as in a 0/1 matrix,
    the matrix is kept in the narrowest unsigned dtype that holds them:
    for a 0/1 matrix an eighth of a float64 one. Such values are exact in
    float64, so the cast changes none. Any other file keeps its values as
    float64.
    """
    t = np.loadtxt(source, dtype=_TRIPLET, comments=None, ndmin=1, encoding="utf-8")
    # 0-based in the table's own fields, so that the flat indices are the
    # only index arrays the scatter adds
    i, j, value = t["i"], t["j"], t["value"]
    i -= 1
    j -= 1
    if min(i.min(), j.min()) < 0 or not np.isfinite(value).all():
        raise ValueError("invalid triplet")
    largest = value.max()
    if 0 <= value.min() and largest < _FLOAT64_EXACT and (np.trunc(value) == value).all():
        dtype = np.min_scalar_type(int(largest))
        value = value.astype(dtype)
    else:
        dtype = np.float64
    top = int(max(i.max(), j.max())) + 1
    if n is None:
        n = top
        try:
            a = np.zeros((n, n), dtype=dtype)
        except (MemoryError, ValueError):  # ValueError: too big to address
            reason = f"index {n} asks for a {n}-by-{n} matrix, more than can be allocated"
            raise _TooLarge(int(np.argmax(np.maximum(i, j))), reason) from None
    elif top > n:
        raise ValueError(f"index {top} out of range for n={n}")
    else:
        a = np.zeros((n, n), dtype=dtype)
    # flat indices into a's one contiguous buffer index faster than (i, j)
    flat = a.reshape(-1)
    upper, lower = i * n + j, j * n + i
    flat[upper] = value
    flat[lower] = value
    # a duplicate that disagrees leaves one of its two cells unequal to it
    if (flat[upper] != value).any() or (flat[lower] != value).any():
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


def _grouping_labels(text: str) -> tuple[np.ndarray, int] | None:
    """0-based labels and k of a grouping that numpy reads as two columns
    of integers, with units 1..n each once and every label 1..k used; None
    for any other text, which the line loop then parses or rejects with
    the line that fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty text only warns
            values = np.loadtxt(
                io.StringIO(text, newline=None),
                dtype=np.int64,
                delimiter=",",
                comments=None,
                ndmin=2,
            )
    except (ValueError, Warning):
        return None
    if values.shape[1] != 2:
        return None
    units, groups = values.T
    n = units.size
    if units.min() < 1 or units.max() != n or groups.min() < 1:
        return None
    k = int(groups.max())
    if k > n or not np.bincount(units)[1:].all() or not np.bincount(groups)[1:].all():
        return None
    labels = np.empty(n, dtype=np.int64)
    labels[units - 1] = groups - 1
    return labels, k


def _grouping_labels_by_line(text: str, source: str) -> tuple[list[int], int]:
    assigned: dict[int, tuple[int, int]] = {}
    for lineno, line in _numbered_lines(io.StringIO(text, newline=None)):
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


def _first_gap(values: Collection[int]) -> int:
    """The least integer from 1 up that is not among the positive ``values``.

    It takes time and memory for the values given, not for the largest,
    so a unit or label of 10**12 is named as cheaply as one of 10.
    """
    return min(set(range(1, len(values) + 2)).difference(values))


def read_matrix(path: str | Path, n: int | None = None) -> SymmetricMatrix:
    """Read a dense CSV or triplet matrix; ``n`` sizes a triplet matrix.

    A regular file is checked for the fixed-width layout a block of rows
    at a time, never held whole; if it has another layout, numpy reads it
    again from the path. Any other source, such as a pipe, is read once
    into memory.
    """
    path = Path(path)
    with path.open("rb") as file:
        regular = stat.S_ISREG(os.fstat(file.fileno()).st_mode)
        # A pipe cannot be read again, so the format sniff, the parse and the
        # rescan that names a bad line all work on its bytes.
        data = None if regular else file.read()
        fixed = _load_fixed_width(file if regular else io.BytesIO(data))
    lines = lambda: io.TextIOWrapper(  # noqa: E731
        path.open("rb") if regular else io.BytesIO(data), encoding="utf-8"
    )
    try:
        return _parse_matrix(fixed, lines, str(path), n, path if regular else None)
    except UnicodeDecodeError:
        # the text readers give only an offset into the chunk they decoded
        _decode(path.read_bytes() if regular else data, str(path))
        raise


def read_grouping(path: str | Path) -> Grouping:
    path = Path(path)
    return parse_grouping_text(_decode(path.read_bytes(), str(path)), source=str(path))


def _decode(data: bytes, source: str) -> str:
    """``data`` as UTF-8 text; the first byte that is not UTF-8 raises,
    named with its 1-based line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r or \r\n, as text mode reads them; the "." ends
        # the bad byte's own line short of any line end
        line = len((data[: exc.start] + b".").splitlines())
        raise ValueError(
            f"{source}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def write_matrix_csv(matrix: SymmetricMatrix, path: str | Path) -> None:
    a = matrix.to_array()
    lines = [",".join(repr(float(v)) for v in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n")


def write_grouping_csv(grouping: Grouping, path: str | Path) -> None:
    lines = [f"{i + 1},{grouping.label(i) + 1}" for i in range(grouping.n)]
    Path(path).write_text("\n".join(lines) + "\n")
