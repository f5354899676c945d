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
import itertools
import math
from pathlib import Path
from typing import Callable, Iterable

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
    return _parse_matrix(lambda: contextlib.nullcontext(text.splitlines()), source)


def _parse_matrix(
    open_lines: Callable[[], contextlib.AbstractContextManager[Iterable[str]]],
    source: str,
    n: int | None = None,
    path: Path | None = None,
) -> SymmetricMatrix:
    """Parse with numpy; when numpy refuses, rescan the lines to name the bad one.

    Given the ``path`` of a regular file, loadtxt reads triplets from it in
    large chunks, several times faster than from lines.
    """
    with open_lines() as handle:
        nonblank = (line for line in handle if line.strip())
        first = next(nonblank, None)
        if first is None:
            raise ValueError(f"{source}: no matrix entries found")
        # Commas mean a dense CSV; bare whitespace means triplets.
        dense = "," in first
        lines = itertools.chain([first], nonblank)
        try:
            if dense:
                a = np.loadtxt(
                    lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2
                )
            else:
                a = _load_triplets(lines if path is None else path, n)
        except ValueError as exc:
            a, reason = None, str(exc)
    if a is None:
        with open_lines() as lines:
            if dense:
                _check_dense(_numbered_lines(lines), source)
            else:
                _check_triplets(_numbered_lines(lines), source, n)
        raise ValueError(f"{source}: unreadable matrix: {reason}")
    try:
        return SymmetricMatrix(a, _owned=True)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


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
    missing = [u for u in range(1, n + 1) if u not in assigned]
    if missing:
        raise ValueError(f"{source}: unit {missing[0]} has no group assignment")
    k = max(group for group, _ in assigned.values())
    labels = [assigned[u][0] - 1 for u in range(1, n + 1)]
    used = set(labels)
    unused = [g for g in range(k) if g not in used]
    if unused:
        raise ValueError(
            f"{source}: group labels must cover 1..{k}, label {unused[0] + 1} unused"
        )
    try:
        return Grouping(labels, k)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def read_matrix(path: str | Path, n: int | None = None) -> SymmetricMatrix:
    """Read a dense CSV or triplet matrix; ``n`` sizes a triplet matrix."""
    path = Path(path)
    # a pipe can be read only once, so only a regular file goes to loadtxt
    # by path; the sniffed lines carry the rest
    return _parse_matrix(path.open, str(path), n, path if path.is_file() else None)


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
