import codecs
import contextlib
import io
import math
import os
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musearch import fileio
from musearch.fileio import (
    _load_fixed_width,
    parse_grouping_text,
    parse_matrix_text,
    read_grouping,
    read_matrix,
    write_grouping_csv,
    write_matrix_csv,
)
from musearch.fixtures import FIXTURES, load
from musearch.matrix import SymmetricMatrix, build_zero_pattern

from conftest import fresh_python


def test_parse_dense_csv():
    m = parse_matrix_text("1,0.5,0\n0.5,1,0\n0,0,1\n")
    assert m.n == 3
    assert m.to_array()[0, 1] == 0.5


@pytest.mark.parametrize("text", ["\n1,0\n   \n0,1\n\n", "\n\n1 1 1\n  \n2 2 1\n"])
def test_parse_skips_blank_lines(text):
    m = parse_matrix_text(text)
    assert m.n == 2
    assert m.to_array()[0, 1] == 0.0
    assert m.to_array()[1, 1] == 1.0


def test_parse_dense_unreadable_without_bad_field():
    # Python's float() takes digit separators, the numpy parser does not:
    # the line scan finds no bad field and the error names the source
    with pytest.raises(ValueError, match=r"^<matrix>: unreadable matrix"):
        parse_matrix_text("1,1_0\n1_0,1\n")


def test_parse_dense_bad_number():
    with pytest.raises(ValueError, match=r"<matrix>:2: invalid number 'x'"):
        parse_matrix_text("1,0\nx,1\n")


def test_parse_dense_ragged_rows():
    with pytest.raises(ValueError, match=r":2: expected 2 columns"):
        parse_matrix_text("1,0\n0,1,1\n")


def test_parse_dense_not_square():
    with pytest.raises(ValueError, match="square"):
        parse_matrix_text("1,0,0\n0,1,0\n")


def test_parse_dense_asymmetric_is_rejected():
    with pytest.raises(ValueError, match="not symmetric"):
        parse_matrix_text("1,1\n0,1\n")


def test_parse_triplets():
    m = parse_matrix_text("1 2 1\n2 3 0.5\n3 3 1\n")
    assert m.n == 3
    assert m.to_array()[0, 1] == 1.0
    assert m.to_array()[1, 0] == 1.0  # mirrored
    assert m.to_array()[0, 2] == 0.0  # unlisted means zero
    assert m.to_array()[2, 2] == 1.0


def test_parse_triplets_conflicting_duplicate():
    with pytest.raises(ValueError, match=r":2: entry \(2,1\)"):
        parse_matrix_text("1 2 1\n2 1 0\n")


def test_parse_triplets_conflicting_duplicate_same_order():
    with pytest.raises(ValueError, match=r":3: entry \(1,2\) is 0.0 but line 1"):
        parse_matrix_text("1 2 1\n2 2 1\n1 2 0\n")


def test_parse_triplets_consistent_duplicate_ok():
    m = parse_matrix_text("1 2 1\n2 1 1\n")
    assert m.to_array()[0, 1] == 1.0


def test_parse_triplets_bad_field_count():
    with pytest.raises(ValueError, match=r":1: expected 'i j value'"):
        parse_matrix_text("1 2\n")


def test_parse_triplets_zero_index():
    with pytest.raises(ValueError, match="1-based"):
        parse_matrix_text("0 2 1\n")


def test_empty_matrix_file():
    with pytest.raises(ValueError, match="no matrix entries"):
        parse_matrix_text("\n\n")


def test_parse_grouping():
    g = parse_grouping_text("1,1\n2,2\n3,1\n")
    assert g.n == 3
    assert g.k == 2
    assert g.labels.tolist() == [0, 1, 0]


def test_parse_grouping_duplicate_unit():
    with pytest.raises(ValueError, match=r":3: unit 1 assigned twice"):
        parse_grouping_text("1,1\n2,2\n1,2\n")


@pytest.mark.parametrize(
    "text, line, unit", [("0,1\n1,2\n2,1\n", 1, 0), ("1,1\n-1,2\n2,1\n", 2, -1)]
)
def test_parse_grouping_refuses_units_below_one(text, line, unit):
    message = f"g.csv:{line}: unit indices are 1-based, got {unit}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_grouping_text(text, "g.csv")


def test_parse_grouping_missing_unit():
    with pytest.raises(ValueError, match="unit 2 has no group"):
        parse_grouping_text("1,1\n3,2\n")


def test_parse_grouping_label_gap():
    with pytest.raises(ValueError, match="label 2 unused"):
        parse_grouping_text("1,1\n2,3\n3,1\n")


def test_parse_grouping_single_group():
    with pytest.raises(ValueError, match="at least 2 groups"):
        parse_grouping_text("1,1\n2,1\n")


def test_parse_grouping_names_gaps_below_huge_values():
    # the first unassigned unit and unused label are found from the values
    # given, without a pass over every number below the largest
    with pytest.raises(ValueError, match="unit 2 has no group"):
        parse_grouping_text("1,1\n1000000000000,2\n")
    with pytest.raises(ValueError, match="label 2 unused"):
        parse_grouping_text("1,1\n2,1000000000000\n")


# characters that str.splitlines ends a line at, but a matrix file does not
@pytest.mark.parametrize(
    "mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_grouping_lines_end_where_matrix_lines_do(mark):
    with pytest.raises(ValueError, match="<grouping>:2: expected 'unit,group', found 3 fields"):
        parse_grouping_text(f"1,1\n2,2{mark}3,1\n")
    with pytest.raises(ValueError, match="<grouping>:4: invalid assignment 'x,1'"):
        parse_grouping_text(f"1,1\n2,2\n{mark}\nx,1\n")


def _grouping_outcome(text):
    """The labels and k parsed from ``text``, or the error message."""
    try:
        grouping = parse_grouping_text(text)
    except ValueError as exc:
        return str(exc)
    return grouping.labels.tolist(), grouping.k


def _with_line(lines, at, line):
    return lines[:at] + [line] + lines[at + 1 :]


def _fields(lines, at):
    return lines[at].split(",")


def _comma_moved(lines, at):
    # "u1,l1" "u2,l2" -> "u1,l1,u2" "l2": the same numbers, in the same order
    if at + 1 == len(lines):
        return lines
    unit, label = _fields(lines, at + 1)
    return lines[:at] + [f"{lines[at]},{unit}", label] + lines[at + 2 :]


# each edits the lines of a grouping at one line index; the first keeps
# the text on the numpy path, the others, which int() or the checks
# treat differently, must come out as the line loop has them
_GROUPING_EDITS = {
    "none": lambda lines, at: lines,
    "crlf": lambda lines, at: _with_line(lines, at, lines[at] + "\r"),
    "spaces": lambda lines, at: _with_line(lines, at, " " + lines[at].replace(",", " , ")),
    "plus": lambda lines, at: _with_line(lines, at, "+" + lines[at]),
    "underscore": lambda lines, at: _with_line(lines, at, lines[at].replace(",", "_0,")),
    "non-ascii digit": lambda lines, at: _with_line(
        lines, at, chr(0x660 + int(lines[at][0])) + lines[at][1:]
    ),
    "leading zero": lambda lines, at: _with_line(lines, at, "0" + lines[at]),
    "blank line": lambda lines, at: lines[:at] + [""] + lines[at:],
    "space line": lambda lines, at: lines[:at] + ["  "] + lines[at:],
    "duplicate unit": lambda lines, at: lines + [lines[at]],
    "missing unit": lambda lines, at: lines[:at] + lines[at + 1 :],
    "unused label": lambda lines, at: _with_line(
        lines, at, f"{_fields(lines, at)[0]},{len(lines) + 2}"
    ),
    "zero unit": lambda lines, at: _with_line(lines, at, f"0,{_fields(lines, at)[1]}"),
    "zero label": lambda lines, at: _with_line(lines, at, f"{_fields(lines, at)[0]},0"),
    "three fields": lambda lines, at: _with_line(lines, at, lines[at] + ",1"),
    "lone comma": lambda lines, at: _with_line(lines, at, _fields(lines, at)[0] + ","),
    "no unit": lambda lines, at: _with_line(lines, at, "," + _fields(lines, at)[1]),
    "no comma": lambda lines, at: _with_line(lines, at, lines[at].replace(",", "")),
    # on the last line, where the numbers that follow cannot realign
    "lone unit": lambda lines, at: lines[:-1] + [_fields(lines, -1)[0]],
    "comma moved": lambda lines, at: _comma_moved(lines, at),
    # one unit twice and another missing, the line count unchanged
    "unit twice": lambda lines, at: _with_line(
        lines, at, f"{_fields(lines, at - 1)[0]},{_fields(lines, at)[1]}"
    ),
    "surrogate": lambda lines, at: _with_line(lines, at, "\ud800" + lines[at]),
    "ten digits": lambda lines, at: _with_line(lines, at, f"{10**9},{_fields(lines, at)[1]}"),
}


@st.composite
def grouping_lines(draw):
    # units 1..n in any order, every label of 1..k used
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n))
    tail = draw(st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(list(range(1, k + 1)) + tail))
    units = draw(st.permutations(range(1, n + 1)))
    return [f"{unit},{labels[unit - 1]}" for unit in units]


@given(
    grouping_lines(),
    st.sampled_from(sorted(_GROUPING_EDITS)),
    st.sampled_from(["", "\n", "\n\n"]),
    st.data(),
)
@settings(max_examples=400)
def test_grouping_fast_path_matches_line_loop(lines, edit, end, data):
    lines = _GROUPING_EDITS[edit](lines, data.draw(st.integers(0, len(lines) - 1)))
    text = "\n".join(lines) + end
    assert_grouping_matches_line_loop(text)
    if edit == "none":
        assert fileio._grouping_labels(text) is not None


@pytest.mark.parametrize("text", ["", "\n\n", "1\n", ",\n", "1,1\n2\n", ",1\n", "1,1,\n"])
def test_grouping_without_assignments_matches_line_loop(text):
    assert_grouping_matches_line_loop(text)


def assert_grouping_matches_line_loop(text):
    got = _grouping_outcome(text)
    with mock.patch.object(fileio, "_grouping_labels", lambda text: None):
        assert got == _grouping_outcome(text)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_round_trip(tmp_path, name):
    matrix, grouping = load(name)
    matrix_path = tmp_path / "m.csv"
    groups_path = tmp_path / "g.csv"
    write_matrix_csv(matrix, matrix_path)
    write_grouping_csv(grouping, groups_path)
    again = read_matrix(matrix_path)
    g_again = read_grouping(groups_path)
    a, b = build_zero_pattern(matrix), build_zero_pattern(again)
    assert np.array_equal(a.to_array(), b.to_array())
    assert np.array_equal(g_again.labels, grouping.labels)


def test_read_matrix_names_file_in_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\noops,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2"):
        read_matrix(path)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"1,0\n0,\xff1\n", 2),
        (b"1.0,0.0\n0.0,1.0\n\n\xfe\n", 4),
        (b"1,0\r0,\xff1\r", 2),
        (b"1,0\r\n\r\n0,1\xff\r\n", 3),
        (b"1 1 1\n2 2 \xff\n", 2),
        # past the first chunk that the text reader decodes
        (b"1 1 1\n" * 5000 + b"2 2 1\xc3\n", 5001),
    ],
    ids=["dense", "blank-line", "cr", "crlf", "triplets", "late-line"],
)
def test_read_matrix_names_line_of_undecodable_byte(tmp_path, data, line):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    message = rf"^{re.escape(str(path))}:{line}: byte 0x.. is not UTF-8"
    with pytest.raises(ValueError, match=message):
        read_matrix(path, n=2)


def test_read_grouping_names_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "g.csv"
    path.write_bytes(b"1,1\n2,\xff2\n")
    message = rf"^{re.escape(str(path))}:2: byte 0xff is not UTF-8 \(invalid start byte\)$"
    with pytest.raises(ValueError, match=message):
        read_grouping(path)


def test_read_grouping_takes_crlf_by_numpy(tmp_path, monkeypatch):
    path = tmp_path / "g.csv"
    path.write_bytes(b"1,1\r\n2,2\r\n3,1\r\n")
    parsed = []
    parse = fileio._grouping_labels
    monkeypatch.setattr(
        fileio, "_grouping_labels", lambda text: parsed.append(parse(text)) or parsed[-1]
    )
    assert read_grouping(path).labels.tolist() == [0, 1, 0]
    assert parsed[0] is not None


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_files_decode_as_utf8_whatever_the_locale(tmp_path):
    # "é" decodes, so the parser names the line it cannot read, for a dense
    # file, a triplet file, a piped triplet file and a grouping alike
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    encoding = fresh_python(
        ["-c", "import locale; print(locale.getpreferredencoding(False))"], **ascii_locale
    ).stdout.strip()
    if codecs.lookup(encoding).name == "utf-8":
        pytest.skip("the C locale reads UTF-8 here")
    (tmp_path / "m.csv").write_bytes("1,0\n0,é\n".encode())
    (tmp_path / "m.txt").write_bytes("1 1 1\n2 2 é\n".encode())
    (tmp_path / "g.csv").write_bytes("1,1\n2,é\n".encode())
    code = (
        "import os, sys\n"
        "from pathlib import Path\n"
        "from musearch.fileio import read_grouping, read_matrix\n"
        "r, w = os.pipe()\n"
        "os.write(w, Path(sys.argv[2]).read_bytes())\n"
        "os.close(w)\n"
        "pipe = f'/dev/fd/{r}'\n"
        "reads = [(read_matrix, path) for path in sys.argv[1:3]]\n"
        "reads += [(read_matrix, pipe), (read_grouping, sys.argv[3])]\n"
        "for read, path in reads:\n"
        "    try:\n        read(path)\n"
        "    except ValueError as exc:\n"
        "        print(ascii(str(exc).replace(pipe, '<pipe>')))\n"
    )
    paths = [str(tmp_path / name) for name in ("m.csv", "m.txt", "g.csv")]
    done = fresh_python(["-c", code, *paths], **ascii_locale)
    expected = [
        f"{paths[0]}:2: invalid number 'é'",
        f"{paths[1]}:2: invalid triplet '2 2 é'",
        "<pipe>:2: invalid triplet '2 2 é'",
        f"{paths[2]}:2: invalid assignment '2,é'",
    ]
    assert (done.stdout, done.stderr) == ("".join(ascii(e) + "\n" for e in expected), "")


def test_read_triplets_sized_by_n(tmp_path):
    # read from the path; blank lines are skipped and the unlisted last
    # unit is kept as all zeros
    path = tmp_path / "m.txt"
    path.write_text("\n1 1 1\n  \n2 1 0.5\n\t\n2 2 1\n")
    m = read_matrix(path, n=3)
    assert m.n == 3
    assert m.to_array()[0, 1] == 0.5
    assert not m.to_array()[2].any()
    assert read_matrix(path).n == 2


def test_read_triplets_index_beyond_n(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 1 1\n2 2 1\n3 1 1\n")
    with pytest.raises(ValueError, match=r"m\.txt:3: entry \(3,1\) out of range for n=2"):
        read_matrix(path, n=2)


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
@pytest.mark.parametrize("unit", [100_000, 10**12])
def test_read_triplets_without_n_names_an_index_too_large(tmp_path, unit):
    # sized by their largest index, 10^10 cells cannot be allocated within
    # the 4 GiB of address space the reading process is capped at, so that
    # no machine lazily grants them, and 10^24 cells on no machine at all
    path = tmp_path / "m.txt"
    path.write_text(f"1 1 1\n\n2 2 1\n{unit} 1 1\n{unit} 2 1\n")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))\n"
        "from musearch.fileio import read_matrix\n"
        "try:\n    read_matrix(sys.argv[1])\n"
        "except ValueError as exc:\n    print(exc)\n"
    )
    done = fresh_python(["-c", code, str(path)], OPENBLAS_NUM_THREADS="1")
    assert (done.stdout, done.stderr) == (
        f"{path}:4: index {unit} asks for a {unit}-by-{unit} matrix, more than can be "
        "allocated\n",
        "",
    )


# Triplet files whose values are all integers in 0..2**53 - 1 are kept as
# integers; every other file keeps float64 values. Patching the bound to 0
# keeps every file as floats, the reference here.
_INTEGER_VALUES = [
    "0", "1", "255", "256", "65536", str(2**32), str(2**53 - 1), "+7", "007", "-0", "1.0", "1e3", "-0.0"
]
_OTHER_VALUES = [str(2**53), str(2**53 + 1), str(2**64), "-1", "2.5", "0.5", "-0.5", "nan", "inf"]
_EPSILONS = (0.0, 0.5, 1.0, 2.5)


@st.composite
def triplet_file(draw):
    """Triplet text over units 1..n with indices from 0 up to n + 1, so
    some are invalid, and values mostly integers; duplicates, agreeing or
    not, come from the few indices. Also n, or None to size by the file."""
    n = draw(st.integers(1, 4))
    values = draw(
        st.lists(st.sampled_from(_INTEGER_VALUES), min_size=1, max_size=3)
        | st.lists(st.sampled_from(_INTEGER_VALUES + _OTHER_VALUES), min_size=1, max_size=3)
    )
    index = st.integers(0, n + 1) if draw(st.booleans()) else st.integers(1, n)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        i, j, value = draw(index), draw(index), draw(st.sampled_from(values))
        lines.append(f"{i} {j} {value}")
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text, draw(st.sampled_from([n, None]))


def _triplet_outcome(read, source):
    """The dtype the matrix is kept in, its values and its zero patterns at
    each of _EPSILONS, or the error message with ``source`` named ``<m>``."""
    try:
        m = read()
    except ValueError as exc:
        return str(exc).replace(source, "<m>")
    patterns = [build_zero_pattern(m, e).to_array().tolist() for e in _EPSILONS]
    return m._data.dtype, m.to_array().tolist(), patterns


def _read_triplets(text, n, directory):
    """The outcomes of reading ``text`` from a regular file, from a pipe,
    and from the file as floats."""
    path = directory / "m.txt"
    path.write_text(text)
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    pipe = f"/dev/fd/{r}"
    try:
        from_pipe = _triplet_outcome(lambda: read_matrix(pipe, n), pipe)
    finally:
        os.close(r)
    from_file = _triplet_outcome(lambda: read_matrix(path, n), str(path))
    with mock.patch.object(fileio, "_FLOAT64_EXACT", 0):
        floats = _triplet_outcome(lambda: read_matrix(path, n), str(path))
    return from_file, from_pipe, floats


def _values(outcome):
    return outcome if isinstance(outcome, str) else outcome[1:]


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@given(case=triplet_file())
@settings(max_examples=300)
def test_integer_triplets_match_float_path(directory, case):
    text, n = case
    from_file, from_pipe, floats = _read_triplets(text, n, directory)
    assert from_file == from_pipe
    assert _values(from_file) == _values(floats)
    if not isinstance(from_file, str):
        values = [line.split()[2] for line in text.splitlines() if line.strip()]
        integer = all(v in _INTEGER_VALUES for v in values)
        assert (from_file[0].kind == "u") == integer


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "value, dtype",
    [
        ("0", np.uint8),
        ("1", np.uint8),
        ("255", np.uint8),
        ("256", np.uint16),
        ("65536", np.uint32),
        (str(2**32), np.uint64),
        (str(2**53 - 1), np.uint64),
        (str(2**53), np.float64),
        ("1.0", np.uint8),
        ("1e3", np.uint16),
        ("-1", np.float64),
        ("2.5", np.float64),
        ("0.5", np.float64),
        ("-0.5", np.float64),
    ],
)
def test_integer_triplets_take_the_narrowest_dtype(tmp_path, value, dtype):
    # the value sits off the diagonal beside a 1, blank lines between, and
    # the last line has no '\n'
    from_file, from_pipe, floats = _read_triplets(f"1 1 1\n\n2 1 {value}\n  \n2 2 1", 3, tmp_path)
    assert from_file == from_pipe
    assert from_file[0] == dtype
    assert _values(from_file) == _values(floats)


@pytest.mark.parametrize("value", ["0.5", "-0.5", "2.5"])
def test_real_triplets_keep_their_values_with_warnings_at_their_default(tmp_path, value):
    # Under the default warning filter, a reader that parsed integers first
    # and let numpy truncate a real value to an integer with only a
    # DeprecationWarning would turn 0.5 into a zero.
    path = tmp_path / "m.txt"
    path.write_text(f"1 1 1\n2 1 {value}\n2 2 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        m = read_matrix(path)
    assert m._data.dtype == np.float64
    assert m.to_array()[1, 0] == float(value)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "text, n",
    [
        ("1000000000000 1 1\n", None),  # no room for the matrix
        ("1 2 1\n2 2 1\n2 1 2\n", None),
        ("1 1 1\n0 2 1\n", None),
        ("1 1 1\n3 1 1\n", 2),
        ("1 2\n", None),
        ("1 2 1 4\n", None),
        ("1 2 1\n2 2\n", None),
    ],
)
def test_integer_triplets_fail_as_floats_do(tmp_path, text, n):
    from_file, from_pipe, floats = _read_triplets(text, n, tmp_path)
    assert isinstance(from_file, str)
    assert from_file == from_pipe == floats


@st.composite
def fixed_width_csv(draw, digit_counts=st.integers(0, 16), min_lines=1, min_cols=1):
    """CSV text whose fields all have one width, with a '.' at one shared
    position or none; also the digits in a field and the columns."""
    digits = draw(digit_counts)
    dot = draw(st.one_of(st.none(), st.integers(0, digits)) if digits else st.just(0))
    lines, cols = draw(st.integers(min_lines, 4)), draw(st.integers(min_cols, 4))
    fields = []
    for _ in range(lines * cols):
        mantissa = str(draw(st.integers(0, 10**digits - 1))).zfill(digits) if digits else ""
        fields.append(mantissa if dot is None else mantissa[:dot] + "." + mantissa[dot:])
    rows = [",".join(fields[r * cols : (r + 1) * cols]) for r in range(lines)]
    return "\n".join(rows) + draw(st.sampled_from(["\n", ""])), digits, cols


def _loadtxt(text):
    return np.loadtxt(text.splitlines(), dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _blocks(text, rows):
    """``_BLOCK_BYTES`` patched to ``rows`` rows of ``text``, whose first
    line gives the row length, so that even a few lines span blocks."""
    row = len(text.encode().split(b"\n", 1)[0]) + 1
    return mock.patch.object(fileio, "_BLOCK_BYTES", rows * row)


@given(fixed_width_csv(), st.sampled_from([1, 2]))
@settings(max_examples=300)
def test_fixed_width_matches_loadtxt(case, rows):
    text, digits, cols = case
    # the last row, with or without its '\n', is read in a later block
    with _blocks(text, rows):
        got = _load_fixed_width(io.BytesIO(text.encode()))
    # one column has no comma, which makes the file triplets; 16 digits may
    # not be exact in a float64 mantissa
    if cols == 1 or not 1 <= digits <= 15:
        assert got is None
        return
    mantissas, scale = got
    assert mantissas.dtype == np.min_scalar_type(10**digits - 1)
    values = mantissas / float(scale)
    want = _loadtxt(text)
    assert values.shape == want.shape
    assert np.array_equal(values.view(np.int64), want.view(np.int64))


@st.composite
def symmetric_fixed_width_csv(draw):
    """Symmetric CSV of 2-4 units whose fields all have 1-15 digits and a
    '.' at one shared position or none."""
    digits = draw(st.integers(1, 15))
    dot = draw(st.one_of(st.none(), st.integers(0, digits)))
    n = draw(st.integers(2, 4))
    mantissas = st.integers(0, 10**digits - 1)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.one_of(st.just(0), mantissas))
    fields = [[str(v).zfill(digits) for v in row] for row in m]
    if dot is not None:
        fields = [[f[:dot] + "." + f[dot:] for f in row] for row in fields]
    return "\n".join(",".join(row) for row in fields) + "\n"


@given(symmetric_fixed_width_csv(), st.floats(0, 10, allow_nan=False))
@settings(max_examples=200)
def test_fixed_width_zero_pattern_matches_float_path(text, drawn):
    # the matrix kept as digits binarizes as the float64 matrix loadtxt
    # parses, at every epsilon: zero, each value, the floats just either side
    # of each value, the extremes and one drawn at random
    assert _load_fixed_width(io.BytesIO(text.encode())) is not None
    m = parse_matrix_text(text)
    want = _loadtxt(text)
    got = m.to_array()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert all(m._entry(i, j) == got[i, j] for i in range(m.n) for j in range(m.n))
    floats = SymmetricMatrix(want)
    values = np.unique(want)
    epsilons = {0.0, 5e-324, 1e300, math.inf, drawn, *values}
    with np.errstate(under="ignore"):  # the float just above 0 is subnormal
        epsilons |= {*np.nextafter(values, -np.inf), *np.nextafter(values, np.inf)}
    for epsilon in sorted(float(e) for e in epsilons if e >= 0):
        assert np.array_equal(
            build_zero_pattern(m, epsilon).to_array(),
            build_zero_pattern(floats, epsilon).to_array(),
        ), epsilon


def _insert(text, at, piece):
    return text[:at] + piece + text[at:]


# each takes text of two or more lines and a position in it
_NEAR_MISSES = {
    "crlf": lambda text, at: text.replace("\n", "\r\n", 1),
    "space": lambda text, at: _insert(text, at, " "),
    "sign": lambda text, at: "-" + text,
    "exponent": lambda text, at: _insert(text, at, "e"),
    "two dots": lambda text, at: _insert(text, at, "."),
    "ragged": lambda text, at: text.replace("\n", "," + text.split(",", 1)[0] + "\n", 1),
    "blank line": lambda text, at: text.replace("\n", "\n\n", 1),
}


@given(
    fixed_width_csv(st.integers(1, 15), min_lines=2, min_cols=2),
    st.sampled_from(sorted(_NEAR_MISSES)),
    st.data(),
    st.sampled_from([1, 2]),
)
@settings(max_examples=300)
def test_fixed_width_refuses_near_misses(case, miss, data, rows):
    text, _, _ = case
    text = _NEAR_MISSES[miss](text, data.draw(st.integers(0, len(text))))
    # most misses land in a block after the first
    with _blocks(text, rows):
        assert _load_fixed_width(io.BytesIO(text.encode())) is None


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1.0,0.5\r\n0.5,1.0\r\n", [[1.0, 0.5], [0.5, 1.0]]),
        ("1.0, 0.5\n0.5,1.0\n", [[1.0, 0.5], [0.5, 1.0]]),
        ("+1.0,0.5\n0.5,1.0\n", [[1.0, 0.5], [0.5, 1.0]]),
        ("-0.0,1.0\n1.0,-0.0\n", [[-0.0, 1.0], [1.0, -0.0]]),
        ("1e0,5e-1\n5e-1,1e0\n", [[1.0, 0.5], [0.5, 1.0]]),
        ("1.0,0.5\n\n0.5,1.0\n", [[1.0, 0.5], [0.5, 1.0]]),
        ("1.000000000000001,0.000000000000000\n0.000000000000000,1.000000000000001\n",
         [[1.000000000000001, 0.0], [0.0, 1.000000000000001]]),
        ("1..0,0.0\n0.0,1.0\n", r"<matrix>:1: invalid number '1\.\.0'"),
        ("1.0,0.0\n0.0,1.0,0.0\n", r"<matrix>:2: expected 2 columns, found 3"),
        ("1,\ud800\n0,1\n", r"<matrix>:1: invalid number '\\ud800'"),
        ("1,\u0660\n\u0660,1\n", r"^<matrix>: unreadable matrix"),
    ],
)
def test_parse_dense_near_miss_takes_loadtxt_path(text, expected):
    assert _load_fixed_width(io.BytesIO(text.encode("utf-8", "surrogatepass"))) is None
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            parse_matrix_text(text)
    else:
        got = parse_matrix_text(text).to_array()
        assert np.array_equal(got.view(np.int64), np.array(expected).view(np.int64))


# Reading a regular file checks its bytes a block at a time; any other
# layout is read again from the path. These run the checks above through
# real files.


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


def _outcome(read):
    """The values read, as their float64 bits, or the error message."""
    try:
        return read().to_array().view(np.int64).tolist()
    except ValueError as exc:
        return str(exc)


def _read_file(directory, text):
    """``read_matrix`` on a regular file holding ``text``: what
    ``_load_fixed_width`` gave on the stream it was handed, the outcome,
    and the text parser's outcome under the same name."""
    path = directory / "m.csv"
    path.write_text(text, newline="")
    seen = []

    def spy(stream):
        # the open file itself, not a copy of its bytes
        assert os.path.samestat(os.fstat(stream.fileno()), path.stat())
        seen.append(_load_fixed_width(stream))
        return seen[-1]

    with mock.patch.object(fileio, "_load_fixed_width", spy):
        got = _outcome(lambda: read_matrix(path))
    return seen, got, _outcome(lambda: parse_matrix_text(text, source=str(path)))


@given(case=fixed_width_csv())
@settings(max_examples=300)
def test_fixed_width_file_matches_text_parser(directory, case):
    text, _, _ = case
    seen, got, want = _read_file(directory, text)
    fixed = _load_fixed_width(io.BytesIO(text.encode()))
    assert len(seen) == 1
    assert (seen[0] is None) == (fixed is None)
    if fixed is not None:
        assert np.array_equal(seen[0][0], fixed[0])
        assert seen[0][0].dtype == fixed[0].dtype
        assert seen[0][1] == fixed[1]
    assert got == want


@given(
    case=fixed_width_csv(st.integers(1, 15), min_lines=2, min_cols=2),
    miss=st.sampled_from(sorted(_NEAR_MISSES)),
    data=st.data(),
)
@settings(max_examples=300)
def test_file_near_misses_match_text_parser(directory, case, miss, data):
    text, _, _ = case
    text = _NEAR_MISSES[miss](text, data.draw(st.integers(0, len(text))))
    seen, got, want = _read_file(directory, text)
    assert seen == [None]
    assert got == want


_ROWS = "1.0,0.5,0.0\n0.5,1.0,0.0\n0.0,0.0,1.0\n"


@pytest.mark.parametrize(
    "text, fixed",
    [
        (_ROWS, True),
        (_ROWS[:-1], True),  # no final '\n', many rows
        ("1.0,0.5", True),  # no final '\n', one row: read, then not square
        ("1.0,0.5\n", True),
        (_ROWS[:-1] + "x", False),  # the last byte
        (_ROWS[:-2] + ":", False),  # the last byte, no final '\n'; ':' follows '9'
        (_ROWS[:-2] + "/\n", False),  # the last field; '/' precedes '0'
        (_ROWS[:-5] + ";1.0\n", False),  # a separator of the last row
        (_ROWS[:-4] + "1.00", False),  # the last row one byte long
        (_ROWS + "\n", False),
        (_ROWS + "0", False),
        (_ROWS[:-1] + "\r\n", False),
    ],
)
def test_file_last_row_and_byte(tmp_path, text, fixed):
    # the default block, then one and two rows a block
    for blocks in (contextlib.nullcontext(), _blocks(text, 1), _blocks(text, 2)):
        with blocks:
            seen, got, want = _read_file(tmp_path, text)
        assert [s is not None for s in seen] == [fixed]
        assert got == want


class _Shrunk(io.BytesIO):
    """Bytes whose end is reported ``lost`` bytes past their real end, as
    a file truncated while it is read reports the size it had."""

    def __init__(self, data, lost):
        super().__init__(data)
        self.lost = lost

    def seek(self, offset, whence=io.SEEK_SET):
        at = super().seek(offset, whence)
        return at + self.lost if whence == io.SEEK_END else at


def test_stream_that_changed_size_is_refused():
    # the short read comes in the first block or a later one, in the last
    # row, at a row's end or inside one; an end reported as 0 lies before
    # the first row's end
    data = (_ROWS * 3).encode()
    for blocks in (contextlib.nullcontext(), _blocks(_ROWS, 1), _blocks(_ROWS, 2)):
        with blocks:
            assert _load_fixed_width(_Shrunk(data, 0)) is not None
            for lost in (1, 5, 12, 13, len(data) - 12):
                assert _load_fixed_width(_Shrunk(data[:-lost], lost)) is None
            assert _load_fixed_width(_Shrunk(data, -len(data))) is None


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_read_empty_file(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no matrix entries found$"):
        read_matrix(path)


@pytest.mark.parametrize(
    "text",
    [
        "1,0.5\n0.5,1\n",
        "\n1.0,0.5\n\n  \n0.5,1.0\n\n",
        "1.0,0.5\r\n0.5,1.0\r\n",
        "1.0,0.5\r\n\r\nx,1.0\r\n",
        "1.0,0.5\r0.5,1.0\r",
        "1,0\n\noops,1\n",
        "1,0,0\n0,1\n0,0,1\n",
        "1,1_0\n1_0,1\n",
        "1,\u0660\n\u0660,1\n",
        "1.5,nan\nnan,1.5\n",
        "1.0,1\n0,1.0\n",
        "1 1 1\n\n2 x 1\n",
        "1 2 1\r\n2 2 1\r\n",
        # line ends of str.splitlines that end no line of a file
        "1,0\x0c0,1\n",
        "1 1 1\x0b2 2 1\n",
        "1,0\u20280,1\n",
    ],
)
def test_file_fallback_matches_text_parser(tmp_path, text):
    seen, got, want = _read_file(tmp_path, text)
    assert seen == [None]
    assert got == want


_PROC = Path("/proc/self")


@pytest.mark.skipif(not (_PROC / "maps").exists(), reason="needs /proc/self")
def test_repeated_reads_leave_no_descriptor_or_map(tmp_path):
    # the traced benchmark reads hundreds of times in one process
    files = {
        "good.csv": "1.0,0.5\n0.5,1.0\n",
        "asymmetric.csv": "1.0,0.5\n0.2,1.0\n",
        "bad_line.csv": "1,0.5\n0.5,x\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    names = list(files)
    fds = sorted(os.listdir(_PROC / "fd"))
    outcomes = [_outcome(lambda: read_matrix(tmp_path / names[i % 3])) for i in range(200)]
    assert sorted(os.listdir(_PROC / "fd")) == fds
    assert str(tmp_path) not in (_PROC / "maps").read_text()
    assert isinstance(outcomes[0], list)
    assert "matrix not symmetric" in outcomes[1]
    assert "bad_line.csv:2: invalid number 'x'" in outcomes[2]
    assert all(got == outcomes[i % 3] for i, got in enumerate(outcomes))


@pytest.mark.skipif(not (_PROC / "maps").exists(), reason="needs /proc/self")
def test_error_inside_mapped_parse_propagates_and_unmaps(tmp_path, monkeypatch):
    # the open file is closed as the check fails; the error must come out
    # as itself, with nothing raised on the way out
    class FailingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def subtract(self, *args, **kwargs):
            raise MemoryError("injected")

    path = tmp_path / "m.csv"
    path.write_text("1.0,0.5\n0.5,1.0\n")
    monkeypatch.setattr(fileio, "np", FailingNumpy())
    with pytest.raises(MemoryError, match="injected") as info:
        read_matrix(path)
    assert info.value.__context__ is None
    assert str(path) not in (_PROC / "maps").read_text()
