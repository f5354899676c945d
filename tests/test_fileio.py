import numpy as np
import pytest

from musearch.fileio import (
    parse_grouping_text,
    parse_matrix_text,
    read_grouping,
    read_matrix,
    write_grouping_csv,
    write_matrix_csv,
)
from musearch.fixtures import FIXTURES, load
from musearch.matrix import build_zero_pattern


def test_parse_dense_csv():
    m = parse_matrix_text("1,0.5,0\n0.5,1,0\n0,0,1\n")
    assert m.n == 3
    assert m.entry(0, 1) == 0.5


@pytest.mark.parametrize("text", ["\n1,0\n   \n0,1\n\n", "\n\n1 1 1\n  \n2 2 1\n"])
def test_parse_skips_blank_lines(text):
    m = parse_matrix_text(text)
    assert m.n == 2
    assert m.entry(0, 1) == 0.0
    assert m.entry(1, 1) == 1.0


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
    assert m.entry(0, 1) == 1.0
    assert m.entry(1, 0) == 1.0  # mirrored
    assert m.entry(0, 2) == 0.0  # unlisted means zero
    assert m.entry(2, 2) == 1.0


def test_parse_triplets_conflicting_duplicate():
    with pytest.raises(ValueError, match=r":2: entry \(2,1\)"):
        parse_matrix_text("1 2 1\n2 1 0\n")


def test_parse_triplets_conflicting_duplicate_same_order():
    with pytest.raises(ValueError, match=r":3: entry \(1,2\) is 0.0 but line 1"):
        parse_matrix_text("1 2 1\n2 2 1\n1 2 0\n")


def test_parse_triplets_consistent_duplicate_ok():
    m = parse_matrix_text("1 2 1\n2 1 1\n")
    assert m.entry(0, 1) == 1.0


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
    assert g.labels == (0, 1, 0)


def test_parse_grouping_duplicate_unit():
    with pytest.raises(ValueError, match=r":3: unit 1 assigned twice"):
        parse_grouping_text("1,1\n2,2\n1,2\n")


def test_parse_grouping_missing_unit():
    with pytest.raises(ValueError, match="unit 2 has no group"):
        parse_grouping_text("1,1\n3,2\n")


def test_parse_grouping_label_gap():
    with pytest.raises(ValueError, match="label 2 unused"):
        parse_grouping_text("1,1\n2,3\n3,1\n")


def test_parse_grouping_single_group():
    with pytest.raises(ValueError, match="at least 2 groups"):
        parse_grouping_text("1,1\n2,1\n")


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
    assert all(np.array_equal(a.array[i], b.array[i]) for i in range(a.n))
    assert g_again.labels == grouping.labels


def test_read_matrix_names_file_in_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\noops,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2"):
        read_matrix(path)
