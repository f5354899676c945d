import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musearch import matrix
from musearch.matrix import (
    Grouping,
    SymmetricMatrix,
    Tolerance,
    ZeroPattern,
    build_zero_pattern,
    zeros_toward_other_groups,
)

from conftest import WORD_EDGES


def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        SymmetricMatrix([[1, 0], [1, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symmetric_matrix_rejects_non_finite(bad):
    # checked before symmetry, so a symmetric NaN pair is named as such
    with pytest.raises(ValueError, match=r"entry \(1,2\) is not finite"):
        SymmetricMatrix([[1, bad], [bad, 1]])


def test_symmetric_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        SymmetricMatrix([[1, 0, 0], [0, 1, 0]])


def test_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        Tolerance(-0.5)


def test_zero_pattern_fig1_row6(fig1):
    pattern, _ = fig1
    assert pattern.partners(5) == (0, 1, 2, 3, 7, 8)


def test_zero_pattern_identity_matrix():
    pattern = build_zero_pattern(SymmetricMatrix(np.eye(3)))
    for i in range(3):
        assert set(pattern.partners(i)) == {j for j in range(3) if j != i}


def test_zero_pattern_tennis_row8(tennis):
    # row 8 is zero everywhere off the diagonal
    pattern, _ = tennis
    assert pattern.partners(7) == (0, 1, 2, 3, 4, 5, 6)


def test_diagonal_never_included():
    pattern = build_zero_pattern(SymmetricMatrix(np.zeros((4, 4))))
    for i in range(4):
        assert not pattern.has_zero(i, i)
        assert i not in pattern.partners(i)


def test_epsilon_binarization():
    a = np.array([[1.0, 0.05, 0.3], [0.05, 1.0, 0.0], [0.3, 0.0, 1.0]])
    m = SymmetricMatrix(a)
    exact = build_zero_pattern(m)
    loose = build_zero_pattern(m, Tolerance(0.1))
    assert exact.partners(1) == (2,)
    assert loose.partners(1) == (0, 2)
    assert loose.partners(0) == (1,)


def test_zeros_toward_other_groups_fig1(fig1):
    pattern, grouping = fig1
    assert zeros_toward_other_groups(pattern, grouping, 5) == 5  # unit 6
    assert zeros_toward_other_groups(pattern, grouping, 6) == 0  # unit 7


def test_zeros_toward_other_groups_errors(fig1):
    pattern, grouping = fig1
    with pytest.raises(ValueError, match="out of range"):
        zeros_toward_other_groups(pattern, grouping, 9)
    other = Grouping([0, 1], 2)
    with pytest.raises(ValueError, match="covers"):
        zeros_toward_other_groups(pattern, other, 0)


def test_single_group_is_rejected():
    with pytest.raises(ValueError, match="at least 2 groups"):
        Grouping([0, 0, 0], 1)


def test_grouping_requires_nonempty_groups():
    with pytest.raises(ValueError, match="empty"):
        Grouping([0, 0, 0], 2)


def test_grouping_rejects_more_groups_than_units():
    with pytest.raises(ValueError):
        Grouping([0, 1], 3)


def test_zero_pattern_validates_symmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        ZeroPattern(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool))


def test_asymmetry_named_at_first_entry_across_tiles():
    # past one 256-wide tile; of the two mismatched pairs the one at the
    # later tile comes first in row order, and is the one named
    a = np.zeros((600, 600))
    a[300, 10] = 1.0
    a[5, 550] = 2.0
    with pytest.raises(ValueError, match=r"entry \(6,551\) is 2\.0 but \(551,6\) is 0\.0"):
        SymmetricMatrix(a)
    with pytest.raises(ValueError, match=r"not symmetric at \(5,550\)"):
        ZeroPattern(a != 0)
    a[10, 300], a[550, 5] = 1.0, 2.0
    assert ZeroPattern(a != 0).n == SymmetricMatrix(a).n == 600


def test_zero_pattern_rejects_self_partner():
    with pytest.raises(ValueError, match="own zero partner"):
        ZeroPattern(np.array([[1, 0], [0, 0]], dtype=bool))


@st.composite
def symmetric_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5])
    vals = draw(st.lists(pool, min_size=n * n, max_size=n * n))
    a = np.array(vals).reshape(n, n)
    a = np.triu(a) + np.triu(a, 1).T
    return SymmetricMatrix(a)


@given(symmetric_matrices())
def test_pattern_symmetry_property(m):
    pattern = build_zero_pattern(m)
    for i in range(pattern.n):
        for j in pattern.partners(i):
            assert pattern.has_zero(j, i)


@given(symmetric_matrices(), st.floats(0, 0.4), st.floats(0, 0.4))
def test_binarization_monotone_in_epsilon(m, e1, e2):
    lo, hi = sorted((e1, e2))
    tight = build_zero_pattern(m, Tolerance(lo))
    loose = build_zero_pattern(m, Tolerance(hi))
    for i in range(m.n):
        assert not (tight.array[i] & ~loose.array[i]).any()


@given(symmetric_matrices(), st.floats(0.001, 1000.0))
def test_exact_zero_scale_invariance(m, scale):
    scaled = SymmetricMatrix(m.to_array() * scale)
    a, b = build_zero_pattern(m), build_zero_pattern(scaled)
    assert all(np.array_equal(a.array[i], b.array[i]) for i in range(m.n))


@given(symmetric_matrices(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_pattern_permutation_equivariance(m, rnd):
    order = list(range(m.n))
    rnd.shuffle(order)
    a = m.to_array()
    permuted = SymmetricMatrix(a[np.ix_(order, order)])
    base = build_zero_pattern(m)
    moved = build_zero_pattern(permuted)
    position = {old: new for new, old in enumerate(order)}
    for new, old in enumerate(order):
        expected = {position[p] for p in base.partners(old)}
        assert set(moved.partners(new)) == expected


def test_symmetric_matrix_copies_its_input():
    data = np.eye(2)
    m = SymmetricMatrix(data)
    data[0, 1] = data[1, 0] = 5.0
    assert m.entry(0, 1) == 0.0
    assert data.flags.writeable


def test_zero_pattern_copies_its_input():
    zero = ~np.eye(2, dtype=bool)
    pattern = ZeroPattern(zero)
    zero[0, 1] = zero[1, 0] = False
    assert pattern.has_zero(0, 1)
    assert zero.flags.writeable
    # build_zero_pattern hands over the matrix it built, still read-only
    assert not build_zero_pattern(SymmetricMatrix(np.eye(2))).array.flags.writeable


def test_owned_pattern_skips_the_second_transpose_check(monkeypatch):
    # build_zero_pattern thresholds a matrix already checked for symmetry;
    # a pattern passed in by a caller is still checked
    m = SymmetricMatrix(np.eye(3))
    checked = []
    check = matrix._asymmetric_entry
    monkeypatch.setattr(
        matrix, "_asymmetric_entry", lambda a: checked.append(a.shape) or check(a)
    )
    pattern = build_zero_pattern(m)
    assert checked == []
    ZeroPattern(pattern.array)
    assert checked == [(3, 3)]


@pytest.mark.parametrize("n", WORD_EDGES)
def test_packed_rows_read_only_padded_and_built_once(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    pattern = ZeroPattern(upper | upper.T)
    rows = pattern._packed_rows()
    assert rows.dtype == np.uint64 and rows.shape == (n, -(-n // 64))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    bits = np.unpackbits(rows.view(np.uint8), axis=1)
    assert np.array_equal(bits[:, :n], pattern.array)
    assert not bits[:, n:].any()
    assert pattern._packed_rows() is rows
    units = np.flatnonzero(rng.random(n) < 0.5)
    mask = np.unpackbits(pattern._packed_mask(units).view(np.uint8))
    assert mask.size == 64 * rows.shape[1]
    assert np.array_equal(np.flatnonzero(mask), units)
