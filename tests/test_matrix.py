import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musearch import matrix
from musearch.matrix import (
    Grouping,
    SymmetricMatrix,
    ZeroPattern,
    build_zero_pattern,
)
from musearch.search import select_candidates

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
    with pytest.raises(ValueError, match="matrix must contain at least one unit"):
        SymmetricMatrix(np.zeros((0, 0)))


def test_zero_pattern_rejects_non_square_and_empty():
    with pytest.raises(ValueError, match=r"zero pattern must be square, got shape \(2, 3\)"):
        ZeroPattern(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="zero pattern must cover at least one unit"):
        ZeroPattern(np.zeros((0, 0), dtype=bool))


def test_build_zero_pattern_rejects_negative_epsilon():
    m = SymmetricMatrix(np.eye(2))
    with pytest.raises(ValueError, match="tolerance epsilon must be >= 0, got -0.5"):
        build_zero_pattern(m, -0.5)
    with pytest.raises(ValueError, match="tolerance epsilon must be >= 0, got nan"):
        build_zero_pattern(m, float("nan"))
    with pytest.raises(ValueError, match=r"got -1\.0$"):
        build_zero_pattern(m, -1)


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
    loose = build_zero_pattern(m, 0.1)
    assert exact.partners(1) == (2,)
    assert loose.partners(1) == (0, 2)
    assert loose.partners(0) == (1,)


def test_cross_group_zeros_fig1(fig1):
    # at the full budget every unit with a cross-group zero is a candidate
    pattern, grouping = fig1
    cs = select_candidates(pattern, grouping, max(grouping.sizes))
    chosen = {c.unit: c.cross_group_zeros for grp in cs.per_group for c in grp}
    assert chosen[5] == 5  # unit 6
    assert 6 not in chosen  # unit 7, no cross-group zero


@pytest.mark.parametrize("unit", [-1, 3])
def test_zero_pattern_names_a_unit_out_of_range(unit):
    pattern = ZeroPattern(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool))
    message = rf"unit index {unit} out of range for n=3"
    for read in (
        lambda: pattern.has_zero(unit, 0),
        lambda: pattern.has_zero(0, unit),
        lambda: pattern.partners(unit),
        lambda: pattern.zero_count(unit),
    ):
        with pytest.raises(ValueError, match=message):
            read()


def test_symmetric_matrix_repr():
    assert repr(SymmetricMatrix(np.eye(3))) == "SymmetricMatrix(n=3)"


def test_grouping_repr():
    assert repr(Grouping([0, 1, 1, 0, 1])) == "Grouping(n=5, k=2, sizes=(2, 3))"


def test_cross_group_zeros_errors(fig1):
    pattern, grouping = fig1
    with pytest.raises(ValueError, match="out of range"):
        grouping.label(9)
    for group in (-1, 3):
        with pytest.raises(ValueError, match=f"group {group} out of range for k=3"):
            grouping.member_index(group)
    other = Grouping([0, 1], 2)
    with pytest.raises(ValueError, match="covers"):
        select_candidates(pattern, other, 1)


def test_single_group_is_rejected():
    with pytest.raises(ValueError, match="at least 2 groups"):
        Grouping([0, 0, 0], 1)


def test_grouping_requires_nonempty_groups():
    with pytest.raises(ValueError, match="empty"):
        Grouping([0, 0, 0], 2)


def test_grouping_rejects_more_groups_than_units():
    with pytest.raises(ValueError):
        Grouping([0, 1], 3)


def loop_grouping(labels, k=None):
    """What the per-unit loop that ``Grouping`` replaced made of ``labels``:
    (n, k, labels, members per group), or its error message."""
    try:
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
        members = [[] for _ in range(k)]
        for i, g in enumerate(lab):
            if not 0 <= g < k:
                raise ValueError(f"unit {i} has group label {g} outside 0..{k - 1}")
            members[g].append(i)
        for g, units in enumerate(members):
            if not units:
                raise ValueError(f"group {g + 1} is empty")
    except ValueError as exc:
        return str(exc)
    return n, k, list(lab), members


def built_grouping(labels, k=None):
    """The same for ``Grouping``, checking that its arrays are read-only."""
    try:
        grouping = Grouping(labels, k)
    except ValueError as exc:
        return str(exc)
    index = [grouping.member_index(g) for g in range(grouping.k)]
    assert all(i.dtype == np.intp and not i.flags.writeable for i in index)
    assert not grouping.labels.flags.writeable
    assert grouping.sizes == tuple(i.size for i in index)
    assert [grouping.label(i) for i in range(grouping.n)] == grouping.labels.tolist()
    return grouping.n, grouping.k, grouping.labels.tolist(), [i.tolist() for i in index]


@st.composite
def label_sequences(draw):
    # often a partition, with every label 0..k-1 used; else any small labels
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        tail = draw(st.lists(st.integers(0, k - 1), max_size=10))
        labels = draw(st.permutations(list(range(k)) + tail))
    else:
        labels = draw(st.lists(st.integers(-2, 7), max_size=12))
    return labels


@given(
    label_sequences(),
    st.one_of(st.none(), st.integers(-1, 8)),
    st.sampled_from([list, tuple, lambda labels: np.array(labels, dtype=np.int64)]),
)
@settings(max_examples=300)
def test_grouping_matches_the_per_unit_loop(labels, k, form):
    assert built_grouping(form(labels), k) == loop_grouping(labels, k)


def test_grouping_rejects_nested_labels():
    with pytest.raises(ValueError, match=r"one sequence, got shape \(2, 2\)"):
        Grouping([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1.7, 1], "unit 1 has group label 1.7, which is not an integer"),
        (np.array([0.0, 1.0, -0.5]), "unit 2 has group label -0.5, which is not an integer"),
        ([0, 1, float("nan")], "unit 2 has group label nan, which is not an integer"),
        (np.array([np.inf, 0.0, 1.0]), "unit 0 has group label inf, which is not an integer"),
    ],
)
def test_grouping_refuses_a_label_that_is_not_an_integer(labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Grouping(labels)


def test_grouping_takes_whole_float_and_bool_labels():
    assert Grouping(np.array([0.0, 1.0, 1.0])).labels.tolist() == [0, 1, 1]
    assert Grouping([1.0, 0.0], 2).member_index(1).tolist() == [0]
    assert Grouping([True, False, True]).labels.tolist() == [1, 0, 1]


def test_grouping_copies_its_labels():
    labels = np.array([0, 1, 0])
    grouping = Grouping(labels)
    labels[0] = 1
    assert grouping.labels.tolist() == [0, 1, 0]
    assert grouping.member_index(0).tolist() == [0, 2]
    assert labels.flags.writeable


def test_zero_pattern_validates_symmetry():
    with pytest.raises(ValueError, match=r"^zero pattern not symmetric at \(0,1\)$"):
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
    with pytest.raises(ValueError, match="^unit 0 may not be its own zero partner$"):
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
    tight = build_zero_pattern(m, lo)
    loose = build_zero_pattern(m, hi)
    assert not (tight.to_array() & ~loose.to_array()).any()


@given(symmetric_matrices(), st.floats(0.001, 1000.0))
def test_exact_zero_scale_invariance(m, scale):
    scaled = SymmetricMatrix(m.to_array() * scale)
    a, b = build_zero_pattern(m), build_zero_pattern(scaled)
    assert np.array_equal(a.to_array(), b.to_array())


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
    assert m.to_array()[0, 1] == 0.0
    assert data.flags.writeable


def test_zero_pattern_copies_its_input():
    zero = ~np.eye(2, dtype=bool)
    pattern = ZeroPattern(zero)
    zero[0, 1] = zero[1, 0] = False
    assert pattern.has_zero(0, 1)
    assert zero.flags.writeable
    # to_array builds a new matrix each call
    rebuilt = pattern.to_array()
    rebuilt[0, 1] = rebuilt[1, 0] = False
    assert pattern.has_zero(0, 1)


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
    ZeroPattern(pattern.to_array())
    assert checked == [(3, 3)]


def word_edge_zeros(n):
    """A random symmetric zero matrix of n units in which unit 0 is zero to
    every other unit, so that its row fills every column up to the last."""
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    upper[0, 1:] = True
    return upper | upper.T


@pytest.mark.parametrize("n", WORD_EDGES)
def test_zero_pattern_reads_back_the_matrix_it_was_built_from(n):
    zero = word_edge_zeros(n)
    pattern = ZeroPattern(zero)
    rebuilt = pattern.to_array()
    assert rebuilt.dtype == bool and np.array_equal(rebuilt, zero)
    assert repr(pattern) == f"ZeroPattern(n={n}, zero_pairs={np.count_nonzero(zero) // 2})"
    for i in range(n):
        assert pattern.partners(i) == tuple(np.flatnonzero(zero[i]).tolist())
        assert pattern.zero_count(i) == np.count_nonzero(zero[i])
        assert [pattern.has_zero(i, j) for j in range(n)] == zero[i].tolist()
    # the private readers the search uses, on unit and column subsets
    rng = np.random.default_rng(n + 1)
    for units, columns in [
        (np.arange(n), np.arange(n)),
        (np.flatnonzero(rng.random(n) < 0.5), np.flatnonzero(rng.random(n) < 0.5)),
        (np.array([n - 1, 0, n - 1]), np.array([n - 1], dtype=np.intp)),
        (np.array([], dtype=np.intp), np.array([], dtype=np.intp)),
    ]:
        assert np.array_equal(pattern._rows(units), zero[units])
        assert np.array_equal(pattern._zero_counts(units), zero[units].sum(axis=1))
        expected = zero[np.ix_(units, columns)].sum(axis=1)
        assert np.array_equal(pattern._zero_counts(units, columns), expected)
        assert pattern._zero_counts(units, columns, total=True) == expected.sum()
        assert pattern._zero_counts(units, total=True) == zero[units].sum()


@pytest.mark.parametrize("n", WORD_EDGES)
def test_zero_pattern_messages_at_word_edges(n):
    zero = word_edge_zeros(n)
    zero[n - 1, n - 1] = True
    with pytest.raises(ValueError, match=f"^unit {n - 1} may not be its own zero partner$"):
        ZeroPattern(zero)
    if n > 1:
        zero[n - 1, n - 1] = False
        zero[0, n - 1] = False
        with pytest.raises(ValueError, match=rf"^zero pattern not symmetric at \(0,{n - 1}\)$"):
            ZeroPattern(zero)


@pytest.mark.parametrize("n", WORD_EDGES)
def test_packed_rows_read_only_padded_and_built_once(n, monkeypatch):
    packed = []
    pack = matrix._pack_rows
    monkeypatch.setattr(matrix, "_pack_rows", lambda zero: packed.append(zero.shape) or pack(zero))
    zero = word_edge_zeros(n)
    pattern = ZeroPattern(zero)
    assert packed == [(n, n)]
    # the packed rows are all the pattern holds: n rows of ceil(n/64) words
    arrays = [getattr(pattern, name) for name in ZeroPattern.__slots__]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == n * -(-n // 64) * 8
    (rows,) = arrays
    assert rows.dtype == np.uint64 and rows.shape == (n, -(-n // 64))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    # no padding bit is set: the words hold exactly the matrix's zeros
    assert int(np.bitwise_count(rows).sum()) == np.count_nonzero(zero)
    # reading the pattern packs nothing more
    for read in (pattern.to_array, lambda: pattern.partners(0), lambda: repr(pattern)):
        read()
    assert packed == [(n, n)]
