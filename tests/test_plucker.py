import functools
import itertools
import math
import pickle
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from completable import (
    NotABasisError,
    PluckerVector,
    SubspaceBasis,
    numerics,
    plucker,
    plucker_of_basis,
    random_pattern,
)
from completable.plucker import (
    FIELD_PRIME,
    _dual_coords,
    _laplace_minors,
    _lex_rank,
    _subset_sum_parity,
    first_full_rank,
    index_subsets,
    left_null_mod_p,
    rank_mod_p,
)
from conftest import (
    PHI_A,
    PHI_B,
    REPEATED_COLUMNS,
    _gauss_jordan,
    reference_bphi,
    reference_complement_sign,
    reference_coordinates,
    reference_degenerate_projections,
    reference_gr24_residual,
    reference_laplace_minors,
    reference_left_null_mod_p,
    reference_rank_mod_p,
    reference_section_value,
)

# rank-2 basis of R^4 whose minors are small integers; its coordinate vector
# (1, 2, 4, 0, -3, -6) is reused in many tests below
BASIS_4X2 = np.array([[1, 0], [0, 1], [0, 2], [3, 4]])


def _det_by_permutations(rows):
    """Determinant of a square list of int or Fraction rows by the permutation
    expansion, summed row by row with each set of columns left to the later
    rows expanded once; an int where the value is integral."""

    @functools.cache
    def expand(cols):
        if not cols:
            return 1
        row = rows[len(rows) - len(cols)]
        return sum((-1) ** k * row[c] * expand(cols[:k] + cols[k + 1 :]) for k, c in enumerate(cols) if row[c])

    det = expand(tuple(range(len(rows))))
    return int(det) if det.denominator == 1 else det


def _rational_rank(M):
    """Rank over the rationals of an integer matrix, by Gauss-Jordan elimination in Fractions."""
    return len(_gauss_jordan(np.array(M.tolist(), dtype=object).reshape(M.shape) * Fraction(1)))


def _random_basis(rng, m, r):
    return SubspaceBasis(rng.standard_normal((m, r)))


def _orthogonal_complement(matrix):
    """Complement basis via full SVD, the independent oracle for duality."""
    m, r = matrix.shape
    u, _, _ = np.linalg.svd(matrix.astype(float), full_matrices=True)
    return u[:, r:]


def _proportional(p, q, rtol=1e-9):
    """Whether q = s p for some nonzero s, up to ``rtol`` times the largest |s p|."""
    k = int(np.argmax(np.abs(p)))
    s = q[k] / p[k]
    return s != 0 and bool(np.all(np.abs(q - s * p) <= rtol * abs(s) * np.abs(p).max()))


def test_integer_minors_are_exact():
    """An integer basis is read as float64, whose small-integer minors are exact."""
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    assert P.coords.dtype == np.float64
    assert P.coords.tolist() == [1, 2, 4, 0, -3, -6]


def test_coordinate_subspace_vector():
    B = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    coordinate = reference_coordinates(plucker_of_basis(B))
    assert coordinate.pop((0, 1)) == pytest.approx(1.0)
    assert all(c == 0 for c in coordinate.values())


def test_basis_change_covariance():
    """Right-multiplying the basis scales every minor by the same determinant."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        B = rng.standard_normal((6, 3))
        S = rng.standard_normal((3, 3))
        if abs(np.linalg.det(S)) < 1e-3:
            continue
        left = plucker_of_basis(SubspaceBasis(B @ S)).coords
        right = np.linalg.det(S) * plucker_of_basis(SubspaceBasis(B)).coords
        scale = np.abs(right).max()
        assert np.abs(left - right).max() <= 1e-10 * scale


def test_rank_deficient_matrix_rejected():
    with pytest.raises(NotABasisError, match="not a basis"):
        SubspaceBasis(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    with pytest.raises(NotABasisError):
        SubspaceBasis(np.array([[1, 2], [2, 4], [3, 6]]))  # int input too


def test_an_exact_basis_is_checked_at_its_float64_rank():
    """Exact entries are read as float64 at construction, and the rank checked is
    that copy's. The float nearest 1/3 is not 1/3, so the object matrix has
    determinant 3 fl(1/3) - 1, not 0, and exact rank 2, where its float64 copy
    has rank 1 to working precision: it is refused, as are its rational and
    float forms, the object matrix with zero rows appended, and a rational
    matrix of exact rank 1."""
    mat = np.array([[3.0, 1.0], [1.0, 1 / 3]], dtype=object)
    assert 3 * Fraction(1 / 3) - 1 != 0
    rational = np.array([[Fraction(x) for x in row] for row in mat], dtype=object)
    thirds = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)], [Fraction(-1, 6), Fraction(-1, 9)]]
    tall = np.vstack([mat, np.zeros((2, 2), dtype=int)])
    for rows in (mat, rational, mat.astype(float), tall, np.array(thirds, dtype=object)):
        with pytest.raises(NotABasisError, match=r"^not a basis: column rank 1 < 2$"):
            SubspaceBasis(rows)


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize(
    "rows, dtype, kind",
    [
        ([[-7]], None, int),
        ([[2, -1, 0], [4, 3, -5], [1, 0, 6]], None, int),
        (np.random.default_rng(5).integers(-9, 10, (6, 6)).tolist(), None, int),
        ([[-_THIRD]], object, Fraction),
        ([[_HALF, 0, 0], [_THIRD, 2, 0], [5, _HALF, 4]], object, int),
        ([[_HALF, _THIRD, 1], [2, -_HALF, _THIRD], [0, 3, -_THIRD]], object, Fraction),
    ],
    ids=["1x1-int", "3x3-int", "6x6-int", "1x1-Fraction", "3x3-Fraction-integral", "3x3-Fraction"],
)
def test_a_square_exact_basis_has_its_determinant_as_its_coordinate(rows, dtype, kind):
    """At r == m the one coordinate is det B, which the complement route takes
    from ``np.linalg.det`` of the basis read as float64: within 1e-12 of the
    permutation expansion, as the Laplace recursion is."""
    det = _det_by_permutations(rows)
    assert det != 0 and type(det) is kind
    (coord,) = plucker_of_basis(SubspaceBasis(np.array(rows, dtype=dtype))).coords
    assert coord == pytest.approx(float(det), rel=1e-12)
    assert _laplace_minors(np.array(rows, dtype=float)).tolist() == pytest.approx([float(det)], rel=1e-12)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[True, False], [False, True], [True, True]]),
        np.array([[1, 0], [0, 1], [3, -4]]),
        np.array([[_HALF, 0], [0, _THIRD], [3, -_HALF]], dtype=object),
        np.array([[0.5, 0.0], [0.0, 1 / 3], [3.0, -0.5]]),
    ],
    ids=["bool", "int", "Fraction", "float"],
)
def test_a_basis_holds_its_entries_as_read_only_float64(rows):
    """Every real input is read once as a new float64 array, which stays
    read-only through pickle, whose restore reruns the constructor."""
    basis = SubspaceBasis(rows)
    for held in (basis, pickle.loads(pickle.dumps(basis))):
        assert held.matrix.dtype == np.float64
        assert not held.matrix.flags.writeable
        assert held.matrix.tolist() == rows.astype(float).tolist()
    assert not np.shares_memory(basis.matrix, rows)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[10**400, 0], [0, 1], [1, 1]], dtype=object),
        np.array([[1 + 1j, 0], [0, 1], [1, 1]]),
        np.array([[1j, 0], [0, 1], [1, 1]], dtype=object),
        [["1", "x"], ["0", "1"]],
    ],
    ids=["overflowing-int", "complex", "complex-object", "non-numeric"],
)
def test_entries_that_are_not_float64_reals_are_refused(rows):
    with pytest.raises(NotABasisError, match=r"^not a basis: entries must be real numbers in float64 range \("):
        SubspaceBasis(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [["1", "0"], ["0", "1"]],
        np.array([["1.5", "0"], ["0", "1"]]),
        [[b"1", b"0"], [b"0", b"1"]],
        np.array([["1", "0"], ["0", "1"]], dtype=object),
        np.array([[1, np.str_("0")], [0, 1]], dtype=object),
        np.array([[1.0, b"0"], [0.0, 1.0]], dtype=object),
    ],
    ids=["str-lists", "str-array", "bytes", "str-objects", "one-numpy-str", "one-bytes-object"],
)
def test_text_is_refused_even_where_it_spells_a_number(rows):
    """Text is not a real input, though ``astype(float)`` would parse it."""
    with pytest.raises(NotABasisError, match=r"^not a basis: entries must be real numbers in float64 range \(text"):
        SubspaceBasis(rows)


def test_projection_nondegenerate_fixture():
    """The float coordinates vanish exactly at the one projection that loses dimension."""
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    assert reference_degenerate_projections(P) == [(1, 2)]


def test_projection_nondegenerate_coordinate_subspace():
    B = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    P = plucker_of_basis(B)
    assert reference_degenerate_projections(P) == [psi for psi in index_subsets(5, 2) if psi != (0, 1)]


def test_dual_of_coordinate_plane():
    B = SubspaceBasis(np.vstack([np.eye(2), np.zeros((2, 2))]))
    Q = _dual_coords(plucker_of_basis(B).coords, 4, 2)
    assert abs(dict(zip(index_subsets(4, 2), Q))[2, 3]) == pytest.approx(1.0)
    assert np.abs(Q).sum() == pytest.approx(1.0)


def test_dual_matches_orthogonal_complement_oracle():
    """``_dual_coords`` of a subspace's coordinates is proportional to the
    coordinates of its orthogonal complement."""
    Q = _dual_coords(plucker_of_basis(SubspaceBasis(BASIS_4X2.astype(float))).coords, 4, 2)
    oracle = plucker_of_basis(SubspaceBasis(_orthogonal_complement(BASIS_4X2)))
    assert _proportional(Q, oracle.coords)

    rng = np.random.default_rng(9)
    for _ in range(25):
        B = rng.standard_normal((5, 2))
        Q = _dual_coords(plucker_of_basis(SubspaceBasis(B)).coords, 5, 2)
        oracle = plucker_of_basis(SubspaceBasis(_orthogonal_complement(B)))
        assert _proportional(Q, oracle.coords)


def test_dual_involution():
    rng = np.random.default_rng(17)
    for _ in range(25):
        P = plucker_of_basis(_random_basis(rng, 5, 2))
        assert _proportional(_dual_coords(_dual_coords(P.coords, 5, 2), 5, 3), P.coords)


def test_bphi_template_layout():
    """Signs alternate down each support; subsets drop one element at a time."""
    P = plucker_of_basis(SubspaceBasis(np.array([[1, 0], [2, 1], [0, 3], [1, 1], [4, 1], [1, 5]])))
    c = reference_coordinates(P)
    M = reference_bphi(PHI_A, P)
    assert M.shape == (6, 4)
    assert M[:, 0].tolist() == [c[1, 2], -c[0, 2], c[0, 1], 0, 0, 0]
    assert M[:, 3].tolist() == [0, 0, 0, c[4, 5], -c[3, 5], c[3, 4]]


def test_bphi_columns_span_the_complement():
    """Evaluated columns are orthogonal to the subspace and full rank."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        basis = _random_basis(rng, 6, 2)
        P = plucker_of_basis(basis)
        for phi in (PHI_A, PHI_B):
            M = reference_bphi(phi, P)
            scale = np.abs(M).max() * np.abs(basis.matrix).max()
            assert np.abs(M.T @ basis.matrix).max() <= 1e-9 * scale
            assert np.linalg.matrix_rank(M) == 4


def test_bphi_rank_deficient_without_the_covering_property():
    rng = np.random.default_rng(29)
    for _ in range(10):
        P = plucker_of_basis(_random_basis(rng, 6, 2))
        M = reference_bphi(REPEATED_COLUMNS, P)
        assert np.linalg.matrix_rank(M) < 4


def test_section_vanishes_on_subspace_vectors():
    rng = np.random.default_rng(31)
    for _ in range(20):
        basis = _random_basis(rng, 6, 2)
        P = plucker_of_basis(basis)
        v = basis.matrix @ rng.standard_normal(2)
        phi = tuple(sorted(int(i) for i in rng.choice(6, size=3, replace=False)))
        assert abs(reference_section_value(phi, v, P)) <= 1e-9 * np.abs(P.coords).max() * np.abs(v).max()


def test_section_detects_unit_shift():
    """Shifting a subspace vector by e_i leaves exactly the complementary minor."""
    rng = np.random.default_rng(37)
    basis = _random_basis(rng, 6, 2)
    P = plucker_of_basis(basis)
    v = basis.matrix @ rng.standard_normal(2)
    phi = (1, 3, 4)
    for k, i in enumerate(phi):
        x = v.copy()
        x[i] += 1.0
        rest = tuple(t for t in phi if t != i)
        expected = (-1) ** k * reference_coordinates(P)[rest]
        assert reference_section_value(phi, x, P) == pytest.approx(expected, rel=1e-9)


def test_gr24_fixture():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    assert reference_gr24_residual(P) == 0


def test_gr24_vanishes_for_actual_subspaces():
    rng = np.random.default_rng(41)
    for _ in range(30):
        P = plucker_of_basis(_random_basis(rng, 4, 2))
        assert abs(reference_gr24_residual(P)) <= 1e-9 * np.abs(P.coords).max() ** 2


def test_gr24_nonzero_off_the_quadric():
    P = PluckerVector(r=2, m=4, coords=np.array([1.0, 0, 0, 0, 0, 1.0]))
    assert reference_gr24_residual(P) == pytest.approx(1.0)


def test_all_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        PluckerVector(r=2, m=4, coords=np.zeros(6))


@st.composite
def shapes_and_seeds(draw):
    m = draw(st.integers(1, 9))
    return m, draw(st.integers(1, m)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shapes_and_seeds())
def test_minors_match_the_per_subset_determinants(drawn):
    """Both sides of r <= m - r agree with one determinant per subset; an integer
    or rational basis, read as float64, with its exact determinants to 1e-12."""
    m, r, seed = drawn
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, r))
    coords = plucker_of_basis(SubspaceBasis(B)).coords
    expected = np.array([np.linalg.det(B[list(psi)]) for psi in itertools.combinations(range(m), r)])
    assert np.abs(coords - expected).max() <= 1e-12 * np.abs(expected).max()

    integers = rng.integers(-9, 10, (m, r)).tolist()
    denominators = rng.integers(1, 5, (m, r)).tolist()
    fractions = [
        [Fraction(p, q) for p, q in zip(*row)]
        for row in zip(rng.integers(-9, 10, (m, r)).tolist(), denominators)
    ]
    for rows, matrix in ((integers, np.array(integers)), (fractions, np.array(fractions, dtype=object))):
        try:
            basis = SubspaceBasis(matrix)
        except NotABasisError:
            continue
        coords = plucker_of_basis(basis).coords
        expected = [_det_by_permutations([rows[i] for i in psi]) for psi in itertools.combinations(range(m), r)]
        expected = np.array(expected, dtype=float)
        assert coords.dtype == np.float64
        assert np.abs(coords - expected).max() <= 1e-12 * np.abs(expected).max()


def test_laplace_path_builds_no_subset_table():
    index_subsets.cache_clear()
    P = plucker_of_basis(_random_basis(np.random.default_rng(43), 40, 5))
    assert len(P.coords) == 658_008
    assert index_subsets.cache_info().currsize == 0


def test_large_rank_minors_come_from_the_small_complement():
    """At 18 x 14 the recursion over 2^14 column sets would trace tens of MB;
    through the 4-dimensional complement it stays under 1 MB."""
    B = np.random.default_rng(59).standard_normal((18, 14))
    basis = SubspaceBasis(B)
    tracemalloc.start()
    try:
        coords = plucker_of_basis(basis).coords
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    expected = np.array([np.linalg.det(B[list(psi)]) for psi in itertools.combinations(range(18), 14)])
    assert np.abs(coords - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize(
    "m, r, psi",
    [(16, 8, (1, 3, 4, 6, 9, 10, 12, 15)), (40, 5, (2, 11, 17, 30, 39))],
    ids=["16x8", "40x5"],
)
def test_the_recursion_holds_one_level_and_the_next(m, r, psi):
    """Level k holds C(r, k) C(m - r + k, k) minors; the traced peak stays
    within 10 % of the two largest neighbouring levels and below all levels.
    At 16 x 8, where the complement does not help, that is 1.25 MB against
    2.2 MB. At 40 x 5 the two largest levels are the last two (8.55 MB), so
    a second full-size copy of the 658,008 coordinates would show."""
    B = np.random.default_rng(71).standard_normal((m, r))
    basis = SubspaceBasis(B)
    levels = [math.comb(r, k) * math.comb(m - r + k, k) for k in range(1, r + 1)]
    pair = 8 * max(a + b for a, b in zip(levels, levels[1:]))
    tracemalloc.start()
    try:
        coords = plucker_of_basis(basis).coords
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * pair
    assert peak < 8 * sum(levels)
    assert abs(coords[_lex_rank(psi, m)] - np.linalg.det(B[list(psi)])) <= 1e-12 * np.abs(coords).max()


def _bases_of_every_shape():
    rng = np.random.default_rng(83)
    for m in range(1, 17):
        for r in range(1, m + 1):
            yield rng.standard_normal((m, r))
    yield from (rng.standard_normal(shape) for shape in ((40, 5), (36, 5)))


def test_laplace_levels_match_the_block_by_block_fill_bit_for_bit(monkeypatch):
    """Each level reads W's entries from one table built for all rows; the
    minors, and the coordinates on both routes, are those of filling W block
    by block, bit for bit, at m from 1 to 16 at every r, 40 x 5 and 36 x 5."""
    bases = list(_bases_of_every_shape())
    assert len(bases) == 138
    fast = [(_laplace_minors(B), plucker_of_basis(SubspaceBasis(B)).coords) for B in bases]
    monkeypatch.setattr(plucker, "_laplace_minors", reference_laplace_minors)
    for B, (minors, coords) in zip(bases, fast):
        assert minors.tobytes() == reference_laplace_minors(B).tobytes(), B.shape
        assert coords.tobytes() == plucker_of_basis(SubspaceBasis(B)).coords.tobytes(), B.shape


def _dual_by_where(coords, m, r):
    """The complement's coordinates as a reversed ``np.where`` of the negated
    array: the reference formula for ``_dual_coords``."""
    odd = _subset_sum_parity(m, r) ^ bool(r * (r - 1) // 2 % 2)
    return np.where(odd, -coords, coords)[::-1]


@pytest.mark.parametrize("shape, integral", [((9, 6), False), ((12, 7), False), ((9, 6), True)])
def test_complement_signs_and_scale_written_in_place_match_the_reference(shape, integral):
    """``_dual_coords`` flips the complement route's signs in one array, and
    each value equals the reference ``np.where`` of the negated array, bit
    for bit; an integer basis is read as float64. The route's scale, det Q
    prod(diag R), is checked against the Laplace recursion below."""
    m, r = shape
    rng = np.random.default_rng(89)
    B = rng.integers(-9, 10, shape) if integral else rng.standard_normal(shape)
    P = plucker_of_basis(SubspaceBasis(B))
    got, expected = _dual_coords(P.coords, m, r), _dual_by_where(P.coords, m, r)
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def test_complement_route_matches_the_laplace_recursion():
    """For m <= 10 and every r > m/2, r == m - 1 and r == m among them, the
    complement route equals ``_laplace_minors`` run on the same float basis
    to 1e-12 relative. The bases give det Q both signs, so the parity factor
    and det Q are each checked without the integer oracle."""
    rng = np.random.default_rng(101)
    signs = set()
    for m in range(1, 11):
        for r in range(m // 2 + 1, m + 1):
            for _ in range(3):
                B = rng.standard_normal((m, r))
                coords = plucker_of_basis(SubspaceBasis(B)).coords
                expected = _laplace_minors(B)
                assert np.abs(coords - expected).max() <= 1e-12 * np.abs(expected).max(), (m, r)
                signs.add(np.sign(np.linalg.det(np.linalg.qr(B, mode="complete")[0])))
    assert signs == {-1.0, 1.0}


def test_the_constructor_copies_callers_arrays_and_builders_hand_over_read_only_ones():
    a = np.array([1.0, 2.0, 4.0, 0.0, -3.0, -6.0])
    P = PluckerVector(r=2, m=4, coords=a)
    frozen = a.copy()
    frozen.setflags(write=False)
    F = PluckerVector(r=2, m=4, coords=frozen)
    a[0] = 99.0
    frozen.setflags(write=True)
    frozen[1] = 99.0
    assert list(P.coords) == list(F.coords) == [1.0, 2.0, 4.0, 0.0, -3.0, -6.0]
    rng = np.random.default_rng(97)
    built = [
        plucker_of_basis(SubspaceBasis(BASIS_4X2)),
        plucker_of_basis(_random_basis(rng, 7, 3)),
        plucker_of_basis(_random_basis(rng, 7, 5)),
        plucker_of_basis(SubspaceBasis(rng.integers(-9, 10, (7, 5)))),
    ]
    for Q in [P, F, *built]:
        assert not Q.coords.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            Q.coords[0] = 0


def test_complement_route_is_accurate_past_a_tiny_leading_entry():
    """A 1e-12 leading entry, which an elimination taking it as the pivot
    would pay for with about 1e-4 in accuracy, leaves the QR route within
    1e-12 of the per-subset determinants."""
    B = np.random.default_rng(61).standard_normal((7, 5))
    B[0, 0] = 1e-12
    coords = plucker_of_basis(SubspaceBasis(B)).coords
    expected = np.array([np.linalg.det(B[list(psi)]) for psi in itertools.combinations(range(7), 5)])
    assert np.abs(coords - expected).max() <= 1e-12 * np.abs(expected).max()


@st.composite
def small_integer_matrices(draw):
    """An m x r matrix of integers in [-9, 9], m <= 12, r <= m."""
    m = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(m, 7)))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-9, 10, (m, r))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_integer_matrices())
def test_float_kernel_is_exact_on_small_integers(mat):
    """Every Laplace sum of a small-integer matrix is an integer below 2^53, so
    the float BLAS products equal the exact integer determinants (permutation
    expansion in Python ints) bit for bit, at every r. An integer basis is
    read as float64, so its coordinates are those of its float copy, bit for
    bit. With 2 r <= m, ``plucker_of_basis`` equals the exact determinants
    bit for bit; past it, it takes the complement route
    (``_minors_by_complement``), whose float elimination divides, and agrees
    to 1e-12 relative."""
    m, r = mat.shape
    exact = [_det_by_permutations(mat[list(psi)].tolist()) for psi in itertools.combinations(range(m), r)]
    assert _laplace_minors(mat.astype(float)).tolist() == exact
    try:
        basis = SubspaceBasis(mat)
    except NotABasisError:
        return
    coords = plucker_of_basis(basis).coords
    floats = plucker_of_basis(SubspaceBasis(mat.astype(float))).coords
    assert coords.tobytes() == floats.tobytes()
    if 2 * r <= m:
        assert floats.tolist() == exact
    else:
        expected = np.array(exact, dtype=float)
        assert np.abs(floats - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize(
    "shape, message",
    [((65, 1), "ambient dimension 65"), ((64, 6), r"binomial\(64,6\) coordinates")],
)
def test_unsupported_shapes_raise_before_allocating(shape, message):
    basis = _random_basis(np.random.default_rng(47), *shape)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            plucker_of_basis(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m", range(2, 9))
def test_dual_signs_match_complement_sign(m):
    rng = np.random.default_rng(53 + m)
    for r in range(1, m):
        for P in (
            plucker_of_basis(_random_basis(rng, m, r)),
            plucker_of_basis(SubspaceBasis(np.eye(m, r, dtype=int) + np.tril(rng.integers(-3, 4, (m, r)), -1))),
        ):
            dual = dict(zip(index_subsets(m, m - r), _dual_coords(P.coords, m, r).tolist()))
            for psi, value in zip(index_subsets(m, r), P.coords.tolist()):
                comp = tuple(i for i in range(m) if i not in psi)
                expected = reference_complement_sign(psi, m) * value
                assert dual[comp] == expected
                assert type(dual[comp]) is type(expected)


@pytest.mark.parametrize("m", range(1, 9))
def test_coordinate_lookup_follows_the_subset_order(m):
    """``_lex_rank`` gives each r-subset, alone or along an array's last axis,
    its position in the coordinate order."""
    for r in range(1, m + 1):
        subsets = index_subsets(m, r)
        assert [int(_lex_rank(psi, m)) for psi in subsets] == list(range(len(subsets)))
        assert _lex_rank(np.array(subsets), m).tolist() == list(range(len(subsets)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_rank_mod_p_is_the_rational_rank_of_small_integer_matrices(rows, cols, seed):
    """Entries in {0, 1, 2}: every minor is below 2^6 6! < p, so no rank drops mod p.

    The pivot rows it returns are a row basis: as many as the rank, and independent.
    """
    M = np.random.default_rng(seed).integers(0, 3, size=(rows, cols))
    rank, pivots = rank_mod_p(M.copy())
    assert rank == _rational_rank(M) == len(pivots)
    assert pivots.tolist() == sorted(set(pivots.tolist()))
    assert _rational_rank(M[pivots]) == rank


def test_rank_mod_p_visits_no_all_zero_column():
    """Three nonzero columns among 10^6: the elimination looks at those three, in
    milliseconds, not at the empty ones that sort before them, which a loop doing
    nothing but find each column empty takes about 0.7 s to pass on a 2-CPU host."""
    M = np.zeros((2, 10**6), dtype=np.int64)
    M[:, [700_000, 800_000, 900_000]] = [[1, 2, 3], [2, 4, 5]]
    start = time.process_time()
    rank, pivots = rank_mod_p(M)
    assert time.process_time() - start < 0.2
    assert (rank, pivots.tolist()) == (2, [0, 1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    arrays(np.int64, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=st.integers(0, 2)),
    st.data(),
)
def test_rank_mod_p_pivots_are_the_first_row_basis_in_any_column_order(M, data):
    """Row i is a pivot iff it raises the rational rank of rows 0..i, whatever the
    column order. Entries in {0, 1, 2}: every minor is below 2^8 8! < p, so none
    vanishes mod p only."""
    rows, cols = M.shape
    M[sorted(data.draw(st.sets(st.integers(0, rows - 1))))] = 0
    M[:, sorted(data.draw(st.sets(st.integers(0, cols - 1))))] = 0
    ranks = [0] + [_rational_rank(M[: i + 1]) for i in range(rows)]
    first_basis = [i for i in range(rows) if ranks[i + 1] > ranks[i]]
    permuted = M[:, data.draw(st.permutations(range(cols)))]
    for matrix in (M, permuted):
        rank, pivots = rank_mod_p(matrix)
        assert (rank, pivots.tolist()) == (len(first_basis), first_basis)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 9), st.integers(1, 9), st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1)
)
def test_rank_mod_p_matches_the_reference_kernel(rows, cols, inner, density, seed):
    """Full-range entries: A B mod p with A (rows x inner) and B (inner x cols)
    drawn from range(p), a ``1 - density`` share of their cells zeroed, so the
    rank is at most ``inner`` and whole rows and columns can be zero (all of
    them at density 0 or inner 0), on shapes from 1 x 1 to 9 x 9."""
    rng = np.random.default_rng(seed)
    A, B = (rng.integers(0, FIELD_PRIME, size=shape) for shape in ((rows, inner), (inner, cols)))
    A[rng.random(A.shape) >= density] = 0
    B[rng.random(B.shape) >= density] = 0
    M = (A.astype(object) @ B.astype(object) % FIELD_PRIME).astype(np.int64)
    rank, pivots = rank_mod_p(M)
    expected = reference_rank_mod_p(M)
    assert (rank, pivots.tolist()) == (expected[0], expected[1].tolist())


@pytest.mark.parametrize(
    "m, n, k, r, seed",
    [
        (12, 12, 6, 2, 0),
        (20, 20, 4, 3, 1),
        (20, 30, 8, 3, 2),
        (30, 30, 10, 4, 30),
        (40, 40, 12, 5, 0),
        (30, 60, 10, 4, 3),
    ],
)
def test_rank_mod_p_matches_the_reference_kernel_on_section_rows(monkeypatch, m, n, k, r, seed):
    """The section rows ``_tangent_ranks`` eliminates at a seeded point of a seeded mask;
    at k = r + 1 there are fewer of them than columns, so the rank falls short."""
    seen = []
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: seen.append(M.copy()) or rank_mod_p(M))
    numerics._tangent_ranks(random_pattern(m, n, k, seed=seed), r, np.random.default_rng(seed))
    (M,) = seen
    rank, pivots = rank_mod_p(M)
    expected = reference_rank_mod_p(M)
    assert (rank, pivots.tolist()) == (expected[0], expected[1].tolist())
    assert rank == len(pivots) > 0


@pytest.mark.parametrize("k, r", [(6, 3), (4, 4), (2, 3)])
def test_left_null_mod_p_spans_the_left_null_space(k, r):
    A = np.random.default_rng(k + r).integers(0, FIELD_PRIME, size=(20, k, r))
    A[0, :, 0] = 0  # a zero column drops the rank below min(k, r)
    A[1:, 0, 0] = 0  # row 0 cannot pivot the first column, so rows swap
    null, full, order = left_null_mod_p(A)
    steps = min(k, r)
    assert null.shape == (20, k - steps, k)
    assert full.tolist() == [False] + [True] * 19
    for N, M, rows in zip(null[1:], A[1:], order[1:]):
        assert not (N.astype(object) @ M.astype(object) % FIELD_PRIME).any()
        assert rank_mod_p(N.copy())[0] == k - steps
        # the swaps' row order: pivot rows first, then each null vector's own row
        assert sorted(rows.tolist()) == list(range(k)) and rows[0] != 0
        assert rank_mod_p(M[rows[:steps]].copy())[0] == steps
        for s, vector in enumerate(N):
            assert set(np.flatnonzero(vector).tolist()) <= {*rows[:steps].tolist(), rows[steps + s]}
            assert vector[rows[steps + s]] != 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
def test_left_null_mod_p_matches_the_exchanging_kernel(b, k, r, seed, data):
    """Full-range stacks of b k x r matrices, with zeros forced where rows must
    be exchanged: for each drawn (member, step t), row t of that member is zero
    up to column t, so its diagonal entry is still zero when step t comes, and
    whole drawn columns are zero, so no row pivots them. The kernel that
    exchanges only in steps with a zero diagonal entry gives what the one
    exchanging in every step gives."""
    A = np.random.default_rng(seed).integers(0, FIELD_PRIME, size=(b, k, r))
    steps = min(k, r)
    for member, t in data.draw(st.sets(st.tuples(st.integers(0, b - 1), st.integers(0, steps - 1)))):
        A[member, t, : t + 1] = 0
    for member, c in data.draw(st.sets(st.tuples(st.integers(0, b - 1), st.integers(0, r - 1)), max_size=2)):
        A[member, :, c] = 0
    got = left_null_mod_p(A.copy())
    expected = reference_left_null_mod_p(A.copy())
    for a, e in zip(got, expected):
        assert a.shape == e.shape and np.array_equal(a, e)


@pytest.mark.parametrize(
    "ranks, bound, trials",
    [([5], 5, 3), ([3], 3, 3), ([3, 3, 3], 4, 3), ([3, 3], 4, 2)],
    ids=["pass-at-trial-1", "refuted-at-the-bound", "short-in-every-trial", "short-in-every-trial-at-2"],
)
def test_first_full_rank_spawns_a_child_per_trial_and_leaves_a_passed_sequence_past_all(
    monkeypatch, ranks, bound, trials
):
    """Target 5 over ``TRIALS`` trials: each trial draws from the next child,
    spawned as it starts, and a ``SeedSequence`` passed in is left past all
    ``TRIALS`` children however early the loop stops, so the caller's next
    spawn is the one it was before."""
    monkeypatch.setattr(plucker, "TRIALS", trials)
    seed = np.random.SeedSequence(7)
    seed.spawn(2)
    keys, spawned = [], []

    def rank_at(rng):
        keys.append(rng.bit_generator.seed_seq.spawn_key)
        spawned.append(seed.n_children_spawned)
        return ranks[len(keys) - 1]

    assert first_full_rank(rank_at, 5, seed, bound=lambda: bound) == (max(ranks), len(ranks))
    assert keys == [(2 + t,) for t in range(len(ranks))]
    assert spawned == [3 + t for t in range(len(ranks))]
    assert seed.n_children_spawned == 2 + trials


def test_first_full_rank_draws_the_children_of_an_int_seed_in_order(monkeypatch):
    """An int seed's trials draw from spawn keys (0,), (1,), ..., the children
    ``SeedSequence(seed).spawn(TRIALS)`` lists, in order."""
    monkeypatch.setattr(plucker, "TRIALS", 4)
    keys, drawn = [], []

    def rank_at(rng):
        keys.append(rng.bit_generator.seed_seq.spawn_key)
        drawn.append(rng.integers(0, 2**32))
        return 0

    assert first_full_rank(rank_at, 1, 11, bound=lambda: 1) == (0, 4)
    assert keys == [(0,), (1,), (2,), (3,)]
    children = np.random.SeedSequence(11).spawn(4)
    assert drawn == [np.random.default_rng(child).integers(0, 2**32) for child in children]
