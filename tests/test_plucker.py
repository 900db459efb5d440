import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from completable import (
    NotABasisError,
    PluckerVector,
    SubspaceBasis,
    dual_plucker,
    evaluate_bphi,
    evaluate_section,
    gr24_relation_residual,
    plucker,
    plucker_from_json,
    plucker_of_basis,
    plucker_to_json,
    projection_nondegenerate,
    projectively_equal,
    section_functional,
)
from completable.plucker import (
    FIELD_PRIME,
    _dual_coords,
    _laplace_minors,
    _lex_rank,
    _subset_sum_parity,
    complement_sign,
    index_subsets,
    left_null_mod_p,
    rank_mod_p,
    row_reduce,
)
from conftest import PHI_A, PHI_B, REPEATED_COLUMNS, reference_plucker_json

# rank-2 basis of R^4 whose minors are small integers; its coordinate vector
# (1, 2, 4, 0, -3, -6) is reused in many tests below
BASIS_4X2 = np.array([[1, 0], [0, 1], [0, 2], [3, 4]])


def _random_basis(rng, m, r):
    return SubspaceBasis(rng.standard_normal((m, r)))


def _orthogonal_complement(matrix):
    """Complement basis via full SVD, the independent oracle for duality."""
    m, r = matrix.shape
    u, _, _ = np.linalg.svd(matrix.astype(float), full_matrices=True)
    return u[:, r:]


def test_integer_minors_are_exact():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    assert list(P.coords) == [1, 2, 4, 0, -3, -6]
    assert all(isinstance(c, int) for c in P.coords)


def zip_subsets(P):
    from completable.plucker import index_subsets

    return list(zip(index_subsets(P.m, P.r), P.coords))


def test_coordinate_subspace_vector():
    B = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    P = plucker_of_basis(B)
    assert P.coordinate((0, 1)) == pytest.approx(1.0)
    others = [c for psi, c in zip_subsets(P) if psi != (0, 1)]
    assert all(c == 0 for c in others)


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
        SubspaceBasis(np.array([[1, 2], [2, 4], [3, 6]]))  # exact path too


def test_projection_nondegenerate_fixture():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    from completable.plucker import index_subsets

    for psi in index_subsets(4, 2):
        expected = psi != (1, 2)
        assert projection_nondegenerate(P, psi) is expected


def test_projection_nondegenerate_coordinate_subspace():
    B = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    P = plucker_of_basis(B)
    from completable.plucker import index_subsets

    for psi in index_subsets(5, 2):
        assert projection_nondegenerate(P, psi) is (psi == (0, 1))


def test_projection_malformed_subset():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    with pytest.raises(ValueError):
        projection_nondegenerate(P, (0, 0))
    with pytest.raises(ValueError):
        projection_nondegenerate(P, (0, 1, 2))


def test_dual_of_coordinate_plane():
    B = SubspaceBasis(np.vstack([np.eye(2), np.zeros((2, 2))]))
    Q = dual_plucker(plucker_of_basis(B))
    assert abs(Q.coordinate((2, 3))) == pytest.approx(1.0)
    assert sum(abs(c) for c in Q.coords) == pytest.approx(1.0)


def test_dual_matches_orthogonal_complement_oracle():
    Q = dual_plucker(plucker_of_basis(SubspaceBasis(BASIS_4X2.astype(float))))
    oracle = plucker_of_basis(SubspaceBasis(_orthogonal_complement(BASIS_4X2)))
    assert projectively_equal(Q, oracle)

    rng = np.random.default_rng(9)
    for _ in range(25):
        B = rng.standard_normal((5, 2))
        Q = dual_plucker(plucker_of_basis(SubspaceBasis(B)))
        oracle = plucker_of_basis(SubspaceBasis(_orthogonal_complement(B)))
        assert projectively_equal(Q, oracle)


def test_dual_involution():
    rng = np.random.default_rng(17)
    for _ in range(25):
        P = plucker_of_basis(_random_basis(rng, 5, 2))
        assert projectively_equal(dual_plucker(dual_plucker(P)), P)


def test_bphi_template_layout():
    """Signs alternate down each support; subsets drop one element at a time."""
    P = plucker_of_basis(SubspaceBasis(np.array([[1, 0], [2, 1], [0, 3], [1, 1], [4, 1], [1, 5]])))
    M = evaluate_bphi(PHI_A, P)
    assert M.shape == (6, 4)
    assert M[:, 0].tolist() == [P[1, 2], -P[0, 2], P[0, 1], 0, 0, 0]
    assert M[:, 3].tolist() == [0, 0, 0, P[4, 5], -P[3, 5], P[3, 4]]


def test_bphi_columns_span_the_complement():
    """Evaluated columns are orthogonal to the subspace and full rank."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        basis = _random_basis(rng, 6, 2)
        P = plucker_of_basis(basis)
        for phi in (PHI_A, PHI_B):
            M = evaluate_bphi(phi, P)
            scale = np.abs(M).max() * np.abs(basis.matrix).max()
            assert np.abs(M.T @ basis.matrix).max() <= 1e-9 * scale
            assert np.linalg.matrix_rank(M) == 4


def test_bphi_rank_deficient_without_the_covering_property():
    rng = np.random.default_rng(29)
    for _ in range(10):
        P = plucker_of_basis(_random_basis(rng, 6, 2))
        M = evaluate_bphi(REPEATED_COLUMNS, P)
        assert np.linalg.matrix_rank(M) < 4


def test_bphi_dimension_mismatch():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_bphi(PHI_A, P)


def test_section_functional_coefficients():
    f = section_functional((3, 4, 5), {3: 7.0, 4: 11.0, 5: 13.0})
    assert f.terms == (((4, 5), 7.0), ((3, 5), -11.0), ((3, 4), 13.0))


def test_section_vanishes_on_subspace_vectors():
    rng = np.random.default_rng(31)
    for _ in range(20):
        basis = _random_basis(rng, 6, 2)
        P = plucker_of_basis(basis)
        v = basis.matrix @ rng.standard_normal(2)
        phi = tuple(sorted(rng.choice(6, size=3, replace=False)))
        f = section_functional(phi, {i: v[i] for i in phi})
        assert abs(evaluate_section(f, P)) <= 1e-9 * P.max_abs() * np.abs(v).max()


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
        f = section_functional(phi, {t: x[t] for t in phi})
        rest = tuple(t for t in phi if t != i)
        expected = (-1) ** k * P.coordinate(rest)
        assert evaluate_section(f, P) == pytest.approx(expected, rel=1e-9)


def test_section_missing_value():
    with pytest.raises(ValueError, match="missing"):
        section_functional((0, 1, 2), {0: 1.0, 1: 2.0})


def test_gr24_fixture():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    assert gr24_relation_residual(P) == 0


def test_gr24_vanishes_for_actual_subspaces():
    rng = np.random.default_rng(41)
    for _ in range(30):
        P = plucker_of_basis(_random_basis(rng, 4, 2))
        assert abs(gr24_relation_residual(P)) <= 1e-9 * P.max_abs() ** 2


def test_gr24_nonzero_off_the_quadric():
    P = PluckerVector(r=2, m=4, coords=np.array([1.0, 0, 0, 0, 0, 1.0]))
    assert gr24_relation_residual(P) == pytest.approx(1.0)


def test_gr24_wrong_shape():
    P = plucker_of_basis(SubspaceBasis(np.eye(5)[:, :2]))
    with pytest.raises(ValueError):
        gr24_relation_residual(P)


def test_projective_equality():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2.astype(float)))
    scaled = PluckerVector(r=2, m=4, coords=-2.5 * np.asarray(P.coords, float))
    assert projectively_equal(P, scaled)
    bumped = np.asarray(P.coords, float).copy()
    bumped[3] += 0.1
    assert not projectively_equal(P, PluckerVector(r=2, m=4, coords=bumped))


def test_projective_equality_exact_cross_multiplication():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    Q = PluckerVector(r=2, m=4, coords=np.array([3 * c for c in P.coords], dtype=object))
    assert projectively_equal(P, Q)


def test_plucker_json_roundtrip():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2.astype(float)))
    payload = json.loads(plucker_to_json(P))
    assert isinstance(payload, list)
    assert payload[0] == {"subset": [1, 2], "value": 1.0}
    assert [item["subset"] for item in payload] == sorted(item["subset"] for item in payload)
    restored = plucker_from_json(plucker_to_json(P))
    assert (restored.m, restored.r) == (4, 2)
    assert projectively_equal(P, restored)


def test_plucker_json_rejects_incomplete_lists():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2.astype(float)))
    payload = json.loads(plucker_to_json(P))
    with pytest.raises(ValueError, match="lexicographic"):
        plucker_from_json(json.dumps(payload[:-1]))


def test_plucker_json_rejects_reordered_and_oversized_lists():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2.astype(float)))
    payload = json.loads(plucker_to_json(P))
    with pytest.raises(ValueError, match="lexicographic"):
        plucker_from_json(json.dumps([payload[1], payload[0], *payload[2:]]))
    with pytest.raises(ValueError, match="ambient dimension 65"):
        plucker_from_json(json.dumps([{"subset": [65], "value": 1.0}]))


def test_plucker_json_round_trip_leaves_the_subset_cache_empty():
    """A C(40, 5) round trip reads the subsets as a stream: a cached table of
    them would hold about 60 MiB for the life of the process."""
    P = plucker_of_basis(_random_basis(np.random.default_rng(43), 40, 5))
    index_subsets.cache_clear()
    restored = plucker_from_json(plucker_to_json(P))
    assert index_subsets.cache_info().currsize == 0
    assert np.array_equal(restored.coords, P.coords)


@pytest.mark.parametrize(
    "r, m, coords",
    [
        (2, 5, np.random.default_rng(5).standard_normal(10)),
        (2, 5, np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, 1e-300, 5e-324, 1.5, 2.0])),
        (3, 6, np.array([10**30 * (-1) ** k + k for k in range(20)], dtype=object)),
        (3, 6, np.array([Fraction(k - 9, 7) for k in range(20)], dtype=object)),
        (3, 6, np.array([np.float32(k / 3) for k in range(19)] + [np.int64(-2)], dtype=object)),
        (3, 40, np.arange(9880) - 4000),
    ],
    ids=["floats", "non-finite", "exact-ints", "fractions", "numpy-scalars", "int64-chunks"],
)
def test_plucker_json_is_json_dumps_of_the_items(r, m, coords):
    """The chunked text equals ``json.dumps`` of one dict per coordinate, byte for byte."""
    P = PluckerVector(r=r, m=m, coords=coords)
    assert plucker_to_json(P) == reference_plucker_json(P)


def test_plucker_json_peaks_within_four_times_its_text():
    """On C(29, 5) = 118,755 coordinates, the traced peak is at most 4x the text;
    a list of one dict per coordinate peaks at about 7.5x."""
    P = PluckerVector(r=5, m=29, coords=np.random.default_rng(29).standard_normal(118_755))
    tracemalloc.start()
    try:
        text = plucker_to_json(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


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
    """Both sides of r <= m - r agree with one determinant per subset."""
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
        expected = [row_reduce([rows[i] for i in psi])[1] for psi in itertools.combinations(range(m), r)]
        assert [(c, type(c)) for c in coords] == [(e, type(e)) for e in expected]


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


def _dual_by_where(coords, m, r):
    """The complement's coordinates as a reversed ``np.where`` of the negated
    array: the reference formula for ``_dual_coords``."""
    odd = _subset_sum_parity(m, r) ^ bool(r * (r - 1) // 2 % 2)
    return np.where(odd, -coords, coords)[::-1]


@pytest.mark.parametrize("shape, exact", [((9, 6), False), ((12, 7), False), ((9, 6), True)])
def test_complement_signs_and_scale_written_in_place_match_the_reference(monkeypatch, shape, exact):
    """The complement route (r > m/2) and ``dual_plucker`` flip signs and
    scale in one array. Each value equals the reference, where the signs come
    from ``np.where`` and the scaling ``dual * (det * dual[k])`` makes a new
    array, with k the position of the pivot rows; float values bit for bit."""
    m, r = shape
    rng = np.random.default_rng(89)
    B = rng.integers(-9, 10, shape) if exact else rng.standard_normal(shape)
    seen = {}

    def keep_minors(coords, m, r):
        seen["minors"] = coords.copy()
        return _dual_coords(coords, m, r)

    def keep_rows(psi, m):
        if isinstance(psi, list):
            seen["rows"] = psi
        return _lex_rank(psi, m)

    monkeypatch.setattr(plucker, "_dual_coords", keep_minors)
    monkeypatch.setattr(plucker, "_lex_rank", keep_rows)
    P = plucker_of_basis(SubspaceBasis(B))
    monkeypatch.undo()
    rows = seen["rows"]
    det = row_reduce(B[rows].tolist())[1] if exact else np.linalg.det(B[rows])
    dual = _dual_by_where(seen["minors"], m, m - r)
    for got, expected in (
        (P.coords, dual * (det * dual[_lex_rank(rows, m)])),
        (dual_plucker(P).coords, _dual_by_where(P.coords, m, r)),
    ):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        if not exact:
            assert got.tobytes() == expected.tobytes()


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
    built += [dual_plucker(Q) for Q in built]
    built.append(plucker_from_json(plucker_to_json(built[1])))
    for Q in [P, F, *built]:
        assert not Q.coords.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            Q.coords[0] = 0


def test_complement_elimination_pivots_past_a_tiny_entry():
    """A 1e-12 leading entry taken as the pivot would cost about 1e-4 in accuracy."""
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
    the float BLAS products equal the Python-int arithmetic of the object path
    bit for bit, at every r. With 2 r <= m, ``plucker_of_basis`` on floats
    equals the exact path bit for bit; past it, both take the complement route
    (``_minors_by_complement``), whose float elimination divides, and agree to
    1e-12 relative."""
    m, r = mat.shape
    exact = _laplace_minors(mat.astype(object))
    assert _laplace_minors(mat.astype(float)).tolist() == exact.tolist()
    try:
        basis = SubspaceBasis(mat)
    except NotABasisError:
        return
    coords = plucker_of_basis(basis).coords
    floats = plucker_of_basis(SubspaceBasis(mat.astype(float))).coords
    assert coords.tolist() == exact.tolist()
    if 2 * r <= m:
        assert floats.tolist() == exact.tolist()
    else:
        expected = exact.astype(float)
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
            Q = dual_plucker(P)
            for psi, value in zip(index_subsets(m, r), P.coords):
                comp = tuple(i for i in range(m) if i not in psi)
                expected = complement_sign(psi, m) * value
                assert Q.coordinate(comp) == expected
                assert type(Q.coordinate(comp)) is type(expected)


@pytest.mark.parametrize("m", range(1, 9))
def test_coordinate_lookup_follows_the_subset_order(m):
    for r in range(1, m + 1):
        coords = np.arange(1, len(index_subsets(m, r)) + 1)
        P = PluckerVector(r=r, m=m, coords=coords)
        for pos, psi in enumerate(index_subsets(m, r)):
            assert P.coordinate(psi[::-1]) == coords[pos]
        assert P.max_abs() == len(coords)


def test_coordinate_rejects_out_of_range_indices():
    P = plucker_of_basis(SubspaceBasis(BASIS_4X2))
    for psi in ((-1, 0), (3, 4), (), (1,)):
        with pytest.raises(ValueError, match="not an r-subset"):
            P.coordinate(psi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_rank_mod_p_is_the_rational_rank_of_small_integer_matrices(rows, cols, seed):
    """Entries in {0, 1, 2}: every minor is below 2^6 6! < p, so no rank drops mod p.

    The pivot rows it returns are a row basis: as many as the rank, and independent.
    """
    M = np.random.default_rng(seed).integers(0, 3, size=(rows, cols))
    rank, pivots = rank_mod_p(M.copy())
    assert rank == row_reduce(M.tolist())[0] == len(pivots)
    assert pivots.tolist() == sorted(set(pivots.tolist()))
    assert row_reduce(M[pivots].tolist())[0] == rank


def test_rank_mod_p_visits_no_all_zero_column(monkeypatch):
    """Three nonzero columns among 10^5: the elimination looks at those three,
    not at the empty ones that sort before them."""
    M = np.zeros((2, 10**5), dtype=np.int64)
    M[:, [70_000, 80_000, 90_000]] = [[1, 2, 3], [2, 4, 5]]
    calls = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(a.size) or flatnonzero(a))
    assert rank_mod_p(M)[0] == 2
    assert len(calls) < 10


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
