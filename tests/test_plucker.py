import json

import numpy as np
import pytest

from completable import (
    NotABasisError,
    PluckerVector,
    SubspaceBasis,
    dual_plucker,
    evaluate_bphi,
    evaluate_section,
    gr24_relation_residual,
    plucker_from_json,
    plucker_of_basis,
    plucker_to_json,
    projection_nondegenerate,
    projectively_equal,
    section_functional,
)
from conftest import PHI_A, PHI_B, REPEATED_COLUMNS

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


def test_all_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        PluckerVector(r=2, m=4, coords=np.zeros(6))
