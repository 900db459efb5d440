import numpy as np
import pytest

from completable import (
    DegenerateProjectionError,
    InconsistentObservationError,
    ObservationPattern,
    ObservedMatrix,
    SectionTestError,
    SubspaceBasis,
    complete_column,
    complete_matrix,
    export_plucker_system,
    grassmann_section_rank_test,
    jacobian_rank_test,
    numerical_rank,
    observed_from_csv,
    observed_to_csv,
    plucker_of_basis,
    projection_nondegenerate,
    random_pattern,
    sample_generic_subspace,
)
from completable.numerics import ObservedMatrixFormatError
from completable.plucker import index_subsets


def _rank2_matrix(rng, m=6, n=5):
    A = rng.standard_normal((m, 2))
    return A, A @ rng.standard_normal((2, n))


def test_sample_generic_subspace_deterministic():
    a = sample_generic_subspace(6, 2, seed=4)
    b = sample_generic_subspace(6, 2, seed=4)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, sample_generic_subspace(6, 2, seed=5).matrix)


def test_sample_generic_subspace_always_full_rank():
    for seed in range(1000):
        basis = sample_generic_subspace(6, 2, seed=seed)  # constructor validates rank
        assert basis.r == 2


def test_sampled_subspaces_have_no_vanishing_coordinates():
    for seed in range(100):
        P = plucker_of_basis(sample_generic_subspace(6, 2, seed=seed))
        assert all(projection_nondegenerate(P, psi) for psi in index_subsets(6, 2))


def test_complete_column_coordinate_basis():
    basis = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    v = complete_column(basis, [0, 1], {0: 4.0, 1: -1.0})
    assert np.allclose(v, [4.0, -1.0, 0, 0, 0])


def test_complete_column_two_observed_rows():
    basis = SubspaceBasis(np.array([[1.0, 0], [0, 1], [0, 2], [3, 4]]))
    v = complete_column(basis, [0, 1], {0: 1.0, 1: 1.0})
    assert np.allclose(v, [1.0, 1.0, 2.0, 7.0])


def test_complete_column_roundtrip():
    """Reconstructing a subspace vector from r+1 random positions is exact."""
    rng = np.random.default_rng(19)
    for _ in range(100):
        basis = SubspaceBasis(rng.standard_normal((7, 2)))
        v = basis.matrix @ rng.standard_normal(2)
        omega = sorted(rng.choice(7, size=3, replace=False))
        rebuilt = complete_column(basis, omega, {i: v[i] for i in omega})
        assert np.abs(rebuilt - v).max() <= 1e-10 * np.abs(v).max()


def test_complete_column_degenerate_projection():
    matrix = np.vstack([np.eye(2), np.zeros((3, 2))])
    basis = SubspaceBasis(matrix)
    with pytest.raises(DegenerateProjectionError, match="drops dimension"):
        complete_column(basis, [2, 3, 4], {2: 0.0, 3: 0.0, 4: 0.0})


def test_complete_column_inconsistent_observations():
    basis = SubspaceBasis(np.array([[1.0, 0], [0, 1], [0, 2], [3, 4]]))
    with pytest.raises(InconsistentObservationError, match="projected subspace"):
        complete_column(basis, [0, 1, 2], {0: 1.0, 1: 1.0, 2: 99.0})


def test_complete_matrix_roundtrip_6x5(pattern_6x5):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        A, X = _rank2_matrix(rng)
        obs = ObservedMatrix.from_matrix(X, pattern_6x5)
        rebuilt = complete_matrix(obs, SubspaceBasis(A))
        worst = max(worst, np.abs(rebuilt - X).max() / np.abs(X).max())
    assert worst < 1e-9


def test_complete_matrix_fully_observed_is_identity():
    rng = np.random.default_rng(8)
    A, X = _rank2_matrix(rng)
    full = ObservationPattern(6, 5, frozenset((i, j) for i in range(6) for j in range(5)))
    rebuilt = complete_matrix(ObservedMatrix.from_matrix(X, full), SubspaceBasis(A))
    assert np.allclose(rebuilt, X, rtol=0, atol=1e-12 * np.abs(X).max())


def test_complete_matrix_small_column_names_it(pattern_6x5):
    thinned = pattern_6x5.restrict(pattern_6x5.entries - {(1, 2)})
    rng = np.random.default_rng(9)
    A, X = _rank2_matrix(rng)
    obs = ObservedMatrix.from_matrix(X, thinned)
    with pytest.raises(DegenerateProjectionError, match="column 3"):
        complete_matrix(obs, SubspaceBasis(A))


def test_jacobian_rank_6x5_full(pattern_6x5):
    report = jacobian_rank_test(pattern_6x5, 2)
    assert (report.tested_rank, report.target) == (18, 18)
    assert report.pass_count == report.trials
    assert report.passed


def test_jacobian_rank_fully_observed():
    full = ObservationPattern(6, 5, frozenset((i, j) for i in range(6) for j in range(5)))
    assert jacobian_rank_test(full, 2, trials=2).passed
    assert jacobian_rank_test(full, 3, trials=2).passed


def test_jacobian_rank_drops_after_any_deletion(pattern_6x5):
    for entry in pattern_6x5.sorted_entries():
        report = jacobian_rank_test(pattern_6x5.without_entry(entry), 2, trials=2, seed=1)
        assert report.tested_rank == 17
        assert not report.passed


def test_jacobian_rank_monotone_under_additions():
    """Observing one more position never lowers the measured generic rank."""
    rng = np.random.default_rng(21)
    pattern = random_pattern(6, 5, 3, seed=2)
    base = jacobian_rank_test(pattern, 2, trials=2).tested_rank
    missing = [e for e in np.ndindex(6, 5) if tuple(e) not in pattern.entries]
    for _ in range(10):
        extra = tuple(missing[rng.integers(len(missing))])
        grown = ObservationPattern(6, 5, pattern.entries | {extra})
        assert jacobian_rank_test(grown, 2, trials=2).tested_rank >= base


def test_jacobian_rank_stable_across_seeds(pattern_6x5):
    ranks = {
        jacobian_rank_test(pattern_6x5, 2, trials=2, seed=seed).tested_rank
        for seed in range(10)
    }
    assert ranks == {18}


def test_grassmann_rank_6x5(pattern_6x5):
    report = grassmann_section_rank_test(pattern_6x5, 2)
    assert (report.tested_rank, report.target) == (8, 8)
    assert report.passed
    assert report.indeterminate == 0


def test_grassmann_rank_drops_by_one_after_deletion(pattern_6x5):
    smaller = pattern_6x5.without_entry((4, 0))
    report = grassmann_section_rank_test(smaller, 2)
    assert (report.tested_rank, report.target) == (7, 8)


def test_grassmann_single_column_is_bounded_by_its_sections():
    # one fully observed column yields m - r sections, below r(m - r) for r >= 2
    single = ObservationPattern(6, 1, frozenset((i, 0) for i in range(6)))
    report = grassmann_section_rank_test(single, 2)
    assert report.tested_rank == 4
    assert not report.passed


def test_grassmann_rejects_column_below_r(pattern_6x5):
    thinned = pattern_6x5.restrict(pattern_6x5.entries - {(1, 2)})
    with pytest.raises(SectionTestError, match="column 3"):
        grassmann_section_rank_test(thinned, 2)


def test_export_row_for_a_three_row_column(pattern_6x5):
    values = {(i, j): float(10 * (i + 1) + (j + 1)) for i, j in pattern_6x5.entries}
    system = export_plucker_system(ObservedMatrix(pattern_6x5, values), 2)
    rows = [k for k, (j, _) in enumerate(system.row_origin) if j == 1]
    assert len(rows) == 1  # column 2 has exactly three observed rows
    (k,) = rows
    assert system.row_origin[k] == (1, (3, 4, 5))
    row = system.matrix[k]
    pos = {psi: t for t, psi in enumerate(system.subsets)}
    assert row[pos[(4, 5)]] == 42.0  # + value at row 4
    assert row[pos[(3, 5)]] == -52.0  # - value at row 5
    assert row[pos[(3, 4)]] == 62.0  # + value at row 6
    assert np.count_nonzero(row) == 3


def test_export_nullspace_contains_the_true_subspace(pattern_6x5):
    rng = np.random.default_rng(33)
    for _ in range(50):
        A, X = _rank2_matrix(rng)
        system = export_plucker_system(ObservedMatrix.from_matrix(X, pattern_6x5), 2)
        P = np.asarray(plucker_of_basis(SubspaceBasis(A)).coords, dtype=float)
        residual = np.abs(system.matrix @ P).max()
        assert residual <= 1e-9 * np.abs(system.matrix).max() * np.abs(P).max()


def test_export_skips_columns_with_exactly_r_rows(pattern_6x5):
    values = {(i, j): 1.0 for i, j in pattern_6x5.entries}
    system = export_plucker_system(ObservedMatrix(pattern_6x5, values), 2)
    assert all(j != 2 for j, _ in system.row_origin)  # column 3 has two rows
    counts = [sum(1 for j, _ in system.row_origin if j == c) for c in range(5)]
    assert counts == [10, 1, 0, 10, 1]


def test_export_empty_pattern_is_an_empty_system():
    empty = ObservationPattern(4, 3, frozenset())
    system = export_plucker_system(ObservedMatrix(empty, {}), 2)
    assert system.matrix.shape == (0, 6)
    assert system.to_csv() == ""
    assert system.index_map()["rows"] == []


def test_complete_matrix_roundtrip_on_random_patterns():
    rng = np.random.default_rng(14)
    for seed in range(20):
        pattern = random_pattern(7, 4, 3, seed=seed)  # every support exceeds r
        A = rng.standard_normal((7, 2))
        X = A @ rng.standard_normal((2, 4))
        rebuilt = complete_matrix(ObservedMatrix.from_matrix(X, pattern), SubspaceBasis(A))
        assert np.abs(rebuilt - X).max() <= 1e-9 * np.abs(X).max()


def test_certificate_implies_full_jacobian_rank():
    from completable import find_finite_certificate

    for seed in range(25):
        pattern = random_pattern(6, 5, 4, seed=seed)
        if find_finite_certificate(pattern, 2).status == "found":
            assert jacobian_rank_test(pattern, 2, trials=2).passed


def test_section_rank_pass_implies_jacobian_pass(pattern_6x5):
    """The tangent test on the Grassmannian never outruns the one upstairs."""
    fixtures = [pattern_6x5] + [random_pattern(6, 5, 4, seed=s) for s in range(10)]
    for pattern in fixtures:
        section = grassmann_section_rank_test(pattern, 2, trials=2)
        if section.passed:
            assert jacobian_rank_test(pattern, 2, trials=2).passed


def test_numerical_rank_gap_rules():
    assert numerical_rank(np.array([1.0, 1e-5, 1e-12])) == (2, True)
    assert numerical_rank(np.array([1.0, 1e-8, 1e-10])) == (2, False)  # gap only 100
    assert numerical_rank(np.array([1.0, 0.5, 0.25])) == (3, True)
    assert numerical_rank(np.array([0.0, 0.0])) == (0, True)


def test_observed_csv_roundtrip(pattern_6x5):
    rng = np.random.default_rng(12)
    _, X = _rank2_matrix(rng)
    obs = ObservedMatrix.from_matrix(X, pattern_6x5)
    text = observed_to_csv(obs)
    assert text.count("*") == 12  # 30 cells, 18 observed
    back = observed_from_csv(text)
    assert back.pattern == pattern_6x5
    assert all(back.values[k] == pytest.approx(v) for k, v in obs.values.items())


def test_observed_csv_bad_cell():
    with pytest.raises(ObservedMatrixFormatError, match="line 1, column 2"):
        observed_from_csv("1.0,oops\n2.0,3.0\n")


def test_observed_values_must_match_pattern(pattern_6x5):
    with pytest.raises(ValueError, match="exactly"):
        ObservedMatrix(pattern_6x5, {(0, 0): 1.0})
