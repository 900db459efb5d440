"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import time

import numpy as np

from completable import (
    Certificate,
    ObservationPattern,
    ObservedMatrix,
    Slmf,
    SlmfWitness,
    SubspaceBasis,
    check_relaxed_slmf,
    check_slmf_combinatorial,
    check_slmf_randomized,
    complete_matrix,
    evaluate_bphi,
    export_plucker_system,
    gr24_relation_residual,
    jacobian_rank_test,
    parse_pattern,
    plucker_of_basis,
    projection_nondegenerate,
    random_pattern,
    verify_certificate,
)
from completable.cli import build_analysis_report
from completable.plucker import index_subsets
from conftest import GRID_6X5, GRID_6X6, PHI_A, PHI_B


def _verdict(number, ok, description):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, description


def test_criterion_01_finite_analysis_of_the_6x5_fixture():
    pattern = parse_pattern(GRID_6X5)
    start = time.perf_counter()
    report = build_analysis_report(pattern, 2, seed=0, budget=10**7)
    elapsed = time.perf_counter() - start

    cert_payload = report["finite_certificate"]
    ok = (
        cert_payload["status"] == "present"
        and cert_payload["certificate"]["partition"] == [[1, 2], [3, 4, 5]]
        and [c["support"] for c in cert_payload["certificate"]["slmfs"][0]["columns"]]
        == [[1, 2, 3], [1, 2, 4], [1, 2, 5], [4, 5, 6]]
        and report["unique_certificate"]["status"] == "absent"
        and report["relaxed_slmf"]["verdict"] == "pass"
        and report["jacobian_rank"]["tested_rank"] == 18
        and report["jacobian_rank"]["target"] == 18
        and report["grassmann_section_rank"]["tested_rank"] == 8
        and report["grassmann_section_rank"]["target"] == 8
        and report["exit_code"] == 0
        and elapsed < 10.0
    )
    # the hand-written two-group certificate with both reference supports is
    # itself accepted by the verifier, so the found one is interchangeable
    reference = Certificate(
        kind="finite",
        partition=((0, 1), (2, 3, 4)),
        slmfs=(
            SlmfWitness(PHI_A.columns, (0, 0, 0, 1)),
            SlmfWitness(PHI_B.columns, (3, 3, 3, 4)),
        ),
    )
    ok = ok and verify_certificate(pattern, 2, reference).ok
    _verdict(1, ok, f"6x5 fixture analysis ({elapsed:.1f}s)")


def test_criterion_02_every_single_entry_deletion_is_detected():
    pattern = parse_pattern(GRID_6X5)
    ok = True
    for entry in pattern.sorted_entries():
        smaller = pattern.without_entry(entry)
        from completable import minimum_size_check

        if minimum_size_check(smaller, 2).passed:
            ok = False
            break
        for seed in range(10):
            report = jacobian_rank_test(smaller, 2, trials=1, seed=seed)
            if report.tested_rank != 17:
                ok = False
                break
        if not ok:
            break
    _verdict(2, ok, "all 18 single-entry deletions drop to size-fail and rank 17")


def test_criterion_03_unique_analysis_of_the_6x6_fixture():
    pattern = parse_pattern(GRID_6X6)
    start = time.perf_counter()
    report = build_analysis_report(pattern, 2, seed=0, budget=10**7)
    elapsed = time.perf_counter() - start

    payload = report["unique_certificate"]
    ok = payload["status"] == "present" and elapsed < 30.0
    if ok:
        cert = payload["certificate"]
        groups = {tuple(g) for g in cert["partition"]}
        ok = groups == {(1, 2), (4, 5), (3, 6)}
        by_group = {
            tuple(grp): [c["support"] for c in slmf["columns"]]
            for grp, slmf in zip(cert["partition"], cert["slmfs"])
        }
        ok = ok and by_group[(3, 6)] == [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]]
    _verdict(3, ok, f"6x6 fixture yields the three-group certificate ({elapsed:.1f}s)")


def test_criterion_04_plucker_fixture_values():
    basis = SubspaceBasis(np.array([[1, 0], [0, 1], [0, 2], [3, 4]]))
    P = plucker_of_basis(basis)
    ok = list(P.coords) == [1, 2, 4, 0, -3, -6]
    ok = ok and gr24_relation_residual(P) == 0
    degenerate = [
        psi for psi in index_subsets(4, 2) if not projection_nondegenerate(P, psi)
    ]
    ok = ok and degenerate == [(1, 2)]
    _verdict(4, ok, "integer minors, quadric residual, and the single dead projection")


def test_criterion_05_dual_bases_at_200_random_subspaces():
    rng = np.random.default_rng(101)
    worst = 0.0
    ok = True
    for _ in range(200):
        basis = SubspaceBasis(rng.standard_normal((6, 2)))
        P = plucker_of_basis(basis)
        for phi in (PHI_A, PHI_B):
            M = evaluate_bphi(phi, P)
            if np.linalg.matrix_rank(M) != 4:
                ok = False
            scale = np.abs(M).max() * np.abs(basis.matrix).max()
            worst = max(worst, float(np.abs(M.T @ basis.matrix).max() / scale))
    ok = ok and worst < 1e-9
    _verdict(5, ok, f"rank 4 and orthogonality residual {worst:.2e} < 1e-9")


def test_criterion_06_combinatorial_and_randomized_oracles_agree():
    disagreements = 0

    pairs = list(itertools.combinations(range(4), 2))
    for idx, choice in enumerate(itertools.product(pairs, repeat=3)):
        phi = Slmf(m=4, r=1, columns=choice)
        exact = check_slmf_combinatorial(phi).is_slmf
        sampled = check_slmf_randomized(phi, trials=3, seed=idx).is_slmf
        disagreements += exact != sampled

    rng = np.random.default_rng(102)
    triples = list(itertools.combinations(range(6), 3))
    for idx in range(500):
        cols = tuple(triples[rng.integers(len(triples))] for _ in range(4))
        phi = Slmf(m=6, r=2, columns=cols)
        exact = check_slmf_combinatorial(phi).is_slmf
        sampled = check_slmf_randomized(phi, trials=3, seed=1000 + idx).is_slmf
        disagreements += exact != sampled

    _verdict(6, disagreements == 0, f"716 support families, {disagreements} disagreements")


def test_criterion_07_completion_round_trip():
    pattern = parse_pattern(GRID_6X5)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        A = rng.standard_normal((6, 2))
        X = A @ rng.standard_normal((2, 5))
        rebuilt = complete_matrix(ObservedMatrix.from_matrix(X, pattern), SubspaceBasis(A))
        worst = max(worst, float(np.abs(rebuilt - X).max() / np.abs(X).max()))
    _verdict(7, worst < 1e-9, f"100 round trips, worst relative error {worst:.2e}")


def test_criterion_08_counting_test_rejects_the_overloaded_rows():
    supports = [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3, 4), (0, 2, 3, 4, 5)]
    entries = frozenset((i, j) for j, sup in enumerate(supports) for i in sup)
    pattern = ObservationPattern(6, 5, entries)
    verdict = check_relaxed_slmf(pattern, 2)
    ok = (
        pattern.size == 18
        and not verdict.ok
        and verdict.reason == "inequality"
        and verdict.violating_rows == (0, 1, 2)  # surplus 3 > 2 on these rows
    )
    _verdict(8, ok, "18-entry pattern rejected with row witness {1,2,3}")


def test_criterion_09_exported_systems_annihilate_the_truth():
    pattern = parse_pattern(GRID_6X5)
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        A = rng.standard_normal((6, 2))
        X = A @ rng.standard_normal((2, 5))
        system = export_plucker_system(ObservedMatrix.from_matrix(X, pattern), 2)
        P = np.asarray(plucker_of_basis(SubspaceBasis(A)).coords, dtype=float)
        scale = np.abs(system.matrix).max() * np.abs(P).max()
        worst = max(worst, float(np.abs(system.matrix @ P).max() / scale))
    ok = worst < 1e-9

    # the single row of the three-row column carries exactly the alternating
    # signed values at the three complementary subsets
    X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    system = export_plucker_system(ObservedMatrix.from_matrix(X, pattern), 2)
    (k,) = np.flatnonzero(system.origins[:, 0] == 1)
    row = system.matrix[k]
    pos = {psi: t for t, psi in enumerate(system.subsets)}
    structure = (
        system.origins[k].tolist() == [1, 3, 4, 5]
        and row[pos[(4, 5)]] == X[3, 1]
        and row[pos[(3, 5)]] == -X[4, 1]
        and row[pos[(3, 4)]] == X[5, 1]
        and np.count_nonzero(row) == 3
    )
    _verdict(9, ok and structure, f"50 null-space residuals (worst {worst:.2e}) and row layout")


def test_criterion_10_random_patterns_are_usually_full_rank():
    # qualitative expectation for the low-rank regime: with 5 observations per
    # column on 20 rows at rank 2, well over half of random draws give a
    # full-rank tangent map; 0.5 is an empirical floor, not a derived constant
    m, n, r, k = 20, 36, 2, 5
    hits = 0
    draws = 100
    for idx, child in enumerate(np.random.SeedSequence(105).spawn(draws)):
        pattern = random_pattern(m, n, k, seed=child)
        report = jacobian_rank_test(pattern, r, trials=1, seed=idx)
        hits += report.passed
    fraction = hits / draws
    _verdict(10, fraction > 0.5, f"full jacobian rank in {fraction:.2f} of {draws} draws")
