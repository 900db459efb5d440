import json
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest

from completable import (
    Certificate,
    ObservationPattern,
    RelaxedSlmfVerdict,
    SlmfWitness,
    certificate_from_json,
    certificate_to_json,
    certificates,
    check_necessary_condition,
    check_relaxed_slmf,
    find_finite_certificate,
    find_unique_certificate,
    grassmann_section_rank_test,
    jacobian_rank_test,
    minimum_size_check,
    parse_pattern,
    random_pattern,
    verify_certificate,
)
from completable.certificates import (
    MAX_SEARCH_SUBSETS,
    ROW_SET_LIMIT,
    _counting_bound,
    _line_bound,
)
from completable.cli import build_analysis_report
from completable.numerics import _jacobian_rank_bound
from conftest import GRID_6X5, GRID_6X6, PHI_A, PHI_B, PHI_C, exact_size_trim


def _witness(phi, sources):
    return SlmfWitness(supports=phi.columns, sources=sources)


def hand_built_finite_certificate():
    """The two-group certificate of the 6x5 fixture, written out explicitly."""
    return Certificate(
        kind="finite",
        partition=((0, 1), (2, 3, 4)),
        slmfs=(
            _witness(PHI_A, (0, 0, 0, 1)),
            _witness(PHI_B, (3, 3, 3, 4)),
        ),
    )


def hand_built_unique_certificate():
    return Certificate(
        kind="unique",
        partition=((0, 1), (3, 4), (2, 5)),
        slmfs=(
            _witness(PHI_A, (0, 0, 0, 1)),
            _witness(PHI_B, (3, 3, 3, 4)),
            _witness(PHI_C, (2, 2, 5, 5)),
        ),
    )


def test_verify_finite_certificate_6x5(pattern_6x5):
    result = verify_certificate(pattern_6x5, 2, hand_built_finite_certificate())
    assert result.ok, result.detail


def test_verify_unique_certificate_6x6(pattern_6x6):
    result = verify_certificate(pattern_6x6, 2, hand_built_unique_certificate())
    assert result.ok, result.detail


def test_verify_reads_r_as_every_stage_does(pattern_6x5):
    """r is read by ``patterns._checked_rank`` first: out of 1..min(m, n) a
    ValueError, a float a TypeError before any clause is checked, and a
    numpy integer as the int it is."""
    cert = hand_built_finite_certificate()
    for r in (0, -1, min(pattern_6x5.m, pattern_6x5.n) + 1):
        with pytest.raises(ValueError, match="out of range"):
            verify_certificate(pattern_6x5, r, cert)
    work = AssertionError("a clause was checked")
    with mock.patch.object(certificates, "_expected_groups", side_effect=work), \
            mock.patch.object(certificates, "check_slmf_combinatorial", side_effect=work):
        with pytest.raises(TypeError):
            verify_certificate(pattern_6x5, 2.0, cert)
    assert verify_certificate(pattern_6x5, np.int64(2), cert) == verify_certificate(pattern_6x5, 2, cert)
    assert verify_certificate(pattern_6x5, np.int64(2), cert).ok


def test_verify_fails_clause_i_for_small_column(pattern_6x5):
    thinned = pattern_6x5.restrict(pattern_6x5.entries - {(1, 2)})  # column 3 down to one row
    result = verify_certificate(thinned, 2, hand_built_finite_certificate())
    assert not result.ok
    assert result.failed_clause == "i"


def test_verify_fails_clause_ii_for_bad_containment(pattern_6x5):
    cert = Certificate(
        kind="finite",
        partition=((0, 1), (2, 3, 4)),
        slmfs=(
            _witness(PHI_A, (0, 0, 0, 0)),  # (3,4,5) is not inside column 1's support
            _witness(PHI_B, (3, 3, 3, 4)),
        ),
    )
    result = verify_certificate(pattern_6x5, 2, cert)
    assert (result.ok, result.failed_clause) == (False, "ii")
    assert "not contained" in result.detail


def test_verify_fails_clause_ii_for_non_slmf(pattern_6x5):
    bad = SlmfWitness(
        supports=((0, 1, 2), (0, 1, 2), (0, 1, 3), (3, 4, 5)),
        sources=(0, 0, 0, 1),
    )
    cert = Certificate(
        kind="finite",
        partition=((0, 1), (2, 3, 4)),
        slmfs=(bad, _witness(PHI_B, (3, 3, 3, 4))),
    )
    result = verify_certificate(pattern_6x5, 2, cert)
    assert (result.ok, result.failed_clause) == (False, "ii")
    assert "covering" in result.detail


def test_verify_fails_clause_ii_for_a_repeated_row(pattern_6x5):
    """A support (1,1,3) holds two rows, not r+1: clause (ii) fails instead of raising."""
    cert = hand_built_finite_certificate()
    first = cert.slmfs[0]
    repeated = SlmfWitness(supports=((0, 0, 2),) + first.supports[1:], sources=first.sources)
    cert = Certificate("finite", cert.partition, (repeated,) + cert.slmfs[1:])
    result = verify_certificate(pattern_6x5, 2, cert)
    assert (result.ok, result.failed_clause) == (False, "ii")
    assert "distinct rows" in result.detail


def test_verify_decides_clause_ii_past_the_exhaustive_limit():
    """24 supports per group: the search's matching test decides the clause."""
    pattern = ObservationPattern(25, 25, frozenset((i, j) for i in range(25) for j in range(25)))
    cert = find_finite_certificate(pattern, 1).certificate
    assert len(cert.slmfs[0].supports) == 24
    assert verify_certificate(pattern, 1, cert).ok
    (witness,) = cert.slmfs
    repeated = SlmfWitness(
        supports=witness.supports[:-1] + witness.supports[:1],
        sources=witness.sources[:-1] + witness.sources[:1],
    )
    result = verify_certificate(pattern, 1, Certificate("finite", cert.partition, (repeated,)))
    assert (result.ok, result.failed_clause) == (False, "ii")
    assert "covering" in result.detail


def test_verify_fails_structure_for_bad_partition(pattern_6x5):
    cert = Certificate(
        kind="finite",
        partition=((0, 1), (1, 2, 3, 4)),
        slmfs=(_witness(PHI_A, (0, 0, 0, 1)), _witness(PHI_B, (3, 3, 3, 4))),
    )
    result = verify_certificate(pattern_6x5, 2, cert)
    assert (result.ok, result.failed_clause) == (False, "structure")


def test_find_finite_certificate_6x5(pattern_6x5):
    outcome = find_finite_certificate(pattern_6x5, 2)
    assert outcome.status == "present"
    cert = outcome.certificate
    assert cert.kind == "finite"
    assert cert.partition == ((0, 1), (2, 3, 4))
    assert cert.slmfs[0].supports == PHI_A.columns
    assert cert.slmfs[0].sources == (0, 0, 0, 1)
    assert verify_certificate(pattern_6x5, 2, cert).ok


def test_find_finite_none_after_any_single_deletion(pattern_6x5):
    """Removing any observed entry destroys every two-group certificate."""
    for entry in sorted(pattern_6x5.entries):
        outcome = find_finite_certificate(pattern_6x5.restrict(pattern_6x5.entries - {entry}), 2)
        assert outcome.status == "absent"
        assert outcome.exhausted


def test_find_finite_small_column_immediate(pattern_6x5):
    thinned = pattern_6x5.restrict(pattern_6x5.entries - {(1, 2)})
    outcome = find_finite_certificate(thinned, 2)
    assert outcome.status == "absent"
    assert outcome.nodes == 0


def test_find_unique_certificate_6x6(pattern_6x6):
    outcome = find_unique_certificate(pattern_6x6, 2)
    assert outcome.status == "present"
    cert = outcome.certificate
    assert cert.kind == "unique"
    assert set(cert.partition) == {(0, 1), (2, 5), (3, 4)}
    by_group = dict(zip(cert.partition, cert.slmfs))
    assert by_group[(2, 5)].supports == PHI_C.columns
    assert verify_certificate(pattern_6x6, 2, cert).ok


def test_find_unique_none_on_6x5(pattern_6x5):
    outcome = find_unique_certificate(pattern_6x5, 2)
    assert outcome.status == "absent"
    assert outcome.exhausted


def test_find_unique_needs_enough_columns():
    full = ObservationPattern(4, 2, frozenset((i, j) for i in range(4) for j in range(2)))
    outcome = find_unique_certificate(full, 2)  # r+1 = 3 groups, only 2 columns
    assert outcome.status == "absent"


def test_budget_exhaustion_is_inconclusive(pattern_6x5):
    outcome = find_finite_certificate(pattern_6x5, 2, budget=3)
    assert outcome.status == "inconclusive"
    assert not outcome.exhausted


@pytest.mark.parametrize("search", [find_finite_certificate, find_unique_certificate])
def test_the_searches_refuse_a_budget_that_is_not_a_non_negative_integer(pattern_6x5, search):
    """An exhausted search reports its budget as its node count, so -5 or 2.5 is refused, not echoed."""
    with pytest.raises(ValueError, match="^budget must be at least 0, got -5$"):
        search(pattern_6x5, 2, budget=-5)
    with pytest.raises(TypeError):
        search(pattern_6x5, 2, budget=2.5)


def test_search_results_always_verify():
    hits = 0
    for seed in range(40):
        pattern = random_pattern(6, 5, 4, seed=seed)
        outcome = find_finite_certificate(pattern, 2)
        if outcome.certificate is not None:
            hits += 1
            assert verify_certificate(pattern, 2, outcome.certificate).ok
    assert hits > 0  # the regime is dense enough that some draws certify


def test_certificate_implies_minimum_size():
    for seed in range(40):
        pattern = random_pattern(6, 5, 4, seed=seed)
        if find_finite_certificate(pattern, 2).status == "present":
            assert minimum_size_check(pattern, 2).passed


def test_certificate_implies_necessary_condition_not_false():
    for seed in range(20):
        pattern = random_pattern(6, 5, 4, seed=seed)
        if find_finite_certificate(pattern, 2).status == "present":
            verdict = check_necessary_condition(pattern, 2)
            assert verdict.contains_relaxed is not False


def test_relaxed_passes_on_6x5(pattern_6x5):
    verdict = check_relaxed_slmf(pattern_6x5, 2)
    assert verdict.ok
    assert verdict.reason is None
    assert (verdict.required_size, verdict.actual_size) == (18, 18)


def test_relaxed_counterexample_names_first_violating_rows():
    supports = [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3, 4), (0, 2, 3, 4, 5)]
    entries = frozenset((i, j) for j, sup in enumerate(supports) for i in sup)
    pattern = ObservationPattern(6, 5, entries)
    assert pattern.size == 18
    verdict = check_relaxed_slmf(pattern, 2)
    assert not verdict.ok
    assert verdict.reason == "inequality"
    assert verdict.violating_rows == (0, 1, 2)


def test_relaxed_size_mismatch(pattern_6x5):
    verdict = check_relaxed_slmf(pattern_6x5.restrict(pattern_6x5.entries - {(0, 0)}), 2)
    assert (verdict.ok, verdict.reason) == (False, "size")


def test_relaxed_invariant_under_permutations(pattern_6x5):
    """Relabeling rows and columns together never changes the verdict."""
    import random as pyrandom

    rng = pyrandom.Random(13)
    rows = list(range(6))
    cols = list(range(5))
    for _ in range(10):
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = ObservationPattern(
            6, 5, frozenset((rows[i], cols[j]) for i, j in pattern_6x5.entries)
        )
        assert check_relaxed_slmf(permuted, 2).ok


def test_necessary_exact_size_reduces_to_direct_check(pattern_6x5):
    verdict = check_necessary_condition(pattern_6x5, 2)
    assert verdict.contains_relaxed is True
    assert verdict.witness == pattern_6x5


def test_necessary_finds_exact_size_witness_in_6x6(pattern_6x6):
    verdict = check_necessary_condition(pattern_6x6, 2)
    assert verdict.contains_relaxed is True
    witness = verdict.witness
    assert witness.size == 20  # r(m+n-r) for the witness's own grid
    assert witness.entries <= pattern_6x6.entries
    assert check_relaxed_slmf(witness, 2).ok


def test_necessary_false_when_pattern_too_small(pattern_6x5):
    verdict = check_necessary_condition(pattern_6x5.restrict(pattern_6x5.entries - {(0, 0)}), 2)
    assert verdict.contains_relaxed is False
    assert verdict.witness is None


def test_necessary_decided_on_8x8_k5_s1():
    """The Jacobian's row basis, 28 entries, is an exact-size witness, in one node."""
    pattern = random_pattern(8, 8, 5, seed=1)
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.nodes) == (True, 1)
    witness = verdict.witness
    assert witness.size == 2 * (8 + 8 - 2)
    assert witness.entries <= pattern.entries
    assert check_relaxed_slmf(witness, 2).ok


def test_necessary_greedy_decides_below_full_jacobian_rank():
    """Jacobian rank 17 of 18 above the exact size, and a bound that does not
    refute: one node, no verdict.

    A greedy counting set, no longer computed, once kept 18 entries here, all
    but (4, 4), and passed the condition with them as its witness.
    """
    pattern = parse_pattern("01011\n10111\n01011\n11100\n01011\n11100\n")
    assert jacobian_rank_test(pattern, 2).tested_rank == 17
    assert pattern.size > 18 and _counting_bound(pattern, 2)[0] >= 18
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.witness, verdict.nodes) == (None, None, 1)
    assert check_relaxed_slmf(pattern.restrict(pattern.entries - {(4, 4)}), 2).ok


def test_necessary_short_greedy_set_refutes_at_rank_one():
    """Two disjoint 2 x 2 blocks at r = 1: the bound reaches the target 7, yet
    a largest spanning forest of the row-column graph keeps 6 entries, as two
    components leave it one edge short, so one node refutes.
    """
    pattern = parse_pattern("0011\n0011\n1100\n1100\n")
    assert _counting_bound(pattern, 1)[0] == 7
    verdict = check_necessary_condition(pattern, 1)
    assert (verdict.contains_relaxed, verdict.nodes, verdict.witness) == (False, 1, None)
    assert verdict.refuting_rows is None


def test_necessary_undecided_when_the_greedy_set_falls_short_of_a_bound_that_holds():
    """At r = 2 the Jacobian falls short (21 of 22) and the bound reaches the
    target 22 above the exact size: one node, no verdict."""
    pattern = parse_pattern("1101001\n1100101\n0010110\n1111111\n0101100\n0010110\n")
    assert jacobian_rank_test(pattern, 2).tested_rank == 21
    assert _counting_bound(pattern, 2)[0] == 22
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.witness, verdict.nodes, verdict.refuting_rows) == (None, None, 1, None)


def test_only_the_row_set_scan_refutes_this_exact_size_mask():
    """A 9 x 10 mask of 60 entries at r = 4 that the row-set scan alone refutes exactly.

    The Jacobian reads 59 of 60 after 5 trials, short of the target, which
    proves nothing; its (r+1)-core bound and its line bound both reach 60.
    Only rows {1, 2, 3, 4, 5, 8} cap passing sub-patterns at 59, so the
    necessary condition and the counting test fail there, and both
    searches are ruled out at 0 nodes.
    """
    pattern = parse_pattern(
        "1011110111\n0011100110\n1011101101\n0110101111\n0111111111\n"
        "1100011001\n1011110001\n0111110111\n1100011100\n"
    )
    rows = (0, 1, 2, 3, 4, 7)
    assert pattern.size == 4 * (9 + 10 - 4) == 60
    assert _counting_bound(pattern, 4) == (59, rows)
    assert _line_bound(pattern, 4)[0] == _jacobian_rank_bound(pattern, 4) == 60
    jacobian = jacobian_rank_test(pattern, 4)
    assert (jacobian.passed, jacobian.tested_rank, jacobian.target, jacobian.trials) == (False, 59, 60, 5)
    verdict = check_necessary_condition(pattern, 4, jacobian)
    assert (verdict.contains_relaxed, verdict.nodes, verdict.refuting_rows) == (False, 1, rows)
    counting = check_relaxed_slmf(pattern, 4, jacobian)
    assert (counting.ok, counting.reason, counting.violating_rows) == (False, "inequality", rows)
    report = build_analysis_report(pattern, 4, seed=0, budget=10**5)
    assert report["finite_certificate"] == report["unique_certificate"] == {"status": "absent", "nodes": 0}


def test_necessary_inconclusive_above_the_row_set_limit():
    """21 rows exceed ``ROW_SET_LIMIT``: no scan of row sets, no node spent.

    Two full diagonal blocks, 11 x 11 and 10 x 10, at r = 2: every row lies in
    10 columns of 10 rows or more, so the line bound reaches the target 80,
    and the Jacobian falls short (76 of 80), as each block has its own gauge.
    """
    entries = [(i, j) for i in range(11) for j in range(11)]
    entries += [(i, j) for i in range(11, 21) for j in range(11, 21)]
    pattern = ObservationPattern(21, 21, frozenset(entries))
    assert pattern.m > ROW_SET_LIMIT and pattern.size > 2 * (21 + 21 - 2)
    assert jacobian_rank_test(pattern, 2).tested_rank == 76
    assert _counting_bound(pattern, 2)[0] == 80
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.nodes) == (None, 0)


def test_necessary_refuted_by_a_degree_above_the_row_set_limit():
    """``random_pattern(21, 21, 6, seed=1)`` at r = 2: row 12 holds one entry, fewer
    than r, so all the other rows cap passing sub-patterns below 80 entries.

    The Jacobian falls short too (79 of 80), and its core bound refutes it.
    """
    pattern = random_pattern(21, 21, 6, seed=1)
    assert [i for i, _ in pattern.entries].count(11) == 1
    assert jacobian_rank_test(pattern, 2).tested_rank == 79
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.nodes, verdict.witness) == (False, 1, None)
    assert verdict.refuting_rows == tuple(i for i in range(21) if i != 11)


def test_necessary_refuted_by_a_short_column_above_the_row_set_limit():
    """All of a 21 x 21 grid but column 5, which keeps only row 8, at r = 2: the
    full row set caps passing sub-patterns below 80 entries."""
    pattern = ObservationPattern(
        21, 21, frozenset((i, j) for i in range(21) for j in range(21) if j != 4 or i == 7)
    )
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.nodes) == (False, 1)
    assert verdict.refuting_rows == tuple(range(21))


@pytest.mark.parametrize("m", [ROW_SET_LIMIT + 1, 64])
def test_exact_size_column_passes_above_the_row_set_limit(m):
    """An all-ones m x 1 mask has the exact size m at r = 1; its 2^m row sets are not scanned.

    The mask is a star, its own spanning tree, so the necessary condition reads
    connectivity, and at the exact size the counting test reads it too.
    """
    pattern = parse_pattern("1\n" * m)
    with mock.patch("completable.certificates._least_row_set") as scan:
        relaxed = check_relaxed_slmf(pattern, 1)
        verdict = check_necessary_condition(pattern, 1)
    assert scan.call_count == 0
    assert relaxed == RelaxedSlmfVerdict(True, None, None, m, m)
    assert (verdict.contains_relaxed, verdict.nodes, verdict.witness) == (True, 1, pattern)


@pytest.mark.parametrize("m, k, r", [(24, 8, 3), (40, 12, 5), (64, 12, 5)])
def test_jacobian_row_basis_passes_the_counting_test_above_the_row_set_limit(m, k, r):
    """The entries of a Jacobian row basis are a finitely completable exact-size
    mask (135, 375 and 615 entries), so the counting test passes, with its
    report or running the Jacobian test itself, and scans no row set."""
    pattern = random_pattern(m, m, k, seed=0)
    basis = pattern.restrict(jacobian_rank_test(pattern, r).row_basis)
    assert basis.size == r * (2 * m - r)
    report = jacobian_rank_test(basis, r)
    with mock.patch("completable.certificates._least_row_set") as scan:
        for relaxed in check_relaxed_slmf(basis, r, report), check_relaxed_slmf(basis, r):
            assert relaxed == RelaxedSlmfVerdict(True, None, None, basis.size, basis.size)
    assert scan.call_count == 0


def test_exact_size_row_limit_where_the_jacobian_falls_short():
    """The 21 x 21 k4 s7 mask trimmed to the exact size 80 at r = 2: its Jacobian
    stops at 79 of 80 and its line bound is 80, so above ``ROW_SET_LIMIT``
    rows nothing decides the necessary condition, nor the counting test."""
    pattern = exact_size_trim(21, 2, 4, 7)
    assert pattern.size == 80 and _counting_bound(pattern, 2)[0] == 80
    report = jacobian_rank_test(pattern, 2)
    assert (report.tested_rank, report.target) == (79, 80)
    assert check_necessary_condition(pattern, 2, report).contains_relaxed is None
    for relaxed in check_relaxed_slmf(pattern, 2, report), check_relaxed_slmf(pattern, 2):
        assert relaxed == RelaxedSlmfVerdict(None, "row_limit", None, 80, 80)


def test_exact_size_disconnected_fails_above_the_row_set_limit():
    """Rows 1-2 on columns 1-2 (a cycle) and rows 3-21 on column 3, at r = 1:
    the exact size 23 on 21 rows, whose line bound 23 does not refute. The
    graph is disconnected, so both tests fail, and no row set is named."""
    entries = {(i, j) for i in range(2) for j in range(2)} | {(i, 2) for i in range(2, 21)}
    pattern = ObservationPattern(21, 3, frozenset(entries))
    assert _counting_bound(pattern, 1)[0] == 23
    assert check_relaxed_slmf(pattern, 1) == RelaxedSlmfVerdict(False, "inequality", None, 23, 23)
    assert check_necessary_condition(pattern, 1).contains_relaxed is False


def test_exact_size_refuted_by_the_line_bound_above_the_row_set_limit():
    """Row 1 across columns 2..21, column 2 down rows 2..21, and (2, 3), at r = 1:
    41 entries in a 21 x 21 grid whose column 1 is empty. The line bound on
    rows 1..20 caps passing sub-patterns at 40 < 41, so the counting test
    fails with no row set scanned, and names none."""
    entries = {(0, j) for j in range(1, 21)} | {(i, 1) for i in range(1, 21)} | {(1, 2)}
    pattern = ObservationPattern(21, 21, frozenset(entries))
    with mock.patch("completable.certificates._least_row_set") as scan:
        relaxed = check_relaxed_slmf(pattern, 1)
        verdict = check_necessary_condition(pattern, 1)
    assert scan.call_count == 0
    assert relaxed == RelaxedSlmfVerdict(False, "inequality", None, 41, 41)
    assert (verdict.contains_relaxed, verdict.refuting_rows) == (False, tuple(range(20)))


def test_necessary_refuted_by_the_bound_in_one_node():
    """The bound caps passing sub-patterns at 13 < 14 entries and names the first
    row set capping them below 14."""
    pattern = random_pattern(8, 7, 3, seed=0)
    verdict = check_necessary_condition(pattern, 1)
    assert (verdict.contains_relaxed, verdict.nodes, verdict.witness) == (False, 1, None)
    assert verdict.refuting_rows == (0, 1, 3, 4, 5, 6, 7)
    assert _counting_bound(pattern, 1) == (13, verdict.refuting_rows)


def test_necessary_refutes_an_exact_size_mask_by_the_bound():
    """18 entries, 6 x 5, r = 2: the bound 16 refutes in one node.

    The least slack is on rows {1,4,5,6}, but the refutation and the counting
    test both name the first row set that breaks the inequality, {1,4,5}.
    """
    pattern = parse_pattern("11110\n00111\n00100\n11100\n11110\n10110\n")
    assert pattern.size == 18
    assert _counting_bound(pattern, 2) == (16, (0, 3, 4))
    verdict = check_necessary_condition(pattern, 2)
    assert (verdict.contains_relaxed, verdict.nodes, verdict.witness) == (False, 1, None)
    assert verdict.refuting_rows == (0, 3, 4)
    relaxed = check_relaxed_slmf(pattern, 2)
    assert (relaxed.ok, relaxed.reason, relaxed.violating_rows) == (False, "inequality", (0, 3, 4))


def test_refuted_counting_condition_ends_both_searches_on_12x12_k7_s3():
    """Bound 62 < 63 at r = 3: no certificate exists, so neither search enumerates."""
    pattern = random_pattern(12, 12, 7, seed=3)
    for search in (find_finite_certificate, find_unique_certificate):
        outcome = search(pattern, 3, budget=100_000)
        assert (outcome.status, outcome.exhausted, outcome.nodes) == ("absent", True, 0)
    verdict = check_necessary_condition(pattern, 3)
    assert (verdict.contains_relaxed, verdict.nodes) == (False, 1)
    assert len(verdict.refuting_rows) == 11


# the four stages that take a Jacobian report, each called as (pattern, r, report)
_REPORT_STAGES = {
    "finite": lambda p, r, j: find_finite_certificate(p, r, budget=10**4, jacobian=j),
    "unique": lambda p, r, j: find_unique_certificate(p, r, budget=10**4, jacobian=j),
    "counting": lambda p, r, j: check_relaxed_slmf(p, r, j),
    "necessary": lambda p, r, j: check_necessary_condition(p, r, j),
}


@pytest.mark.parametrize("stage", sorted(_REPORT_STAGES))
def test_a_stage_refuses_a_report_of_another_rank_or_mask(stage):
    """8 x 8 k6 s1 passes at r = 3, with a row basis of 39 entries where r = 2
    needs 28 (the necessary condition once took it as a 39-entry witness);
    the full 8 x 8 mask passes at r = 2 with a row basis holding entries this
    mask does not observe; the section test's target is r(m-r). None of them
    is of this mask at r = 2, so each stage refuses it."""
    pattern = random_pattern(8, 8, 6, seed=1)
    full = ObservationPattern(8, 8, frozenset((i, j) for i in range(8) for j in range(8)))
    larger = jacobian_rank_test(full, 2)
    assert larger.passed and not pattern.entries.issuperset(larger.row_basis)
    for report in (jacobian_rank_test(pattern, 3), larger, grassmann_section_rank_test(pattern, 2)):
        with pytest.raises(ValueError, match="not of this mask at rank r=2"):
            _REPORT_STAGES[stage](pattern, 2, report)


@pytest.mark.parametrize("stage", sorted(_REPORT_STAGES))
def test_a_stage_takes_the_pass_of_a_sub_mask_without_a_row_set_scan(stage):
    """The row basis of 8 x 8 k6 s1 at r = 2 is a 28-entry sub-mask whose own
    pass proves the bound for both masks: with it, each stage gives the result
    it gives alone on a fresh copy, and no row set is scanned."""
    pattern = random_pattern(8, 8, 6, seed=1)
    sub = pattern.restrict(jacobian_rank_test(pattern, 2).row_basis)
    report = jacobian_rank_test(sub, 2)
    assert report.passed and sub.size == 28
    for mask in (pattern, sub):
        alone = _REPORT_STAGES[stage](ObservationPattern(8, 8, mask.entries), 2, None)
        with mock.patch("completable.certificates._least_row_set") as scan:
            assert _REPORT_STAGES[stage](mask, 2, report) == alone
        assert scan.call_count == 0


def test_unique_certificate_implies_finite_one(pattern_6x6):
    """On the 6x6 fixture the stronger certificate coexists with the weaker."""
    assert find_unique_certificate(pattern_6x6, 2).status == "present"
    assert find_finite_certificate(pattern_6x6, 2).status == "present"


def test_certificate_json_roundtrip(pattern_6x5):
    cert = hand_built_finite_certificate()
    text = certificate_to_json(cert)
    payload = json.loads(text)
    assert payload["partition"] == [[1, 2], [3, 4, 5]]
    assert payload["slmfs"][0]["columns"][0] == {
        "support": [1, 2, 3],
        "source_column": 1,
    }
    restored = certificate_from_json(text)
    assert restored == cert
    assert verify_certificate(pattern_6x5, 2, restored).ok


@pytest.mark.parametrize(
    "pattern, finite_nodes, unique_nodes",
    [
        pytest.param(parse_pattern(GRID_6X5), 17, 0, id="6x5"),
        pytest.param(parse_pattern(GRID_6X6), 17, 25, id="6x6"),
        pytest.param(random_pattern(8, 8, 5, seed=1), 29, 72, id="8x8-k5-s1"),
        pytest.param(random_pattern(12, 12, 5, seed=4), 67, 956, id="12x12-k5-s4"),
    ],
)
def test_search_node_counts_are_pinned(pattern, finite_nodes, unique_nodes):
    """A node is one first group visited or one pool candidate tested; these counts fix that meaning."""
    assert find_finite_certificate(pattern, 2).nodes == finite_nodes
    assert find_unique_certificate(pattern, 2).nodes == unique_nodes


def test_unique_certificate_found_within_budget_on_12x12_k5_s4():
    """The greedy selection decides this case within the budget that left it inconclusive."""
    pattern = random_pattern(12, 12, 5, seed=4)
    outcome = find_unique_certificate(pattern, 2, budget=100_000)
    assert outcome.status == "present"
    assert verify_certificate(pattern, 2, outcome.certificate).ok


@pytest.mark.parametrize(
    "search, partition",
    [
        pytest.param(
            find_finite_certificate,
            ((0, 1, 2, 3, 4, 6), (5, 7, 8, 9, 10, 14), (11, 12, 13, 15)),
            id="finite",
        ),
        pytest.param(
            find_unique_certificate,
            ((0, 1, 2, 4, 6), (3, 7, 8, 12), (5, 9, 11), (10, 13, 14, 15)),
            id="unique",
        ),
    ],
)
def test_both_certificates_found_within_budget_on_16x16_k8_s0(search, partition):
    """Both searches decide within 10^5 nodes, on the first partitions in lexicographic order."""
    pattern = random_pattern(16, 16, 8, seed=0)
    outcome = search(pattern, 3, budget=100_000)
    assert outcome.status == "present"
    assert outcome.certificate.partition == partition
    assert verify_certificate(pattern, 3, outcome.certificate).ok


def three_row_chain(n):
    """3 x n: every column but the last 5 observes rows 1-2, the last 5 observe rows 2-3."""
    return ObservationPattern(
        3, n, frozenset((i, j) for j in range(n) for i in ((0, 1) if j < n - 5 else (1, 2)))
    )


def test_unique_search_walks_a_first_group_of_a_thousand_columns():
    """The lexicographic walk goes 1,095 columns deep with no recursion limit to hit."""
    pattern = three_row_chain(1100)
    outcome = find_unique_certificate(pattern, 1)
    assert (outcome.status, outcome.nodes) == ("present", 1100)
    assert [len(group) for group in outcome.certificate.partition] == [1095, 5]
    assert verify_certificate(pattern, 1, outcome.certificate).ok


def fully_observed(m):
    return ObservationPattern(m, m, frozenset((i, j) for i in range(m) for j in range(m)))


def test_search_on_a_fully_observed_16x16_mask_stays_small():
    """One list of C(16, 8) = 12,870 subset masks, shared by all 16 columns, not a table per column."""
    pattern = fully_observed(16)
    tracemalloc.start()
    try:
        outcome = find_finite_certificate(pattern, 7, budget=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.nodes) == ("inconclusive", 50)
    assert peak < 4 << 20


def test_the_search_memo_sees_only_groups_that_observe_every_row():
    """The row-cover test spends no node, so it runs before the memo: every group the
    greedy (``_group_witness``) receives, and the memo keeps, observes all m rows.
    The node counts do not move."""
    pattern = random_pattern(64, 64, 12, seed=0)
    supports, received = pattern.column_supports(), []
    group_witness = certificates._group_witness

    def spy(pools, rows, group, m, r, budget):
        received.append(set().union(*(supports[k] for k in group)))
        return group_witness(pools, rows, group, m, r, budget)

    with mock.patch.object(certificates, "_group_witness", spy):
        outcomes = [search(pattern, 5, budget=2000) for search in (find_finite_certificate, find_unique_certificate)]
    assert [(o.status, o.nodes) for o in outcomes] == [("inconclusive", 2000)] * 2
    assert received and all(rows == set(range(64)) for rows in received)


def test_search_past_the_subset_limit_is_inconclusive_before_allocating():
    """C(24, 12) = 2,704,156 subsets are refused at 0 nodes; C(20, 10) = 184,756 are searched."""
    refused, kept = fully_observed(24), fully_observed(20)
    assert comb(24, 12) > MAX_SEARCH_SUBSETS > comb(20, 10)
    tracemalloc.start()
    try:
        outcomes = [search(refused, 11) for search in (find_finite_certificate, find_unique_certificate)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(o.status, o.nodes) for o in outcomes] == [("inconclusive", 0)] * 2
    assert peak < 1 << 20
    found = [search(kept, 9) for search in (find_finite_certificate, find_unique_certificate)]
    assert [(o.status, o.nodes) for o in found] == [("present", 107), ("present", 119)]
    assert all(verify_certificate(kept, 9, o.certificate).ok for o in found)
