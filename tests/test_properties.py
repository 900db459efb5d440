"""Property tests of the identities linking the analyses."""

import functools
import itertools
import json
import math
import operator
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from completable import (
    Certificate,
    DegenerateProjectionError,
    InconsistentObservationError,
    ObservationPattern,
    ObservedMatrix,
    RankReport,
    Slmf,
    SubspaceBasis,
    check_necessary_condition,
    check_relaxed_slmf,
    check_slmf_combinatorial,
    check_slmf_randomized,
    complete_matrix,
    export_plucker_system,
    find_finite_certificate,
    find_unique_certificate,
    grassmann_section_rank_test,
    jacobian_rank_test,
    numerics,
    parse_pattern,
    random_pattern,
    verify_certificate,
)
from completable.certificates import (
    _Budget,
    _counting_bound,
    _enumerate,
    _group_witness,
    _line_bound,
)
from completable.plucker import FIELD_PRIME, _lex_rank, index_subsets
from completable.slmf import HallMatching, _dual_basis_rank_mod_p, _least_violator, first_linkage_support
from conftest import (
    GRID_6X5,
    index_map_text,
    reference_complete_column,
    reference_enumerate,
    reference_export_csv,
    reference_float_tangent_ranks,
    reference_index_map,
    reference_is_row_basis,
    reference_least_violator,
    reference_relaxed_slmf,
    reference_spanning_tree,
    reference_tangent_ranks,
)


@st.composite
def masks_with_r_per_column(draw):
    """(pattern, r) with every column observed on at least r rows.

    Half are ``random_pattern`` masks with k rows per column; the others are
    thinned masks whose column sizes are drawn between r and m, so columns
    with exactly r rows (no sections) and fully observed columns both occur.
    """
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, min(m, n, 3)))
    if draw(st.booleans()):
        k = draw(st.integers(r, m))
        return random_pattern(m, n, k, seed=draw(st.integers(0, 2**16))), r
    entries = set()
    for j in range(n):
        rows = draw(st.sets(st.integers(0, m - 1), min_size=r, max_size=m))
        entries.update((i, j) for i in rows)
    return ObservationPattern(m, n, frozenset(entries)), r


@st.composite
def masks_up_to_8x8(draw):
    """(pattern, r) on at most 8 x 8 cells, any entries, r at most 3."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, min(m, n, 3)))
    cells = [(i, j) for i in range(m) for j in range(n)]
    return ObservationPattern(m, n, frozenset(draw(st.sets(st.sampled_from(cells))))), r


class _ParallelRows:
    """Wraps a Generator; in its first draw, A, the given rows become multiples
    of the first of them, so A[omega] drops rank on a column holding them."""

    def __init__(self, rng, rows):
        self.rng, self.rows = rng, list(rows)

    def integers(self, low, high, size):
        drawn = self.rng.integers(low, high, size=size)
        if self.rows:
            rows, self.rows = self.rows, []
            drawn[rows] = drawn[rows[0]] * np.arange(1, len(rows) + 1)[:, None] % high
        return drawn


_REFUTED_6X5 = (parse_pattern(GRID_6X5).restrict(parse_pattern(GRID_6X5).entries - {(4, 0)}), 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(masks_with_r_per_column(), masks_up_to_8x8()), st.integers(0, 2**16), st.booleans())
@example(mask=_REFUTED_6X5, seed=0, degenerate=False)
@example(mask=_REFUTED_6X5, seed=0, degenerate=True)
@example(mask=(parse_pattern("110\n110\n110\n110\n"), 2), seed=0, degenerate=False)
def test_jacobian_rank_is_section_rank_plus_each_columns_rank(mask, seed, degenerate):
    """rank J(A, C) = rank S + sum_j min(#omega_j, r) at every mask, short and
    empty columns included, where every A[omega_j] has full rank: the rows
    of column j hold A[omega_j], of rank min(#omega_j, r), in the
    coordinates of c_j, which no other column's rows touch, and eliminating
    them leaves that column's section rows.

    So the section report, read off the Jacobian report, from a fresh one or
    from the one a Jacobian call at the same seed left before it, has the
    Jacobian's trials, target r(m - r) and the rank of S that
    ``reference_tangent_ranks`` eliminates at the last point, redrawn from
    (seed, trials). With ``degenerate``, A[omega_1] drops rank in every
    trial (at r >= 2 and two rows or more): the rank read is then never
    above the reference's, and never a pass where the reference has none.
    """
    pattern, r = mask
    pattern = ObservationPattern(pattern.m, pattern.n, pattern.entries)  # no report of another example
    tangent_ranks = numerics._tangent_ranks
    rows = pattern.column_supports()[0] if degenerate else ()

    def ranks(pattern, r, rng):
        return tangent_ranks(pattern, r, _ParallelRows(rng, rows))

    with mock.patch.object(numerics, "_tangent_ranks", ranks):
        fresh = grassmann_section_rank_test(pattern, r, seed=seed)
        jacobian = jacobian_rank_test(pattern, r, seed=seed)
        left = grassmann_section_rank_test(pattern, r, seed=seed)
    point = np.random.default_rng(np.random.SeedSequence(seed).spawn(jacobian.trials)[-1])
    expected_jacobian, section, _ = reference_tangent_ranks(pattern, r, _ParallelRows(point, rows))
    assert jacobian.tested_rank == expected_jacobian
    target = r * (pattern.m - r)
    for report in (fresh, left):
        assert (report.target, report.trials) == (target, jacobian.trials)
        if degenerate:
            assert report.tested_rank <= section
            assert section == target or not report.passed
        else:
            assert report.tested_rank == section
            assert jacobian.tested_rank == section + sum(min(len(omega), r) for omega in pattern.column_supports())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_up_to_8x8(), st.integers(0, 2**16), st.integers(0, 4))
@example(mask=(parse_pattern("110\n110\n110\n110\n"), 2), seed=0, short=0)
def test_a_decided_jacobian_report_is_redrawn_from_its_seed_and_trials(mask, seed, short):
    """A Jacobian report that passes or stops at the (r+1)-core bound names
    its last point by (seed, trials): ``SeedSequence(seed).spawn(trials)[-1]``.
    There ``_tangent_ranks`` gives the report's rank and, on a pass, its row
    basis, and the section rank equals the reference's own elimination of S,
    as does the rank of the section report that takes the Jacobian report,
    on short and empty columns too. The first ``short`` trials read one rank
    short, as degenerate points would, so that the last point is not always
    the first."""
    pattern, r = mask
    tangent_ranks = numerics._tangent_ranks

    def ranks(pattern, r, rng):
        jacobian, section, basis = tangent_ranks(pattern, r, rng)
        if rng.bit_generator.seed_seq.spawn_key[0] < short:
            return max(jacobian - 1, 0), section, None
        return jacobian, section, basis

    with mock.patch.object(numerics, "_tangent_ranks", ranks):
        report = jacobian_rank_test(pattern, r, seed)
        section_report = grassmann_section_rank_test(pattern, r, seed)
    assume(report.passed or report.tested_rank == numerics._jacobian_rank_bound(pattern, r))

    def point():
        return np.random.default_rng(np.random.SeedSequence(seed).spawn(report.trials)[-1])

    jacobian, section, basis = numerics._tangent_ranks(pattern, r, point())
    assert jacobian == report.tested_rank
    if report.passed:
        assert tuple(map(tuple, basis.tolist())) == report.row_basis
    assert section == reference_tangent_ranks(pattern, r, point())[1]
    assert section_report == RankReport(section, r * (pattern.m - r), report.trials)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_up_to_8x8(), st.integers(0, 2**16))
def test_exact_tangent_ranks_match_the_float_svd(mask, seed):
    """The GF(p) ranks equal float SVD ranks wherever the float spectra have a clear gap."""
    pattern, r = mask
    (jacobian, section), clear = reference_float_tangent_ranks(pattern, r, seed)
    assume(clear)
    assert jacobian_rank_test(pattern, r, seed=seed).tested_rank == jacobian
    assert grassmann_section_rank_test(pattern, r, seed=seed).tested_rank == section


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_up_to_8x8(), st.integers(0, 2**16))
def test_the_core_bound_is_never_below_the_generic_ranks(mask, seed):
    """The float SVD ranks stay within the (r+1)-core bound, and the section
    rank within the bound minus sum_j min(#omega_j, r), so a trial reaching
    the bound is exact."""
    pattern, r = mask
    (jacobian, section), clear = reference_float_tangent_ranks(pattern, r, seed)
    assume(clear)
    bound = numerics._jacobian_rank_bound(pattern, r)
    assert jacobian <= bound
    assert section <= bound - sum(min(len(omega), r) for omega in pattern.column_supports())


@st.composite
def masks_up_to_10x10(draw):
    """(pattern, r) on at most 10 x 10 cells, r at most 3: half ``random_pattern``
    masks with k >= r rows per column, which often reach full rank, half any entries."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, min(m, n, 3)))
    if draw(st.booleans()):
        return random_pattern(m, n, draw(st.integers(r, m)), seed=draw(st.integers(0, 2**16))), r
    cells = [(i, j) for i in range(m) for j in range(n)]
    return ObservationPattern(m, n, frozenset(draw(st.sets(st.sampled_from(cells))))), r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(masks_up_to_10x10())
def test_the_gauge_columns_left_out_change_no_rank_nor_row_basis(mask):
    """At a fixed point, at the default ``TWO_LEVEL_COLUMNS`` (every row a hub
    below m r = 64) and with the loose rows it makes when patched to 1, the
    Jacobian rank and the section rank are those of the eliminations that
    keep every column of S, whichever invertible rows of A the gauge is taken
    from; at full rank the row basis is r(m+n-r) distinct observed entries
    whose rows of J at that point have full rank. It need not be S's
    lexicographically first: loose blocks pivot in another order."""
    pattern, r = mask
    rng = np.random.default_rng(0)
    A, C = rng.integers(0, FIELD_PRIME, size=(pattern.m, r)), rng.integers(0, FIELD_PRIME, size=(r, pattern.n))
    expected = reference_tangent_ranks(pattern, r, np.random.default_rng(0))
    for two_level in (numerics.TWO_LEVEL_COLUMNS, 1):
        with mock.patch.object(numerics, "TWO_LEVEL_COLUMNS", two_level):
            jacobian, section, basis = numerics._tangent_ranks(pattern, r, np.random.default_rng(0))
        assert (jacobian, section) == expected[:2]
        assert (basis is None) == (expected[2] is None)
        if basis is not None:
            assert reference_is_row_basis(pattern, r, A, C, basis)


def assert_necessary_witness(pattern, r, witness):
    assert witness.size == r * (pattern.m + pattern.n - r)
    assert witness.entries <= pattern.entries
    assert check_relaxed_slmf(witness, r).ok


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_with_r_per_column(), st.integers(0, 2**16), st.data())
def test_completion_reproduces_the_factors_and_refutes_a_shifted_entry(mask, seed, data):
    """Least squares on every observed row returns B C; shifting one entry of a
    column with more than r rows fails that column's residual check."""
    pattern, r = mask
    rng = np.random.default_rng(seed)
    B, C = rng.standard_normal((pattern.m, r)), rng.standard_normal((r, pattern.n))
    X = B @ C
    completed = complete_matrix(ObservedMatrix.from_matrix(X, pattern), SubspaceBasis(B))
    assert np.abs(completed - X).max() <= 1e-9 * np.abs(X).max()
    over = [j for j, omega in enumerate(pattern.column_supports()) if len(omega) > r]
    assume(over)
    j = data.draw(st.sampled_from(over))
    i = data.draw(st.sampled_from(pattern.column_supports()[j]))
    X[i, j] += 1 + abs(X[i, j])
    with pytest.raises(InconsistentObservationError, match=f"^column {j + 1}: not in projected"):
        complete_matrix(ObservedMatrix.from_matrix(X, pattern), SubspaceBasis(B))


@st.composite
def mixed_completions(draw):
    """(observed matrix, basis) whose columns mix support sizes. Values are B C.
    Each of four draws adds a way to fail: columns with fewer than r rows,
    empty ones included; zero rows of B, on which supports degenerate; a last
    column of B within 10^-12 to 10^-6 of its first, which puts the
    projections' singular value ratios on both sides of the rank tolerance;
    and up to two shifted observed entries."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, min(m, 3)))
    thin, zeros, near, shifts = (draw(st.booleans()) for _ in range(4))
    entries = set()
    for j in range(n):
        rows = draw(st.sets(st.integers(0, m - 1), min_size=0 if thin else r, max_size=m))
        entries.update((i, j) for i in rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    B, C = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    if zeros:
        B[sorted(draw(st.sets(st.integers(0, m - 1), max_size=m - r)))] = 0
    if near and r > 1:
        B[:, -1] = B[:, 0] + 10.0 ** draw(st.integers(-12, -6)) * rng.standard_normal(m)
    X = B @ C
    if shifts and entries:
        for i, j in draw(st.sets(st.sampled_from(sorted(entries)), min_size=1, max_size=2)):
            X[i, j] += 1 + abs(X[i, j])
    pattern = ObservationPattern(m, n, frozenset(entries))
    return ObservedMatrix.from_matrix(X, pattern), SubspaceBasis(B)


# a 2 x 2 basis of condition number 2.9e6, both columns observed in full:
# the completion's coefficients are about 2e6 and cancel, so a product
# summed in another order moves a completed value by about 1e-10; one
# stacked product for both columns did, and the bound below caught it
_NEAR_PARALLEL_VALUES = {
    (0, 0): 1.1932029351774438,
    (1, 0): 0.49205471524961636,
    (0, 1): 0.16453945859338576,
    (1, 1): 0.8381045655873364,
}
_NEAR_PARALLEL = (
    ObservedMatrix(ObservationPattern(2, 2, frozenset(_NEAR_PARALLEL_VALUES)), _NEAR_PARALLEL_VALUES),
    SubspaceBasis([[0.1257302210933933, 0.1257295173581575], [0.6404226504432821, 0.640421385021811]]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_completions())
@example(_NEAR_PARALLEL)
def test_stacked_completion_is_the_column_loop(drawn):
    """``complete_matrix`` returns what one SVD per column gives
    (``reference_complete_column``), to 1e-12 of the scale, and on a failing
    mask raises the lowest failing column's error type and message, as that
    loop does."""
    obs, basis = drawn
    expected = np.zeros((obs.pattern.m, obs.pattern.n))
    failure = None
    for j in range(obs.pattern.n):
        omega = obs.pattern.column_supports()[j]
        try:
            expected[:, j] = reference_complete_column(basis, omega, {i: obs.values[i, j] for i in omega})
        except (DegenerateProjectionError, InconsistentObservationError) as exc:
            failure = type(exc), f"column {j + 1}: {exc}"
            break
    if failure is not None:
        with pytest.raises(failure[0]) as raised:
            complete_matrix(obs, basis)
        assert str(raised.value) == failure[1]
        return
    completed = complete_matrix(obs, basis)
    assert np.abs(completed - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_with_r_per_column(), st.integers(0, 2**16))
def test_jacobian_pass_implies_necessary_condition_in_one_node(mask, seed):
    """Full Jacobian rank => the counting condition holds, decided within one node.

    A row basis of the Jacobian is then an exact-size finitely completable
    sub-pattern, which satisfies the counting condition.
    """
    pattern, r = mask
    jacobian = jacobian_rank_test(pattern, r, seed=seed)
    assume(jacobian.passed)
    verdict = check_necessary_condition(pattern, r)
    assert verdict.contains_relaxed is True
    assert_necessary_witness(pattern, r, verdict.witness)


@st.composite
def masks_near_exact_size(draw):
    """(pattern, r) on at most 5 x 5 cells with 0 to 2 entries beyond r(m+n-r)."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, min(m, n, 2)))
    target = r * (m + n - r)
    size = draw(st.integers(target, min(target + 2, m * n)))
    cells = [(i, j) for i in range(m) for j in range(n)]
    entries = draw(st.sets(st.sampled_from(cells), min_size=size, max_size=size))
    return ObservationPattern(m, n, frozenset(entries)), r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_near_exact_size())
def test_necessary_condition_matches_brute_force(mask):
    """The verdict equals a scan of every exact-size sub-pattern with the counting test."""
    pattern, r = mask
    target = r * (pattern.m + pattern.n - r)
    expected = any(
        check_relaxed_slmf(pattern.restrict(keep), r).ok
        for keep in itertools.combinations(sorted(pattern.entries), target)
    )
    verdict = check_necessary_condition(pattern, r)
    assert verdict.contains_relaxed is expected
    if expected:
        assert_necessary_witness(pattern, r, verdict.witness)
    else:
        assert verdict.witness is None


@st.composite
def masks_up_to_ten_rows(draw):
    """(pattern, r) on at most 10 x 8 cells, r <= 3: a ``random_pattern`` mask with
    k >= r rows per column, less 0 to 3 of its entries."""
    m = draw(st.integers(3, 10))
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, min(m - 1, n, 3)))
    k = draw(st.integers(r, m))
    pattern = random_pattern(m, n, k, seed=draw(st.integers(0, 2**16)))
    dropped = draw(st.sets(st.sampled_from(sorted(pattern.entries)), max_size=3))
    return pattern.restrict(pattern.entries - dropped), r


def row_set_necessary_verdict(pattern, r):
    """The necessary condition as the row-set stages alone decide it: the size, the
    counting bound, then the exact size; None where undecided."""
    target = r * (pattern.m + pattern.n - r)
    if pattern.size < target or _counting_bound(pattern, r)[0] < target:
        return False
    return True if pattern.size == target else None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_up_to_ten_rows(), st.integers(0, 2**16))
def test_jacobian_row_basis_is_a_necessary_witness(mask, seed):
    """A Jacobian pass carries an exact-size sub-mask that passes the counting test,
    and the verdict is the row-set stages' wherever they decide.

    The sub-mask is the entries of a row basis of J at the passing point, so
    its own Jacobian has full rank too.
    """
    pattern, r = mask
    jacobian = jacobian_rank_test(pattern, r, seed=seed)
    verdict = check_necessary_condition(pattern, r, jacobian)
    if jacobian.passed:
        witness = pattern.restrict(jacobian.row_basis)
        assert_necessary_witness(pattern, r, witness)
        assert jacobian_rank_test(witness, r, seed=seed).passed
        if r >= 2:
            assert (verdict.contains_relaxed, verdict.witness, verdict.nodes) == (True, witness, 1)
    else:
        assert jacobian.row_basis is None
    expected = row_set_necessary_verdict(pattern, r)
    if expected is not None:
        assert verdict.contains_relaxed is expected


@st.composite
def masks_with_a_short_row_or_column(draw):
    """(pattern, r) on at most 10 x 8 cells, r <= 3: a dense ``random_pattern`` mask
    with one row or one column thinned to fewer than r entries."""
    m = draw(st.integers(3, 10))
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, min(m - 1, n, 3)))
    k = draw(st.integers(max(r, m - 2), m))
    pattern = random_pattern(m, n, k, seed=draw(st.integers(0, 2**16)))
    keep = draw(st.integers(0, r - 1))
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        line = [e for e in sorted(pattern.entries) if e[0] == i]
    else:
        j = draw(st.integers(0, n - 1))
        line = [e for e in sorted(pattern.entries) if e[1] == j]
    dropped = draw(st.permutations(line))[keep:]
    return pattern.restrict(pattern.entries - set(dropped)), r


def line_rows(pattern, r):
    """The row set ``_line_bound`` names: all rows but the one it leaves out."""
    out = _line_bound(pattern, r)[1]
    return None if out is None else tuple(i for i in range(pattern.m) if i != out)


def bound_at(pattern, r, rows):
    """|Omega| + slack(I) at the row set I = ``rows``."""
    surplus = sum(max(len(set(omega) & set(rows)) - r, 0) for omega in pattern.column_supports())
    return pattern.size + r * (len(rows) - r) - surplus


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_with_a_short_row_or_column())
def test_line_bound_refutes_a_short_row_or_column(mask):
    """A row or column of fewer than r entries, in a pattern of r(m+n-r) entries or
    more, makes the line bound name a row set of r+1 rows or more whose slack
    caps the counting bound below r(m+n-r)."""
    pattern, r = mask
    target = r * (pattern.m + pattern.n - r)
    assume(pattern.size >= target)
    rows = line_rows(pattern, r)
    assert rows is not None and len(rows) > r
    assert bound_at(pattern, r, rows) == _line_bound(pattern, r)[0] < target
    assert _counting_bound(pattern, r)[0] < target


@st.composite
def masks_of_mixed_column_sizes(draw):
    """(pattern, r) on at most 8 x 8 cells, r <= 3, each column's size drawn from 0 to m."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, min(m, n, 3)))
    entries = set()
    for j in range(n):
        rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
        entries.update((i, j) for i in rows)
    return ObservationPattern(m, n, frozenset(entries)), r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_of_mixed_column_sizes())
def test_line_bound_caps_the_exact_bound_and_refutes_only_the_incompletable(mask):
    """The line bound is |Omega| + slack of the row set it names, the first of all
    rows and all rows but one in the exact scan's order (least, then smallest,
    then lexicographic), and never below the exact bound; where it refutes, no
    Jacobian trial passes and the enumeration, unguarded by any bound, finds no
    finite certificate that verifies (it takes a column of fewer than r rows
    for one, which clause (i) turns down)."""
    pattern, r = mask
    m = pattern.m
    lines = [tuple(range(m))] + [tuple(k for k in range(m) if k != i) for i in range(m)]
    first = min((rows for rows in lines if len(rows) > r), default=None,
                key=lambda rows: (bound_at(pattern, r, rows), len(rows), rows))
    bound = _line_bound(pattern, r)[0]
    assert line_rows(pattern, r) == first
    assert bound == (pattern.size if first is None else bound_at(pattern, r, first))
    assert bound >= _counting_bound(pattern, r)[0]
    if bound < r * (pattern.m + pattern.n - r):
        assert not jacobian_rank_test(pattern, r).passed
        cert = _enumerate(pattern, r, "finite", 20_000).certificate
        assert cert is None or not verify_certificate(pattern, r, cert).ok


@st.composite
def masks_with_a_short_column_or_an_unobserved_row(draw):
    """(pattern, r) on r+2 to 10 rows and at most 8 columns: a dense ``random_pattern``
    mask with one column thinned below r entries or one row emptied."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(r + 2, 10))
    n = draw(st.integers(r, 8))
    pattern = random_pattern(m, n, draw(st.integers(max(r, m - 2), m)), seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        line = [e for e in sorted(pattern.entries) if e[1] == j]
        dropped = draw(st.permutations(line))[draw(st.integers(0, r - 1)):]
    else:
        i = draw(st.integers(0, m - 1))
        dropped = [e for e in pattern.entries if e[0] == i]
    return pattern.restrict(pattern.entries - set(dropped)), r


@settings(max_examples=100, deadline=None, derandomize=True)
@given(masks_with_a_short_column_or_an_unobserved_row())
def test_search_ends_a_short_column_or_an_unobserved_row_without_a_row_set_scan(mask):
    """The line bound caps such a mask on all rows or on all rows but the empty one,
    so the finite search is absent at 0 nodes before any scan of 2^m row sets."""
    pattern, r = mask
    with mock.patch("completable.certificates._least_row_set") as scan:
        outcome = find_finite_certificate(pattern, r)
    assert (outcome.status, outcome.exhausted, outcome.nodes) == ("absent", True, 0)
    assert scan.call_count == 0


@st.composite
def rank_one_masks_above_exact_size(draw):
    """Masks on at most 8 x 8 cells with more than m+n-1 entries."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    size = draw(st.integers(m + n, m * n))
    cells = [(i, j) for i in range(m) for j in range(n)]
    entries = draw(st.sets(st.sampled_from(cells), min_size=size, max_size=size))
    return ObservationPattern(m, n, frozenset(entries))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rank_one_masks_above_exact_size())
def test_rank_one_necessary_condition_is_connectivity(pattern):
    """At r = 1 a passing sub-pattern is a spanning tree of the row-column graph.

    So the condition holds iff that graph is connected, decided in one node.
    """
    m, n = pattern.m, pattern.n
    parent = list(range(m + n))  # rows 0..m-1, then columns

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in pattern.entries:
        parent[find(i)] = find(m + j)
    connected = len({find(v) for v in range(m + n)}) == 1
    verdict = check_necessary_condition(pattern, 1)
    assert (verdict.contains_relaxed, verdict.nodes) == (connected, 1)
    if connected:
        assert_necessary_witness(pattern, 1, verdict.witness)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(masks_up_to_8x8())
def test_row_column_forest_is_the_reference_spanning_tree(mask):
    """The dict-based union-find keeps the list-based reference's forest edge for edge,
    in ``sorted(pattern.entries)`` order, and the r = 1 necessary condition takes it as witness."""
    pattern, _ = mask
    tree = reference_spanning_tree(pattern)
    forest, root = numerics._row_column_forest(sorted(pattern.entries))
    assert forest == tree
    assert len(set(root.values())) == len(root) - len(tree)  # one root per component
    if len(tree) == pattern.m + pattern.n - 1:
        assert check_necessary_condition(pattern, 1).witness == pattern.restrict(tree)


@st.composite
def small_masks(draw):
    """(pattern, r) on at most 6 x 6 cells, every column observed on at least r rows."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, min(m, n, 3)))
    entries = set()
    for j in range(n):
        rows = draw(st.sets(st.integers(0, m - 1), min_size=r, max_size=m))
        entries.update((i, j) for i in rows)
    return ObservationPattern(m, n, frozenset(entries)), r


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_masks())
def test_refuting_bound_leaves_no_finite_certificate(mask):
    """A bound below r(m+n-r) refutes finite completability; the enumeration agrees."""
    pattern, r = mask
    assume(_counting_bound(pattern, r)[0] < r * (pattern.m + pattern.n - r))
    outcome = _enumerate(pattern, r, "finite", 10**6)
    assert outcome.certificate is None and outcome.exhausted


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_with_r_per_column())
def test_unique_then_finite_then_full_rank_then_necessary(mask):
    """The theorem chain: a unique certificate with its last group merged into
    its first is a finite certificate, which the finite search finds too; a
    finite certificate gives the Jacobian full rank, and the necessary
    condition then holds."""
    pattern, r = mask
    unique = find_unique_certificate(pattern, r, budget=10**6).certificate
    if unique is not None:
        first, *middle, last = unique.partition
        merged = Certificate("finite", (first + last, *middle), unique.slmfs[:-1])
        assert verify_certificate(pattern, r, merged).ok
    finite = find_finite_certificate(pattern, r, budget=10**6)
    assert finite.certificate is not None or unique is None
    if finite.certificate is not None:
        assert jacobian_rank_test(pattern, r).passed
        assert check_necessary_condition(pattern, r).contains_relaxed is True


@st.composite
def masks_with_repeated_supports(draw):
    """(pattern, r) on up to 10 rows, from ``masks_with_r_per_column`` or with columns
    of r-1 rows up, and up to 6 of its columns drawn again and appended, so several
    columns share one support."""
    if draw(st.booleans()):
        pattern, r = draw(masks_with_r_per_column())
    else:
        m = draw(st.integers(2, 10))
        n = draw(st.integers(1, 6))
        r = draw(st.integers(1, min(m, n, 4)))
        supports = [draw(st.sets(st.integers(0, m - 1), min_size=r - 1, max_size=m)) for _ in range(n)]
        pattern = ObservationPattern(m, n, frozenset((i, j) for j, rows in enumerate(supports) for i in rows))
    supports = pattern.column_supports()
    copies = draw(st.lists(st.integers(0, pattern.n - 1), max_size=6))
    entries = pattern.entries | {(i, pattern.n + t) for t, j in enumerate(copies) for i in supports[j]}
    return ObservationPattern(pattern.m, pattern.n + len(copies), frozenset(entries)), r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_with_repeated_supports(), st.sampled_from([1 << 17, 5]))
def test_counting_bound_is_the_least_and_names_the_first_refuting_row_set(mask, cells):
    """The bound is the least over row sets by the row-set loop, and its row set the
    first (smallest, then lexicographic) whose bound falls below r(m+n-r), with each
    distinct support scanned once and weighted by its columns, in one chunk or in
    many. The necessary condition names that set, and at the exact size so does
    the counting test."""
    pattern, r = mask
    m, target = pattern.m, r * (pattern.m + pattern.n - r)
    supports = pattern.column_supports()
    values = [
        (pattern.size + r * (len(rows) - r)
         - sum(max(len(set(omega) & set(rows)) - r, 0) for omega in supports), rows)
        for size in range(r + 1, m + 1)
        for rows in itertools.combinations(range(m), size)
    ]
    with mock.patch("completable.certificates._ROW_SET_CELLS", cells):
        bound, rows = _counting_bound(pattern, r)
    assert bound == min((v for v, _ in values), default=pattern.size)
    assert rows == next((i for v, i in values if v < target), None)
    if pattern.size >= target:
        assert check_necessary_condition(pattern, r).refuting_rows == rows
    if pattern.size == target:
        assert check_relaxed_slmf(pattern, r).violating_rows == rows


@st.composite
def masks_of_exact_size(draw):
    """(pattern, r) with r(m+n-r) entries on at most 8 x 7 cells, or one fewer."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, min(m, n, 3)))
    size = r * (m + n - r) - draw(st.sampled_from([0, 0, 0, 1]))
    cells = [(i, j) for i in range(m) for j in range(n)]
    entries = draw(st.sets(st.sampled_from(cells), min_size=size, max_size=size))
    return ObservationPattern(m, n, frozenset(entries)), r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(masks_of_exact_size())
def test_counting_test_matches_the_row_set_loop(mask):
    """The row-set kernel gives the loop's verdict, reason and first violating rows."""
    pattern, r = mask
    verdict = check_relaxed_slmf(pattern, r)
    expected = reference_relaxed_slmf(pattern, r)
    assert (verdict.ok, verdict.reason, verdict.violating_rows) == expected


@st.composite
def slmf_pools(draw):
    """(pool, m, r): up to 12 distinct (r+1)-subsets of range(m), m <= 7, in any order."""
    m = draw(st.integers(2, 7))
    r = draw(st.integers(1, m - 1))
    subsets = draw(
        st.lists(
            st.sets(st.integers(0, m - 1), min_size=r + 1, max_size=r + 1).map(
                lambda s: tuple(sorted(s))
            ),
            max_size=12,
            unique=True,
        )
    )
    return subsets, m, r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slmf_pools())
def test_greedy_selection_is_the_first_slmf_by_brute_force(drawn):
    """Greedy with the Hall oracle returns the lexicographically first SLMF subfamily."""
    pool, m, r = drawn
    reference = next(
        (
            picked
            for picked in itertools.combinations(range(len(pool)), m - r)
            if _least_violator([sum(1 << i for i in pool[t]) for t in picked], r) is None
        ),
        None,
    )
    chosen = first_linkage_support([sum(1 << i for i in s) for s in pool], m, r)
    assert chosen == (None if reference is None else list(reference))


@st.composite
def masks_with_a_group(draw):
    """(pattern, r, group): at most 7 rows and 6 columns, a sorted nonempty group of columns."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, min(m - 1, 3)))
    supports = [tuple(sorted(draw(st.sets(st.integers(0, m - 1), max_size=m)))) for _ in range(n)]
    group = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    entries = frozenset((i, j) for j, omega in enumerate(supports) for i in omega)
    return ObservationPattern(m, n, entries), r, group


@settings(max_examples=300, deadline=None, derandomize=True)
@given(masks_with_a_group())
def test_group_witness_is_the_first_linkage_support_by_brute_force(drawn):
    """The group's first m-r distinct (r+1)-subsets in lexicographic order passing the
    combinatorial check, each sourced from the least group column holding it."""
    pattern, r, group = drawn
    m, supports = pattern.m, pattern.column_supports()
    subsets = sorted(set().union(*(itertools.combinations(supports[k], r + 1) for k in group)))
    assume(len(subsets) <= 14)
    reference = next(
        (
            picked
            for picked in itertools.combinations(subsets, m - r)
            if check_slmf_combinatorial(Slmf(m, r, picked)).is_slmf
        ),
        None,
    )
    # row i at bit m-1-i, as the search holds them
    pools = [
        [sum(1 << (m - 1 - i) for i in s) for s in itertools.combinations(omega, r + 1)]
        for omega in supports
    ]
    rows = [sum(1 << (m - 1 - i) for i in omega) for omega in supports]
    witness = _group_witness(pools, rows, group, m, r, _Budget(10**6))
    if reference is None:
        assert witness is None
        return
    assert witness.supports == reference
    assert witness.sources == tuple(
        min(k for k in group if set(s) <= set(supports[k])) for s in reference
    )


@st.composite
def witness_families(draw):
    """(masks, r): up to 14 (r+1)-subsets of range(m), drawn from a few so repeats occur,
    with m either at most 9 or past 64 (masks of two words)."""
    m = draw(st.one_of(st.integers(2, 9), st.integers(65, 80)))
    r = draw(st.integers(1, min(m - 1, 5)))
    subset = st.sets(st.integers(0, m - 1), min_size=r + 1, max_size=r + 1)
    few = draw(st.lists(subset, min_size=1, max_size=14))
    columns = draw(st.lists(st.sampled_from(few), min_size=1, max_size=14))
    return [sum(1 << i for i in col) for col in columns], r


def _rows(*spans):
    return sum(1 << i for span in spans for i in span)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(witness_families())
# three 10-subsets of the 11 rows 58..68, which straddle the 64-bit word edge,
# among others: the violator is those three
@example(
    ([_rows(range(0, 10)), _rows(range(58, 68)), _rows(range(20, 30)), _rows(range(59, 69)),
      _rows(range(40, 50)), _rows(range(58, 63), range(64, 69))], 9)
)
def test_least_violator_matches_brute_force(drawn):
    """The meet-in-the-middle scan returns the brute-force minimum, lexicographically first, violator."""
    masks, r = drawn
    assert _least_violator(masks, r) == reference_least_violator(masks, r)


@st.composite
def nullity_one_families(draw):
    """(r, m) families of K = m - r <= 12 columns, r <= 4, two in three with one
    column outside the greedy basis: K - 1 uniform (r+1)-subsets and one drawn from the
    rows of one or two of them, in a random order."""
    rng = random.Random(draw(st.integers(0, 2**32)))  # uniform draws, which hypothesis's are not
    r, K = rng.randint(1, 4), rng.randint(2, 12)
    m = K + r
    columns = [rng.sample(range(m), r + 1) for _ in range(K - 1)]
    near = set().union(*rng.choices(columns, k=rng.randint(1, 2)))
    columns.append(rng.sample(sorted(near), r + 1))
    rng.shuffle(columns)
    return Slmf(m, r, tuple(map(tuple, columns)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nullity_one_families())
def test_combinatorial_witness_matches_brute_force(phi):
    """The fundamental circuit, or with two or more columns turned down the scan,
    is the brute-force minimum, lexicographically first, violator."""
    masks = [sum(1 << i for i in col) for col in phi.columns]
    assert check_slmf_combinatorial(phi).witness == reference_least_violator(masks, phi.r)


@st.composite
def observed_masks(draw):
    """(observed matrix, r) with values among 0.0, -0.0, short decimals and floats."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, min(m, 4)))
    entries = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))))
    value = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.integers(-99, 99).map(lambda t: t / 10),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    values = {e: draw(value) for e in sorted(entries)}
    return ObservedMatrix(ObservationPattern(m, n, frozenset(entries)), values), r


def reference_export_matrix(obs, r):
    """The export system built one zero row at a time, then stacked."""
    pos = {s: t for t, s in enumerate(index_subsets(obs.pattern.m, r))}
    rows = []
    for j in range(obs.pattern.n):
        omega = obs.pattern.column_supports()[j]
        lookup = {i: obs.values[i, j] for i in omega}
        for phi in itertools.combinations(omega, r + 1):
            row = np.zeros(len(pos))
            for k, i in enumerate(phi):
                rest = tuple(t for t in phi if t != i)
                row[pos[rest]] = (-1) ** k * lookup[i]
            rows.append(row)
    return np.array(rows) if rows else np.zeros((0, len(pos)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(observed_masks())
def test_export_matches_the_cell_by_cell_reference(drawn):
    """The CSV and the preallocated matrix equal the plain constructions.

    Byte for byte, so an observed zero at an odd position stays -0.0, both from
    ``to_csv()`` and in a real file.
    """
    obs, r = drawn
    system = export_plucker_system(obs, r)
    expected = reference_export_matrix(obs, r)
    assert system.matrix.shape == expected.shape
    assert system.matrix.tobytes() == expected.tobytes()
    csv = reference_export_csv(expected)
    assert system.to_csv() == csv
    with tempfile.TemporaryFile() as fh:  # a file with a descriptor: the gathered writer
        system.write_csv(fh)
        fh.seek(0)
        assert fh.read() == csv.encode()
    assert index_map_text(system) == json.dumps(reference_index_map(system))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(observed_masks())
def test_export_positions_are_the_ranks_of_phi_less_each_row(drawn):
    """The positions ``write_csv`` turns into addresses: each row's strictly
    increase within range(C(m, r)), and are the ranks of phi without each of its rows."""
    obs, r = drawn
    system = export_plucker_system(obs, r)
    m = obs.pattern.m
    for row, (j, *phi) in zip(system.columns.tolist(), system.origins.tolist()):
        assert 0 <= row[0] and row[-1] < math.comb(m, r) and all(a < b for a, b in zip(row, row[1:]))
        assert row == sorted(int(_lex_rank([t for t in phi if t != i], m)) for i in phi)


@st.composite
def search_masks(draw):
    """(pattern, r) on at most 9 x 10 cells: ``random_pattern`` masks or columns of any size."""
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, min(m, n, 3)))
    if draw(st.booleans()):
        k = draw(st.integers(r, m))
        return random_pattern(m, n, k, seed=draw(st.integers(0, 2**16))), r
    entries = set()
    for j in range(n):
        rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
        entries.update((i, j) for i in rows)
    return ObservationPattern(m, n, frozenset(entries)), r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(search_masks(), st.sampled_from(["finite", "unique"]), st.sampled_from([50, 3_000, 20_000]))
def test_search_equals_the_full_walk(mask, kind, budget):
    """The search is the recursive walk with the same covering cut, node for node."""
    pattern, r = mask
    outcome = _enumerate(pattern, r, kind, budget)
    expected = reference_enumerate(pattern, r, kind, budget)
    assert (outcome.certificate, outcome.exhausted, outcome.nodes) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_with_r_per_column(), st.sampled_from(["finite", "unique"]), st.sampled_from([50, 3_000, 200_000]))
def test_covering_cut_changes_no_decided_search(mask, kind, budget):
    """Where the walk over every partition decides, the search agrees with no more nodes."""
    pattern, r = mask
    certificate, exhausted, nodes = reference_enumerate(pattern, r, kind, budget, pruned=False)
    assume(certificate is not None or exhausted)
    search = find_finite_certificate if kind == "finite" else find_unique_certificate
    outcome = search(pattern, r, budget)
    assert (outcome.certificate, outcome.exhausted) == (certificate, exhausted)
    assert outcome.nodes <= nodes


@st.composite
def slmf_families(draw):
    """An (r, m) family of m-r (r+1)-subsets, m <= 9, drawn from a few subsets so duplicates occur."""
    m = draw(st.integers(2, 9))
    r = draw(st.integers(1, m - 1))
    subset = st.sets(st.integers(0, m - 1), min_size=r + 1, max_size=r + 1)
    few = draw(st.lists(subset, min_size=1, max_size=m - r))
    columns = draw(st.lists(st.sampled_from(few), min_size=m - r, max_size=m - r))
    return Slmf(m, r, tuple(tuple(sorted(c)) for c in columns))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slmf_families())
def test_hall_oracle_matches_the_scan_and_the_rank_test(phi):
    """Hall oracle, exhaustive subfamily scan and randomized dual-basis rank agree."""
    masks = [sum(1 << i for i in col) for col in phi.columns]
    oracle = first_linkage_support(masks, phi.m, phi.r) is not None
    assert (_least_violator(masks, phi.r) is None) is oracle
    assert check_slmf_combinatorial(phi).is_slmf is oracle
    assert check_slmf_randomized(phi, seed=0).is_slmf is oracle


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slmf_families(), st.integers(0, 2**16))
def test_the_hall_rank_bounds_the_dual_basis_rank(phi, seed):
    """The Hall-matroid rank is never below the dual basis's rank over GF(p), and
    a random point reaches it, so the randomized test may stop there."""
    points = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(4)]
    ranks = [_dual_basis_rank_mod_p(phi, rng) for rng in points]
    assert ranks[0] == len(phi._hall_pass.basis) >= max(ranks)


@st.composite
def subset_sequences(draw):
    """(masks, m, r): up to 24 (r+1)-subsets of range(m) as row masks, m <= 10,
    drawn from a few so that repeats, and subsets inside turned-down reaches, occur."""
    m = draw(st.integers(2, 10))
    r = draw(st.integers(1, min(m - 1, 4)))
    subset = st.sets(st.integers(0, m - 1), min_size=r + 1, max_size=r + 1)
    few = draw(st.lists(subset.map(lambda s: sum(1 << i for i in s)), min_size=2, max_size=2 * m))
    return draw(st.lists(st.sampled_from(few), min_size=m, max_size=24)), m, r


class _BruteForceHall:
    """``HallMatching`` by definition: a subset joins iff every subfamily of the
    members plus it covers at least its size plus r rows."""

    def __init__(self, m, r):
        self.r, self.members = r, []

    def add(self, mask):
        joins = all(
            functools.reduce(operator.or_, sub, mask).bit_count() >= t + 1 + self.r
            for t in range(len(self.members) + 1)
            for sub in itertools.combinations(self.members, t)
        )
        if joins:
            self.members.append(mask)
        return joins


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subset_sequences())
def test_the_hall_oracle_shortcuts_match_brute_force(drawn):
    """Each ``add``, whether free rows accept it, a kept reach turns it down, or a
    matching decides, equals the covering inequality checked over every
    subfamily; so the greedy picks the same positions with the same spends."""
    masks, m, r = drawn
    family, reference = HallMatching(m, r), _BruteForceHall(m, r)
    for mask in masks:
        assert family.add(mask) is reference.add(mask)
    spent = {True: 0, False: 0}

    def greedy(brute):
        def spend():
            spent[brute] += 1

        return first_linkage_support(masks, m, r, spend)

    with mock.patch("completable.slmf.HallMatching", _BruteForceHall):
        expected = greedy(True)
    assert greedy(False) == expected
    assert spent[False] == spent[True]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(masks_up_to_8x8(), masks_with_r_per_column(), masks_of_exact_size()))
def test_no_result_depends_on_a_jacobian_run_before_it(mask):
    """The searches, the counting test and the necessary condition answer alike on
    a fresh pattern and on a copy whose Jacobian test ran first. Where it
    passes, the counting bound reaches r(m+n-r): a row basis of the Jacobian
    is a finitely completable exact-size sub-pattern."""
    pattern, r = mask
    ran = ObservationPattern(pattern.m, pattern.n, pattern.entries)
    passed = jacobian_rank_test(ran, r).passed

    def outcomes(p):
        return (
            find_finite_certificate(p, r, budget=300),
            find_unique_certificate(p, r, budget=300),
            check_relaxed_slmf(p, r),
            check_necessary_condition(p, r),
        )

    assert outcomes(pattern) == outcomes(ran)
    if passed:
        fresh = ObservationPattern(pattern.m, pattern.n, pattern.entries)
        assert _counting_bound(fresh, r)[0] >= r * (pattern.m + pattern.n - r)


# every public analysis stage, called as (pattern, r); the searches at 300 nodes
_PUBLIC_STAGES = {
    "jacobian": jacobian_rank_test,
    "section": grassmann_section_rank_test,
    "finite": functools.partial(find_finite_certificate, budget=300),
    "unique": functools.partial(find_unique_certificate, budget=300),
    "counting": check_relaxed_slmf,
    "necessary": check_necessary_condition,
}


def _stage_result(stage, pattern, r):
    """A stage's result with the row basis a report leaves out of comparisons."""
    result = _PUBLIC_STAGES[stage](pattern, r)
    return result, getattr(result, "row_basis", None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(masks_up_to_8x8(), masks_with_r_per_column(), masks_of_exact_size()),
    st.permutations(sorted(_PUBLIC_STAGES)),
)
def test_each_stage_answers_alike_first_last_or_alone(mask, order):
    """Every public stage, run in a drawn order on one pattern object and then
    in the reverse order on it again, gives the result it gives alone on a
    fresh copy, and the object keeps only the Jacobian report slot and the
    counting bounds. Each search and the counting test give the same result with and
    without the pattern's own Jacobian report."""
    pattern, r = mask

    def fresh():
        return ObservationPattern(pattern.m, pattern.n, pattern.entries)

    alone = {stage: _stage_result(stage, fresh(), r) for stage in order}
    shared = fresh()
    for stage in order + order[::-1]:
        assert _stage_result(stage, shared, r) == alone[stage], stage
    assert {key if key == "jacobian_report" else key[0] for key in shared._shared} <= {
        "jacobian_report", "counting_bound"
    }
    own = fresh()
    report = jacobian_rank_test(own, r)
    assert (
        find_finite_certificate(own, r, budget=300, jacobian=report),
        find_unique_certificate(own, r, budget=300, jacobian=report),
        check_relaxed_slmf(own, r, report),
        check_necessary_condition(own, r, report),
    ) == tuple(alone[stage][0] for stage in ("finite", "unique", "counting", "necessary"))
