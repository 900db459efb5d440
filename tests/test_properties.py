"""Property tests of the identities linking the analyses."""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from completable import (
    ObservationPattern,
    ObservedMatrix,
    Slmf,
    check_necessary_condition,
    check_relaxed_slmf,
    check_slmf_combinatorial,
    check_slmf_randomized,
    export_plucker_system,
    find_finite_certificate,
    find_unique_certificate,
    grassmann_section_rank_test,
    jacobian_rank_test,
    random_pattern,
)
from completable.certificates import _counting_bound, _enumerate, _greedy_counting_set
from completable.plucker import index_subsets
from completable.slmf import _least_violator, first_linkage_support
from conftest import (
    reference_enumerate,
    reference_export_csv,
    reference_float_tangent_ranks,
    reference_relaxed_slmf,
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_with_r_per_column(), st.integers(0, 2**16))
def test_jacobian_rank_is_section_rank_plus_rn(mask, seed):
    """rank J(A, C) = rank of the section tangent + r n.

    With every column observed on at least r rows, the coefficients c_j of a
    column are fixed by the column space, so the factorization Jacobian
    splits into the Grassmannian directions the sections see and r n
    coefficient directions.
    """
    pattern, r = mask
    jacobian = jacobian_rank_test(pattern, r, trials=2, seed=seed)
    section = grassmann_section_rank_test(pattern, r, trials=2, seed=seed)
    assume(jacobian.indeterminate == 0 and section.indeterminate == 0)
    assert jacobian.tested_rank == section.tested_rank + r * pattern.n


@st.composite
def masks_up_to_8x8(draw):
    """(pattern, r) on at most 8 x 8 cells, any entries, r at most 3."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, min(m, n, 3)))
    cells = [(i, j) for i in range(m) for j in range(n)]
    return ObservationPattern(m, n, frozenset(draw(st.sets(st.sampled_from(cells))))), r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_up_to_8x8(), st.integers(0, 2**16))
def test_exact_tangent_ranks_match_the_float_svd(mask, seed):
    """The GF(p) ranks equal float SVD ranks wherever the float spectra have a clear gap."""
    pattern, r = mask
    (jacobian, section), clear = reference_float_tangent_ranks(pattern, r, seed)
    assume(clear)
    assert jacobian_rank_test(pattern, r, seed=seed).tested_rank == jacobian
    if all(len(omega) >= r for omega in pattern.column_supports()):
        assert grassmann_section_rank_test(pattern, r, seed=seed).tested_rank == section


def assert_necessary_witness(pattern, r, witness):
    assert witness.size == r * (pattern.m + pattern.n - r)
    assert witness.entries <= pattern.entries
    assert check_relaxed_slmf(witness, r).ok


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_with_r_per_column(), st.integers(0, 2**16))
def test_jacobian_pass_implies_necessary_condition_in_one_node(mask, seed):
    """Full Jacobian rank => the counting condition holds, decided within one node.

    A row basis of the Jacobian is then an exact-size finitely completable
    sub-pattern, which satisfies the counting condition; the greedy counting
    set finds such a sub-pattern.
    """
    pattern, r = mask
    jacobian = jacobian_rank_test(pattern, r, trials=2, seed=seed)
    assume(jacobian.passed)
    verdict = check_necessary_condition(pattern, r, budget=1)
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
        for keep in itertools.combinations(pattern.sorted_entries(), target)
    )
    verdict = check_necessary_condition(pattern, r, budget=10**6)
    assert verdict.contains_relaxed is expected
    if expected:
        assert_necessary_witness(pattern, r, verdict.witness)
    else:
        assert verdict.witness is None


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
    verdict = check_necessary_condition(pattern, 1, budget=10**6)
    assert (verdict.contains_relaxed, verdict.nodes) == (connected, 1)
    if connected:
        assert_necessary_witness(pattern, 1, verdict.witness)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_with_r_per_column())
def test_greedy_set_stays_within_the_bound(mask):
    """greedy <= bound, the bound is the first minimum over row sets, a full greedy set passes."""
    pattern, r = mask
    m, target = pattern.m, r * (pattern.m + pattern.n - r)
    supports = pattern.column_supports()
    values = [
        (pattern.size + r * (len(rows) - r)
         - sum(max(len(set(omega) & set(rows)) - r, 0) for omega in supports), rows)
        for size in range(r + 1, m + 1)
        for rows in itertools.combinations(range(m), size)
    ]
    bound, rows = _counting_bound(pattern, r)
    assert bound == min((v for v, _ in values), default=pattern.size)
    assert rows == next((i for v, i in values if v == bound), None)
    kept = _greedy_counting_set(pattern, r)
    assert len(kept) <= bound
    if len(kept) == target:
        assert check_relaxed_slmf(pattern.restrict(kept), r).ok


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
        omega, x = obs.column(j)
        lookup = dict(zip(omega, x))
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
    """The spliced CSV and the preallocated matrix equal the plain constructions.

    Byte for byte, so an observed zero at an odd position stays -0.0.
    """
    obs, r = drawn
    system = export_plucker_system(obs, r)
    expected = reference_export_matrix(obs, r)
    assert system.matrix.shape == expected.shape
    assert system.matrix.tobytes() == expected.tobytes()
    assert system.to_csv() == reference_export_csv(expected)


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
    assert check_slmf_randomized(phi, trials=3, seed=0).is_slmf is oracle
