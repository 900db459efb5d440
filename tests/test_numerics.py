import copy
import ctypes
import errno
import gc
import gzip
import hashlib
import io
import json
import os
import pickle
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from completable import (
    DegenerateProjectionError,
    ExportedSystem,
    InconsistentObservationError,
    ObservationPattern,
    ObservedMatrix,
    PluckerVector,
    RankReport,
    Slmf,
    SubspaceBasis,
    TangentSizeError,
    check_slmf_randomized,
    complete_matrix,
    export_plucker_system,
    grassmann_section_rank_test,
    jacobian_rank_test,
    observed_from_csv,
    observed_to_csv,
    parse_pattern,
    plucker_of_basis,
    random_pattern,
)
from completable import numerics, plucker, slmf
from completable.numerics import ObservedMatrixFormatError, _tangent_ranks
from completable.plucker import index_subsets, rank_mod_p
from conftest import (
    GRID_6X5,
    PHI_A,
    index_map_text,
    reference_degenerate_projections,
    reference_export_csv,
    reference_index_map,
    reference_is_row_basis,
    reference_rank_mod_p,
    reference_section_rows,
    reference_tangent_ranks,
)

# two rank-1 blocks at r = 1, deficient by one although no row or column has
# at most r entries; each block is a component of the core, with its own gauge
SPLIT_4X4 = "1100\n1100\n0011\n0011\n"
# two full 3 x 3 blocks joined by entry (2, 3), at r = 2: the core is the
# whole connected mask, so its bound is its 19 entries, above the rank 17 of 20
JOINED_6X6 = "111000\n111000\n111100\n000111\n000111\n000111\n"


def _rank2_matrix(rng, m=6, n=5):
    A = rng.standard_normal((m, 2))
    return A, A @ rng.standard_normal((2, n))


def test_sampled_subspaces_have_no_vanishing_coordinates():
    for seed in range(100):
        P = plucker_of_basis(SubspaceBasis(np.random.default_rng(seed).standard_normal((6, 2))))
        assert reference_degenerate_projections(P) == []


def _complete_one(basis, column):
    """``complete_matrix`` on a one-column ``ObservedMatrix`` holding ``column``,
    a dict from observed row to value: the completed column."""
    pattern = ObservationPattern(basis.m, 1, frozenset((i, 0) for i in column))
    return complete_matrix(ObservedMatrix(pattern, {(i, 0): v for i, v in column.items()}), basis)[:, 0]


def test_complete_column_coordinate_basis():
    basis = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    v = _complete_one(basis, {0: 4.0, 1: -1.0})
    assert np.allclose(v, [4.0, -1.0, 0, 0, 0])


def test_complete_column_two_observed_rows():
    basis = SubspaceBasis(np.array([[1.0, 0], [0, 1], [0, 2], [3, 4]]))
    v = _complete_one(basis, {0: 1.0, 1: 1.0})
    assert np.allclose(v, [1.0, 1.0, 2.0, 7.0])


def test_complete_column_roundtrip():
    """Reconstructing a subspace vector from r+1 random positions is exact."""
    rng = np.random.default_rng(19)
    for _ in range(100):
        basis = SubspaceBasis(rng.standard_normal((7, 2)))
        v = basis.matrix @ rng.standard_normal(2)
        omega = sorted(rng.choice(7, size=3, replace=False))
        rebuilt = _complete_one(basis, {i: v[i] for i in omega})
        assert np.abs(rebuilt - v).max() <= 1e-10 * np.abs(v).max()


def test_complete_column_degenerate_projection():
    """Three observed rows, k >= r, on which the basis has rank 0."""
    basis = SubspaceBasis(np.vstack([np.eye(2), np.zeros((3, 2))]))
    with pytest.raises(DegenerateProjectionError, match="^column 1: projection drops dimension$"):
        _complete_one(basis, {2: 0.0, 3: 0.0, 4: 0.0})


def test_complete_column_inconsistent_observations():
    basis = SubspaceBasis(np.array([[1.0, 0], [0, 1], [0, 2], [3, 4]]))
    with pytest.raises(InconsistentObservationError, match="^column 1: not in projected subspace"):
        _complete_one(basis, {0: 1.0, 1: 1.0, 2: 99.0})


def test_exact_bases_complete_to_their_float_copies_values(pattern_6x5):
    """An int or Fraction basis is read as float64 at construction, so both
    completions from it equal those from that float basis, bit for bit."""
    A = np.array([[1, 0], [0, 1], [2, 1], [1, 3], [-1, 2], [3, -2]])
    X = A @ np.array([[1, 0, 2, -1, 1], [0, 1, 1, 2, -3]])
    obs = ObservedMatrix.from_matrix(X, pattern_6x5)
    for exact, floats in ((A, A.astype(float)), (A * Fraction(1, 3), A / 3)):
        basis, reference = SubspaceBasis(exact), SubspaceBasis(floats)
        assert np.array_equal(complete_matrix(obs, basis), complete_matrix(obs, reference))


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


def test_a_completed_column_does_not_depend_on_the_columns_solved_with_it():
    """Each column of ``complete_matrix`` equals ``complete_matrix`` on that
    column alone, bit for bit, though the columns of a support size are
    solved together: on near-parallel bases the coefficients cancel, and a
    product summed in another order for a batch than for one column moved
    the completed values."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = rng.standard_normal((16, 3))
        B[:, -1] = B[:, 0] + 1e-5 * rng.standard_normal(16)
        supports = [sorted(rng.permutation(16)[: rng.integers(4, 10)].tolist()) for _ in range(40)]
        pattern = ObservationPattern(16, 40, frozenset((i, j) for j, omega in enumerate(supports) for i in omega))
        obs = ObservedMatrix.from_matrix(B @ rng.standard_normal((3, 40)), pattern)
        basis = SubspaceBasis(B)
        completed = complete_matrix(obs, basis)
        for j, omega in enumerate(supports):
            alone = _complete_one(basis, {i: obs.values[i, j] for i in omega})
            assert np.array_equal(completed[:, j], alone)


def test_jacobian_rank_6x5_full(pattern_6x5):
    report = jacobian_rank_test(pattern_6x5, 2)
    assert (report.tested_rank, report.target) == (18, 18)
    assert report.trials == 1
    assert report.passed


def test_jacobian_rank_fully_observed():
    full = ObservationPattern(6, 5, frozenset((i, j) for i in range(6) for j in range(5)))
    assert jacobian_rank_test(full, 2).passed
    assert jacobian_rank_test(full, 3).passed


def test_jacobian_rank_drops_after_any_deletion(pattern_6x5):
    for entry in sorted(pattern_6x5.entries):
        report = jacobian_rank_test(pattern_6x5.restrict(pattern_6x5.entries - {entry}), 2, seed=1)
        assert report.tested_rank == 17
        assert not report.passed


def test_jacobian_rank_monotone_under_additions():
    """Observing one more position never lowers the measured generic rank."""
    rng = np.random.default_rng(21)
    pattern = random_pattern(6, 5, 3, seed=2)
    base = jacobian_rank_test(pattern, 2).tested_rank
    missing = [e for e in np.ndindex(6, 5) if tuple(e) not in pattern.entries]
    for _ in range(10):
        extra = tuple(missing[rng.integers(len(missing))])
        grown = ObservationPattern(6, 5, pattern.entries | {extra})
        assert jacobian_rank_test(grown, 2).tested_rank >= base


def test_jacobian_rank_stable_across_seeds(pattern_6x5):
    ranks = {
        jacobian_rank_test(pattern_6x5, 2, seed=seed).tested_rank
        for seed in range(10)
    }
    assert ranks == {18}


def test_grassmann_rank_6x5(pattern_6x5):
    report = grassmann_section_rank_test(pattern_6x5, 2)
    assert (report.tested_rank, report.target) == (8, 8)
    assert report.passed
    assert report.indeterminate == 0


def test_a_passing_rank_test_runs_one_trial(pattern_6x5):
    """An exact full rank is a proof, so the first full-rank trial ends the test."""
    jacobian = jacobian_rank_test(pattern_6x5, 2)
    section = grassmann_section_rank_test(pattern_6x5, 2)
    assert jacobian == RankReport(tested_rank=18, target=18, trials=1)
    assert section == RankReport(tested_rank=8, target=8, trials=1)


def test_a_refuting_rank_test_runs_every_trial():
    """Two full 3 x 3 blocks joined by one entry at r = 2: the Jacobian has rank
    17 of 20, and the (r+1)-core bound is 19, so no trial proves the deficiency."""
    joined = parse_pattern(JOINED_6X6)
    assert numerics._jacobian_rank_bound(joined, 2) == 19
    assert jacobian_rank_test(joined, 2) == RankReport(17, 20, 5)
    assert grassmann_section_rank_test(joined, 2) == RankReport(5, 8, 5)


def test_a_refutation_off_the_core_bound_runs_the_one_trial_count(monkeypatch):
    """Every exact rank test reads the trial count ``plucker.TRIALS`` when it
    runs: at 2, ``JOINED_6X6`` at r = 2, short of its core bound, runs 2
    trials in the Jacobian test and reports them from the section test too."""
    monkeypatch.setattr(plucker, "TRIALS", 2)
    joined = parse_pattern(JOINED_6X6)
    assert jacobian_rank_test(joined, 2) == RankReport(17, 20, 2)
    assert grassmann_section_rank_test(joined, 2) == RankReport(5, 8, 2)
    assert grassmann_section_rank_test(parse_pattern(JOINED_6X6), 2, seed=3).trials == 2


def _blocks(*parts):
    """The masks ``parts`` down the diagonal of one mask."""
    m, n, entries = 0, 0, set()
    for part in parts:
        entries |= {(m + i, n + j) for i, j in part.entries}
        m, n = m + part.m, n + part.n
    return ObservationPattern(m, n, frozenset(entries))


@pytest.mark.parametrize(
    "pattern, r, bound, target",
    [
        (parse_pattern(SPLIT_4X4), 1, 6, 7),
        (_blocks(parse_pattern(("1" * 11 + "\n") * 11), parse_pattern(("1" * 10 + "\n") * 10)), 2, 76, 80),
        (_blocks(random_pattern(21, 21, 6, seed=1), random_pattern(21, 21, 6, seed=2)), 2, 159, 164),
    ],
)
def test_each_core_component_carries_its_own_gauge(pattern, r, bound, target):
    """A core of two components bounds the rank by the sum of their bounds, so
    a first trial reaching that sum refutes."""
    assert numerics._jacobian_rank_bound(pattern, r) == bound
    assert jacobian_rank_test(pattern, r) == RankReport(bound, target, 1)


def _counted_trials(monkeypatch):
    """The list ``_tangent_ranks`` appends each pattern it runs on to, from now on."""
    calls = []

    def counted(pattern, r, rng):
        calls.append(pattern)
        return _tangent_ranks(pattern, r, rng)

    monkeypatch.setattr(numerics, "_tangent_ranks", counted)
    return calls


_REFUTED_6X5 = parse_pattern(GRID_6X5).restrict(parse_pattern(GRID_6X5).entries - {(4, 0)})


@pytest.mark.parametrize(
    "mask, r, trials, seed",  # trials: the value of plucker.TRIALS
    [
        (parse_pattern(JOINED_6X6), 2, 5, 0),
        (parse_pattern(JOINED_6X6), 2, 3, 7),
        (parse_pattern(GRID_6X5), 2, 5, 1),
        (_REFUTED_6X5, 2, 5, 0),
        (random_pattern(8, 8, 4, seed=0), 3, 2, 5),
    ],
    ids=["fails", "fails in 3", "passes", "refuted at the bound", "8x8 at r=3"],
)
def test_a_section_call_reads_the_jacobian_report_just_left(monkeypatch, mask, r, trials, seed):
    """Right after the Jacobian test at the same (r, int seed) on the same
    pattern object, the section test runs no trial, takes the report, and
    answers as on a fresh copy."""
    monkeypatch.setattr(plucker, "TRIALS", trials)
    expected = grassmann_section_rank_test(ObservationPattern(mask.m, mask.n, mask.entries), r, seed)
    pattern = ObservationPattern(mask.m, mask.n, mask.entries)
    calls = _counted_trials(monkeypatch)
    jacobian = jacobian_rank_test(pattern, r, seed)
    assert len(calls) == jacobian.trials
    assert grassmann_section_rank_test(pattern, r, seed) == expected
    assert len(calls) == jacobian.trials
    rn = r * pattern.n
    assert expected == RankReport(jacobian.tested_rank - rn, jacobian.target - rn, jacobian.trials)
    assert "jacobian_report" not in pattern._shared


@pytest.mark.parametrize("r, seed", [(2, 1), (1, 0)], ids=["seed", "r"])
def test_a_section_call_at_another_key_computes_afresh(monkeypatch, r, seed):
    """After the Jacobian test at r = 2 and seed 0, a section call at another
    key runs its own trials, keeps no report, and answers as on a fresh copy."""
    expected = grassmann_section_rank_test(parse_pattern(JOINED_6X6), r, seed)
    joined = parse_pattern(JOINED_6X6)
    calls = _counted_trials(monkeypatch)
    jacobian_rank_test(joined, 2, 0)
    before = len(calls)
    report = grassmann_section_rank_test(joined, r, seed)
    assert report == expected and len(calls) - before == report.trials
    assert joined._shared == {}


@pytest.mark.parametrize(
    "seed",
    [np.random.SeedSequence(0), None, np.array([0, 1]), 0.0],
    ids=["SeedSequence", "None", "entropy array", "0.0"],
)
def test_a_seed_that_is_not_an_int_is_refused_before_any_trial(monkeypatch, seed):
    """The exact rank tests read the seed through ``operator.index``: a
    ``SeedSequence``, None, an array or a float raises ``TypeError`` before
    any trial, and the section test leaves the report at key (2, 0) in its
    slot, which 0.0 would equal."""
    joined = parse_pattern(JOINED_6X6)
    jacobian_rank_test(joined, 2, 0)
    left = joined._shared["jacobian_report"]
    calls = _counted_trials(monkeypatch)
    dual_ranks = []
    monkeypatch.setattr(slmf, "_dual_basis_rank_mod_p", lambda phi, rng: dual_ranks.append(phi))
    for test, args in (
        (jacobian_rank_test, (joined, 2)),
        (grassmann_section_rank_test, (joined, 2)),
        (check_slmf_randomized, (PHI_A,)),
    ):
        with pytest.raises(TypeError):
            test(*args, seed)
    assert calls == dual_ranks == []
    assert joined._shared == {"jacobian_report": left}


def test_an_int64_seed_fills_the_slot_as_an_int_does(monkeypatch):
    """``np.int64(3)`` is seed 3: the Jacobian test leaves its report at key
    (2, 3), and the section call at ``np.int64(3)`` takes it with no trial."""
    expected = jacobian_rank_test(parse_pattern(JOINED_6X6), 2, 3)
    section = grassmann_section_rank_test(parse_pattern(JOINED_6X6), 2, 3)
    joined = parse_pattern(JOINED_6X6)
    report = jacobian_rank_test(joined, 2, np.int64(3))
    (key, kept), = joined._shared.values()
    assert report == kept == expected and key == (2, 3) and type(key[1]) is int
    calls = _counted_trials(monkeypatch)
    assert grassmann_section_rank_test(joined, 2, np.int64(3)) == section
    assert calls == [] and joined._shared == {}


def test_every_jacobian_call_runs_its_trials_and_never_reads_the_slot(monkeypatch):
    """A spy on the pattern's shared results: repeated Jacobian calls on one
    pattern object, as a benchmark repeats a job, each run their own trials
    and only write the slot, also after a section call took the report."""

    class Spy(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

        def pop(self, key, *default):
            reads.append(key)
            return super().pop(key, *default)

        def __contains__(self, key):
            reads.append(key)
            return super().__contains__(key)

    reads = []
    joined = parse_pattern(JOINED_6X6)
    joined.__dict__["_shared"] = Spy()
    calls = _counted_trials(monkeypatch)
    for seed in (0, 0, 1, 0):
        before = len(calls)
        report = jacobian_rank_test(joined, 2, seed)
        assert len(calls) - before == report.trials == 5 and reads == []
        assert dict(joined._shared) == {"jacobian_report": ((2, seed), report)}
    grassmann_section_rank_test(joined, 2, 0)
    assert reads == ["jacobian_report"] and len(joined._shared) == 0
    before = len(calls)
    assert jacobian_rank_test(joined, 2, 0).trials == len(calls) - before == 5
    assert reads == ["jacobian_report"]


@pytest.mark.parametrize("r", [2.0, Fraction(2)], ids=["2.0", "Fraction(2)"])
def test_a_section_call_at_a_value_equal_float_key_is_refused_as_on_a_fresh_copy(r):
    """A float or fraction r equals the int key of the report left behind, yet
    the test refuses it there as it does on a fresh copy."""
    joined = parse_pattern(JOINED_6X6)
    jacobian_rank_test(joined, 2, 0)
    for pattern in (parse_pattern(JOINED_6X6), joined):
        with pytest.raises(TypeError):
            grassmann_section_rank_test(pattern, r)


def test_r_is_read_as_an_index(monkeypatch):
    """Both tangent tests read r through ``operator.index``: r = 2.0 raises a
    plain ``TypeError`` before any trial runs, and ``np.int64(2)`` is r = 2,
    with the same report and the same key for the report the section test reads."""
    calls = _counted_trials(monkeypatch)
    for test in (jacobian_rank_test, grassmann_section_rank_test):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            test(random_pattern(6, 5, 3, seed=1), 2.0)
    assert calls == []
    expected = jacobian_rank_test(random_pattern(6, 5, 3, seed=1), 2)
    section = grassmann_section_rank_test(random_pattern(6, 5, 3, seed=1), 2)
    pattern = random_pattern(6, 5, 3, seed=1)
    report = jacobian_rank_test(pattern, np.int64(2))
    assert (report, report.row_basis) == (expected, expected.row_basis)
    assert pattern._shared["jacobian_report"] == ((2, 0), expected)
    before = len(calls)
    assert grassmann_section_rank_test(pattern, np.int64(2)) == section
    assert len(calls) == before and "jacobian_report" not in pattern._shared


def test_a_repeated_section_call_or_a_copy_computes_afresh(monkeypatch):
    """The report the Jacobian test leaves serves one section call on the
    object it ran on: a value-equal copy, and a second call, run their own trials."""
    joined, copied = parse_pattern(JOINED_6X6), parse_pattern(JOINED_6X6)
    calls = _counted_trials(monkeypatch)

    def computed(test, pattern):
        before = len(calls)
        return test(pattern, 2), len(calls) - before

    assert copied == joined and copied is not joined
    assert computed(jacobian_rank_test, joined) == (RankReport(17, 20, 5), 5)
    assert computed(grassmann_section_rank_test, copied) == (RankReport(5, 8, 5), 5)
    assert computed(grassmann_section_rank_test, joined) == (RankReport(5, 8, 5), 0)
    assert computed(grassmann_section_rank_test, joined) == (RankReport(5, 8, 5), 5)
    assert computed(jacobian_rank_test, joined) == (RankReport(17, 20, 5), 5)


def test_threads_sharing_a_pattern_get_the_reports_of_fresh_copies(monkeypatch, pattern_6x5):
    """Tangent tests run concurrently on one pattern object read only a
    Jacobian report at their own (r, seed), so each report equals
    that of a fresh copy. A trial here loses one rank at random, as a
    degenerate point would, so the trial that passes differs between seeds."""

    def ranks(pattern, r, rng):
        jacobian, section, basis = _tangent_ranks(pattern, r, rng)
        drop = int(rng.integers(0, 2))
        return jacobian - drop, section - drop, None if drop else basis

    monkeypatch.setattr(numerics, "_tangent_ranks", ranks)
    tests = (jacobian_rank_test, grassmann_section_rank_test)
    expected = {
        (k, seed): tests[k](ObservationPattern(6, 5, pattern_6x5.entries), 2, seed=seed)
        for k in (0, 1)
        for seed in range(4)
    }
    assert len({report.trials for report in expected.values()}) > 1
    wrong = []

    def work(offset):
        for t in range(30):
            key = (t + offset) % 2, (t * offset + t // 2) % 4
            report = tests[key[0]](pattern_6x5, 2, seed=key[1])
            if (report, report.row_basis) != (expected[key], expected[key].row_basis):
                wrong.append((key, report))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_a_dropped_pattern_is_freed_after_a_tangent_test():
    """The report the Jacobian test keeps for the section test lives on the pattern object."""
    pattern = parse_pattern("1111\n1101\n1011\n0111\n")
    jacobian_rank_test(pattern, 2)
    alive = weakref.ref(pattern)
    del pattern
    gc.collect()
    assert alive() is None


def test_copies_and_pickles_of_a_pattern_carry_no_cached_state():
    """After an analysis the pattern pickles to its fresh size, and a shallow
    copy computes its own supports and shared results."""
    pattern = random_pattern(12, 12, 6, seed=0)
    fresh = pickle.dumps(pattern)
    jacobian_rank_test(pattern, 2)
    assert "jacobian_report" in pattern._shared
    assert pickle.dumps(pattern) == fresh
    shallow, deep = copy.copy(pattern), copy.deepcopy(pattern)
    assert shallow._shared is not pattern._shared and shallow._shared == {}
    assert deep._shared == {}
    for other in (shallow, deep, pickle.loads(fresh)):
        assert other == pattern and hash(other) == hash(pattern)
        assert other.column_supports() == pattern.column_supports()


def test_a_refutation_at_the_core_bound_runs_one_trial(pattern_6x5):
    """Without (4, 0) the bound is 17 < 18: a trial of rank 17 is an exact
    refutation, and so is section rank 17 - r n = 7 < 8."""
    smaller = pattern_6x5.restrict(pattern_6x5.entries - {(4, 0)})
    assert numerics._jacobian_rank_bound(smaller, 2) == 17
    assert jacobian_rank_test(smaller, 2) == RankReport(17, 18, 1)
    assert grassmann_section_rank_test(smaller, 2, seed=1) == RankReport(7, 8, 1)


def test_a_first_trial_pass_never_computes_the_core_bound(monkeypatch, pattern_6x5):
    """The bound only matters after a trial falls short, so a pass skips it."""

    def unused(*args):
        raise AssertionError("the core bound was computed")

    monkeypatch.setattr(numerics, "_jacobian_rank_bound", unused)
    assert jacobian_rank_test(pattern_6x5, 2) == RankReport(18, 18, 1)
    assert grassmann_section_rank_test(pattern_6x5, 2) == RankReport(8, 8, 1)


class _Draws:
    """Stands in for a Generator: hands out the given arrays as A, then C."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def integers(self, low, high, size):
        assert self.arrays[0].shape == size
        return self.arrays.pop(0)


def test_a_column_whose_rows_drop_rank_is_left_out():
    """Rows 0-2 of A are parallel, so column 0 (rows 0-2) drops rank at r = 2:
    the ranks are those of the mask without that column, at the same point."""
    supports = ((0, 1, 2), (2, 3, 4, 5), (0, 3, 4, 5))
    pattern = ObservationPattern(6, 3, frozenset((i, j) for j, rows in enumerate(supports) for i in rows))
    rng = np.random.default_rng(5)
    A = rng.integers(1, 1000, size=(6, 2))
    A[:3] = A[0] * np.array([[1], [2], [3]])
    C = rng.integers(1, 1000, size=(2, 3))
    without = pattern.restrict(e for e in pattern.entries if e[1] != 0)
    ranks = _tangent_ranks(pattern, 2, _Draws(A, C))
    assert ranks == _tangent_ranks(without, 2, _Draws(A, C)) == (8, 4, None)


def _spied(monkeypatch, name):
    """The list each call of ``numerics.<name>`` appends its result to, from now on."""
    calls, function = [], getattr(numerics, name)
    monkeypatch.setattr(numerics, name, lambda *args: calls.append(function(*args)) or calls[-1])
    return calls


def test_the_gauge_rows_are_the_pivot_rows_of_an_eliminated_column(monkeypatch):
    """8 x 8, 4 rows per column, r = 2, in two levels, with rows 3 and 4 of A
    parallel: the first column, on rows (2, 3, 4, 6), is eliminated in row
    priority order (3, 4, 6, 2) and exchanges rows in its second step, so its
    pivot rows, and the gauge, are rows 3 and 6, not its first two. The hub
    rows are 0 and 3-7, so the hub system has their 12 columns, and those
    left out are rows 3 and 6's, at hub places 1 and 4. The ranks are those
    of the eliminations that keep every column, and the row basis is one."""
    monkeypatch.setattr(numerics, "TWO_LEVEL_COLUMNS", 1)
    pattern = random_pattern(8, 8, 4, seed=0)
    assert pattern.column_supports()[0] == (2, 3, 4, 6)
    rng = np.random.default_rng(0)
    A, C = rng.integers(1, 1000, size=(8, 2)), rng.integers(1, 1000, size=(2, 8))
    A[4] = 2 * A[3]
    seen = []
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: seen.append(M.copy()) or rank_mod_p(M))
    jacobian, section, basis = _tangent_ranks(pattern, 2, _Draws(A.copy(), C.copy()))
    (rows,) = seen
    assert rows.shape[1] == 12
    assert np.flatnonzero(~rows.any(axis=0)).tolist() == [2, 3, 8, 9]  # D[3] and D[6]
    assert (jacobian, section) == reference_tangent_ranks(pattern, 2, _Draws(A, C))[:2] == (28, 12)
    assert basis[:2].tolist() == [[3, 0], [6, 0]]  # the first column's pivot rows
    assert reference_is_row_basis(pattern, 2, A, C, basis)


def test_section_rows_are_written_in_place_as_the_columns_stack_them(monkeypatch):
    """Supports of 3, 4 and 5 rows at r = 2, in two levels, with rows 0-2 of A
    equal: column 0 drops rank and adds no row. Rows 0, 1 and 4 are the hub;
    the loose rows 2, 3, 5, 6 and 7 own 1, 1, 2, 3 and 4 rows of S, in blocks
    of depth 1, 1, 2, 4 and 4. The S that reaches ``_section_rank`` is the
    reference's stack, supports in priority order, with each row at its
    place: its hub entries first, its loose own row's in the last slot, and
    the one padding row zero. The ranks are the reference's."""
    monkeypatch.setattr(numerics, "TWO_LEVEL_COLUMNS", 1)
    supports = ((0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 4, 5, 7), (0, 3, 4, 5), (0, 1, 4, 5, 6), (1, 3, 4, 5, 6))
    pattern = ObservationPattern(8, 6, frozenset((i, j) for j, rows in enumerate(supports) for i in rows))
    rng = np.random.default_rng(3)
    A, C = rng.integers(1, 1000, size=(8, 2)), rng.integers(1, 1000, size=(2, 6))
    A[1:3] = A[0]
    layouts = _spied(monkeypatch, "_section_layout")
    seen = []
    section_rank = numerics._section_rank
    monkeypatch.setattr(numerics, "_section_rank", lambda S, *rest: seen.append(S.copy()) or section_rank(S, *rest))
    ranks = _tangent_ranks(pattern, 2, _Draws(A.copy(), C.copy()))
    ((h, slot, at, owners, depths),), (S,) = layouts, seen
    assert (h, slot.tolist()) == (3, [0, 1, 3, 3, 2, 3, 3, 3])
    assert (owners.tolist(), depths.tolist()) == ([1, 1, 2, 3, 4], [1, 1, 2, 4, 4])
    reference = reference_section_rows(pattern, 2, _Draws(A.copy(), C.copy()), by_priority=True).reshape(-1, 8, 2)
    assert S.shape == (len(reference) + 1, h + 1, 2) == (15, 4, 2)
    expected = np.zeros_like(S)
    for t, row in enumerate(reference):
        for i in np.flatnonzero(row.any(axis=1)).tolist():
            expected[at[t], slot[i]] = row[i]
    assert np.array_equal(S, expected)
    assert ranks == reference_tangent_ranks(pattern, 2, _Draws(A, C)) == (2 * 5 + 10, 10, None)


def test_rank_mod_p_sees_only_the_hub_system(monkeypatch):
    """``random_pattern(40, 40, 12, seed=0)`` at r = 5: the 280 section rows
    have m r = 200 columns, and 20 hub rows hold every column's pivot rows.
    ``rank_mod_p`` gets what the second level leaves on their 100 columns,
    at most half of S's, and the test passes as before."""
    pattern = random_pattern(40, 40, 12, seed=0)
    shapes = []
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: shapes.append(M.shape) or rank_mod_p(M))
    assert jacobian_rank_test(pattern, 5) == RankReport(375, 375, 1)
    ((rows, columns),) = shapes
    assert columns <= 40 * 5 // 2 and rows < 280


def _prefix_cut(M):
    """The rows ``_section_rank`` first hands ``rank_mod_p``: nz + max(8, nz // 8),
    nz the count of nonzero columns of the hub system M."""
    nonzero = int(np.count_nonzero(M.any(axis=0)))
    return nonzero, nonzero + max(8, nonzero // 8)


def _thinned(m, k, keep, seed):
    """``random_pattern(m, m, k, seed)`` with the first ``keep(j)`` rows of each column j."""
    base = random_pattern(m, m, k, seed=seed)
    return ObservationPattern(m, m, frozenset((i, j) for j in range(m) for i in base.column_supports()[j][: keep(j)]))


@pytest.mark.parametrize(
    "pattern, r",
    [
        (random_pattern(40, 40, 12, seed=0), 5),
        (random_pattern(30, 60, 9, seed=0), 4),
        (random_pattern(24, 24, 8, seed=1), 3),
        (random_pattern(50, 50, 10, seed=2), 4),
        (_thinned(48, 12, lambda j: 5 + j % 8, 5), 4),
        (_thinned(40, 12, lambda j: 6 + j % 3, 1), 5),
    ],
    ids=["40x40 k12 r5", "30x60 k9 r4", "24x24 k8 r3", "50x50 k10 r4", "48x48 fail r4", "40x40 fail r5"],
)
def test_the_hub_prefix_keeps_the_ranks_and_a_row_basis_exact(monkeypatch, pattern, r):
    """Two-level masks at a seeded point: ``rank_mod_p`` sees the hub system's
    rows last first, cut to the prefix, once. The prefix reaches the count of
    nonzero columns, on the 48 x 48 failing mask too, or it holds every row
    of a hub system shorter than the cut, as on the 40 x 40 one; both stop at
    the (r+1)-core bound. Both ranks are those of the reference, which
    eliminates every row of S, and a pass's row basis is a row basis of J
    at the point."""
    m, n = pattern.m, pattern.n
    rng = np.random.default_rng(7)
    A, C = rng.integers(0, plucker.FIELD_PRIME, size=(m, r)), rng.integers(0, plucker.FIELD_PRIME, size=(r, n))
    seen = []
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: seen.append((M.copy(), rank_mod_p(M)[0])) or rank_mod_p(M))
    jacobian, section, basis = _tangent_ranks(pattern, r, _Draws(A.copy(), C.copy()))
    assert (jacobian, section) == reference_tangent_ranks(pattern, r, _Draws(A.copy(), C.copy()))[:2]
    ((prefix, rank),) = seen
    nonzero, cut = _prefix_cut(prefix)
    assert len(prefix) <= cut and (rank == nonzero or len(prefix) < cut)
    if jacobian == r * (m + n - r):
        assert reference_is_row_basis(pattern, r, A, C, basis)
    else:
        assert jacobian == numerics._jacobian_rank_bound(pattern, r) and basis is None


def test_a_prefix_that_falls_short_sends_every_row_to_rank_mod_p(monkeypatch):
    """``random_pattern(40, 40, 12, seed=0)`` at r = 5, at a point where every
    column of C is a multiple of the first: each loose block drops rank and
    goes into the hub system whole, whose rank falls far below its nonzero
    columns. The prefix falls short, ``rank_mod_p`` then eliminates every
    row, last first, and both ranks are the reference's."""
    pattern, p = random_pattern(40, 40, 12, seed=0), plucker.FIELD_PRIME
    rng = np.random.default_rng(3)
    A, C = rng.integers(0, p, size=(40, 5)), rng.integers(0, p, size=(5, 40))
    C[:] = C[:, :1] * np.arange(1, 41) % p
    seen = []
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: seen.append((M.copy(), rank_mod_p(M)[0])) or rank_mod_p(M))
    jacobian, section, basis = _tangent_ranks(pattern, 5, _Draws(A.copy(), C.copy()))
    assert (jacobian, section, basis) == (*reference_tangent_ranks(pattern, 5, _Draws(A.copy(), C.copy()))[:2], None)
    (prefix, short), (whole, rank) = seen
    nonzero, cut = _prefix_cut(whole)
    assert short < nonzero and len(prefix) == cut < len(whole)
    assert np.array_equal(prefix, whole[:cut]) and rank == reference_rank_mod_p(whole)[0] < nonzero


def test_rank_mod_p_sees_the_prefix_of_the_hub_system_at_scale(monkeypatch):
    """``random_pattern(200, 200, 20, seed=0)`` at r = 5 passes in one trial,
    and ``rank_mod_p`` sees one matrix of at most nz + max(8, nz // 8) rows,
    nz its nonzero columns: 382 of the hub system's 2,365 rows."""
    seen = []
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: seen.append(M.copy()) or rank_mod_p(M))
    assert jacobian_rank_test(random_pattern(200, 200, 20, seed=0), 5) == RankReport(1975, 1975, 1)
    (prefix,) = seen
    nonzero, cut = _prefix_cut(prefix)
    assert len(prefix) <= cut and cut < 1.15 * nonzero


def _desk_tangent_digest():
    """sha256 over (Jacobian rank, section rank, row basis) of ``_tangent_ranks`` on
    120 seeded masks up to 9 x 9 with m r < 64, half ``random_pattern`` draws and
    half of mixed support sizes, each at a ``default_rng`` point and at a point
    where rows 0 and 1 of A are parallel, so that a column on both exchanges rows."""
    digest = hashlib.sha256()
    for seed in range(120):
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(2, 10, size=2))
        r = int(rng.integers(1, min(m, n, 63 // m) + 1))
        if seed % 2:
            pattern = random_pattern(m, n, int(rng.integers(r, m + 1)), seed=seed)
        else:
            rows, cols = np.nonzero(rng.random((m, n)) < rng.uniform(0.3, 1.0))
            pattern = ObservationPattern(m, n, frozenset(zip(rows.tolist(), cols.tolist())))
        A, C = rng.integers(0, plucker.FIELD_PRIME, size=(m, r)), rng.integers(0, plucker.FIELD_PRIME, size=(r, n))
        A[1] = 2 * A[0] % plucker.FIELD_PRIME
        for point in (np.random.default_rng(seed), _Draws(A, C)):
            jacobian, section, basis = _tangent_ranks(pattern, r, point)
            digest.update(json.dumps([jacobian, section, None if basis is None else basis.tolist()]).encode())
    return digest.hexdigest()


def test_desk_tangent_ranks_and_row_bases_are_pinned():
    """Below ``TWO_LEVEL_COLUMNS`` the section rows keep index order and every
    row is a hub, so the ranks and the row bases are those the one-level
    elimination gave, byte for byte: a route that pivots or orders the rows
    of S otherwise changes the digest."""
    assert _desk_tangent_digest() == "cad23dd549c160bb70ea1872e51988640304f55cb0a98500d36cc8e6c46b9eb3"


def test_below_the_threshold_every_trial_takes_the_hub_route(monkeypatch):
    """JOINED_6X6 at r = 2 (m r = 12) falls short in every trial. Each lays S out
    with every row a hub, in stack order and with no loose block, calls
    ``_section_rank`` once, and ``rank_mod_p`` eliminates S's own memory, not
    a copy."""
    pattern = parse_pattern(JOINED_6X6)
    layouts = _spied(monkeypatch, "_section_layout")
    seen = []
    section_rank, rank = numerics._section_rank, numerics.rank_mod_p
    monkeypatch.setattr(numerics, "_section_rank", lambda S, *rest: seen.append([S]) or section_rank(S, *rest))
    monkeypatch.setattr(numerics, "rank_mod_p", lambda M: seen[-1].append(M) or rank(M))
    report = jacobian_rank_test(pattern, 2)
    assert report.trials == len(layouts) == len(seen) == plucker.TRIALS
    for (h, slot, at, owners, depths), (S, *eliminated) in zip(layouts, seen):
        assert (h, slot.tolist(), at.tolist()) == (6, list(range(6)), list(range(len(S))))
        assert owners.size == depths.size == 0 and S.shape[1:] == (6, 2)
        (M,) = eliminated
        assert np.shares_memory(M, S)


@pytest.mark.parametrize("few", [True, False], ids=["at most r owners", "more than r owners"])
def test_a_loose_block_that_drops_rank_keeps_both_ranks_exact(monkeypatch, few):
    """``random_pattern(40, 40, 12, seed=0)`` at r = 5, with the columns of C
    that a loose row's owners carry made parallel: that row's block X_i drops
    rank at the point, the batch reads it as not full, and the block goes
    into the hub system whole. Every column still has full rank, so the
    Jacobian rank is the rank of J's rows at the point, by direct
    elimination, and both ranks are those of the one-column-at-a-time
    reference: exact, never above. One loose row has at most r owners,
    the others more."""
    pattern = random_pattern(40, 40, 12, seed=0)
    rng = np.random.default_rng(1)
    A, C = rng.integers(0, plucker.FIELD_PRIME, size=(40, 5)), rng.integers(0, plucker.FIELD_PRIME, size=(5, 40))
    layouts = _spied(monkeypatch, "_section_layout")
    _tangent_ranks(pattern, 5, _Draws(A.copy(), C.copy()))
    ((h, slot, *_),) = layouts
    supports = pattern.column_supports()
    loose = [i for i in np.flatnonzero(slot == h).tolist() if (sum(i in omega for omega in supports) <= 5) == few]
    owners = [j for j, omega in enumerate(supports) if loose[0] in omega]
    C[:, owners] = C[:, owners[:1]] * np.arange(1, len(owners) + 1) % plucker.FIELD_PRIME
    fulls = []
    left_null = numerics.left_null_mod_p
    monkeypatch.setattr(numerics, "left_null_mod_p", lambda X: fulls.append(left_null(X)[1]) or left_null(X))
    jacobian, section, _ = _tangent_ranks(pattern, 5, _Draws(A.copy(), C.copy()))
    assert all(map(np.all, fulls[:1])) and not all(map(np.all, fulls[1:]))  # the columns, then the blocks
    J = np.zeros((pattern.size, 5 * 80), dtype=np.int64)
    for row, (i, j) in enumerate(sorted(pattern.entries)):
        J[row, 5 * i : 5 * i + 5], J[row, 5 * (40 + j) : 5 * (40 + j) + 5] = C[:, j], A[i]
    assert jacobian == reference_rank_mod_p(J)[0]
    assert (jacobian, section) == reference_tangent_ranks(pattern, 5, _Draws(A, C))[:2]


def test_tangent_tests_refuse_an_oversized_system_before_allocating():
    """3000 x 3000, 8 rows per column, r = 3: the first level passes the check
    up front, and the section rows as laid out, 15,000 rows over the hub
    rows' coordinates, are refused at 588 MB before S is allocated. Nothing
    near that size is traced: the peak is the first level's."""
    pattern = random_pattern(3000, 3000, 8, seed=0)
    pattern.column_supports()
    tracemalloc.start()
    try:
        for test in (jacobian_rank_test, grassmann_section_rank_test):
            with pytest.raises(TangentSizeError, match="587941704 bytes"):
                test(pattern, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24


def test_tangent_size_counts_the_arrays_that_grow_with_m():
    """2,000,000 x 2, four entries, r = 2: there are no section rows, but the
    point's A and the column order over the m r columns would take 96 MB."""
    pattern = ObservationPattern(2 * 10**6, 2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    tracemalloc.start()
    try:
        for test in (jacobian_rank_test, grassmann_section_rank_test):
            with pytest.raises(TangentSizeError, match="96000160 bytes"):
                test(pattern, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _traced_trial(monkeypatch, pattern, r):
    """The report of ``jacobian_rank_test``, its traced peak, and the most bytes
    ``_check_tangent_size`` counted: in its trial, with the section rows. The
    pattern's column supports are built before the trace."""
    pattern.column_supports()
    counted = _spied(monkeypatch, "_check_tangent_size")
    tracemalloc.start()
    try:
        report = jacobian_rank_test(pattern, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak, max(counted)


@pytest.mark.parametrize("m, n", [(4, 40000), (3, 60000)])
def test_desk_width_trial_peak_is_a_bounded_multiple_of_the_counted_bytes(monkeypatch, m, n):
    """m x n, 3 rows per column, r = 1: m r is below ``TWO_LEVEL_COLUMNS``, so
    every row is a hub, and the one trial that passes peaks at 2.53 and 2.69
    times the 6.7 and 9.1 MB ``_check_tangent_size`` counts with S, while S
    is filled. It may not pass 2.8 times, which holds only while the fill
    takes no reordered copy of the null vectors (2.82 and 3.01 times with
    one) and no unfiltered copy of the last support size outlives its
    elimination."""
    report, peak, counted = _traced_trial(monkeypatch, random_pattern(m, n, 3, seed=0), 1)
    assert (report.passed, report.trials) == (True, 1)
    assert peak <= 2.8 * counted


def test_tangent_trial_peak_is_a_pinned_multiple_of_the_counted_bytes(monkeypatch):
    """64 x 64, 12 rows per column, r = 5: the one trial that passes peaks at
    1.77 times the 0.80 MB ``_check_tangent_size`` counts with S as its
    two-level layout takes it (0.69 MB; 1.15 at the full m r width). The
    elimination's temporaries may not take it past 2.6 times, which holds
    only while S is written in place, once (a second copy kept adds about
    0.8 times) and ``rank_mod_p`` copies no more than the hub system's
    prefix."""
    report, peak, counted = _traced_trial(monkeypatch, random_pattern(64, 64, 12, seed=0), 5)
    assert (report.passed, report.trials, counted) == (True, 1, 803488)
    assert peak <= 2.6 * counted


def test_two_level_trial_peak_copies_only_the_prefix_of_the_hub_system(monkeypatch):
    """200 x 200, 20 rows per column, r = 5: the one trial that passes peaks at
    1.93 times the 10.4 MB ``_check_tangent_size`` counts in it. It may not
    pass 2.05 times, which holds only while the hub system H is copied no
    further than the reversed prefix ``rank_mod_p`` eliminates, and each
    depth's limb products are written into one array (2.23 times with H
    built whole; 2.36 with the limbs of Y, each product copied, as well)."""
    report, peak, counted = _traced_trial(monkeypatch, random_pattern(200, 200, 20, seed=0), 5)
    assert (report.passed, report.trials, counted) == (True, 1, 10416480)
    assert peak <= 2.05 * counted


def test_grassmann_rank_drops_by_one_after_deletion(pattern_6x5):
    smaller = pattern_6x5.restrict(pattern_6x5.entries - {(4, 0)})
    report = grassmann_section_rank_test(smaller, 2)
    assert (report.tested_rank, report.target) == (7, 8)


def test_grassmann_single_column_is_bounded_by_its_sections():
    """One fully observed column yields m - r sections, below r(m - r) for
    r >= 2, so it can never pass there; r > n is out of the test's range."""
    single = ObservationPattern(6, 1, frozenset((i, 0) for i in range(6)))
    with pytest.raises(ValueError, match="out of range"):
        grassmann_section_rank_test(single, 2)


def test_grassmann_passes_beside_a_failing_jacobian_on_short_columns(pattern_6x5):
    """A column of fewer than r rows has no section rows and leaves r minus its
    size directions of its coefficients c_j free, so the section rank is the
    Jacobian rank minus sum_j min(#omega_j, r). On the 4 x 3 grid 110/110/110/110
    at r = 2 the two full columns give rank 4 = r(m - r) and the empty third
    column leaves c_3 free: section 4/4 beside Jacobian 8/10, its (r+1)-core
    bound, in one trial. The 6 x 5 fixture without (2, 3) keeps one row in
    column 3: section 8/8 beside Jacobian 17/18, less 2 + 2 + 1 + 2 + 2."""
    grid = parse_pattern("110\n110\n110\n110\n")
    assert jacobian_rank_test(grid, 2) == RankReport(8, 10, 1)
    assert grassmann_section_rank_test(grid, 2) == RankReport(4, 4, 1)
    thinned = pattern_6x5.restrict(pattern_6x5.entries - {(1, 2)})
    assert jacobian_rank_test(thinned, 2) == RankReport(17, 18, 1)
    assert grassmann_section_rank_test(thinned, 2) == RankReport(8, 8, 1)


def test_export_row_for_a_three_row_column(pattern_6x5):
    values = {(i, j): float(10 * (i + 1) + (j + 1)) for i, j in pattern_6x5.entries}
    system = export_plucker_system(ObservedMatrix(pattern_6x5, values), 2)
    rows = np.flatnonzero(system.origins[:, 0] == 1).tolist()
    assert len(rows) == 1  # column 2 has exactly three observed rows
    (k,) = rows
    assert system.origins[k].tolist() == [1, 3, 4, 5]
    row = system.matrix[k]
    pos = {psi: t for t, psi in enumerate(index_subsets(6, 2))}
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
    assert all(j != 2 for j in system.origins[:, 0])  # column 3 has two rows
    counts = [np.count_nonzero(system.origins[:, 0] == c) for c in range(5)]
    assert counts == [10, 1, 0, 10, 1]


def test_export_empty_pattern_is_an_empty_system():
    empty = ObservationPattern(4, 3, frozenset())
    system = export_plucker_system(ObservedMatrix(empty, {}), 2)
    assert system.matrix.shape == (0, 6)
    assert system.to_csv() == ""
    assert reference_index_map(system)["rows"] == []


def test_export_holds_only_the_row_cells():
    """7 rows over C(40, 5) = 658,008 coordinates: a dense matrix would be 36.8 MB."""
    pattern = ObservationPattern(40, 1, frozenset((i, 0) for i in range(0, 35, 5)))
    values = {e: float(e[0] + 1) for e in pattern.entries}
    tracemalloc.start()
    try:
        system = export_plucker_system(ObservedMatrix(pattern, values), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert system.shape == (7, 658008)
    assert (np.diff(system.columns, axis=1) > 0).all()
    with pytest.raises(ValueError, match="read-only"):
        system.values[0, 0] = 1.0


def test_export_holds_its_row_origins_in_one_array():
    """200,000 rows of the fully observed 5 x 20000 mask at r = 1: the system is three
    integer and float arrays, 11.2 MB, with no Python object per row."""
    pattern = ObservationPattern(5, 20000, frozenset((i, j) for i in range(5) for j in range(20000)))
    obs = ObservedMatrix(pattern, {e: 1.0 for e in pattern.entries})
    tracemalloc.start()
    try:
        system = export_plucker_system(obs, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.origins.shape == (200000, 3) and system.origins.dtype == np.int64
    assert system.origins[-1].tolist() == [19999, 3, 4]
    assert held <= 16e6
    assert peak <= 36e6


def _basis_4x2():
    return SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [3.0, 1.0]]))


def _system_4x4():
    pattern = parse_pattern("1111\n1101\n1011\n0111\n")
    return export_plucker_system(ObservedMatrix(pattern, {e: float(sum(e)) for e in pattern.entries}), 2)


@pytest.mark.parametrize(
    "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
@pytest.mark.parametrize(
    "build, name",
    [
        (_basis_4x2, "matrix"),
        (lambda: plucker_of_basis(_basis_4x2()), "coords"),
        (_system_4x4, "columns"),
        (_system_4x4, "values"),
        (_system_4x4, "origins"),
    ],
    ids=["basis", "plucker", "columns", "values", "origins"],
)
def test_read_only_arrays_survive_a_round_trip(round_trip, build, name):
    """pickle and copy restore the fields without ``__post_init__``; ``__setstate__``
    reruns it, which marks the arrays read-only again or derives them read-only."""
    original = build()
    array = getattr(round_trip(original), name)
    assert np.array_equal(array, getattr(original, name))
    assert not array.flags.writeable


class _Tampered:
    """Pickles as ``original`` does, with ``state`` in place of the fields it names."""

    def __init__(self, original, **state):
        self.original, self.state = original, state

    def __reduce__(self):
        return object.__new__, (type(self.original),), {**self.original.__getstate__(), **self.state}


@pytest.mark.parametrize(
    "tampered, message",
    [
        (_Tampered(ObservationPattern(3, 1, frozenset({(2, 0)})), entries=frozenset({(-1, 0)})), "outside a 3 x 1 grid"),
        (_Tampered(Slmf(4, 2, ((0, 1, 2), (1, 2, 3))), columns=((-1, 0, 1), (1, 2, 3))), r"outside range\(4\)"),
        (
            _Tampered(ObservedMatrix(ObservationPattern(1, 1, frozenset({(0, 0)})), {(0, 0): 1.0}), values={(0, 0): np.nan}),
            r"entry \(0, 0\): non-finite value nan",
        ),
    ],
    ids=["pattern", "slmf", "observed"],
)
def test_a_tampered_pickle_of_a_checked_value_does_not_load(tampered, message):
    """pickle and copy restore a pattern, a family and an observed matrix through their checks."""
    with pytest.raises(ValueError, match=message):
        pickle.loads(pickle.dumps(tampered))


def test_a_tampered_pickle_of_an_exported_system_is_refused():
    """A system pickles as its observed matrix and r, and loads through their
    checks: a pickled pattern with row -1, or a NaN value, does not load."""
    system = _system_4x4()
    pattern = _Tampered(system.obs.pattern, entries=system.obs.pattern.entries | {(-1, 0)})
    with pytest.raises(ValueError, match="outside a 4 x 4 grid"):
        pickle.loads(pickle.dumps(_Tampered(system, obs=_Tampered(system.obs, pattern=pattern))))
    with pytest.raises(ValueError, match="non-finite value nan"):
        values = {**system.obs.values, (0, 0): np.nan}
        pickle.loads(pickle.dumps(_Tampered(system, obs=_Tampered(system.obs, values=values))))


@pytest.mark.parametrize(
    "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_a_copy_of_an_exported_system_derives_its_arrays_again(round_trip):
    """pickle and copy carry (obs, r), not the arrays, and give an equal system
    with its own read-only arrays and the same CSV."""
    system = _system_4x4()
    assert system.columns.tobytes() not in pickle.dumps(system)
    other = round_trip(system)
    assert other == system and other.columns is not system.columns
    assert not any(a.flags.writeable for a in (other.columns, other.values, other.origins))
    assert other.to_csv() == system.to_csv()


def _changed(original):
    """A copy with one array entry changed, built through the public constructors."""
    if isinstance(original, SubspaceBasis):
        matrix = original.matrix.copy()
        matrix[0, 0] += 1
        return SubspaceBasis(matrix)
    if isinstance(original, PluckerVector):
        coords = original.coords.copy()
        coords[-1] += 1
        return PluckerVector(original.r, original.m, coords)
    values = dict(original.obs.values)
    values[0, 0] += 1
    return export_plucker_system(ObservedMatrix(original.obs.pattern, values), original.r)


@pytest.mark.parametrize(
    "build", [_basis_4x2, lambda: plucker_of_basis(_basis_4x2()), _system_4x4], ids=["basis", "plucker", "system"]
)
def test_equality_compares_the_arrays(build):
    """``==`` and ``!=`` return a bool between distinct objects holding arrays."""
    original = build()
    same, changed = copy.deepcopy(original), _changed(original)
    assert same is not original
    assert (original == same, original != same) == (True, False)
    assert (original == changed, original != changed) == (False, True)
    assert original != "not a vector"


def test_index_map_leaves_the_subset_cache_empty():
    """The index map lists all C(40, 5) subsets without keeping them in a cache."""
    pattern = ObservationPattern(40, 1, frozenset((i, 0) for i in range(0, 35, 5)))
    values = {e: float(e[0] + 1) for e in pattern.entries}
    system = export_plucker_system(ObservedMatrix(pattern, values), 5)
    index_subsets.cache_clear()
    index_map = json.loads(index_map_text(system))
    assert index_subsets.cache_info().currsize == 0
    assert len(index_map["plucker_subsets"]) == 658008
    assert index_map["plucker_subsets"][-1] == [36, 37, 38, 39, 40]


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


def test_index_map_writes_one_leading_pair_block_at_a_time():
    """C(40, 5) = 658,008 subsets, 13.7 MB of JSON, written holding level 3's 8,436
    item tails and one block; holding level 4's 82,251 tails would take 6 MB."""
    pattern = ObservationPattern(40, 1, frozenset((i, 0) for i in range(0, 35, 5)))
    values = {e: float(e[0] + 1) for e in pattern.entries}
    system = export_plucker_system(ObservedMatrix(pattern, values), 5)
    tracemalloc.start()
    try:
        system.write_index_map(_Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "m, n, support, r",
    [(5, 3, 3, 1), (1, 1, 1, 1), (4, 2, 4, 4), (6, 3, 4, 2), (7, 2, 5, 3), (4, 3, 0, 2)],
    ids=["r=1", "m=r=1", "r=m", "r=2", "r=3", "empty"],
)
def test_index_map_json_at_the_edges(m, n, support, r):
    """The level-built subset list is ``json.dumps``'s, at r = 1 and r = m too, and with no rows."""
    pattern = ObservationPattern(m, n, frozenset((i, j) for i in range(support) for j in range(n)))
    system = export_plucker_system(ObservedMatrix(pattern, {e: 1.0 for e in pattern.entries}), r)
    assert index_map_text(system) == json.dumps(reference_index_map(system))


def test_write_csv_writes_bytes_with_newline_ends(pattern_6x5):
    """Into a binary file the CSV is ``to_csv()`` encoded: observed zeros keep
    their signs and every line ends in ``\\n`` alone."""
    values = {(i, j): float(i - 2) for i, j in pattern_6x5.entries}
    system = export_plucker_system(ObservedMatrix(pattern_6x5, values), 2)
    out = io.BytesIO()
    system.write_csv(out)
    assert out.getvalue() == system.to_csv().encode() == reference_export_csv(system.matrix).encode()
    assert b"-0.0" in out.getvalue() and b"\r" not in out.getvalue()


class _DiscardBytes(_Discard):
    """A binary sink that keeps nothing and counts its ``writelines`` calls."""

    calls = 0

    def writelines(self, parts) -> None:
        self.calls += 1
        for _ in parts:
            pass


def _bit_patterns(values: np.ndarray) -> set[str]:
    """The distinct coefficients, told apart as ``float.hex`` tells -0.0 from 0.0."""
    return {v.hex() for v in values.ravel().tolist()}


def test_write_csv_encodes_each_distinct_coefficient_once(pattern_6x5, monkeypatch):
    """18 observed values in -2..3 make 66 coefficients but 7 bit patterns, -0.0 and 0.0 among them."""
    values = {(i, j): float(i - 2) for i, j in pattern_6x5.entries}
    system = export_plucker_system(ObservedMatrix(pattern_6x5, values), 2)
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(numerics, "repr", counting_repr, raising=False)
    out = io.BytesIO()
    system.write_csv(out)
    monkeypatch.undo()
    assert out.getvalue() == reference_export_csv(system.matrix).encode()
    assert len(calls) == len(_bit_patterns(system.values)) == 7 < system.values.size


def _export_6x5(pattern_6x5, value):
    return export_plucker_system(
        ObservedMatrix(pattern_6x5, {(i, j): value(i, j) for i, j in pattern_6x5.entries}), 2
    )


@pytest.mark.parametrize("case", ["all-distinct", "signed-zeros", "no-rows"])
def test_write_csv_matches_the_reference_on_every_table(pattern_6x5, case):
    """No coefficient repeated, 0.0 and -0.0 in one file, no rows. No observed
    matrix gives one bit pattern throughout: each row's r+1 >= 2 cells alternate in sign."""
    if case == "no-rows":  # every column has exactly r observed rows
        pattern = ObservationPattern(5, 3, frozenset((i, j) for j in range(3) for i in (j, j + 2)))
        system = export_plucker_system(ObservedMatrix(pattern, {e: 1.0 for e in pattern.entries}), 2)
        assert system.shape == (0, 10)
    elif case == "signed-zeros":
        system = _export_6x5(pattern_6x5, lambda i, j: float(i % 2))
        assert {"0x0.0p+0", "-0x0.0p+0"} <= _bit_patterns(system.values)
    else:  # r+1 = 3 rows per column, so one row each, with values of distinct magnitudes
        pattern = ObservationPattern(6, 4, frozenset((i, j) for j in range(4) for i in (j, j + 1, j + 2)))
        system = export_plucker_system(ObservedMatrix(pattern, {(i, j): (1 + i + 6 * j) / 7 for i, j in pattern.entries}), 2)
        assert system.shape == (4, 15) and len(_bit_patterns(system.values)) == system.values.size
    out = io.BytesIO()
    system.write_csv(out)
    assert out.getvalue() == reference_export_csv(system.matrix).encode()


def test_write_csv_writes_a_chunk_of_rows_per_call(pattern_6x5, monkeypatch):
    """At most ``_INDEX_CHUNK`` cells per ``writelines``, and one row when a row is wider."""
    system = _export_6x5(pattern_6x5, lambda i, j: float(i - j))
    rows = system.shape[0]
    for chunk, calls in ((4096, 1), (9, -(-rows // 3)), (2, rows)):
        monkeypatch.setattr(numerics, "_INDEX_CHUNK", chunk)
        sink = _DiscardBytes()
        system.write_csv(sink)
        assert sink.calls == calls
        assert system.to_csv() == reference_export_csv(system.matrix)


def test_write_csv_holds_one_chunk_of_rows():
    """200,000 rows of 2 cells over 5 coordinates: lists of every row's positions
    and coefficients would take 41.6 MB, one chunk of them and the table far less."""
    pattern = ObservationPattern(5, 20000, frozenset((i, j) for i in range(5) for j in range(20000)))
    values = {(i, j): float(i - j % 7) for i, j in pattern.entries}
    system = export_plucker_system(ObservedMatrix(pattern, values), 1)
    assert system.shape == (200000, 5)
    tracemalloc.start()
    try:
        system.write_csv(_DiscardBytes())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def _writev_fake(fail_at: int, code: int):
    """A stand-in for libc's ``writev``: it reads the pieces with ``ctypes.string_at``
    and writes at most 7 bytes of them per call; call ``fail_at`` fails with ``code``."""
    calls = []

    def writev(fd, iov, count):
        calls.append(count)
        if len(calls) == fail_at:
            ctypes.set_errno(code)
            return -1
        pieces = np.frombuffer(ctypes.string_at(iov, 2 * count * ctypes.sizeof(ctypes.c_void_p)), np.uintp)
        data = b"".join(ctypes.string_at(at, size) for at, size in pieces.reshape(-1, 2).tolist())
        return os.write(fd, data[:7])

    return writev, calls


def _write_through(system, tmp_path, monkeypatch, fake):
    """``write_csv`` into a file, by ``fake`` 5 pieces at a time, 9 cells per chunk."""
    monkeypatch.setattr(numerics, "_libc_writev", lambda: (fake, 5))
    monkeypatch.setattr(numerics, "_INDEX_CHUNK", 9)
    path = tmp_path / "system.csv"
    with path.open("wb") as fh:
        system.write_csv(fh)
    return path.read_text()


def test_write_csv_resumes_short_and_interrupted_writes(pattern_6x5, monkeypatch, tmp_path):
    """Every call writes at most 7 bytes and the third is interrupted (EINTR): the
    writer retries it, resumes inside the piece each call stops in, and the file is
    ``to_csv()``."""
    system = _export_6x5(pattern_6x5, lambda i, j: float(i - j))
    fake, calls = _writev_fake(3, errno.EINTR)
    text = _write_through(system, tmp_path, monkeypatch, fake)
    assert text == system.to_csv()
    assert len(calls) >= -(-len(text) // 7) + 1  # every byte went through the fake


def test_write_csv_raises_a_failed_write(pattern_6x5, monkeypatch, tmp_path):
    """A write failing with ENOSPC raises ``OSError`` with that code, and nothing is retried."""
    system = _export_6x5(pattern_6x5, lambda i, j: float(i - j))
    fake, calls = _writev_fake(3, errno.ENOSPC)
    with pytest.raises(OSError) as failure:
        _write_through(system, tmp_path, monkeypatch, fake)
    assert failure.value.errno == errno.ENOSPC and len(calls) == 3


def test_write_csv_writes_through_a_wrapper_with_a_descriptor(pattern_6x5, tmp_path):
    """``gzip.GzipFile.fileno()`` is its file's descriptor; the CSV still goes through
    the wrapper, so it is compressed."""
    system = _export_6x5(pattern_6x5, lambda i, j: float(i - j))
    with gzip.open(tmp_path / "system.csv.gz", "wb") as fh:
        system.write_csv(fh)
    assert gzip.decompress((tmp_path / "system.csv.gz").read_bytes()) == system.to_csv().encode()


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
        if find_finite_certificate(pattern, 2).status == "present":
            assert jacobian_rank_test(pattern, 2).passed


def test_section_rank_pass_implies_jacobian_pass(pattern_6x5):
    """The tangent test on the Grassmannian never outruns the one upstairs."""
    fixtures = [pattern_6x5] + [random_pattern(6, 5, 4, seed=s) for s in range(10)]
    for pattern in fixtures:
        section = grassmann_section_rank_test(pattern, 2)
        if section.passed:
            assert jacobian_rank_test(pattern, 2).passed


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


def test_from_matrix_gathers_the_per_entry_values_in_entry_order():
    """One gather gives the dict the per-entry loop built: the same items, in
    ``pattern.entries`` order, as Python floats of the same bits."""
    pattern = random_pattern(9, 7, 4, seed=2)
    X = np.random.default_rng(2).standard_normal((9, 7))
    X[next(iter(pattern.entries))] = -0.0
    values = ObservedMatrix.from_matrix(X, pattern).values
    expected = {(i, j): X[i, j] for i, j in pattern.entries}
    assert list(values) == list(expected)
    assert all(type(v) is float for v in values.values())
    assert np.array(list(values.values())).tobytes() == np.array(list(expected.values())).tobytes()


def test_observed_values_must_match_pattern(pattern_6x5):
    with pytest.raises(ValueError, match="exactly"):
        ObservedMatrix(pattern_6x5, {(0, 0): 1.0})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_observed_values_must_be_finite(pattern_6x5, value):
    """A NaN or inf is refused when the values are built, naming its entry."""
    X = np.ones((6, 5))
    i, j = min(pattern_6x5.entries)
    X[i, j] = value
    with pytest.raises(ValueError, match=rf"^entry \({i}, {j}\): non-finite value {value!r}$"):
        ObservedMatrix.from_matrix(X, pattern_6x5)


@pytest.mark.parametrize("position", [(0.7, 0), (0, 0.0)])
def test_observed_values_read_positions_through_operator_index(position):
    """A float position raises ``TypeError``, as it does in the pattern; it is
    not truncated to (0, 0). An ``np.int64`` position is kept as an int."""
    pattern = ObservationPattern(2, 2, {(0, 0)})
    with pytest.raises(TypeError):
        ObservedMatrix(pattern, {position: 1.0})
    ((key, value),) = ObservedMatrix(pattern, {(np.int64(0), np.int64(0)): np.float64(1.0)}).values.items()
    assert (key, value) == ((0, 0), 1.0) and list(map(type, key + (value,))) == [int, int, float]


def test_observed_values_from_a_matrix_are_read_once():
    """``from_matrix`` keys its values by the pattern's own position tuples, and
    the observed matrix keeps them as built: no position is read a second
    time into a new tuple."""
    pattern = random_pattern(12, 10, 4, seed=0)
    observed = ObservedMatrix.from_matrix(np.arange(120.0).reshape(12, 10), pattern)
    assert sorted(map(id, observed.values)) == sorted(map(id, pattern.entries))


def test_rank_report_reads_its_counts_through_operator_index():
    """Float counts raise ``TypeError``; ``np.int64`` counts are stored as ints."""
    with pytest.raises(TypeError):
        RankReport(17.0, 20, 5.0)
    report = RankReport(np.int64(17), np.int64(20), np.int64(5), np.int64(0))
    assert report == RankReport(17, 20, 5)
    assert [type(v) for v in (report.tested_rank, report.target, report.trials, report.indeterminate)] == [int] * 4
