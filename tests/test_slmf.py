import copy
import itertools
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest

from completable import (
    Slmf,
    check_slmf_combinatorial,
    check_slmf_randomized,
    slmf_from_grid,
    slmf_to_grid,
)
from completable import slmf
from completable.slmf import first_linkage_support
from conftest import PHI_A, PHI_B, PHI_C, REPEATED_COLUMNS, reference_float_dual_basis_rank


def test_known_linkage_supports_pass():
    for phi in (PHI_A, PHI_B, PHI_C):
        verdict = check_slmf_combinatorial(phi)
        assert verdict.is_slmf
        assert verdict.witness is None
        assert verdict.method == "combinatorial"


def test_repeated_columns_fail_with_minimal_witness():
    verdict = check_slmf_combinatorial(REPEATED_COLUMNS)
    assert not verdict.is_slmf
    assert verdict.witness == (0, 1)
    union = set().union(*(REPEATED_COLUMNS.columns[t] for t in verdict.witness))
    assert len(union) < len(verdict.witness) + REPEATED_COLUMNS.r


def test_witness_always_certifies_the_violation():
    """Whenever the check refutes, the returned set violates the inequality."""
    rng = random.Random(4)
    triples = list(itertools.combinations(range(6), 3))
    for _ in range(200):
        phi = Slmf(m=6, r=2, columns=tuple(rng.choice(triples) for _ in range(4)))
        verdict = check_slmf_combinatorial(phi)
        if verdict.is_slmf:
            continue
        union = set().union(*(phi.columns[t] for t in verdict.witness))
        assert len(union) < len(verdict.witness) + phi.r


def test_witness_scan_at_the_column_limit_stays_small():
    """Refuted 22-column families. With one column the Hall pass turns down, the
    witness is its fundamental circuit, a pair or, on a 22-edge cycle at r = 1,
    all 22 columns. With two, two 11-edge cycles at r = 1, the scan holds one
    block of at most 462 x 462 subfamily pairs."""
    pair = Slmf(m=24, r=2, columns=tuple((i, i + 1, i + 2) for i in range(21)) + ((0, 1, 2),))
    cycle = Slmf(m=23, r=1, columns=tuple((i, (i + 1) % 22) for i in range(22)))
    two_cycles = Slmf(m=23, r=1, columns=tuple((h + i, h + (i + 1) % 11) for h in (0, 11) for i in range(11)))
    assert len(two_cycles._hall_pass.dependent) == 2
    for phi, witness in ((pair, (0, 21)), (cycle, tuple(range(22))), (two_cycles, tuple(range(11)))):
        tracemalloc.start()
        try:
            verdict = check_slmf_combinatorial(phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (verdict.is_slmf, verdict.witness) == (False, witness)
        assert peak < 4 << 20


# the basis kept is columns 0, 1, 2, 3, 5 and column 4 is turned down; the members
# matched into its alternating reach in the basis's matching are columns 0, 2 and
# 5, and column 5 is not in the circuit: the augmentations, not that reach, decide
NULLITY_ONE_REACH = Slmf(
    9, 3, ((0, 4, 6, 8), (0, 2, 7, 8), (0, 1, 6, 8), (3, 4, 6, 7), (0, 1, 4, 6), (0, 4, 5, 6))
)
CYCLE_22 = Slmf(23, 1, tuple((j, j + 1) for j in range(21)) + ((0, 21),))


def test_nullity_one_witness_is_a_strict_part_of_the_reach():
    """The fundamental circuit (0, 2, 4) is a strict subset of the reach (0, 2, 4, 5)."""
    hall = NULLITY_ONE_REACH._hall_pass
    family = hall.family
    assert (hall.basis, hall.dependent) == ((0, 1, 2, 3, 5), (4,))
    reach = slmf._reach(hall.masks[4], family.rows, family.owner, family.matched) & family.matched
    assert sorted(hall.basis[family.owner[i]] for i in range(9) if reach >> i & 1) == [0, 2, 5]
    verdict = check_slmf_combinatorial(NULLITY_ONE_REACH)
    assert (verdict.is_slmf, verdict.witness) == (False, (0, 2, 4))


def test_nullity_one_witness_runs_no_scan(monkeypatch):
    """The 22-edge cycle at r = 1 has one column outside the greedy basis: its
    witness, all 22 columns, comes from the Hall oracle, in well under 2 ms."""

    def scan(masks, r):
        raise AssertionError("the subfamily scan ran")

    monkeypatch.setattr(slmf, "_least_violator", scan)
    best = float("inf")
    for _ in range(5):
        phi = Slmf(CYCLE_22.m, CYCLE_22.r, CYCLE_22.columns)  # a fresh pass each time
        start = time.perf_counter()
        verdict = check_slmf_combinatorial(phi)
        best = min(best, time.perf_counter() - start)
        assert (verdict.is_slmf, verdict.witness) == (False, tuple(range(22)))
    assert best < 2e-3


def test_pickle_and_copy_carry_only_the_fields():
    for phi in (PHI_A, REPEATED_COLUMNS, NULLITY_ONE_REACH):
        expected = check_slmf_combinatorial(phi)  # the pass is now cached on phi
        assert "_hall_pass" in vars(phi)
        for twin in (pickle.loads(pickle.dumps(phi)), copy.copy(phi), copy.deepcopy(phi)):
            assert vars(twin) == {"m": phi.m, "r": phi.r, "columns": phi.columns}
            assert twin == phi and hash(twin) == hash(phi)
            assert check_slmf_combinatorial(twin) == expected


@pytest.mark.parametrize(
    "phi", [PHI_A, PHI_B, REPEATED_COLUMNS, NULLITY_ONE_REACH, CYCLE_22],
    ids=["PHI_A", "PHI_B", "REPEATED_COLUMNS", "NULLITY_ONE_REACH", "CYCLE_22"],
)
def test_no_reader_changes_the_cached_pass(phi):
    """Both checks read one cached Hall pass; in either order, and twice over,
    they give what each gives on a fresh family."""
    checks = (check_slmf_combinatorial, lambda family: check_slmf_randomized(family, trials=3, seed=4))
    expected = [check(Slmf(phi.m, phi.r, phi.columns)) for check in checks]
    for order in ((0, 1), (1, 0)):
        twin = Slmf(phi.m, phi.r, phi.columns)
        for t in order * 2:
            assert checks[t](twin) == expected[t]


def test_witness_past_64_rows():
    """Unions of more than 64 rows span several words; the refutation still names the pair."""
    columns = ((tuple(range(51)),) * 2) + tuple(tuple(range(i, i + 51)) for i in range(2, 20))
    verdict = check_slmf_combinatorial(Slmf(m=70, r=50, columns=columns))
    assert (verdict.is_slmf, verdict.witness) == (False, (0, 1))


def test_column_order_invariance():
    rng = random.Random(5)
    for phi in (PHI_A, PHI_B, REPEATED_COLUMNS):
        expected = check_slmf_combinatorial(phi).is_slmf
        cols = list(phi.columns)
        for _ in range(5):
            rng.shuffle(cols)
            shuffled = Slmf(m=phi.m, r=phi.r, columns=tuple(cols))
            assert check_slmf_combinatorial(shuffled).is_slmf is expected


def test_randomized_accepts_known_supports():
    for phi in (PHI_A, PHI_B):
        verdict = check_slmf_randomized(phi, trials=5, seed=1)
        assert verdict.is_slmf
        assert verdict.method == "randomized-rank"
        assert verdict.witness is None


def test_randomized_rejects_repeated_columns_every_trial():
    # the evaluated dual basis is rank deficient at every subspace here, so a
    # single trial already refutes; several trials must still agree
    for trials in (1, 3, 10):
        verdict = check_slmf_randomized(REPEATED_COLUMNS, trials=trials, seed=2)
        assert not verdict.is_slmf
        assert verdict.witness is None


def test_randomized_test_evaluates_the_dual_basis_once(monkeypatch):
    """A refuted family reaches its Hall rank at the first trial, an exact "no",
    and a linkage support reaches full rank there, at any trial count."""
    rng = np.random.default_rng(0)
    wide = Slmf(24, 2, tuple(tuple(sorted(rng.choice(24, 3, replace=False).tolist())) for _ in range(22)))
    assert (check_slmf_combinatorial(wide).is_slmf, len(wide._hall_pass.basis)) == (False, 19)
    calls = []
    evaluate = slmf._dual_basis_rank_mod_p
    monkeypatch.setattr(slmf, "_dual_basis_rank_mod_p", lambda phi, rng: calls.append(phi) or evaluate(phi, rng))
    for phi, expected in ((REPEATED_COLUMNS, False), (wide, False), (PHI_A, True)):
        for trials in (1, 3, 10):
            calls.clear()
            assert check_slmf_randomized(phi, trials=trials, seed=2).is_slmf is expected
            assert calls == [phi]


def test_randomized_float_variant_matches():
    """The exact test agrees with B_phi evaluated in floating point."""
    for phi in (PHI_A, PHI_B, PHI_C, REPEATED_COLUMNS):
        exact = check_slmf_randomized(phi, trials=3, seed=3)
        assert exact.is_slmf == (reference_float_dual_basis_rank(phi, seed=3) == len(phi.columns))


def test_exhaustive_sweep_rank_one_ambient_four():
    """Both methods agree on every support family for r=1, m=4."""
    pairs = list(itertools.combinations(range(4), 2))
    disagreements = 0
    for idx, choice in enumerate(itertools.product(pairs, repeat=3)):
        phi = Slmf(m=4, r=1, columns=choice)
        exact = check_slmf_combinatorial(phi).is_slmf
        sampled = check_slmf_randomized(phi, trials=3, seed=idx).is_slmf
        disagreements += exact != sampled
    assert disagreements == 0


def test_randomized_validates_trials():
    with pytest.raises(ValueError):
        check_slmf_randomized(PHI_A, trials=0)


def test_slmf_validation():
    with pytest.raises(ValueError, match="columns"):
        Slmf(m=6, r=2, columns=((0, 1, 2),))
    with pytest.raises(ValueError, match="distinct rows"):
        Slmf(m=6, r=2, columns=((0, 1, 1), (0, 1, 3), (0, 1, 4), (3, 4, 5)))
    with pytest.raises(ValueError, match="range"):
        Slmf(m=6, r=2, columns=((0, 1, 6), (0, 1, 3), (0, 1, 4), (3, 4, 5)))


def test_grid_roundtrip():
    text = slmf_to_grid(PHI_A)
    assert text.splitlines()[0] == "1110"
    assert slmf_from_grid(text, 2) == PHI_A


def test_grid_wrong_column_size():
    # 6 rows, 4 columns, but the second column has only 2 ones
    bad = "1100\n1010\n1011\n0101\n0010\n0001\n"
    with pytest.raises(ValueError, match="column 2"):
        slmf_from_grid(bad, 2)


def test_greedy_stops_when_too_few_candidates_are_left():
    """Repeated copies of rows {0, 1, 2} admit one. At m = 5, r = 2 the last
    candidate is one of the two still needed, so the walk stops at its fourth
    look; at m = 6 two candidates are left for three, so it stops at its fifth
    of six."""

    def looks(masks, m, r):
        spent = []
        assert first_linkage_support(masks, m, r, lambda: spent.append(1)) is None
        return len(spent)

    assert looks([0b00111] * 3 + [0b11100], 5, 2) == 4
    assert looks([0b000111] * 4 + [0b111000] * 2, 6, 2) == 5


def test_grid_wrong_column_count():
    with pytest.raises(ValueError, match="columns"):
        slmf_from_grid(slmf_to_grid(PHI_A), 3)
