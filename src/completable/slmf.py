"""Tests for the support-of-a-linkage-matching-field (SLMF) property.

An (r, m) linkage support is a family of m-r column supports, each an
(r+1)-subset of range(m), such that every nonempty subfamily of size t covers
at least t + r rows. The property is equivalent to the induced sparse dual
basis having full column rank at a generic subspace, which gives a fast
randomized test alongside the exact combinatorial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .patterns import parse_pattern
from .plucker import SubspaceBasis, evaluate_bphi, plucker_of_basis, row_reduce

EXHAUSTIVE_COLUMN_LIMIT = 22
FIELD_PRIME = (1 << 31) - 1
FLOAT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class Slmf:
    """Candidate linkage support: m-r sorted (r+1)-subsets of range(m)."""

    m: int
    r: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.r < self.m:
            raise ValueError(f"need 1 <= r < m, got r={self.r}, m={self.m}")
        cols = tuple(tuple(sorted(int(i) for i in col)) for col in self.columns)
        if len(cols) != self.m - self.r:
            raise ValueError(f"expected {self.m - self.r} columns, got {len(cols)}")
        for j, col in enumerate(cols):
            if len(set(col)) != self.r + 1:
                raise ValueError(f"column {j + 1} must have {self.r + 1} distinct rows, got {col}")
            if col[0] < 0 or col[-1] >= self.m:
                raise ValueError(f"column {j + 1} has rows outside range({self.m})")
        object.__setattr__(self, "columns", cols)


@dataclass(frozen=True)
class SlmfVerdict:
    """Outcome of an SLMF test.

    ``witness`` is a set of 0-based column indices violating the covering
    inequality; it is present exactly when the combinatorial method refutes.
    """

    is_slmf: bool
    witness: Optional[tuple[int, ...]]
    method: str


def check_slmf_combinatorial(phi: Slmf) -> SlmfVerdict:
    """Exhaustive check of the covering inequality over all nonempty subfamilies.

    On failure returns a violating index set of minimum cardinality, ties
    broken lexicographically.
    """
    K = len(phi.columns)
    if K > EXHAUSTIVE_COLUMN_LIMIT:
        raise ValueError(
            f"{K} columns exceed the exhaustive limit {EXHAUSTIVE_COLUMN_LIMIT}; "
            "use the randomized check"
        )
    masks = np.array(
        [sum(1 << i for i in col) for col in phi.columns], dtype=np.uint64
    )
    # unions[t] = union of the columns indexed by the bits of t
    unions = np.zeros(1 << K, dtype=np.uint64)
    for b in range(K):
        lo = 1 << b
        unions[lo : 2 * lo] = unions[:lo] | masks[b]
    sizes = np.bitwise_count(np.arange(1 << K, dtype=np.uint64))
    covered = np.bitwise_count(unions)
    violating = (covered.astype(np.int64) < sizes.astype(np.int64) + phi.r) & (
        np.arange(1 << K) > 0
    )
    if not violating.any():
        return SlmfVerdict(is_slmf=True, witness=None, method="combinatorial")
    cand = np.nonzero(violating)[0]
    smallest = sizes[cand].min()
    cand = cand[sizes[cand] == smallest]
    witness = min(
        tuple(b for b in range(K) if (int(t) >> b) & 1) for t in cand
    )
    return SlmfVerdict(is_slmf=False, witness=witness, method="combinatorial")


def _dual_basis_rank_mod_p(phi: Slmf, rng: np.random.Generator, p: int) -> int:
    """Rank over GF(p) of the dual basis evaluated at a random subspace."""
    basis = rng.integers(1, p, size=(phi.m, phi.r)).tolist()
    mat = [[0] * len(phi.columns) for _ in range(phi.m)]
    for j, col in enumerate(phi.columns):
        for i, row in enumerate(col):
            _, minor = row_reduce([basis[t] for t in col if t != row], p)
            mat[row][j] = (-1) ** i * minor % p
    return row_reduce(mat, p)[0]


def _dual_basis_rank_float(phi: Slmf, rng: np.random.Generator) -> int:
    basis = SubspaceBasis(rng.standard_normal((phi.m, phi.r)))
    evaluated = evaluate_bphi(phi, plucker_of_basis(basis))
    s = np.linalg.svd(evaluated, compute_uv=False)
    if s[0] == 0:
        return 0
    return int((s > FLOAT_RANK_TOL * s[0]).sum())


def check_slmf_randomized(
    phi: Slmf, trials: int = 3, seed=0, field: str = "prime"
) -> SlmfVerdict:
    """Randomized rank test of the induced dual basis at random subspaces.

    A single full-rank evaluation certifies the property; rank deficiency in
    every trial refutes it up to the (tiny) chance that all sampled subspaces
    were degenerate. Default arithmetic is exact over a large prime field;
    ``field="float"`` cross-checks with floating point.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if field not in ("prime", "float"):
        raise ValueError(f"unknown field {field!r}")
    target = len(phi.columns)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    for child in seed.spawn(trials):
        rng = np.random.default_rng(child)
        if field == "prime":
            rank = _dual_basis_rank_mod_p(phi, rng, FIELD_PRIME)
        else:
            rank = _dual_basis_rank_float(phi, rng)
        if rank == target:
            return SlmfVerdict(is_slmf=True, witness=None, method="randomized-rank")
    return SlmfVerdict(is_slmf=False, witness=None, method="randomized-rank")


def slmf_from_grid(text: str, r: int) -> Slmf:
    """Parse an SLMF from an ASCII grid of m rows and m-r columns."""
    pattern = parse_pattern(text)
    m = pattern.m
    if not 1 <= r < m:
        raise ValueError(f"need 1 <= r < m, got r={r}, m={m}")
    if pattern.n != m - r:
        raise ValueError(f"expected {m - r} columns for r={r}, got {pattern.n}")
    supports = pattern.column_supports()
    for j, col in enumerate(supports):
        if len(col) != r + 1:
            raise ValueError(f"column {j + 1} has {len(col)} rows, expected {r + 1}")
    return Slmf(m=m, r=r, columns=supports)


def slmf_to_grid(phi: Slmf) -> str:
    rows = []
    for i in range(phi.m):
        rows.append("".join("1" if i in col else "0" for col in phi.columns))
    return "\n".join(rows) + "\n"
