"""Generic sampling, numerical rank tests, exact completion, and system export.

Genericity is realized by standard-normal sampling plus explicit nondegeneracy
checks; a randomly drawn subspace misses the bad loci with probability 1.
Both tangent rank tests build their Jacobians in closed form, so no step size
enters. Numerical ranks count singular values above a relative tolerance and
demand a visible spectral gap, reporting an indeterminate outcome instead of
guessing when the spectrum is ambiguous.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .patterns import ObservationPattern
from .plucker import SubspaceBasis, index_subsets, subset_position

DEFAULT_RANK_TOL = 1e-9
SPECTRAL_GAP = 1e3
CONSISTENCY_RTOL = 1e-6
GENERIC_RETRIES = 5


def _trial_seeds(seed, trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial seeds split from one master seed."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(trials)


class DegenerateProjectionError(RuntimeError):
    """A column support projects the subspace below dimension r."""


class InconsistentObservationError(RuntimeError):
    """Observed values are not explained by the given column space."""


class SectionTestError(RuntimeError):
    """The tangent-space test could not set up its functionals."""


class ObservedMatrixFormatError(ValueError):
    """A values file could not be parsed."""


@dataclass(frozen=True)
class ObservedMatrix:
    """Values attached to exactly the observed positions of a pattern."""

    pattern: ObservationPattern
    values: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        values = {(int(i), int(j)): float(v) for (i, j), v in self.values.items()}
        if set(values) != set(self.pattern.entries):
            raise ValueError("values must be defined exactly on the observed entries")
        object.__setattr__(self, "values", values)

    def column(self, j: int) -> tuple[tuple[int, ...], np.ndarray]:
        omega = self.pattern.column_support(j)
        return omega, np.array([self.values[(i, j)] for i in omega])

    @classmethod
    def from_matrix(cls, X: np.ndarray, pattern: ObservationPattern) -> "ObservedMatrix":
        X = np.asarray(X, dtype=float)
        if X.shape != (pattern.m, pattern.n):
            raise ValueError(f"matrix shape {X.shape} does not match the pattern")
        return cls(pattern, {(i, j): X[i, j] for i, j in pattern.entries})


def observed_from_csv(text: str) -> ObservedMatrix:
    """Parse a CSV with ``*`` marking unobserved cells; dimensions inferred.

    Non-finite values (``nan``, ``inf``) are rejected with the line and column.
    """
    rows = [line for line in text.splitlines() if line.strip() != ""]
    if not rows:
        raise ObservedMatrixFormatError("empty values file")
    cells = [[c.strip() for c in row.split(",")] for row in rows]
    width = len(cells[0])
    entries = set()
    values = {}
    for i, row in enumerate(cells):
        if len(row) != width:
            raise ObservedMatrixFormatError(
                f"line {i + 1}: expected {width} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            if cell == "*":
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise ObservedMatrixFormatError(
                    f"line {i + 1}, column {j + 1}: bad value {cell!r}"
                ) from exc
            if not np.isfinite(value):
                raise ObservedMatrixFormatError(
                    f"line {i + 1}, column {j + 1}: non-finite value {cell!r}"
                )
            values[(i, j)] = value
            entries.add((i, j))
    pattern = ObservationPattern(len(cells), width, frozenset(entries))
    return ObservedMatrix(pattern, values)


def observed_to_csv(obs: ObservedMatrix) -> str:
    lines = []
    for i in range(obs.pattern.m):
        cells = []
        for j in range(obs.pattern.n):
            cells.append(repr(float(obs.values[(i, j)])) if (i, j) in obs.values else "*")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def numerical_rank(
    singular_values: np.ndarray, tol: float = DEFAULT_RANK_TOL, gap: float = SPECTRAL_GAP
) -> tuple[int, bool]:
    """Count singular values above ``tol * s_max``; flag ambiguous spectra.

    Returns (rank, determinate). The call is determinate when either nothing
    was discarded or the last kept value exceeds the first discarded one by
    the required spectral gap.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] == 0:
        return 0, True
    threshold = tol * s[0]
    rank = int((s > threshold).sum())
    if rank == s.size:
        return rank, True
    if rank == 0:
        return 0, True
    first_discarded = s[rank]
    if first_discarded == 0:
        return rank, True
    return rank, bool(s[rank - 1] / first_discarded >= gap)


@dataclass(frozen=True)
class RankReport:
    """Outcome of a randomized generic-rank measurement."""

    tested_rank: int
    target: int
    trials: int
    pass_count: int
    tolerance: float
    indeterminate: int = 0

    def __post_init__(self) -> None:
        if self.pass_count > self.trials:
            raise ValueError("pass_count exceeds trials")
        if self.tested_rank > self.target:
            raise ValueError("measured rank exceeds the dimension bound")

    @property
    def passed(self) -> bool:
        return self.tested_rank == self.target and self.pass_count >= 1

    @property
    def determinate(self) -> bool:
        return self.indeterminate < self.trials


def sample_generic_subspace(m: int, r: int, seed=0) -> SubspaceBasis:
    """Basis with independent standard-normal entries; deterministic per seed."""
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    rng = np.random.default_rng(seed)
    return SubspaceBasis(rng.standard_normal((m, r)))


def _pivot_rows(M: np.ndarray, r: int) -> list[int]:
    """Greedy volume-maximizing choice of r rows (pivoted orthogonalization)."""
    work = np.array(M, dtype=float)
    chosen: list[int] = []
    for _ in range(r):
        norms = np.linalg.norm(work, axis=1)
        for c in chosen:
            norms[c] = -1.0
        k = int(np.argmax(norms))
        if norms[k] <= 0:
            break
        chosen.append(k)
        direction = work[k] / np.linalg.norm(work[k])
        work = work - np.outer(work @ direction, direction)
    return sorted(chosen)


def complete_column(
    basis: SubspaceBasis,
    omega: Sequence[int],
    observed: Mapping[int, float],
    rtol: float = CONSISTENCY_RTOL,
) -> np.ndarray:
    """The unique subspace vector matching the observations on ``omega``.

    Solves an r x r system on a well-conditioned size-r subset of ``omega``
    and validates the remaining observed positions against the result.

    Raises:
        DegenerateProjectionError: the projection onto ``omega`` has rank < r.
        InconsistentObservationError: observations disagree with the subspace.
    """
    omega = sorted(int(i) for i in omega)
    if set(observed) != set(omega):
        raise ValueError("observed values must cover exactly the support")
    B = basis.matrix
    proj = B[omega]
    s = np.linalg.svd(proj, compute_uv=False)
    if s.size < basis.r or s[-1] <= DEFAULT_RANK_TOL * (s[0] if s.size else 0):
        raise DegenerateProjectionError("projection drops dimension")
    pick = _pivot_rows(proj, basis.r)
    psi = [omega[t] for t in pick]
    x_psi = np.array([observed[i] for i in psi])
    v = B @ np.linalg.solve(B[psi], x_psi)
    x_omega = np.array([observed[i] for i in omega])
    scale = max(1.0, float(np.abs(x_omega).max()), float(np.abs(v).max()))
    residual = float(np.abs(v[omega] - x_omega).max())
    if residual > rtol * scale:
        raise InconsistentObservationError(
            f"not in projected subspace (residual {residual:.3g})"
        )
    return v


def complete_matrix(
    obs: ObservedMatrix, basis: SubspaceBasis, rtol: float = CONSISTENCY_RTOL
) -> np.ndarray:
    """Column-by-column completion from a known column space."""
    pattern = obs.pattern
    if basis.m != pattern.m:
        raise ValueError(f"basis has {basis.m} rows, pattern has {pattern.m}")
    X = np.zeros((pattern.m, pattern.n))
    for j in range(pattern.n):
        omega, x = obs.column(j)
        try:
            X[:, j] = complete_column(basis, omega, dict(zip(omega, x)), rtol=rtol)
        except (DegenerateProjectionError, InconsistentObservationError, ValueError) as exc:
            raise type(exc)(f"column {j + 1}: {exc}") from exc
    return X


def jacobian_rank_test(
    pattern: ObservationPattern,
    r: int,
    trials: int = 5,
    seed=0,
    tol: float = DEFAULT_RANK_TOL,
) -> RankReport:
    """Rank of the differential of the observed bilinear factorization map.

    Samples factor pairs (A, C) with normal entries and measures the rank of
    the Jacobian of (A, C) -> observed entries of A @ C. A measured rank of
    r(m+n-r) witnesses that the observed projection has full-dimensional
    image, the tangent criterion for generic finite completability.
    """
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m, n = pattern.m, pattern.n
    target = r * (m + n - r)
    entries = pattern.sorted_entries()
    best = 0
    passes = 0
    indeterminate = 0
    for child in _trial_seeds(seed, trials):
        rng = np.random.default_rng(child)
        A = rng.standard_normal((m, r))
        C = rng.standard_normal((r, n))
        if len(entries) == 0:
            rank, ok = 0, True
        else:
            J = _factorization_jacobian(entries, A, C)
            rank, ok = numerical_rank(np.linalg.svd(J, compute_uv=False), tol=tol)
        if not ok:
            indeterminate += 1
            continue
        best = max(best, rank)
        if rank == target:
            passes += 1
    return RankReport(
        tested_rank=best,
        target=target,
        trials=trials,
        pass_count=passes,
        tolerance=tol,
        indeterminate=indeterminate,
    )


def _factorization_jacobian(
    entries: Sequence[tuple[int, int]], A: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """Jacobian of (A, C) -> (A @ C)[i, j] over ``entries``, one row per entry.

    Row (i, j) holds C[:, j] in the block of A's row i and A[i, :] in the
    block of C's column j; A's m r coordinates come first.
    """
    m, r = A.shape
    rows = np.arange(len(entries))[:, None]
    i, j = np.array(entries, dtype=int).reshape(-1, 2).T
    J = np.zeros((len(entries), r * (m + C.shape[1])))
    J[rows, i[:, None] * r + np.arange(r)] = C[:, j].T
    J[rows, m * r + j[:, None] * r + np.arange(r)] = A[i]
    return J


def grassmann_section_rank_test(
    pattern: ObservationPattern,
    r: int,
    trials: int = 3,
    seed=0,
    tol: float = DEFAULT_RANK_TOL,
) -> RankReport:
    """Tangent-space rank of the hyperplane-section system on the Grassmannian.

    A generic subspace is drawn in a local chart (identity block on r random
    rows, free coordinates elsewhere) and consistent observations x_j = B c_j
    are sampled from it. Column j keeps x_j on its support omega_j inside the
    projected subspace; to first order in a chart perturbation D (zero on the
    identity rows) that reads N_j^T (D c_j)[omega_j] = 0, where N_j spans the
    left null space of B[omega_j]. The test stacks these #omega_j - r rows
    per column and measures the rank of the exact linearization, so no step
    size is involved. Full rank r(m-r) means the sections pin the subspace
    down to isolated points.

    Raises:
        SectionTestError: a column support cannot yield a nondegenerate
            projection (named in the message).
    """
    if not 1 <= r <= pattern.m:
        raise ValueError(f"rank r={r} out of range for {pattern.m} rows")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m = pattern.m
    supports = pattern.column_supports()
    for j, omega in enumerate(supports):
        if len(omega) < r:
            raise SectionTestError(
                f"column {j + 1} has {len(omega)} observed rows, fewer than r={r}"
            )
    target = r * (m - r)
    if sum(len(omega) - r for omega in supports) == 0:
        # no column yields a section functional, the system is empty
        return RankReport(
            tested_rank=0,
            target=target,
            trials=trials,
            pass_count=trials if target == 0 else 0,
            tolerance=tol,
        )
    best = 0
    passes = 0
    indeterminate = 0
    for child in _trial_seeds(seed, trials):
        J = _section_jacobian(m, r, np.random.default_rng(child), supports)
        rank, ok = numerical_rank(np.linalg.svd(J, compute_uv=False), tol=tol)
        if not ok:
            indeterminate += 1
            continue
        best = max(best, rank)
        if rank == target:
            passes += 1
    return RankReport(
        tested_rank=best,
        target=target,
        trials=trials,
        pass_count=passes,
        tolerance=tol,
        indeterminate=indeterminate,
    )


def _section_jacobian(m, r, rng, supports) -> np.ndarray:
    """Draw a chart, a subspace and consistent data; linearize the sections.

    Retries a few times until every column support projects the drawn
    subspace without dropping dimension; raises when a column can never work.
    Column p = a * r + b of the result is the chart coordinate at free row a,
    basis column b.
    """
    offending = None
    for _ in range(GENERIC_RETRIES):
        perm = rng.permutation(m)
        C0 = rng.standard_normal((m - r, r))
        B0 = np.empty((m, r))
        B0[perm] = np.vstack([np.eye(r), C0])
        nulls = []
        offending = None
        for j, omega in enumerate(supports):
            U, s, _ = np.linalg.svd(B0[list(omega)])
            if s[-1] <= DEFAULT_RANK_TOL * s[0]:
                offending = j
                break
            nulls.append(U[:, r:])
        if offending is not None:
            continue
        blocks = []
        for omega, N in zip(supports, nulls):
            c = rng.standard_normal(r)
            lifted = np.zeros((m, N.shape[1]))
            lifted[list(omega)] = N
            blocks.append(np.kron(lifted[perm[r:]].T, c))
        return np.vstack(blocks)
    raise SectionTestError(
        f"no nondegenerate base subset for column {offending + 1} "
        f"after {GENERIC_RETRIES} draws"
    )


@dataclass(frozen=True)
class ExportedSystem:
    """Linear part of the hyperplane-section system in Plucker coordinates.

    One row per column j and per (r+1)-subset of its support, over the
    lexicographic subset order. The quadratic relations cutting out the
    Grassmannian are intentionally not included.
    """

    m: int
    r: int
    matrix: np.ndarray
    row_origin: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return index_subsets(self.m, self.r)

    def to_csv(self) -> str:
        """The matrix as dense CSV, one line per row, every cell ``repr(float)``.

        Zeros print as ``0.0`` and signed zeros keep their sign (``-0.0``). A
        line of ``0.0`` cells is built once, and each row splices its few
        nonzero cells into it, so the time is linear in the bytes written.
        """
        zero_line = ",".join(["0.0"] * self.matrix.shape[1])
        lines = []
        for row in self.matrix:
            parts = []
            start = 0  # cell c spans zero_line[4c : 4c + 3]
            for c in np.flatnonzero((row != 0) | np.signbit(row)).tolist():
                parts += (zero_line[start : 4 * c], repr(float(row[c])))
                start = 4 * c + 3
            parts.append(zero_line[start:])
            lines.append("".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    def index_map(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "plucker_subsets": [[i + 1 for i in s] for s in self.subsets],
            "rows": [
                {"column": j + 1, "phi": [i + 1 for i in phi]}
                for j, phi in self.row_origin
            ],
        }

    def index_map_json(self) -> str:
        return json.dumps(self.index_map())


def export_plucker_system(obs: ObservedMatrix, r: int) -> ExportedSystem:
    """Stack every section functional of the observed matrix into one system.

    The ground-truth column space's Plucker vector lies in the null space of
    the exported matrix; columns with exactly r observations contribute no
    rows.
    """
    pattern = obs.pattern
    if not 1 <= r <= pattern.m:
        raise ValueError(f"rank r={r} out of range for {pattern.m} rows")
    pos = subset_position(pattern.m, r)
    origin = tuple(
        (j, phi)
        for j, omega in enumerate(pattern.column_supports())
        for phi in itertools.combinations(omega, r + 1)
    )
    matrix = np.zeros((len(origin), len(pos)))
    for row, (j, phi) in zip(matrix, origin):
        for k, i in enumerate(phi):
            row[pos[phi[:k] + phi[k + 1 :]]] = (-1) ** k * obs.values[(i, j)]
    return ExportedSystem(m=pattern.m, r=r, matrix=matrix, row_origin=origin)
