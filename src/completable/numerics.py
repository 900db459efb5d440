"""Exact tangent rank tests, completion from a known column space, and system export.

Completion checks every projection of the basis for nondegeneracy, which a
randomly drawn subspace passes with probability 1. The tangent rank tests
are exact: they take the rank over GF(p), p = 2^31 - 1, of the factorization
Jacobian at a random integer point, by block elimination in two levels: per
column of the mask, then per loose row of the section rows (none below desk
scale), so that ``rank_mod_p`` sees only what is left on the hub rows
(``_tangent_ranks``), at scale first a prefix from their dense end
(``_section_rank``). Full rank there is full rank over the rationals, hence
generically, so one full-rank trial proves the bound. The (r+1)-core of the
mask bounds the rank at every point (``_jacobian_rank_bound``), computed
only once a trial falls short; where that bound is below the target, a trial
reaching it refutes exactly, and the test stops there. Otherwise a deficient
rank in t independent trials refutes with error at most (d/p)^t, d the
target rank (Schwartz-Zippel), t = ``plucker.TRIALS``. The Jacobian test and
the randomized SLMF test with its Hall-matroid bound run their trials
through one loop (``plucker.first_full_rank``), which holds that one trial
count, and takes an int seed: a report's last point is redrawn from (seed,
trials). The section test runs no trial: the section rank is the Jacobian
rank minus r n, so it reads the Jacobian report at its (r, seed).
"""

from __future__ import annotations

import ctypes
import errno
import functools
import io
import itertools
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .patterns import ObservationPattern, _checked_rank
from .plucker import (
    FIELD_PRIME,
    NotABasisError,
    SubspaceBasis,
    _coordinate_count,
    _lex_blocks,
    _lex_rank,
    _mod_p,
    _restore,
    first_full_rank,
    left_null_mod_p,
    rank_mod_p,
)

DEFAULT_RANK_TOL = 1e-9
CONSISTENCY_RTOL = 1e-6
# int64 cells of the tangent rank system as allocated: the first level, the
# point, the column order and S as laid out. A Jacobian test that passes in one
# trial peaks at 1.7 to 1.9 times them from 40 x 40 to 128 x 128, r = 5 (0.80 MB
# counted at 64 x 64, 12 rows per column), and 2.5 to 2.7 times them at desk
# width (4 x 40000 and 3 x 60000, 3 rows per column, r = 1; 6.7 and 9.1 MB).
MAX_TANGENT_BYTES = 1 << 26
# the columns of S (m r) from which supports go by row priority and rows of few
# owners are loose: below them every row is a hub, as a block costs more to set up
TWO_LEVEL_COLUMNS = 64


class DegenerateProjectionError(RuntimeError):
    """A column support projects the subspace below dimension r."""


class InconsistentObservationError(RuntimeError):
    """Observed values are not explained by the given column space."""


class SectionTestError(RuntimeError):
    """The tangent-space test could not set up its functionals."""


class TangentSizeError(RuntimeError):
    """The tangent rank system would pass ``MAX_TANGENT_BYTES``."""


class ObservedMatrixFormatError(ValueError):
    """A values file could not be parsed."""


@dataclass(frozen=True)
class ObservedMatrix:
    """Finite values attached to exactly the observed positions of a pattern."""

    pattern: ObservationPattern
    values: Mapping[tuple[int, int], float]
    __setstate__ = _restore

    def __post_init__(self) -> None:
        values = self.values  # read once: positions by operator.index, as the pattern reads them
        if type(values) is not _Read:  # what this module builds is read already
            values = {(operator.index(i), operator.index(j)): float(v) for (i, j), v in values.items()}
        if values.keys() != self.pattern.entries:
            raise ValueError("values must be defined exactly on the observed entries")
        if not all(map(math.isfinite, values.values())):
            (i, j), v = next(item for item in values.items() if not math.isfinite(item[1]))
            raise ValueError(f"entry ({i}, {j}): non-finite value {v!r}")
        object.__setattr__(self, "values", dict(values))

    @classmethod
    def from_matrix(cls, X: np.ndarray, pattern: ObservationPattern) -> "ObservedMatrix":
        X = np.asarray(X, dtype=float)
        if X.shape != (pattern.m, pattern.n):
            raise ValueError(f"matrix shape {X.shape} does not match the pattern")
        rows, cols = _index_pairs(pattern.entries, pattern.size)
        return cls(pattern, _Read(zip(pattern.entries, X[rows, cols].tolist())))


class _Read(dict):
    """Values built here with int positions and float values, which ``ObservedMatrix`` copies unread."""


def observed_from_csv(text: str) -> ObservedMatrix:
    """Parse a CSV with ``*`` marking unobserved cells; dimensions inferred.

    Non-finite values (``nan``, ``inf``) are rejected with the line and column.
    """
    rows = [line for line in text.splitlines() if line.strip() != ""]
    if not rows:
        raise ObservedMatrixFormatError("empty values file")
    cells = [[c.strip() for c in row.split(",")] for row in rows]
    width = len(cells[0])
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
            if not math.isfinite(value):
                raise ObservedMatrixFormatError(
                    f"line {i + 1}, column {j + 1}: non-finite value {cell!r}"
                )
            values[(i, j)] = value
    return ObservedMatrix(ObservationPattern(len(cells), width, frozenset(values)), _Read(values))


def observed_to_csv(obs: ObservedMatrix) -> str:
    lines = []
    for i in range(obs.pattern.m):
        cells = []
        for j in range(obs.pattern.n):
            cells.append(repr(float(obs.values[(i, j)])) if (i, j) in obs.values else "*")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RankReport:
    """Outcome of an exact generic-rank test at random points.

    ``trials`` counts the trials run, at most ``plucker.TRIALS``: the test
    stops at the first trial whose rank reaches ``target`` or the (r+1)-core
    bound below it, at a generic point the first. So only the last trial can
    pass, and the report passes iff ``tested_rank == target``. Exact ranks
    are never indeterminate; ``indeterminate`` stays 0 for its readers.
    ``row_basis`` is set on a pass of ``jacobian_rank_test`` only: the
    r(m+n-r) observed entries (i, j) whose rows of the Jacobian are a row
    basis at the passing point, assembled from the pivots of both levels of
    ``_tangent_ranks``. It is one row basis, not a canonical one: which
    depends on the elimination order. It takes no part in comparisons. A
    ``grassmann_section_rank_test`` report is the Jacobian report at the
    same (r, seed) with r n taken off both ranks: its trials are the
    Jacobian test's.
    """

    tested_rank: int
    target: int
    trials: int
    indeterminate: int = 0
    row_basis: Optional[tuple[tuple[int, int], ...]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.__dict__.update({k: operator.index(v) for k, v in vars(self).items() if k != "row_basis"})
        if self.tested_rank > self.target:
            raise ValueError("measured rank exceeds the dimension bound")

    @property
    def passed(self) -> bool:
        return self.tested_rank == self.target


def complete_matrix(obs: ObservedMatrix, basis: SubspaceBasis) -> np.ndarray:
    """Completion from a known column space, one stacked solve per support size.

    The one completion entry point: a single column is a one-column
    ``ObservedMatrix``, whose constructor checked its values. The columns
    with k observed rows are solved together by ``_complete_columns``; the
    lowest failing column raises its error, prefixed by ``column j: ``.
    """
    pattern = obs.pattern
    if basis.m != pattern.m:
        raise NotABasisError(f"basis has {basis.m} rows, the values have {pattern.m}")
    supports = pattern.column_supports()
    sizes = np.array([len(omega) for omega in supports], dtype=np.int64)
    # X holds the observed values until each group's columns are overwritten
    X = _dense_values(obs)
    failures = {}
    for k in np.unique(sizes).tolist():
        cols = np.flatnonzero(sizes == k)
        flat = itertools.chain.from_iterable(supports[j] for j in cols.tolist())
        omega = np.fromiter(flat, dtype=np.int64, count=len(cols) * k).reshape(len(cols), k)
        completed, errors = _complete_columns(basis.matrix, omega, X[omega, cols[:, None]])
        X[:, cols] = completed
        failures.update((int(cols[i]), exc) for i, exc in errors.items())
    if failures:
        j = min(failures)
        exc = failures[j]
        raise type(exc)(f"column {j + 1}: {exc}") from exc
    return X


def _complete_columns(
    B: np.ndarray, omega: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Complete b columns that share a support size k with one stacked SVD.

    ``omega`` (b, k) holds each column's observed rows and ``x`` (b, k) their
    values. The SVD of the stacked B[omega], shape (b, k, r), checks each
    projection's rank and gives its least-squares solution through batched
    contractions, each a (1, .) row product per column, so a column's bits
    do not depend on the others in the batch; each column is solved scaled
    to at most 1 in magnitude and scaled back, so the solve itself cannot
    overflow. Returns the completed columns, shape (m, b), and the error of
    each failing one by its index in the batch: ``DegenerateProjectionError``
    when k < r or the smallest singular value is at most ``DEFAULT_RANK_TOL``
    times the largest, else ``InconsistentObservationError`` when the result
    is not finite or an observed entry is off by more than
    ``CONSISTENCY_RTOL`` times the column's scale.
    """
    b, k = omega.shape
    m, r = B.shape
    if k < r:
        error = DegenerateProjectionError("projection drops dimension")
        return np.zeros((m, b)), dict.fromkeys(range(b), error)
    U, s, Vt = np.linalg.svd(B[omega], full_matrices=False)
    top = np.abs(x).max(axis=1)
    top[top == 0] = 1.0
    with np.errstate(all="ignore"):
        coef = (x / top[:, None])[:, None] @ U / s[:, None] @ Vt
        v = (coef @ B.T)[:, 0] * top[:, None]
        finite = np.isfinite(v).all(axis=1)
        scale = np.maximum(np.maximum(top, 1.0), np.abs(v).max(axis=1))
        residual = np.abs(np.take_along_axis(v, omega, axis=1) - x).max(axis=1)
    degenerate = s[:, -1] <= DEFAULT_RANK_TOL * s[:, 0]
    errors = {}
    for i in np.flatnonzero(degenerate | ~finite | (residual > CONSISTENCY_RTOL * scale)).tolist():
        if degenerate[i]:
            errors[i] = DegenerateProjectionError("projection drops dimension")
        elif not finite[i]:
            errors[i] = InconsistentObservationError("completed values overflow")
        else:
            errors[i] = InconsistentObservationError(
                f"not in projected subspace (residual {residual[i]:.3g})"
            )
    return v.T, errors


def _dense_values(obs: ObservedMatrix) -> np.ndarray:
    """The observed values as an m x n array, 0 at unobserved positions."""
    dense = np.zeros((obs.pattern.m, obs.pattern.n))
    rows, cols = _index_pairs(obs.values, len(obs.values))
    dense[rows, cols] = np.fromiter(obs.values.values(), dtype=float, count=len(obs.values))
    return dense


def _index_pairs(pairs: Iterable[tuple[int, int]], count: int) -> np.ndarray:
    """The ``count`` pairs (i, j) as a (2, count) int64 array: the i, then the j."""
    return np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * count).reshape(count, 2).T


def jacobian_rank_test(pattern: ObservationPattern, r: int, seed: int = 0) -> RankReport:
    """Rank of the differential of the observed bilinear factorization map.

    The rank over GF(p) of the Jacobian of (A, C) -> observed entries of
    A @ C at random integer points, eliminated per column and, past desk
    scale, per loose row of the section rows (``_tangent_ranks``), through
    ``first_full_rank``: it stops at the target r(m+n-r) or at the
    (r+1)-core bound below it (``_jacobian_rank_bound``), and a pass carries
    the row basis of its passing trial. A rank of r(m+n-r) proves that the
    observed projection has full-dimensional image, the tangent criterion
    for generic finite completability.

    The seed is an int: the last point tried, on a pass the passing one, is
    redrawn from (seed, ``trials``) as ``first_full_rank`` draws it. Every
    call runs its trials and leaves its report on the pattern object, keyed
    by (r, seed), in one slot that ``grassmann_section_rank_test`` takes on
    its next call at that key.

    Raises:
        TypeError: r or the seed is not an integer (``operator.index``).
        TangentSizeError: the elimination would pass ``MAX_TANGENT_BYTES``.
    """
    r, seed = _checked_rank(pattern, r), operator.index(seed)
    _check_tangent_size(pattern, r)
    target = r * (pattern.m + pattern.n - r)
    basis = None

    def rank_at(rng: np.random.Generator) -> int:
        nonlocal basis
        rank, _, basis = _tangent_ranks(pattern, r, rng)
        return rank

    rank, run = first_full_rank(rank_at, target, seed, bound=lambda: _jacobian_rank_bound(pattern, r))
    # a pass ends the trials, so the last one run is the passing one
    row_basis = tuple(map(tuple, basis.tolist())) if rank == target else None
    report = RankReport(rank, target, trials=run, row_basis=row_basis)
    pattern._shared["jacobian_report"] = ((r, seed), report)
    return report


def grassmann_section_rank_test(pattern: ObservationPattern, r: int, seed: int = 0) -> RankReport:
    """Tangent-space rank of the hyperplane-section system on the Grassmannian.

    At a subspace spanned by A with consistent data x_j = A c_j, column j
    keeps x_j on its support omega_j inside the projected subspace; to first
    order in a perturbation D of A that reads N_j (D c_j)[omega_j] = 0, where
    the rows of N_j span the left null space of A[omega_j]. These
    #omega_j - r rows per column are the S block of the elimination that
    gives ``jacobian_rank_test`` its rank, J = sum_j rank A[omega_j] +
    rank S, so with r rows or more in every column the section rank is the
    Jacobian rank minus r n, and this test reads it off the Jacobian
    report at (r, seed): the one that test left on this pattern object,
    which it takes, or else a fresh one, which it leaves nowhere. Full rank
    r(m-r) means the sections pin the subspace down to isolated points. At
    a point where some A[omega_j] drops rank the rank read is below that of
    S, so never a pass that S would lack.

    Raises:
        TypeError: r or the seed is not an integer (``operator.index``).
        SectionTestError: a column has fewer than r observed rows.
        TangentSizeError: the elimination would pass ``MAX_TANGENT_BYTES``.
    """
    r, seed = _checked_rank(pattern, r), operator.index(seed)
    for j, omega in enumerate(pattern.column_supports()):
        if len(omega) < r:
            raise SectionTestError(
                f"column {j + 1} has {len(omega)} observed rows, fewer than r={r}"
            )
    key, jacobian = pattern._shared.pop("jacobian_report", (None, None))
    if key != (r, seed):
        jacobian = jacobian_rank_test(pattern, r, seed)
        pattern._shared.pop("jacobian_report", None)
    rn = r * pattern.n
    return RankReport(jacobian.tested_rank - rn, jacobian.target - rn, jacobian.trials)


def _row_column_forest(entries: Iterable[tuple[int, int]]) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The entries, in the given order, that join two components of the row-column graph
    (a spanning forest: m+n-1 entries iff it is connected), and each line's root.

    A union-find over row i as node i and column j as node ~j, keyed by dict:
    nothing is allocated for a line the entries miss.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest = []
    for i, j in entries:
        a, b = find(i), find(~j)
        if a != b:
            parent[a] = b
            forest.append((i, j))
    return forest, {v: find(v) for v in parent}


def _jacobian_rank_bound(pattern: ObservationPattern, r: int) -> int:
    """Upper bound on the Jacobian's rank at every point, from the (r+1)-core of the mask.

    Rows and columns of the mask with at most r entries are peeled until
    none is left; the rest is the (r+1)-core, whose m_c rows and n_c columns
    each hold more than r entries. A peeled entry adds at most 1 to the rank.
    The rows of J at the entries of one connected component c of the core
    add at most min(|c|, r(m_c+n_c-r)), since they involve only c's rows of
    A and columns of C, up to c's own gauge (A_c, C_c) -> (A_c G, G^-1 C_c).
    The bound also holds for every subset of J's rows, and minus r n it
    bounds the section rank when every column has r entries or more.
    Computed afresh, at most once per ``jacobian_rank_test`` call, and only
    once a trial falls short.
    """
    m, n = pattern.m, pattern.n
    supports = pattern.column_supports()
    sizes = [len(omega) for omega in supports]
    rows = np.fromiter(itertools.chain.from_iterable(supports), dtype=np.int64, count=sum(sizes))
    cols = np.repeat(np.arange(n), sizes)
    core = np.ones(rows.size, dtype=bool)
    while True:
        row_counts = np.bincount(rows[core], minlength=m)
        col_counts = np.bincount(cols[core], minlength=n)
        peel = core & ((row_counts[rows] <= r) | (col_counts[cols] <= r))
        if not peel.any():
            break
        core &= ~peel
    core_rows, core_cols = rows[core].tolist(), cols[core].tolist()
    _, root = _row_column_forest(zip(core_rows, core_cols))
    entries = Counter(root[i] for i in core_rows)
    lines = Counter(root.values())  # m_c + n_c
    core_rank = sum(min(size, r * (lines[c] - r)) for c, size in entries.items())
    return min(rows.size - len(core_rows) + core_rank, r * (m + n - r))


def _check_tangent_size(pattern: ObservationPattern, r: int, section: int = 0) -> int:
    """Refuse, before allocating, a mask whose elimination passes ``MAX_TANGENT_BYTES``.

    Counted: the per-column eliminations, the point (A, C), ``rank_mod_p``'s
    nonzero counts and column order over at most m r columns, and the
    ``section`` cells of S as ``_section_layout`` lays it out, which
    ``_tangent_ranks`` checks before it allocates S; 0 up front, before any
    trial. Returns the bytes counted.
    """
    sizes = np.fromiter(map(len, pattern.column_supports()), dtype=np.int64, count=pattern.n)
    cells = int(sizes @ (sizes + r)) + 3 * pattern.m * r + r * pattern.n + section
    if 8 * cells > MAX_TANGENT_BYTES:
        raise TangentSizeError(
            f"the tangent rank system needs {8 * cells} bytes, "
            f"more than the supported {MAX_TANGENT_BYTES}"
        )
    return 8 * cells


def _tangent_ranks(
    pattern: ObservationPattern, r: int, rng: np.random.Generator
) -> tuple[int, int, Optional[np.ndarray]]:
    """Ranks over GF(p) of the Jacobian J and of its section rows S at one random point,
    and at full rank r(m+n-r) the observed entries whose rows of J are a row basis.

    A (m x r) and C (r x n) are drawn uniformly from range(p). The first
    level eliminates per column: the rows of J for column j hold A[omega_j]
    in the coordinates of c_j, which no other column's rows touch, so
    eliminating that block leaves r pivot rows and the section rows
    N_j (x) c_j: entry (s, i r + b) is N_j[s, i] C[b, j], with N_j the left
    null vectors of A[omega_j]. Hence rank J = sum_j rank A[omega_j] +
    rank S. Columns of equal support size share one batched elimination,
    and N_j[s] is supported on the column's pivot rows and on one own row,
    ``order[r + s]``, with a nonzero coefficient there (``left_null_mod_p``).
    S is laid out around hub rows (``_section_layout``), each row written
    once at its place, and its rank taken in a second level
    (``_section_rank``). From ``TWO_LEVEL_COLUMNS`` columns of S (m r) on,
    each support is first sorted by row priority, rows observed by more
    columns first, ties by index, so that the pivot rows fall in a small hub
    set; below that supports keep index order and every row is a hub.

    Every row of S annihilates D = A G (N_j A[omega_j] = 0). So for any r
    rows P with A[P] invertible, the r^2 columns of D's rows P are
    combinations of the other columns of S, and leaving them out of its
    elimination keeps its column space, hence its rank and which of its row
    sets are independent. P is taken from a block already eliminated: the
    pivot rows of the first full-rank column with r rows or more, all hub
    rows. A column where A[omega_j] drops rank is left out with all its
    rows, so both ranks stay exact ranks of a row subset of J, never above
    the generic ones.

    At full rank the third item is an (r(m+n-r), 2) array of entries (i, j):
    each column's pivot rows, then for each row of a row basis of S the
    entry it carries, its own row in its column. Those rows of J span each
    column's r pivot rows and, with them, every row of the basis of S: as
    many dimensions as they are, a row basis of J. Otherwise it is None.
    """
    p = FIELD_PRIME
    m, n = pattern.m, pattern.n
    A = rng.integers(0, p, size=(m, r))
    C = rng.integers(0, p, size=(r, n))
    supports = pattern.column_supports()
    sizes = np.array([len(omega) for omega in supports])
    flat = np.fromiter(itertools.chain.from_iterable(supports), dtype=np.int64, count=int(sizes.sum()))
    two_level = m * r >= TWO_LEVEL_COLUMNS
    if two_level:  # each support by row priority
        observed = np.bincount(flat, minlength=m)
        flat = flat[np.argsort(np.repeat(np.arange(n) * (n + 1), sizes) - observed[flat], kind="stable")]
    starts = np.cumsum(sizes) - sizes
    column_ranks = 0
    blocks = []  # (columns, supports, null vectors, row orders), each of full rank
    for k in sorted(set(sizes.tolist()) - {0}):
        cols = np.flatnonzero(sizes == k)
        omega = flat[starts[cols][:, None] + np.arange(k)]
        null, full, order = left_null_mod_p(A[omega])
        column_ranks += min(k, r) * int(full.sum())
        blocks.append((cols[full], omega[full], null[full], order[full]))
    ordered = [np.take_along_axis(omega, order, axis=1) for _, omega, _, order in blocks]  # pivot rows first
    own = np.concatenate([np.zeros(0, dtype=np.int64)] + [rows[:, r:].ravel() for rows in ordered])
    h, slot, at, owners, depths = _section_layout(ordered, own, m, r, two_level)
    hubbed = own.size - int(np.sum(owners))
    shape = (hubbed + int(np.sum(depths)), h + bool(depths.size), r)  # a loose slot if loose rows
    _check_tangent_size(pattern, r, math.prod(shape))
    S = np.zeros(shape, dtype=np.int64)
    done, gauge = 0, None
    for (cols, omega, null, order), rows in zip(blocks, ordered):
        b, k = omega.shape
        if gauge is None and k >= r and b:
            gauge = rows[0, :r]
        if k > r:  # this size's rows of S, each at its place
            t = at[done : done + b * (k - r)].reshape(b, k - r)
            c = C[:, cols].T[:, None, None]
            # at their slots, the entries on the pivot rows, null[s, order[:r]], then on the own row's
            S[t[..., None], slot[rows[:, None, :r]]] = _mod_p(np.take_along_axis(null, order[:, None, :r], axis=2)[..., None] * c)
            S[t, slot[rows[:, r:]]] = _mod_p(np.take_along_axis(null, order[:, r:, None], axis=2) * c[:, 0])
            done += b * (k - r)
    if gauge is not None:  # D[P]'s r^2 columns add no rank; zeroed, rank_mod_p leaves them out
        S[:, slot[gauge]] = 0
    section, basis = _section_rank(S, hubbed, owners, depths)
    jacobian = column_ranks + section
    if jacobian < r * (m + n - r):
        return jacobian, section, None
    # each column's rows in elimination order, as entries (i, j): its pivot rows, then the own rows of its rows of S
    entries = [
        np.stack([rows, np.broadcast_to(cols[:, None], rows.shape)], axis=2) for (cols, *_), rows in zip(blocks, ordered)
    ]
    carried = np.empty((len(S), 2), dtype=np.int64)  # the entry each row of S carries: its own row's
    carried[at] = np.concatenate([np.zeros((0, 2), dtype=np.int64)] + [e[:, r:].reshape(-1, 2) for e in entries])
    return jacobian, section, np.concatenate([e[:, :r].reshape(-1, 2) for e in entries] + [carried[basis]])


def _section_layout(
    ordered: Sequence[np.ndarray], own: np.ndarray, m: int, r: int, two_level: bool
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each row of S goes, for the two levels of ``_section_rank``.

    ``ordered`` holds each size's supports in elimination order, pivot rows
    first, and ``own`` the own row of each row of S, as the sizes stack
    them. A row's owners are the rows of S it is the own row of. Without
    ``two_level`` every row is a hub; with it the hub rows are the pivot
    rows and the rows of more than min(m r, 2^14) owners, and the other
    rows with owners are loose. A row of S is nonzero on hub rows and on
    its own row only, so on a loose row's coordinates only its owners are.
    S is laid out as (rows, h + 1, r), or (rows, h, r) where no row is
    loose: the coordinates of the h hub rows, then the own row's where that
    is loose. The rows owning a hub row come first, in order (where no row
    is loose, that is all). Then each loose row's owners, in one block
    padded with zero rows to its depth: its owner count d where d <= r,
    else the most owners of any loose row past r owners whose owner count
    has the same next power of two, so below 2 d. The blocks go by depth.
    The bound on d keeps a block's elimination within a small multiple of
    the cells counted for its rows of S (d <= m r), and a sum of its limb
    products below 2^62 (depth < 2^15). Returns h, each row's slot (h for
    a loose row), the place of each row of S, and the owner count and
    depth of each block, in order.
    """
    owners = np.bincount(own, minlength=m)
    hub = owners > (min(m * r, 1 << 14) if two_level else -1)
    for rows in ordered:
        hub[rows[:, :r]] = True
    slot = np.cumsum(hub) - 1
    h = int(slot[-1]) + 1
    slot[~hub] = h
    loose = np.flatnonzero(~hub & (owners > 0))
    if not loose.size:  # no block: S is the hub system, in stack order
        return h, slot, np.arange(own.size), loose, loose
    depth = owners[loose]
    tall = depth > r
    bucket = np.ceil(np.log2(depth[tall])).astype(np.int64)
    top = np.zeros(64, dtype=np.int64)
    np.maximum.at(top, bucket, depth[tall])
    depth[tall] = top[bucket]
    by_depth = np.argsort(depth, kind="stable")
    loose, depth = loose[by_depth], depth[by_depth]
    start = np.zeros(m, dtype=np.int64)
    start[loose] = np.cumsum(depth) - depth
    key = np.where(slot[own] < h, -1, own)
    by_row = np.argsort(key, kind="stable")
    key = key[by_row]
    within = np.arange(own.size) - np.searchsorted(key, key)  # the place among its row's owners
    at = np.empty(own.size, dtype=np.int64)
    at[by_row] = np.where(key < 0, within, int(np.count_nonzero(key < 0)) + start[key] + within)
    return h, slot, at, owners[loose], depth


def _section_rank(S: np.ndarray, hubbed: int, owners: np.ndarray, depths: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank over GF(p) of the section rows S laid out by ``_section_layout``, and the
    places of a row basis of S in that layout.

    Only a loose row's owners are nonzero on its r coordinates, so S is a
    block arrow: rank S = sum_i rank X_i + rank H, X_i being loose row i's
    owners on its coordinates and H what elimination leaves on the hub
    coordinates. The blocks of one depth share one batched
    ``left_null_mod_p`` of their X_i; padding rows are zero and last, so
    they never pivot. An X_i of full rank min(d, r) counts that many pivot
    rows. Each of its null vectors, supported on them and on one more
    owner ``order[r + s]`` with a nonzero coefficient there, combines the
    owners' hub entries into a row of H that carries that owner. An X_i
    that drops rank goes into H whole, with its own coordinates. H also
    holds the rows owning a hub row, and ``rank_mod_p`` eliminates it
    alone: with no block, S itself, as a view. Else H stays in pieces: nz,
    its nonzero columns, is read piece by piece, and only its last nz +
    max(8, nz // 8) rows are copied, last first (``_tail_reversed``), and
    eliminated: a prefix of rank nz has rank H, which no row set passes,
    and only a prefix short of it copies every row to eliminate. The basis
    is the pivots of the X_i and the rows the pivots of H carry: with the
    pivots of their X_i these span every pivot row of H, hence S, and they
    are as many as rank S.
    """
    _, width, r = S.shape
    if not depths.size:  # S is the hub system, eliminated as it lies
        return rank_mod_p(S.reshape(len(S), width * r))
    h = width - 1
    rank, pieces, carried, basis, dropped = 0, [], [], [], []
    at = hubbed
    for depth in sorted(set(depths.tolist())):
        counts = owners[depths == depth]
        block = S[at : at + counts.size * depth].reshape(counts.size, depth, width, r)
        null, full, order = left_null_mod_p(block[:, :, h])
        first = at + depth * np.arange(counts.size)[:, None]  # each block's first row of S
        steps = min(depth, r)
        rank += steps * int(full.sum())
        basis.append((first + order[:, :steps])[full].ravel())
        # the null vectors' combinations of the owners' hub entries Y, a view of S, exact in int64:
        # the null vectors are split into 16-bit limbs, so a product is below 2^47 and a sum of
        # depth < 2^15 below 2^62; each combination is written into one array, reduced in place
        real = full[:, None] & (np.arange(depth - steps) < counts[:, None] - steps)  # not a padding row's
        Y = block[:, :, :h].reshape(counts.size, depth, h * r)
        combined = _mod_p(np.matmul(null >> 16, Y))
        combined <<= 16
        combined += np.matmul(null & 0xFFFF, Y)
        combined = _mod_p(combined)[real]  # the name holds no full-size array past its block
        pieces.append(combined.reshape(-1, h, r))
        carried.append((first + order[:, steps:])[real])
        dropped += [first[i, 0] + np.arange(counts[i]) for i in np.flatnonzero(~full).tolist()]
        at += counts.size * depth
    pieces.append(S[:hubbed, :h])
    carried.append(np.arange(hubbed))
    if dropped:  # each X_i that drops rank, on its own r coordinates too
        rows = np.concatenate(dropped)
        blocks = np.repeat(np.arange(len(dropped)), [len(block) for block in dropped])
        own = np.zeros((rows.size, h + len(dropped), r), dtype=np.int64)
        own[:, :h] = S[rows, :h]
        own[np.arange(rows.size), h + blocks] = S[rows, h]
        pieces.append(own)
        carried.append(rows)
    filled = np.zeros((h + len(dropped), r), dtype=bool)
    for piece in pieces:
        filled[: piece.shape[1]] |= piece.any(axis=0)
    nonzero = int(np.count_nonzero(filled))  # the most rank H can have
    total = sum(map(len, pieces))
    cut = min(nonzero + max(8, nonzero // 8), total)  # the dense end first
    section, pivots = rank_mod_p(_tail_reversed(pieces, cut, filled.shape))
    if section < nonzero and cut < total:  # the prefix falls short: every row
        section, pivots = rank_mod_p(_tail_reversed(pieces, total, filled.shape))
    return rank + section, np.concatenate(basis + [np.concatenate(carried)[::-1][pivots]])


def _tail_reversed(pieces: Sequence[np.ndarray], count: int, shape: tuple[int, int]) -> np.ndarray:
    """The last ``count`` rows of the (rows, slots, r) ``pieces`` stacked in order,
    last first, as one new (count, slots r) array; a piece with fewer slots is
    zero on the rest."""
    out = np.zeros((count, *shape), dtype=np.int64)
    done = 0
    for piece in reversed(pieces):
        take = min(len(piece), count - done)
        out[done : done + take, : piece.shape[1]] = piece[len(piece) - take :][::-1]
        done += take
    return out.reshape(count, math.prod(shape))


# an export writes at least 4 bytes ("0.0,") per row and coordinate to the
# CSV and 3r bytes ("1, " per index) per coordinate to the index map; the
# largest benchmark export writes 57 MB, the limit is 4.7 times that
MAX_EXPORT_BYTES = 1 << 28
# rows per write of ``write_index_map``, cells per write of ``write_csv``
_INDEX_CHUNK = 4096


def _csv_pieces(columns: np.ndarray, offsets: np.ndarray, sizes: np.ndarray, line: int) -> np.ndarray:
    """The (offset, length) pieces of some rows' CSV lines, as a (2 cells + 1, 2)
    ``np.uintp`` array: a run of zeros, a cell, ..., a cell, a run of zeros.

    The runs lie in two copies of a ``line``-byte line of zeros, where the cell
    at coordinate c replaces bytes [4c, 4c + 3); the cells lie in the table at
    ``offsets``, ``sizes`` long. Each row's first run starts in the first copy,
    at the end of the previous row's last cell or, for the first row, at the
    end of the line, and ends in the second copy; the last row's last run ends
    with the first copy.
    """
    at = 4 * columns
    starts = np.empty_like(at)
    starts[:, 1:] = at[:, :-1] + 3
    starts[1:, 0] = at[:-1, -1] + 3
    starts[0, 0] = line
    last = int(at[-1, -1]) + 3
    at[:, 0] += line
    pieces = np.empty((2 * at.size + 1, 2), dtype=np.uintp)
    pieces[:-1:2, 0] = starts.ravel()
    pieces[:-1:2, 1] = (at - starts).ravel()
    pieces[1::2, 0] = offsets.ravel()
    pieces[1::2, 1] = sizes.ravel()
    pieces[-1] = (last, line - last)
    return pieces


@functools.cache
def _libc_writev():
    """libc's ``writev`` and the most pieces it takes per call, or None where
    there is none; bound on first use."""
    try:
        writev = ctypes.CDLL(None, use_errno=True).writev
        most = os.sysconf("SC_IOV_MAX")
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    writev.argtypes = (ctypes.c_int, ctypes.c_void_p, ctypes.c_int)
    writev.restype = ctypes.c_ssize_t
    return writev, max(most, 16)  # -1 is no fixed limit; POSIX allows at least 16


def _write_gathered(writev, most: int, fd: int, pieces: np.ndarray) -> None:
    """Write the (address, length) ``pieces`` to ``fd`` in order, ``most`` per
    ``writev``: retry on EINTR, resume after a short write, raise ``OSError``
    on any other error. A partly written piece is cut down in place."""
    first = 0
    while first < len(pieces):
        batch = pieces[first : first + most]
        done = writev(fd, batch.ctypes.data, len(batch))
        if done < 0:
            code = ctypes.get_errno()
            if code == errno.EINTR:
                continue
            raise OSError(code, os.strerror(code))
        ends = np.cumsum(batch[:, 1])
        whole = int(np.searchsorted(ends, done, side="right"))
        first += whole
        if whole < len(batch):
            cut = done - (int(ends[whole - 1]) if whole else 0)
            batch[whole, 0] += cut
            batch[whole, 1] -= cut


@dataclass(frozen=True)
class ExportedSystem:
    """Linear part of the hyperplane-section system in Plucker coordinates.

    One row per column j and per (r+1)-subset phi of its support, over the
    lexicographic subset order, each with r+1 cells: ``columns`` holds their
    coordinate positions, increasing along the row, and ``values`` their
    coefficients, as read-only (rows, r+1) arrays. ``origins`` is the
    read-only (rows, r+2) integer array of each row's origin, 0-based: its
    column j, then the r+1 rows of phi. These and ``m`` are derived from
    ``obs`` and r, never accepted, so every position ``write_csv`` turns into
    an address comes from a checked pattern; pickle and copy carry (obs, r)
    and derive them again. ``matrix`` is the dense view for tests, built on
    each access. The Grassmannian's quadratic relations are not included.
    """

    obs: ObservedMatrix
    r: int
    __setstate__ = _restore

    def __getstate__(self) -> dict:
        return {"obs": self.obs, "r": self.r}

    def __post_init__(self) -> None:
        """Read r by ``operator.index``, derive ``m`` and the three arrays; raise as ``export_plucker_system`` does."""
        pattern, r = self.obs.pattern, operator.index(self.r)
        coords = _coordinate_count(pattern.m, r)
        supports = pattern.column_supports()
        counts = [math.comb(len(omega), r + 1) for omega in supports]
        rows = sum(counts)
        size = coords * (4 * rows + 3 * r)
        if size > MAX_EXPORT_BYTES:
            raise ValueError(
                f"{rows} rows over {coords} coordinates need at least {size} bytes of "
                f"CSV and index map, more than the supported {MAX_EXPORT_BYTES}"
            )
        origins = np.empty((rows, r + 2), dtype=np.int64)
        js, phis = origins[:, 0], origins[:, 1:]
        js[:] = np.repeat(np.arange(pattern.n), counts)
        subsets = itertools.chain.from_iterable(itertools.combinations(omega, r + 1) for omega in supports)
        flat = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.int64, count=phis.size)
        phis[:] = flat.reshape(phis.shape)
        # dropping a later element of phi leaves an earlier subset, so k runs down
        drop = np.arange(r, -1, -1)
        columns = _lex_rank(np.stack([np.delete(phis, k, axis=1) for k in drop], axis=1), pattern.m)
        # the value at row phi_k of column j, signed (-1)^k
        values = _dense_values(self.obs)[phis[:, drop], js[:, None]] * np.where(drop % 2, -1.0, 1.0)
        for array in (columns, values, origins):
            array.setflags(write=False)
        vars(self).update(r=r, m=pattern.m, columns=columns, values=values, origins=origins)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.origins), math.comb(self.m, self.r)

    @property
    def matrix(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.put_along_axis(dense, self.columns, self.values, axis=1)
        return dense

    @property
    def subsets(self) -> Iterator[tuple[int, ...]]:
        """The C(m, r) coordinate subsets in lexicographic order, built on each access."""
        return itertools.combinations(range(self.m), self.r)

    def write_csv(self, fh: BinaryIO) -> None:
        """Write the matrix to a binary file as dense CSV, one ``\\n``-ended line per
        row, every cell ``repr(float)``.

        Zeros print as ``0.0`` and signed zeros keep their sign (``-0.0``). The
        coefficients are signed observed values, so few are distinct: each
        distinct float64 bit pattern (which keeps ``-0.0`` apart from ``0.0``)
        is encoded once, into one table of their bytes. A line of ``0.0``
        cells is built once, twice over, so that a row's last run of zeros and
        the next row's first run are one piece of it. The rows go out a chunk
        of at most ``_INDEX_CHUNK`` cells at a time, each chunk as one array
        of (offset, length) pieces, alternately in the zeros and in the table,
        built by index arithmetic (``_csv_pieces``). A file whose raw stream
        is a ``FileIO``, as ``open(path, "wb")`` gives, is flushed and takes
        the pieces by ``writev`` on its descriptor, with no Python object and
        no copy per piece (``_write_gathered``); any other binary sink, or a
        platform without ``writev``, takes them as ``memoryview`` slices, one
        ``writelines`` per chunk. The time is linear in the bytes written, and
        memory holds two lines, the table and one chunk's pieces.
        """
        width = self.r + 1
        bits = np.ascontiguousarray(self.values, dtype=np.float64).view(np.int64).ravel()
        patterns, inverse = np.unique(bits, return_inverse=True)
        cells = [repr(value).encode() for value in patterns.view(np.float64).tolist()]
        sizes = np.array([len(cell) for cell in cells], dtype=np.uintp)
        offsets = np.cumsum(sizes) - sizes
        inverse = inverse.reshape(-1, width)
        line = 4 * self.shape[1]
        zeros = (b"0.0," * (self.shape[1] - 1) + b"0.0\n") * 2
        table = b"".join(cells)
        raw = getattr(fh, "raw", fh)  # not a wrapper's descriptor: gzip.GzipFile has one too
        gather = _libc_writev() if isinstance(raw, io.FileIO) else None
        if gather is not None:
            fh.flush()
            fd = raw.fileno()
            bases = [np.frombuffer(buf, np.uint8).ctypes.data for buf in (zeros, table)]
        else:
            buffers = (memoryview(zeros), memoryview(table))
        step = max(1, _INDEX_CHUNK // width)
        for first in range(0, len(inverse), step):
            chunk = inverse[first : first + step]
            pieces = _csv_pieces(self.columns[first : first + step], offsets[chunk], sizes[chunk], line)
            if gather is not None:
                pieces[0::2, 0] += bases[0]
                pieces[1::2, 0] += bases[1]
                _write_gathered(*gather, fd, pieces)
            else:
                fh.writelines(
                    [buf[at : at + size] for buf, (at, size) in zip(itertools.cycle(buffers), pieces.tolist())]
                )

    def to_csv(self) -> str:
        out = io.BytesIO()
        self.write_csv(out)
        return out.getvalue().decode()

    def index_map(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "plucker_subsets": [[i + 1 for i in s] for s in self.subsets],
            "rows": [{"column": j, "phi": phi} for j, *phi in (self.origins + 1).tolist()],
        }

    def write_index_map(self, fh: TextIO) -> None:
        """Write ``json.dumps(self.index_map())`` to a text file, a block at a time.

        The coordinate subsets are built from the lexicographic levels
        (``plucker._lex_blocks``): the subsets with leading pair (a, b) are
        that pair followed by the last C(m-b-1, r-2) entries of level r-2, so
        only level r-2's item tails are held as strings and each leading
        pair's block is one write. The rows go out ``_INDEX_CHUNK`` at a time,
        each chunk of ``origins + 1`` formatted by one ``%`` over its ints;
        %d prints an int exactly as ``json.dumps`` does.
        """
        m, r = self.m, self.r
        fh.write(f'{{"m": {m}, "r": {r}, "plucker_subsets": [')
        if r == 1:
            fh.write(", ".join(f"[{a}]" for a in range(1, m + 1)))
        else:
            tails = [", %d" * (r - 2) % tail for tail in itertools.combinations(range(3, m + 1), r - 2)]
            separator = ""
            for a, _, _ in _lex_blocks(m, r, r):
                for b, _, count in _lex_blocks(m, r, r - 1):
                    if b > a:
                        head = f"[{a + 1}, {b + 1}"
                        fh.write(separator + head + f"], {head}".join(tails[-count:]) + "]")
                        separator = ", "
        fh.write('], "rows": [')
        row = '{"column": %d, "phi": [' + ", ".join(["%d"] * (r + 1)) + "]}"
        for first in range(0, len(self.origins), _INDEX_CHUNK):
            chunk = self.origins[first : first + _INDEX_CHUNK] + 1
            fh.write((", " if first else "") + ", ".join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))
        fh.write("]}")

    def index_map_json(self) -> str:
        out = io.StringIO()
        self.write_index_map(out)
        return out.getvalue()


def export_plucker_system(obs: ObservedMatrix, r: int) -> ExportedSystem:
    """Stack every section functional of the observed matrix into one system.

    The ground-truth column space's Plucker vector lies in the null space of
    the exported matrix; columns with exactly r observations contribute no
    rows.

    Raises:
        ValueError: (m, r) is not a supported coordinate space, or the dense
            CSV and the index map would pass ``MAX_EXPORT_BYTES``.
    """
    return ExportedSystem(obs, r)
