"""Exact tangent rank tests, completion from a known column space, and system export.

Completion checks every projection of the basis for nondegeneracy, which a
randomly drawn subspace passes with probability 1. The tangent rank tests
are exact: they take the rank over GF(p), p = 2^31 - 1, of the factorization
Jacobian at a random integer point, by block elimination, one column of the
mask at a time. Full rank there is full rank over the rationals, hence
generically, so one full-rank trial proves the bound. The (r+1)-core of the
mask bounds the rank at every point (``_jacobian_rank_bound``), computed
only once a trial falls short; where that bound is below the target, a
trial reaching it refutes exactly, and the test stops there. Otherwise a
deficient rank in t independent trials refutes with error at most
(d/p)^t, d the target rank (Schwartz-Zippel), t = ``plucker.TRIALS``.
The Jacobian test and the randomized SLMF test with its Hall-matroid bound
run their trials through one loop (``plucker.first_full_rank``), which
holds that one trial count. The section test runs no trial: the section
rank is the Jacobian rank minus r n, so it reads the Jacobian report at its
(r, seed), over the same range 1 <= r <= min(m, n).
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

from .patterns import ObservationPattern
from .plucker import (
    FIELD_PRIME,
    NotABasisError,
    SubspaceBasis,
    _coordinate_count,
    _lex_blocks,
    _lex_rank,
    _restore,
    first_full_rank,
    left_null_mod_p,
    rank_mod_p,
)

DEFAULT_RANK_TOL = 1e-9
CONSISTENCY_RTOL = 1e-6
# int64 cells of the tangent rank system, its point and its column order. The
# traced peak of a Jacobian test that passes in one trial is 2.4 times them on
# the largest benchmark mask (40 x 40, 12 rows per column, r = 5; 0.52 MB
# counted) and at 64 x 64 with the same k and r (1.26 MB counted).
MAX_TANGENT_BYTES = 1 << 26


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
        values = {(int(i), int(j)): float(v) for (i, j), v in self.values.items()}
        if values.keys() != self.pattern.entries:
            raise ValueError("values must be defined exactly on the observed entries")
        if not all(map(math.isfinite, values.values())):
            (i, j), v = next(item for item in values.items() if not math.isfinite(item[1]))
            raise ValueError(f"entry ({i}, {j}): non-finite value {v!r}")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_matrix(cls, X: np.ndarray, pattern: ObservationPattern) -> "ObservedMatrix":
        X = np.asarray(X, dtype=float)
        if X.shape != (pattern.m, pattern.n):
            raise ValueError(f"matrix shape {X.shape} does not match the pattern")
        rows, cols = _index_pairs(pattern.entries, pattern.size)
        return cls(pattern, dict(zip(pattern.entries, X[rows, cols].tolist())))


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
    return ObservedMatrix(ObservationPattern(len(cells), width, frozenset(values)), values)


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
    basis at the passing point (``_tangent_ranks``). It takes no part in
    comparisons. A ``grassmann_section_rank_test`` report is the Jacobian
    report at the same (r, seed) with r n taken off both ranks: its trials
    are the Jacobian test's.
    """

    tested_rank: int
    target: int
    trials: int
    indeterminate: int = 0
    row_basis: Optional[tuple[tuple[int, int], ...]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
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


def jacobian_rank_test(pattern: ObservationPattern, r: int, seed=0) -> RankReport:
    """Rank of the differential of the observed bilinear factorization map.

    The rank over GF(p) of the Jacobian of (A, C) -> observed entries of
    A @ C at random integer points (``_tangent_ranks``), through
    ``first_full_rank``: it stops at the target r(m+n-r) or at the
    (r+1)-core bound below it (``_jacobian_rank_bound``), and a pass carries
    the row basis of its passing trial. A rank of r(m+n-r) proves that the
    observed projection has full-dimensional image, the tangent criterion
    for generic finite completability.

    At an int seed the pattern object keeps the report, keyed by (r, seed),
    in one slot that ``grassmann_section_rank_test`` takes on its next call
    at that key. No other seed is kept: a ``SeedSequence`` is advanced by
    each call, and None draws fresh entropy.

    Raises:
        TypeError: r is not an integer (``operator.index``).
        TangentSizeError: the elimination would pass ``MAX_TANGENT_BYTES``.
    """
    r = operator.index(r)
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
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
    if isinstance(seed, int):
        pattern._shared["jacobian_report"] = ((r, seed), report)
    return report


def grassmann_section_rank_test(pattern: ObservationPattern, r: int, seed=0) -> RankReport:
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
    which it takes at an int seed, or else a fresh one, which it leaves
    nowhere. Full rank r(m-r) means the sections pin the subspace down to
    isolated points. At a point where some A[omega_j] drops rank the rank
    read is below that of S, so never a pass that S would lack.

    Raises:
        TypeError: r is not an integer (``operator.index``).
        SectionTestError: a column has fewer than r observed rows.
        TangentSizeError: the elimination would pass ``MAX_TANGENT_BYTES``.
    """
    r = operator.index(r)
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    for j, omega in enumerate(pattern.column_supports()):
        if len(omega) < r:
            raise SectionTestError(
                f"column {j + 1} has {len(omega)} observed rows, fewer than r={r}"
            )
    left = pattern._shared.pop("jacobian_report", None)
    if type(seed) is int and left is not None and left[0] == (r, seed):
        jacobian = left[1]
    else:
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


def _check_tangent_size(pattern: ObservationPattern, r: int) -> int:
    """Refuse, before allocating, a mask whose elimination passes ``MAX_TANGENT_BYTES``.

    Counted: the section rows, the per-column eliminations, the point (A, C),
    and ``rank_mod_p``'s nonzero counts and column order over the m r columns.
    Returns the bytes counted.
    """
    m = pattern.m
    sizes = [len(omega) for omega in pattern.column_supports()]
    cells = sum(max(k - r, 0) * m * r + k * (k + r) for k in sizes) + 3 * m * r + r * pattern.n
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

    A (m x r) and C (r x n) are drawn uniformly from range(p). The rows of J
    for column j hold A[omega_j] in the coordinates of c_j, which no other
    column's rows touch, so eliminating that block leaves r pivot rows and
    the section rows N_j (x) c_j: entry (s, i r + b) is N_j[s, i] C[b, j],
    with N_j the left null vectors of A[omega_j]. Hence rank J = sum_j
    rank A[omega_j] + rank S. Columns of equal support size share one
    batched elimination, and their rows of S are written in place into one
    array allocated for every column's rows, size after size. Every row of S annihilates D = A G (N_j A[omega_j]
    = 0). So for any r rows P with A[P] invertible, the r^2 columns of D's
    rows P are combinations of the other columns of S, and leaving them out
    of its elimination keeps its column space, hence its rank and its row
    rank profile. P is taken from a block already eliminated: the pivot
    rows of the first full-rank column with r rows or more. A column
    where A[omega_j] drops rank is left out with all its rows, so both ranks
    stay exact ranks of a row subset of J, never above the generic ones.

    The row basis, an (r(m+n-r), 2) array of (i, j), is built only at full
    rank (``_row_basis``); otherwise the third item is None.
    """
    m = pattern.m
    A = rng.integers(0, FIELD_PRIME, size=(m, r))
    C = rng.integers(0, FIELD_PRIME, size=(r, pattern.n))
    supports = pattern.column_supports()
    sizes = np.array([len(omega) for omega in supports])
    column_ranks = filled = 0
    S = np.zeros((int(np.maximum(sizes - r, 0).sum()), m, r), dtype=np.int64)
    eliminated = []  # (columns, supports, row orders) of each size's full-rank columns
    gauge = None  # r rows P of A with A[P] invertible
    for k in sorted(set(sizes.tolist()) - {0}):
        cols = np.flatnonzero(sizes == k)
        omega = np.array([supports[j] for j in cols])
        null, full, order = left_null_mod_p(A[omega])
        column_ranks += min(k, r) * int(full.sum())
        null, cols, omega, order = null[full], cols[full], omega[full], order[full]
        eliminated.append((cols, omega, order))
        if gauge is None and k >= r and cols.size:
            gauge = omega[0, order[0, :r]]
        if k > r:  # this size's rows of S, written in place after the sizes before it
            block = S[filled : filled + len(omega) * (k - r)].reshape(len(omega), k - r, m, r)
            block[np.arange(len(omega))[:, None, None], np.arange(k - r)[:, None], omega[:, None]] = (
                null[..., None] * C[:, cols].T[:, None, None] % FIELD_PRIME
            )
            filled += len(omega) * (k - r)
    rows = S[:filled].reshape(filled, m * r)
    if gauge is not None:  # D[P]'s r^2 columns add no rank; zeroed, rank_mod_p leaves them out
        rows[:, (r * gauge[:, None] + np.arange(r)).ravel()] = 0
    section, pivots = rank_mod_p(rows)
    jacobian = column_ranks + section
    if jacobian < r * (m + pattern.n - r):
        return jacobian, section, None
    return jacobian, section, _row_basis(eliminated, r, pivots)


def _row_basis(
    eliminated: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], r: int, pivots: np.ndarray
) -> np.ndarray:
    """The entries (i, j) of a row basis of J, from the eliminations of ``_tangent_ranks``.

    Per column j of full rank: the rows of ``order[:r]``, which pivot
    A[omega_j]. Per pivot row of S: its column's row ``order[r + s]``, the
    one non-pivot row its null vector N_j[s] carries (``left_null_mod_p``).
    Those rows of J span each column's pivot rows and, as N_j[s] is
    supported on the pivots and that row, every pivot row of S, which is a
    row basis of S (``rank_mod_p``): so they span r per column plus rank S
    dimensions, as many as they are, and are a row basis of J.
    """
    pivot_entries, section_entries = [], [np.zeros((0, 2), dtype=np.int64)]
    for cols, omega, order in eliminated:
        rows = np.take_along_axis(omega, order, axis=1)  # each column's rows in elimination order
        k = rows.shape[1]
        pivot_entries.append(np.stack([rows[:, :r].ravel(), np.repeat(cols, min(k, r))], axis=1))
        if k > r:  # S's rows, in the order its blocks were stacked
            section_entries.append(np.stack([rows[:, r:].ravel(), np.repeat(cols, k - r)], axis=1))
    return np.concatenate(pivot_entries + [np.concatenate(section_entries)[pivots]])


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
        """Derive ``m`` and the three arrays; raises as ``export_plucker_system`` does."""
        pattern, r = self.obs.pattern, self.r
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
        vars(self).update(m=pattern.m, columns=columns, values=values, origins=origins)

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
