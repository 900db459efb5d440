"""Plucker coordinates of linear subspaces, and the exact kernels of the rank tests.

The module holds a subspace basis, read as float64 and rank-checked once,
the float Plucker coordinates of a basis (a Laplace recursion, run on the
orthogonal complement from numpy's QR where r > m/2), and the two
eliminations over GF(p) and the randomized rank loop of ``TRIALS`` trials
that the tangent tests (``numerics``) and the linkage-support oracle
(``slmf``) run. Conventions, fixed once and used everywhere:

* r-subsets of ``range(m)`` are ordered lexicographically on their sorted
  elements; a Plucker vector stores one coordinate per subset in that order.
* The coordinate at subset ``psi`` of a basis ``B`` is the determinant of the
  row-submatrix ``B[psi]`` with rows taken in increasing order.
* The dual correspondence maps the coordinate at ``psi`` to the coordinate of
  the orthogonal complement at the complementary subset, multiplied by the
  sign of the permutation that sorts the concatenation (psi, complement).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

MAX_AMBIENT_DIM = 64
MAX_COORDINATES = 1 << 24
# the exact rank tests' field: a product of two residues stays below 2^62
FIELD_PRIME = (1 << 31) - 1
# the most random points an exact rank test tries; it refutes with error <= (d/p)^TRIALS
TRIALS = 5


class NotABasisError(ValueError):
    """The supplied matrix does not have full column rank, or not the data's row count."""


def _fields_equal(self, other) -> bool:
    """``==`` for the dataclasses that hold arrays: same type, equal fields, and
    arrays of equal shape and entries (the generated ``__eq__`` raises on arrays)."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def _restore(self, state: dict) -> None:
    """``__setstate__`` for the frozen value types: pickle and copy restore the state
    without ``__post_init__``, so it reruns here, and checks or derives it again."""
    self.__dict__.update(state)
    self.__post_init__()


def _coordinate_count(m: int, r: int) -> int:
    """C(m, r), once (m, r) is checked to be a supported coordinate space."""
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    if m > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {m} exceeds the supported {MAX_AMBIENT_DIM}")
    count = math.comb(m, r)
    if count > MAX_COORDINATES:
        raise ValueError(f"binomial({m},{r}) coordinates exceed the supported {MAX_COORDINATES}")
    return count


@lru_cache(maxsize=None)
def index_subsets(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All r-subsets of range(m), lexicographic; the global coordinate order.

    Cached for the life of the process, so the package itself streams
    ``itertools.combinations`` instead and leaves this table to callers. No
    module of the package reads it; it stays because the benchmark
    (``perfbench/run.py``) reports its cache misses on every run, and the
    two are to go together.
    """
    _coordinate_count(m, r)
    return tuple(itertools.combinations(range(m), r))


def _lex_rank(psi, m: int):
    """Lexicographic position of a sorted r-subset of range(m), or of each one along
    the last axis of an integer array; each C(m-1-p, r-k) < 2^63 at m <= 64."""
    r = np.shape(psi)[-1]
    after = np.array([[math.comb(m - 1 - p, r - k) for p in range(m)] for k in range(r)])
    return math.comb(m, r) - 1 - after[np.arange(r), psi].sum(axis=-1)


def _lex_blocks(m: int, r: int, k: int) -> Iterator[tuple[int, int, int]]:
    """The level-k blocks ``(a, start, count)`` of the lexicographic family.

    Level k lists the k-subsets of range(r-k, m) in lexicographic order. Those
    starting at row a fill the contiguous block [start, start + count); each is
    row a joined to one of the last ``count`` entries of level k-1, in order.
    """
    start = 0
    for a in range(r - k, m - k + 1):
        count = math.comb(m - a - 1, k - 1)
        yield a, start, count
        start += count


def _laplace_minors(mat: np.ndarray) -> np.ndarray:
    """All r x r row minors of an m x r float matrix, lexicographic, by Laplace expansion.

    Level k is one (C(r, k), C(m-r+k, k)) array P_k: column t holds the k x k
    minors of the t-th level-k row subset (``_lex_blocks``), one per k-set of
    columns in lexicographic order, and memory holds one level and the next.
    A level-k minor expands along its first row a into minors of level k-1,
    so the block of row a is one BLAS product ``W_a @ P_{k-1}[:, -count:]``,
    where W_a holds row a's entries, signed, at (k-set, (k-1)-set) pairs that
    differ by one column: (r-1)(m-r+1) products in all. Each level builds
    once the table of every row's signed entries, an (m, C(r, k), k) array,
    and the pairs W_a fills; a block then refills one W from the table.
    """
    m, r = mat.shape
    prev = mat[r - 1 :].T.copy()
    for k in range(2, r + 1):
        sets = np.array(list(itertools.combinations(range(r), k)))
        # term i of the minor on column set s: (-1)^i B[a, sets[s, i]] times
        # the level k-1 minor on the column set sub[s, i] = sets[s] minus sets[s, i]
        sub = _lex_rank(np.stack([np.delete(sets, i, axis=1) for i in range(k)], axis=1), r)
        terms = mat[:, sets] * np.where(np.arange(k) % 2, -1, 1)
        at = np.arange(len(sets))[:, None], sub
        W = np.zeros((len(sets), len(prev)))
        cur = np.empty((len(sets), math.comb(m - r + k, k)))
        for a, start, count in _lex_blocks(m, r, k):
            W[at] = terms[a]
            np.matmul(W, prev[:, -count:], out=cur[:, start : start + count])
        prev = cur
    return prev[0]


def _subset_sum_parity(m: int, r: int) -> np.ndarray:
    """Parity of the element sum of each r-subset of range(m), lexicographic."""
    prev = np.arange(r - 1, m) % 2 == 1
    for k in range(2, r + 1):
        cur = np.empty(math.comb(m - r + k, k), dtype=bool)
        for a, start, count in _lex_blocks(m, r, k):
            np.logical_xor(prev[-count:], a % 2, out=cur[start : start + count])
        prev = cur
    return prev


def left_null_mod_p(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left null vectors over GF(``FIELD_PRIME``) of a stack of k x r matrices.

    ``A`` is a (b, k, r) int64 array with entries in range(p). Each matrix,
    augmented by the k x k identity, is eliminated on its first min(k, r)
    columns with the division-free update ``row <- piv * row - f * pivot_row``,
    all b at once. Column t's pivot is the first row from t on nonzero there,
    swapped into row t. Rows are searched and exchanged only in a step where
    some member's diagonal entry is zero: elsewhere that row is row t, so
    the exchange would move nothing, and at a generic point no step needs
    one. Returns the identity part of the k - min(k, r) rows left over, a
    (b, k - min(k, r), k) array whose rows N satisfy N A = 0; a (b,) bool
    array: whether every one of those columns found a pivot; and the (b, k)
    row order the swaps made, row t of the elimination being row
    ``order[t]`` of A. Where every column found a pivot, A has rank
    min(k, r): the rows ``order[:min(k, r)]`` are its pivot rows, and for
    k >= r the rows of N span its left null space, null vector s being
    supported on the pivot rows and on row ``order[min(k, r) + s]``, with a
    nonzero coefficient there (a product of pivots). Elsewhere N is
    meaningless.
    """
    p = FIELD_PRIME
    b, k, r = A.shape
    steps = min(k, r)
    M = np.concatenate([A, np.eye(k, dtype=np.int64)[None].repeat(b, axis=0)], axis=2)
    order = np.arange(k)[None].repeat(b, axis=0)
    full = np.ones(b, dtype=bool)
    batch = np.arange(b)
    for t in range(steps):
        if not M[:, t, t].all():
            nonzero = M[:, t:, t] != 0
            full &= nonzero.any(axis=1)
            pivot = t + nonzero.argmax(axis=1)
            row = M[batch, pivot]
            M[batch, pivot] = M[:, t]
            M[:, t] = row
            moved = order[batch, pivot]
            order[batch, pivot] = order[:, t]
            order[:, t] = moved
        row = M[:, t]
        below = M[:, t + 1 :, t:]
        below[...] = (row[:, None, t : t + 1] * below - below[:, :, :1] * row[:, None, t:]) % p
    return M[:, steps:, r:], full, order


def rank_mod_p(M: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank over GF(``FIELD_PRIME``) of an int64 matrix with entries in range(p), and its pivot rows.

    Column by column, the first row nonzero there becomes the pivot row, and
    the later rows nonzero there take the division-free update
    ``row <- piv * row - f * pivot_row`` on one gathered block from that
    column on, reduced mod p by floor division (each product is below 2^62,
    so int64 is exact); the pivot row's tail is then zeroed, so no later
    column picks it. A row only takes multiples of earlier rows, so the
    pivot rows, returned in increasing order, are the row rank profile: row
    i is one iff it is not in the span of rows 0..i-1, the lexicographically
    first row basis, whatever the column order. All-zero columns are left
    out; the others, in a column-contiguous copy, go by increasing nonzero
    count only to keep the fill-in small, which on the gauge-fixed section
    rows of 40 x 40 masks with 12 rows per column at r = 5 (five seeds) cuts
    the cells updated from 1.8-2.2 to 0.4-0.6 million.
    """
    p = FIELD_PRIME
    counts = np.count_nonzero(M, axis=0)
    filled = np.flatnonzero(counts)
    M = M.T[filled[np.argsort(counts[filled], kind="stable")]].T
    pivots = []
    for c in range(M.shape[1]):
        if len(pivots) == M.shape[0]:
            break
        rows = M[:, c].nonzero()[0]
        if not rows.size:
            continue
        pivots.append(rows[0])
        block = M[rows, c:]
        pivot, tail = block[0], block[1:]
        update = tail[:, :1] * pivot
        tail *= pivot[0]
        tail -= update
        np.floor_divide(tail, p, out=update)
        update *= p
        tail -= update
        pivot[:] = 0
        M[rows, c:] = block
    return len(pivots), np.sort(np.array(pivots, dtype=np.intp))


def first_full_rank(
    rank_at: Callable[[np.random.Generator], int], target: int, seed, *, bound: Callable[[], int]
) -> tuple[int, int]:
    """Best of ``rank_at`` over up to ``TRIALS`` random points, and the trials run.

    Trial t draws from the t-th child ``SeedSequence.spawn`` splits from
    ``seed``, spawned as the trial starts, so a test that stops early spawns
    no child it does not use. A ``SeedSequence`` the caller passed in is
    then advanced past all ``TRIALS`` children, as if each had been spawned,
    so what the caller spawns from it next does not depend on where the test
    stopped. ``target`` is the rank to prove; ``bound()`` returns an upper
    bound on the rank at every point, and it is called at most once, after
    the first trial that falls short of ``target``. The loop stops at the
    first trial whose rank reaches ``target``, or ``bound()`` where that is
    less. A rank at a point never passes the generic one, so reaching
    ``target`` proves the generic rank equals it, and reaching a bound below
    ``target`` proves it falls short, exactly. Falling short of both in
    every trial leaves the generic rank below ``target`` up to the
    Schwartz-Zippel error. Only a trial at ``target`` is a pass.
    """
    owned = not isinstance(seed, np.random.SeedSequence)
    if owned:
        seed = np.random.SeedSequence(seed)
    best, ceiling = 0, target
    for run in range(1, TRIALS + 1):
        best = max(best, rank_at(np.random.default_rng(seed.spawn(1)[0])))
        if run == 1 and best < target:
            ceiling = min(bound(), target)
        if best >= ceiling:
            break
    if not owned:
        seed.spawn(TRIALS - run)
    return best, run


@dataclass(frozen=True)
class SubspaceBasis:
    """An m-by-r matrix with finite entries and linearly independent columns,
    read once from any real input as a new, read-only float64 array. Text,
    even text that spells a number, is not a real input."""

    matrix: np.ndarray
    __eq__ = _fields_equal
    __setstate__ = _restore

    def __post_init__(self) -> None:
        try:
            mat = np.asarray(self.matrix)
            if np.iscomplexobj(mat):
                raise TypeError("complex entries")
            if mat.dtype.kind in "SU" or mat.dtype == object and any(isinstance(v, (str, bytes)) for v in mat.flat):
                raise TypeError("text entries")
            mat = mat.astype(float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise NotABasisError(f"not a basis: entries must be real numbers in float64 range ({exc})") from exc
        if mat.ndim != 2 or min(mat.shape) < 1:
            raise NotABasisError("not a basis: expected a nonempty m x r matrix")
        if not np.isfinite(mat).all():
            raise NotABasisError("not a basis: entries must be finite")
        rank = int(np.linalg.matrix_rank(mat))
        if rank != mat.shape[1]:
            raise NotABasisError(f"not a basis: column rank {rank} < {mat.shape[1]}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def r(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class PluckerVector:
    """Projective coordinate vector indexed by the r-subsets of range(m).

    The coordinates are read-only. The constructor copies what a caller
    passes in, so later writes to the caller's array leave the vector as it
    was; ``plucker_of_basis`` hands over the array its kernel just wrote,
    which no caller holds, through ``_owning``, without a copy.
    """

    r: int
    m: int
    coords: np.ndarray
    __eq__ = _fields_equal
    __setstate__ = _restore

    def __post_init__(self) -> None:
        self._keep(np.array(self.coords))

    @classmethod
    def _owning(cls, r: int, m: int, coords: np.ndarray) -> "PluckerVector":
        """The vector over ``coords``, an array no caller holds, kept as it is."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "r", r)
        object.__setattr__(vector, "m", m)
        vector._keep(coords)
        return vector

    def _keep(self, coords: np.ndarray) -> None:
        expected = _coordinate_count(self.m, self.r)
        if coords.shape != (expected,):
            raise ValueError(f"expected {expected} coordinates, got shape {coords.shape}")
        if not coords.any():
            raise ValueError("all coordinates are zero")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


def plucker_of_basis(basis: SubspaceBasis) -> PluckerVector:
    """All r x r row minors of the basis, in global subset order, in float64.

    Every minor comes from ``_laplace_minors``, which builds no subset table
    and keeps one level of the recursion and the next. To hold those at most
    2^(m/2) column sets, a basis with r > m - r is first traded for its
    (m-r)-dimensional orthogonal complement (``_minors_by_complement``).
    The vector owns, read-only and uncopied, the array its kernel wrote.
    """
    m, r = basis.matrix.shape
    _coordinate_count(m, r)
    coords = _laplace_minors(basis.matrix) if 2 * r <= m else _minors_by_complement(basis.matrix)
    return PluckerVector._owning(r, m, coords)


def _minors_by_complement(mat: np.ndarray) -> np.ndarray:
    """All r x r row minors of an m x r float matrix, read off its complement.

    The complete QR factorization B = Q R gives the minors of B as det R[:r]
    = prod(diag R) times those of Q[:, :r]. As Q is orthogonal, Jacobi's
    complementary-minor identity takes the minor of Q[:, :r] at rows I to
    det Q times the signed minor of Q[:, r:] at the other rows: the dual of
    the complement's minors, with (-1)^(r(m-r)) to turn the order (I^c, I)
    that ``_dual_coords`` sorts into (I, I^c).
    """
    m, r = mat.shape
    if r == m:
        return np.array([np.linalg.det(mat)])
    Q, R = np.linalg.qr(mat, mode="complete")
    dual = _dual_coords(_laplace_minors(Q[:, r:]), m, m - r)
    dual *= (-1) ** (r * (m - r)) * np.linalg.det(Q) * np.prod(np.diag(R))
    return dual


def _dual_coords(coords: np.ndarray, m: int, r: int) -> np.ndarray:
    """The complement's coordinates from ``coords``, in one new array."""
    # the t-th r-subset's complement is the (N-1-t)-th (m-r)-subset, and
    # sorting (psi, complement) takes sum(psi) - r(r-1)/2 transpositions
    odd = _subset_sum_parity(m, r) ^ bool(r * (r - 1) // 2 % 2)
    dual = coords[::-1].copy()
    np.negative(dual, out=dual, where=odd[::-1])
    return dual
