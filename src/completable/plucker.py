"""Plucker coordinates of linear subspaces and the sparse dual bases they induce.

Conventions, fixed once and used everywhere:

* r-subsets of ``range(m)`` are ordered lexicographically on their sorted
  elements; a Plucker vector stores one coordinate per subset in that order.
* The coordinate at subset ``psi`` of a basis ``B`` is the determinant of the
  row-submatrix ``B[psi]`` with rows taken in increasing order.
* The dual correspondence maps the coordinate at ``psi`` to the coordinate of
  the orthogonal complement at the complementary subset, multiplied by the
  sign of the permutation that sorts the concatenation (psi, complement).
* In the sparse dual basis induced by an (r+1)-subset ``phi``, the entry at
  the i-th smallest element of ``phi`` carries the sign (-1)**i (0-based i),
  i.e. signs alternate starting at plus.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from .patterns import _is_int

if TYPE_CHECKING:  # pragma: no cover
    from .slmf import Slmf

MAX_AMBIENT_DIM = 64
MAX_COORDINATES = 1 << 24
_JSON_CHUNK = 4096  # coordinates per formatting step of ``plucker_to_json``
# the exact rank tests' field: a product of two residues stays below 2^62
FIELD_PRIME = (1 << 31) - 1
# float coordinates closer to 0 than this share of the largest one count as 0
COORDINATE_RTOL = 1e-9


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
    """``__setstate__`` for the same dataclasses: pickle and copy restore the fields
    without ``__post_init__``, so it runs here, and checks and freezes them again."""
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
    ``itertools.combinations`` instead and leaves this table to callers.
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
    """All r x r row minors of an m x r matrix, lexicographic, by Laplace expansion.

    Level k is one (C(r, k), C(m-r+k, k)) array P_k: column t holds the k x k
    minors of the t-th level-k row subset (``_lex_blocks``), one per k-set of
    columns in lexicographic order, and memory holds one level and the next.
    A level-k minor expands along its first row a into minors of level k-1.
    For float input the block of row a is one BLAS product
    ``W_a @ P_{k-1}[:, -count:]``, where W_a holds row a's entries, signed,
    at (k-set, (k-1)-set) pairs that differ by one column: (r-1)(m-r+1)
    products in all. BLAS serves only floats, so other dtypes add up the k
    terms of the block, each row a's entry per column set times a gather of
    P_{k-1}[:, -count:], over all column sets at once. The dtype is kept, so
    object arrays of ints and Fractions stay exact.
    """
    m, r = mat.shape
    blas = mat.dtype == np.float64
    prev = mat[r - 1 :].T.copy()
    for k in range(2, r + 1):
        sets = np.array(list(itertools.combinations(range(r), k)))
        # term i of the minor on column set s: (-1)^i B[a, sets[s, i]] times
        # the level k-1 minor on the column set sub[s, i] = sets[s] minus sets[s, i]
        sub = _lex_rank(np.stack([np.delete(sets, i, axis=1) for i in range(k)], axis=1), r)
        sign = np.where(np.arange(k) % 2, -1, 1)
        W = np.zeros((len(sets), len(prev)))
        cur = np.empty((len(sets), math.comb(m - r + k, k)), dtype=mat.dtype)
        for a, start, count in _lex_blocks(m, r, k):
            entries = sign * mat[a, sets]
            if blas:
                W[np.arange(len(sets))[:, None], sub] = entries
                np.matmul(W, prev[:, -count:], out=cur[:, start : start + count])
                continue
            seg = cur[:, start : start + count]
            np.multiply(prev[sub[:, 0], -count:], entries[:, :1], out=seg)
            for i in range(1, k):
                seg += prev[sub[:, i], -count:] * entries[:, i : i + 1]
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


def _is_exact_array(a: np.ndarray) -> bool:
    return a.dtype == object or np.issubdtype(a.dtype, np.integer)


def _gauss_jordan(a: np.ndarray) -> tuple[list[int], object]:
    """Gauss-Jordan elimination of a float or Fraction matrix, in place.

    Step i swaps the row holding the largest remaining entry in absolute value
    (complete pivoting) into row i, scales that row so the entry is 1, and
    clears its column in every other row; it stops when the rows from i on
    are all zero. Returns the pivot columns in step order, as many as the
    rank, and the product of the pivots, negated per row exchange: for as
    many pivot columns p as rows, ``det a[:, p]``, exact for Fractions.
    """
    n, m = a.shape
    pivots, det = [], 1
    for i in range(n):
        k, j = divmod(int(np.argmax(np.abs(a[i:]))), m)
        if not a[i + k, j]:
            break
        if k:
            a[[i, i + k]] = a[[i + k, i]]
            det = -det
        det = det * a[i, j]
        a[i] = a[i] / a[i, j]
        for t in range(n):
            if t != i:
                a[t] = a[t] - a[t, j] * a[i]
        pivots.append(j)
    return pivots, det


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
    rank_at: Callable[[np.random.Generator], int],
    target: int,
    trials: int,
    seed,
    *,
    bound: Callable[[], int],
) -> tuple[int, int]:
    """Best of ``rank_at`` over up to ``trials`` random points, and the trials run.

    Trial t draws from the t-th child ``SeedSequence.spawn`` splits from
    ``seed``, spawned as the trial starts, so a test that stops early spawns
    no child it does not use. A ``SeedSequence`` the caller passed in is
    then advanced past all ``trials`` children, as if each had been spawned,
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    owned = not isinstance(seed, np.random.SeedSequence)
    if owned:
        seed = np.random.SeedSequence(seed)
    best, ceiling = 0, target
    for run in range(1, trials + 1):
        best = max(best, rank_at(np.random.default_rng(seed.spawn(1)[0])))
        if run == 1 and best < target:
            ceiling = min(bound(), target)
        if best >= ceiling:
            break
    if not owned:
        seed.spawn(trials - run)
    return best, run


@dataclass(frozen=True)
class SubspaceBasis:
    """An m-by-r matrix with finite entries and linearly independent columns."""

    matrix: np.ndarray
    __eq__ = _fields_equal
    __setstate__ = _restore

    def __post_init__(self) -> None:
        mat = np.array(self.matrix)
        if mat.ndim != 2 or min(mat.shape) < 1:
            raise NotABasisError("not a basis: expected a nonempty m x r matrix")
        m, r = mat.shape
        if r > m:
            raise NotABasisError(f"not a basis: {r} columns cannot be independent in dimension {m}")
        if _is_exact_array(mat):
            rational = np.array([[Fraction(x) for x in row] for row in mat.tolist()], dtype=object)
            rank = len(_gauss_jordan(rational.T)[0])
        else:
            mat = mat.astype(float)
            if not np.isfinite(mat).all():
                raise NotABasisError("not a basis: entries must be finite")
            rank = int(np.linalg.matrix_rank(mat))
        if rank != r:
            raise NotABasisError(f"not a basis: column rank {rank} < {r}")
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
    was; the package's own builders (``plucker_of_basis``, ``dual_plucker``,
    ``plucker_from_json``) hand over the array they just wrote, which no
    caller holds, through ``_owning``, without a copy.
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

    @property
    def is_exact(self) -> bool:
        return _is_exact_array(self.coords)

    def coordinate(self, psi: Sequence[int]):
        """Value at the r-subset ``psi``."""
        key = tuple(sorted(int(i) for i in psi))
        if len(set(key)) != self.r or len(key) != self.r or key[0] < 0 or key[-1] >= self.m:
            raise ValueError(f"{tuple(psi)} is not an r-subset of range({self.m})")
        return self.coords[_lex_rank(key, self.m)]

    def __getitem__(self, psi: Sequence[int]):
        return self.coordinate(psi)

    def max_abs(self) -> float:
        if self.is_exact:
            return max(abs(c) for c in self.coords)
        return float(np.abs(self.coords).max())


def plucker_of_basis(basis: SubspaceBasis) -> PluckerVector:
    """All r x r row minors of the basis, in global subset order.

    Every minor comes from ``_laplace_minors``, which builds no subset table
    and keeps one level of the recursion and the next. To hold those at most
    2^(m/2) column sets, a basis with r > m - r is first traded for its
    (m-r)-dimensional orthogonal complement (``_minors_by_complement``).
    Integer or Fraction input is exact, and an integral coordinate is an int.
    The vector owns, read-only and uncopied, the array its kernel wrote.
    """
    mat = basis.matrix
    m, r = mat.shape
    _coordinate_count(m, r)
    exact = _is_exact_array(mat)
    if exact:
        mat = np.array([[_exact_number(x) for x in row] for row in mat.tolist()], dtype=object)
    coords = _laplace_minors(mat) if 2 * r <= m else _minors_by_complement(mat)
    if exact:
        for pos, c in enumerate(coords):
            if isinstance(c, Fraction) and c.denominator == 1:
                coords[pos] = int(c)
    return PluckerVector._owning(r, m, coords)


def _minors_by_complement(mat: np.ndarray) -> np.ndarray:
    """All r x r row minors of an m x r matrix, read off its complement.

    Gauss-Jordan elimination on the transpose (``_gauss_jordan``) picks rows
    I with B[I] invertible and gives B' = B B[I]^-1, the identity on I and N
    on the other rows J. The columns of C with C[J] = identity and C[I] =
    -N^T span the orthogonal complement, so the dual of C's minors is
    proportional to the minors of B'. Those are 1 at I, and the minors of B
    are det B[I] times them: exact for object input (Fractions), from the
    elimination's pivots, and for floats from ``np.linalg.det``.
    """
    m, r = mat.shape
    exact = mat.dtype == object
    a = mat.T * (Fraction(1) if exact else 1.0)  # a copy; Fractions divide exactly
    pivots, det = _gauss_jordan(a)
    rows = sorted(pivots)
    a = a[np.argsort(pivots)]
    if exact:  # the pivot product is det B[pivots]; sorting the rows flips it once per inversion
        det *= (-1) ** sum(p > q for p, q in itertools.combinations(pivots, 2))
    else:
        det = np.linalg.det(mat[rows])
    if r == m:
        return np.array([det], dtype=mat.dtype)
    others = [i for i in range(m) if i not in pivots]
    comp = np.zeros((m, m - r), dtype=a.dtype)
    comp[others] = np.eye(m - r, dtype=int)
    comp[rows] = -a[:, others]
    dual = _dual_coords(_laplace_minors(comp), m, m - r)
    dual *= det * dual[_lex_rank(rows, m)]
    return dual


def _exact_number(x):
    """The entry as an exact number: ints stay ints, whose arithmetic is far
    cheaper than Fraction's; anything else becomes its exact Fraction."""
    return int(x) if isinstance(x, numbers.Integral) else Fraction(x)


def projection_nondegenerate(P: PluckerVector, psi: Sequence[int]) -> bool:
    """Whether the subspace keeps dimension r when projected onto ``psi``.

    True exactly when the coordinate at ``psi`` is nonzero; for float vectors
    "nonzero" means above ``COORDINATE_RTOL`` times the largest coordinate magnitude.
    """
    value = P.coordinate(psi)
    if P.is_exact:
        return value != 0
    return bool(abs(value) > COORDINATE_RTOL * P.max_abs())


def complement_sign(psi: Sequence[int], m: int) -> int:
    """Sign of the permutation sorting the concatenation (psi, complement)."""
    psi = tuple(sorted(psi))
    comp = [i for i in range(m) if i not in psi]
    inversions = sum(1 for p in psi for c in comp if p > c)
    return -1 if inversions % 2 else 1


def dual_plucker(P: PluckerVector) -> PluckerVector:
    """Plucker vector of the orthogonal complement, an (m-r)-subspace.

    The coordinate at the complement of ``psi`` is the signed coordinate at
    ``psi``; the output is defined up to overall scale, like every Plucker
    vector. Input vectors not arising from an actual subspace produce an
    undefined result (no decomposability test is attempted).
    """
    _coordinate_count(P.m, P.m - P.r)
    return PluckerVector._owning(P.m - P.r, P.m, _dual_coords(P.coords, P.m, P.r))


def _dual_coords(coords: np.ndarray, m: int, r: int) -> np.ndarray:
    """The complement's coordinates from ``coords``, in one new array."""
    # the t-th r-subset's complement is the (N-1-t)-th (m-r)-subset, and
    # sorting (psi, complement) takes sum(psi) - r(r-1)/2 transpositions
    odd = _subset_sum_parity(m, r) ^ bool(r * (r - 1) // 2 % 2)
    dual = coords[::-1].copy()
    np.negative(dual, out=dual, where=odd[::-1])
    return dual


def projectively_equal(P: PluckerVector, Q: PluckerVector) -> bool:
    """Whether two vectors agree up to a nonzero global scale factor; for float
    vectors, up to ``COORDINATE_RTOL`` times the largest scaled coordinate."""
    if (P.m, P.r) != (Q.m, Q.r):
        return False
    if P.is_exact and Q.is_exact:
        k = next(i for i, c in enumerate(P.coords) if c != 0)
        if Q.coords[k] == 0:
            return False
        return all(
            P.coords[k] * Q.coords[i] == Q.coords[k] * P.coords[i]
            for i in range(len(P.coords))
        )
    p = np.asarray(P.coords, dtype=float)
    q = np.asarray(Q.coords, dtype=float)
    k = int(np.argmax(np.abs(p)))
    if q[k] == 0:
        return False
    scale = q[k] / p[k]
    return bool(np.all(np.abs(q - scale * p) <= COORDINATE_RTOL * np.abs(scale) * np.abs(p).max()))


def evaluate_bphi(phi: "Slmf", P: PluckerVector) -> np.ndarray:
    """The dual-basis matrix induced by ``phi``, evaluated at a Plucker vector.

    Column j is supported on the rows of the j-th column support of ``phi``;
    its entry at the i-th smallest such row is (-1)**i times the coordinate at
    the support with that row removed. For a subspace avoiding the degenerate
    locus of ``phi``, the columns of the result form a basis of the orthogonal
    complement.
    """
    if (P.m, P.r) != (phi.m, phi.r):
        raise ValueError(
            f"dimension mismatch: vector is ({P.r},{P.m}), support is ({phi.r},{phi.m})"
        )
    out = np.zeros((phi.m, len(phi.columns)), dtype=P.coords.dtype)
    for j, col in enumerate(phi.columns):
        for i, row in enumerate(col):
            out[row, j] = (-1) ** i * P.coordinate(col[:i] + col[i + 1 :])
    return out


@dataclass(frozen=True)
class SectionFunctional:
    """Linear functional in Plucker coordinates cutting one hyperplane section.

    For an (r+1)-subset phi = {i_0 < ... < i_r} and values x on phi, the
    functional is  sum_k (-1)**k * x[i_k] * [phi minus i_k].  It vanishes at
    a subspace V (with nondegenerate projection onto phi) exactly when the
    projection of x onto phi lies in the projection of V.
    """

    phi: tuple[int, ...]
    terms: tuple[tuple[tuple[int, ...], float], ...]


def section_functional(phi: Sequence[int], x_values: Mapping[int, float]) -> SectionFunctional:
    phi = tuple(sorted(int(i) for i in phi))
    if len(set(phi)) != len(phi):
        raise ValueError(f"repeated indices in {phi}")
    missing = [i for i in phi if i not in x_values]
    if missing:
        raise ValueError(f"missing values at positions {missing}")
    terms = []
    for k, i in enumerate(phi):
        rest = tuple(x for x in phi if x != i)
        terms.append((rest, (-1) ** k * x_values[i]))
    return SectionFunctional(phi=phi, terms=tuple(terms))


def evaluate_section(functional: SectionFunctional, P: PluckerVector):
    if len(functional.phi) != P.r + 1:
        raise ValueError(
            f"functional on {len(functional.phi)} indices does not match r={P.r}"
        )
    return sum(value * P.coordinate(rest) for rest, value in functional.terms)


def gr24_relation_residual(P: PluckerVector):
    """Residual of the single quadratic relation cutting out Gr(2,4).

    Zero exactly on vectors of actual 2-dimensional subspaces of 4-space.
    """
    if (P.r, P.m) != (2, 4):
        raise ValueError(f"defined only for (r,m)=(2,4), got ({P.r},{P.m})")
    c = P.coordinate
    return c((0, 3)) * c((1, 2)) + c((0, 1)) * c((2, 3)) - c((0, 2)) * c((1, 3))


def plucker_to_json(P: PluckerVector) -> str:
    """Serialize as a JSON list of {subset, value} objects, 1-based, in order.

    The list carries every coordinate in the global lexicographic order, so
    the ambient dimension and the subset size are recoverable from it. The
    text is ``json.dumps`` of that list, formatted ``_JSON_CHUNK`` coordinates
    at a time: one ``json.dumps`` of a chunk's values writes each value as it
    would inside the list, and one ``%`` fills in the chunk's items.
    """
    item = '{"subset": [' + ", ".join(["%d"] * P.r) + '], "value": %s}'
    subsets = itertools.combinations(range(1, P.m + 1), P.r)
    parts = []
    for first in range(0, len(P.coords), _JSON_CHUNK):
        values = P.coords[first : first + _JSON_CHUNK].tolist()
        texts = json.dumps(values, default=_json_number)[1:-1].split(", ")
        chunk = zip(itertools.islice(subsets, len(texts)), texts)
        parts.append(", ".join([item] * len(texts)) % tuple(cell for psi, text in chunk for cell in (*psi, text)))
    return "[" + ", ".join(parts) + "]"


def _json_number(value):
    """A coordinate ``json`` cannot encode: a Fraction or numpy float as a float, a numpy int as an int."""
    return float(value) if isinstance(value, (Fraction, np.floating)) else operator.index(value)


def plucker_from_json(text: str) -> PluckerVector:
    """The vector ``plucker_to_json`` wrote, and nothing looser: every value a JSON
    number and every subset a list of JSON integers. Each item is decoded straight
    to a pair (subset, value), its keys in any order, and the subsets are checked
    as a stream."""
    items = json.loads(text, object_pairs_hook=_coordinate_item)
    if not isinstance(items, list) or not items or not all(type(item) is tuple for item in items):
        raise ValueError("expected a nonempty JSON list of {subset: integers, value: number} entries")
    first, last = items[0][0], items[-1][0]
    if not first or len(last) != len(first):
        raise ValueError("coordinate subsets are not the complete lexicographic family")
    r, m = len(first), max(last)  # the lex-last subset is the top r indices
    expected = itertools.combinations(range(1, m + 1), r)  # read after the count is checked
    if len(items) != _coordinate_count(m, r) or any(map(operator.ne, (subset for subset, _ in items), expected)):
        raise ValueError("coordinate subsets are not the complete lexicographic family")
    try:
        coords = np.fromiter((value for _, value in items), dtype=float, count=len(items))
    except OverflowError as exc:  # a JSON integer past the float range
        raise ValueError(f"coordinate value out of range: {exc}") from None
    return PluckerVector._owning(r, m, coords)


def _coordinate_item(pairs: list):
    """A decoded JSON object as the pair (subset, value) if it has both keys, a list
    of JSON integers and a JSON number, else as a dict, which the reader refuses; a
    subset list becomes a tuple, two thirds of its size at r = 5."""
    item = dict(pairs)
    subset, value = item.get("subset"), item.get("value")
    if type(subset) is not list or not all(map(_is_int, subset)) or type(value) not in (int, float):
        return item
    return tuple(subset), value
