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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .slmf import Slmf

MAX_AMBIENT_DIM = 64
MAX_COORDINATES = 1 << 24

_DET_BATCH = 1 << 14


class NotABasisError(ValueError):
    """The supplied matrix does not have full column rank."""


@lru_cache(maxsize=None)
def index_subsets(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All r-subsets of range(m), lexicographic; the global coordinate order."""
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    if m > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {m} exceeds the supported {MAX_AMBIENT_DIM}")
    if math.comb(m, r) > MAX_COORDINATES:
        raise ValueError(f"binomial({m},{r}) coordinates exceed the supported {MAX_COORDINATES}")
    return tuple(itertools.combinations(range(m), r))


@lru_cache(maxsize=None)
def subset_position(m: int, r: int) -> Mapping[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(index_subsets(m, r))}


def _is_exact_array(a: np.ndarray) -> bool:
    return a.dtype == object or np.issubdtype(a.dtype, np.integer)


def row_reduce(rows: Sequence[Sequence], p: int | None = None) -> tuple[int, object]:
    """Rank and determinant by Gaussian elimination over the rationals or GF(p).

    Entries are integers or Fractions. With ``p`` set, arithmetic is modulo
    that prime and the determinant is reduced into range(p); otherwise it is
    exact, an int when integral. The determinant is the signed product of the
    pivots, and 0 unless the matrix is square of full rank.
    """

    def reduce(x):
        return x if p is None else x % p

    def inverse(x):
        return 1 / x if p is None else pow(x, p - 2, p)

    mat = [[reduce(Fraction(x) if p is None else x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    det = 1
    for c in range(ncols):
        pivot = next((k for k in range(rank, nrows) if mat[k][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            det = -det
        det = reduce(det * mat[rank][c])
        inv = inverse(mat[rank][c])
        for k in range(rank + 1, nrows):
            f = reduce(mat[k][c] * inv)
            if f:
                mat[k] = [reduce(a - f * b) for a, b in zip(mat[k], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    if rank < nrows or nrows != ncols:
        det = 0
    if isinstance(det, Fraction) and det.denominator == 1:
        det = int(det)
    return rank, det


@dataclass(frozen=True)
class SubspaceBasis:
    """An m-by-r matrix with finite entries and linearly independent columns."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix)
        if mat.ndim != 2 or min(mat.shape) < 1:
            raise NotABasisError("not a basis: expected a nonempty m x r matrix")
        m, r = mat.shape
        if r > m:
            raise NotABasisError(f"not a basis: {r} columns cannot be independent in dimension {m}")
        if _is_exact_array(mat):
            rank, _ = row_reduce(mat.tolist())
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
    """Projective coordinate vector indexed by the r-subsets of range(m)."""

    r: int
    m: int
    coords: np.ndarray

    def __post_init__(self) -> None:
        expected = len(index_subsets(self.m, self.r))
        coords = np.asarray(self.coords)
        if coords.shape != (expected,):
            raise ValueError(f"expected {expected} coordinates, got shape {coords.shape}")
        if not any(bool(c != 0) for c in coords):
            raise ValueError("all coordinates are zero")
        coords = coords.copy()
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def is_exact(self) -> bool:
        return _is_exact_array(self.coords)

    def coordinate(self, psi: Sequence[int]):
        """Value at the r-subset ``psi``."""
        key = tuple(sorted(int(i) for i in psi))
        pos = subset_position(self.m, self.r).get(key)
        if pos is None or len(key) != self.r or len(set(key)) != self.r:
            raise ValueError(f"{tuple(psi)} is not an r-subset of range({self.m})")
        return self.coords[pos]

    def __getitem__(self, psi: Sequence[int]):
        return self.coordinate(psi)

    def max_abs(self) -> float:
        return max(abs(c) for c in self.coords)


def plucker_of_basis(basis: SubspaceBasis) -> PluckerVector:
    """All r x r row minors of the basis, in global subset order.

    Integer or Fraction input is handled exactly; float input uses batched
    numpy determinants.
    """
    mat = basis.matrix
    m, r = mat.shape
    subsets = index_subsets(m, r)
    if _is_exact_array(mat):
        rows = mat.tolist()
        coords = np.empty(len(subsets), dtype=object)
        for pos, psi in enumerate(subsets):
            _, coords[pos] = row_reduce([rows[i] for i in psi])
        return PluckerVector(r=r, m=m, coords=coords)
    idx = np.array(subsets, dtype=np.intp)
    out = np.empty(len(subsets))
    for start in range(0, len(subsets), _DET_BATCH):
        chunk = idx[start : start + _DET_BATCH]
        out[start : start + len(chunk)] = np.linalg.det(mat[chunk])
    return PluckerVector(r=r, m=m, coords=out)


def projection_nondegenerate(P: PluckerVector, psi: Sequence[int], rtol: float = 1e-9) -> bool:
    """Whether the subspace keeps dimension r when projected onto ``psi``.

    True exactly when the coordinate at ``psi`` is nonzero; for float vectors
    "nonzero" means above ``rtol`` times the largest coordinate magnitude.
    """
    value = P.coordinate(psi)
    if P.is_exact:
        return value != 0
    return bool(abs(value) > rtol * P.max_abs())


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
    m, r = P.m, P.r
    dual_pos = subset_position(m, m - r)
    coords = np.zeros(len(dual_pos), dtype=P.coords.dtype)
    for psi, value in zip(index_subsets(m, r), P.coords):
        comp = tuple(i for i in range(m) if i not in psi)
        coords[dual_pos[comp]] = complement_sign(psi, m) * value
    return PluckerVector(r=m - r, m=m, coords=coords)


def projectively_equal(P: PluckerVector, Q: PluckerVector, rtol: float = 1e-9) -> bool:
    """Whether two vectors agree up to a nonzero global scale factor."""
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
    return bool(np.all(np.abs(q - scale * p) <= rtol * np.abs(scale) * np.abs(p).max()))


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
    pos = subset_position(P.m, P.r)
    out = np.zeros((phi.m, len(phi.columns)), dtype=P.coords.dtype)
    for j, col in enumerate(phi.columns):
        for i, row in enumerate(col):
            out[row, j] = (-1) ** i * P.coords[pos[col[:i] + col[i + 1 :]]]
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
    pos = subset_position(P.m, P.r)
    return sum(value * P.coords[pos[rest]] for rest, value in functional.terms)


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
    the ambient dimension and the subset size are recoverable from it.
    """
    items = []
    for psi, value in zip(index_subsets(P.m, P.r), P.coords):
        if isinstance(value, (Fraction, np.floating)):
            value = float(value)
        elif isinstance(value, np.integer):
            value = int(value)
        items.append({"subset": [i + 1 for i in psi], "value": value})
    return json.dumps(items)


def plucker_from_json(text: str) -> PluckerVector:
    items = json.loads(text)
    if not isinstance(items, list) or not items:
        raise ValueError("expected a nonempty JSON list of {subset, value} entries")
    subsets = [tuple(int(i) - 1 for i in item["subset"]) for item in items]
    r = len(subsets[0])
    m = max(subsets[-1]) + 1  # the lex-last subset is the top r indices
    expected = index_subsets(m, r)
    if tuple(subsets) != expected:
        raise ValueError("coordinate subsets are not the complete lexicographic family")
    return PluckerVector(
        r=r, m=m, coords=np.array([float(item["value"]) for item in items])
    )
