import itertools
import math

import numpy as np
import pytest

from completable import (
    Certificate,
    Slmf,
    SlmfWitness,
    SubspaceBasis,
    parse_pattern,
    plucker_of_basis,
    random_pattern,
)
from completable.plucker import FIELD_PRIME, _lex_blocks, _lex_rank

# 6x5 mask, 18 observed entries, generically finitely completable at rank 2
GRID_6X5 = """\
10011
10110
10001
11110
11011
01010
"""

# 6x6 extension, 24 entries, generically uniquely completable at rank 2
GRID_6X6 = """\
101111
101101
101010
111100
110111
010101
"""

# (2,6) linkage supports used throughout the tests (0-based rows)
PHI_A = Slmf(m=6, r=2, columns=((0, 1, 2), (0, 1, 3), (0, 1, 4), (3, 4, 5)))
PHI_B = Slmf(m=6, r=2, columns=((1, 3, 5), (0, 1, 3), (0, 1, 4), (0, 2, 4)))
PHI_C = Slmf(m=6, r=2, columns=((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)))

REPEATED_COLUMNS = Slmf(
    m=6, r=2, columns=((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2))
)


@pytest.fixture
def pattern_6x5():
    return parse_pattern(GRID_6X5)


@pytest.fixture
def pattern_6x6():
    return parse_pattern(GRID_6X6)


def exact_size_trim(m, r, k, seed):
    """``random_pattern(m, m, k, seed=seed)`` trimmed to r(2m-r) entries, as
    perfbench's ``exact_size_pattern`` builds it: entries leave in a seeded
    order, skipping any whose column is already down to r entries."""
    pattern = random_pattern(m, m, k, seed=seed)
    entries = sorted(pattern.entries)
    counts = [len(w) for w in pattern.column_supports()]
    keep = set(entries)
    for idx in np.random.default_rng(seed).permutation(len(entries)):
        i, j = entries[idx]
        if len(keep) > r * (2 * m - r) and counts[j] > r:
            keep.discard((i, j))
            counts[j] -= 1
    return pattern.restrict(keep)


def reference_float_tangent_ranks(pattern, r, seed, tol=1e-9, gap=1e3):
    """Float SVD ranks of the dense factorization Jacobian J and of its section
    rows S at a standard-normal point, and whether every spectrum shows a gap.

    Row (i, j) of J holds C[:, j] at A's row i and A[i] at C's column j. S
    stacks N (x) c_j over each column j and each left null vector N of
    A[omega_j] (from the SVD). A rank counts the singular values above
    ``tol`` times the largest; the gap is clear when nothing was cut or the
    last kept value is ``gap`` times the first cut one.
    """
    rng = np.random.default_rng(seed)
    m, n = pattern.m, pattern.n
    A, C = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    J = np.zeros((pattern.size, r * (m + n)))
    for row, (i, j) in enumerate(pattern.sorted_entries()):
        J[row, i * r : (i + 1) * r] = C[:, j]
        J[row, (m + j) * r : (m + j + 1) * r] = A[i]
    S = [np.zeros(m * r)]
    for j, omega in enumerate(pattern.column_supports()):
        if len(omega) > r:
            for null in np.linalg.svd(A[list(omega)])[0][:, r:].T:
                lifted = np.zeros((m, r))
                lifted[list(omega)] = np.outer(null, C[:, j])
                S.append(lifted.ravel())
    ranks, clear = [], True
    for M in (np.vstack([J, np.zeros(J.shape[1])]), np.array(S)):  # a zero row keeps M nonempty
        s = np.linalg.svd(M, compute_uv=False)
        rank = int((s > tol * s[0]).sum())
        ranks.append(rank)
        clear &= rank in (0, s.size) or s[rank] == 0 or s[rank - 1] >= gap * s[rank]
    return ranks, clear


def reference_rank_report(pattern, r, part, seed):
    """A rank report from its own trials: ``first_full_rank`` over
    ``_tangent_ranks(...)[part]``, part 0 the Jacobian rank and 1 the rank of
    the section rows S alone, a direct elimination that the section test does
    not read, stopping at the (r+1)-core bound (minus r n for S) where it is
    below the target."""
    from completable import numerics
    from completable.plucker import first_full_rank

    target = r * (pattern.m - r) + (1 - part) * r * pattern.n
    rank, run = first_full_rank(
        lambda rng: numerics._tangent_ranks(pattern, r, rng)[part],
        target,
        seed,
        bound=lambda: numerics._jacobian_rank_bound(pattern, r) - part * r * pattern.n,
    )
    return numerics.RankReport(rank, target, trials=run)


def reference_coordinates(P):
    """A Plucker vector as a dict from each sorted r-subset to its coordinate, a float."""
    return dict(zip(itertools.combinations(range(P.m), P.r), P.coords.tolist()))


def reference_bphi(phi, P):
    """The paper's dual-basis matrix B_phi at the Plucker vector P.

    Column j is supported on the rows of the j-th column support of ``phi``;
    its entry at the i-th smallest such row is (-1)**i times the coordinate at
    the support with that row removed. For a subspace avoiding the degenerate
    locus of ``phi``, the columns span the orthogonal complement.
    """
    coordinate = reference_coordinates(P)
    out = np.zeros((phi.m, len(phi.columns)))
    for j, col in enumerate(phi.columns):
        for i, row in enumerate(col):
            out[row, j] = (-1) ** i * coordinate[col[:i] + col[i + 1 :]]
    return out


def reference_float_dual_basis_rank(phi, seed, tol=1e-9):
    """Float SVD rank of the paper's B_phi, evaluated at the Plucker vector of a
    standard-normal subspace; a rank counts the singular values above ``tol``
    times the largest."""
    basis = SubspaceBasis(np.random.default_rng(seed).standard_normal((phi.m, phi.r)))
    s = np.linalg.svd(reference_bphi(phi, plucker_of_basis(basis)), compute_uv=False)
    return int((s > tol * s[0]).sum()) if s[0] else 0


def reference_section_value(phi, x, P):
    """The hyperplane section of the sorted (r+1)-subset ``phi`` with values ``x``
    at P: sum_k (-1)**k x[phi_k] times the coordinate at phi minus phi_k. It
    vanishes at a subspace exactly when x restricted to phi lies in its projection
    onto phi (where that projection keeps dimension r)."""
    coordinate = reference_coordinates(P)
    return sum((-1) ** k * x[i] * coordinate[phi[:k] + phi[k + 1 :]] for k, i in enumerate(phi))


def reference_gr24_residual(P):
    """The one quadratic Plucker relation of 2-planes in 4-space, at a (2, 4)
    vector: zero exactly on the vectors of actual 2-dimensional subspaces."""
    c = reference_coordinates(P)
    return c[0, 3] * c[1, 2] + c[0, 1] * c[2, 3] - c[0, 2] * c[1, 3]


def reference_degenerate_projections(P, rtol=1e-9):
    """The r-subsets psi onto which the subspace loses dimension: those whose
    coordinate is at most ``rtol`` times the largest one in magnitude."""
    top = float(np.abs(P.coords).max())
    return [psi for psi, c in reference_coordinates(P).items() if abs(c) <= rtol * top]


def reference_complement_sign(psi, m):
    """Sign of the permutation sorting the concatenation (psi, complement)."""
    comp = [i for i in range(m) if i not in psi]
    return -1 if sum(p > c for p in psi for c in comp) % 2 else 1


def reference_dual_coords(coords, m, r):
    """The dual correspondence, subset by subset: the coordinate at each r-subset
    psi, times ``reference_complement_sign(psi, m)``, placed at its complement;
    a float array over the (m-r)-subsets in lexicographic order."""
    dual = {}
    for psi, value in zip(itertools.combinations(range(m), r), coords.tolist()):
        dual[tuple(i for i in range(m) if i not in psi)] = reference_complement_sign(psi, m) * value
    return np.array([dual[comp] for comp in itertools.combinations(range(m), m - r)])


def reference_complete_column(basis, omega, observed, rtol=1e-6):
    """One column completed on its own: least squares on ``omega`` through the
    SVD of B[omega], which also checks the rank, solved on the observations
    scaled to at most 1 and scaled back, then every observed entry checked."""
    from completable import DegenerateProjectionError, InconsistentObservationError
    from completable.numerics import DEFAULT_RANK_TOL

    omega = sorted(int(i) for i in omega)
    B = basis.matrix
    U, s, Vt = np.linalg.svd(B[omega], full_matrices=False)
    if s.size < basis.r or s[-1] <= DEFAULT_RANK_TOL * (s[0] if s.size else 0):
        raise DegenerateProjectionError("projection drops dimension")
    x_omega = np.array([observed[i] for i in omega])
    top = float(np.abs(x_omega).max()) or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        v = B @ (Vt.T @ (U.T @ (x_omega / top) / s)) * top
        if not np.isfinite(v).all():
            raise InconsistentObservationError("completed values overflow")
        scale = max(1.0, top, float(np.abs(v).max()))
        residual = float(np.abs(v[omega] - x_omega).max())
    if residual > rtol * scale:
        raise InconsistentObservationError(
            f"not in projected subspace (residual {residual:.3g})"
        )
    return v


def reference_export_csv(matrix):
    """Dense CSV of an exported system, formatted cell by cell."""
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_least_violator(masks, r):
    """Smallest, then lexicographically first, index tuple whose masks cover fewer
    than size + r rows, by ``itertools.combinations`` in increasing size; None if none."""
    for size in range(1, len(masks) + 1):
        for picked in itertools.combinations(range(len(masks)), size):
            union = 0
            for t in picked:
                union |= masks[t]
            if union.bit_count() < size + r:
                return picked
    return None


def _gauss_jordan(a: np.ndarray) -> list[int]:
    """Gauss-Jordan elimination of a float or rational matrix, in place.

    Step i swaps the row holding the largest remaining entry in absolute value
    (complete pivoting) into row i, scales that row so the entry is 1, and
    clears its column in every other row; it stops when the rows from i on
    are all zero. Returns the pivot columns in step order, as many as the
    rank. The tests run it over the rationals, where the rank is exact, as
    the oracle for ``rank_mod_p``.
    """
    n, m = a.shape
    pivots = []
    for i in range(n):
        k, j = divmod(int(np.argmax(np.abs(a[i:]))), m)
        if not a[i + k, j]:
            break
        if k:
            a[[i, i + k]] = a[[i + k, i]]
        a[i] = a[i] / a[i, j]
        for t in range(n):
            if t != i:
                a[t] = a[t] - a[t, j] * a[i]
        pivots.append(j)
    return pivots


def reference_rank_mod_p(M):
    """(rank, pivot rows) over GF(p) by the earlier kernel: a free-row mask,
    columns by increasing nonzero count, all-zero ones left out, and each
    column's first free nonzero row as the pivot, whose division-free update
    reaches the other free rows nonzero there, reduced by ``np.remainder``."""
    p = FIELD_PRIME
    counts = np.count_nonzero(M, axis=0)
    filled = np.flatnonzero(counts)
    M = M[:, filled[np.argsort(counts[filled], kind="stable")]]
    free = np.ones(M.shape[0], dtype=bool)
    rank = 0
    for c in range(M.shape[1]):
        if rank == M.shape[0]:
            break
        nonzero = np.flatnonzero(free & (M[:, c] != 0))
        if not nonzero.size:
            continue
        free[nonzero[0]] = False
        rank += 1
        rows = nonzero[1:]
        if rows.size:
            pivot = M[nonzero[0], c:]
            block = M[rows, c:]
            update = block[:, :1] * pivot
            block *= pivot[0]
            block -= update
            M[rows, c:] = np.remainder(block, p, out=block)
    return rank, np.flatnonzero(~free)


def reference_left_null_mod_p(A):
    """(null, full, order) over GF(p) by the earlier kernel: every step searches
    each member's column t from row t on for its first nonzero entry and swaps
    that row into row t, a no-op where row t is nonzero, then takes the
    division-free update."""
    p = FIELD_PRIME
    b, k, r = A.shape
    steps = min(k, r)
    M = np.concatenate([A, np.broadcast_to(np.eye(k, dtype=np.int64), (b, k, k))], axis=2)
    order = np.broadcast_to(np.arange(k), (b, k)).copy()
    full = np.ones(b, dtype=bool)
    batch = np.arange(b)
    for t in range(steps):
        nonzero = M[:, t:, t] != 0
        full &= nonzero.any(axis=1)
        pivot = t + nonzero.argmax(axis=1)
        row = M[batch, pivot]
        M[batch, pivot] = M[:, t]
        M[:, t] = row
        moved = order[batch, pivot]
        order[batch, pivot] = order[:, t]
        order[:, t] = moved
        below = M[:, t + 1 :, t:]
        below[...] = (row[:, None, t : t + 1] * below - below[:, :, :1] * row[:, None, t:]) % p
    return M[:, steps:, r:], full, order


def reference_tangent_ranks(pattern, r, rng):
    """``_tangent_ranks`` one column at a time with the earlier kernels, every
    column of S kept: no gauge columns are left out. Columns go by support
    size, then index, as the blocks do, so the row basis lists the same
    entries in the same order."""
    p = FIELD_PRIME
    m, n = pattern.m, pattern.n
    A = rng.integers(0, p, size=(m, r))
    C = rng.integers(0, p, size=(r, n))
    supports = pattern.column_supports()
    column_ranks, S, pivot_entries, section_entries = 0, [], [], []
    for j in sorted(range(n), key=lambda j: len(supports[j])):
        omega = np.array(supports[j], dtype=np.intp)
        if not omega.size:
            continue
        (null,), (full,), (order,) = reference_left_null_mod_p(A[None, omega])
        if not full:
            continue
        rows = omega[order]
        column_ranks += min(len(omega), r)
        pivot_entries += [(i, j) for i in rows[:r].tolist()]
        for s, vector in enumerate(null):
            lifted = np.zeros((m, r), dtype=np.int64)
            lifted[omega] = vector[:, None] * C[:, j] % p
            S.append(lifted.ravel())
            section_entries.append((int(rows[r + s]), j))
    section, pivots = reference_rank_mod_p(np.array(S, dtype=np.int64).reshape(-1, m * r))
    jacobian = column_ranks + section
    if jacobian < r * (m + n - r):
        return jacobian, section, None
    return jacobian, section, np.array(pivot_entries + [section_entries[i] for i in pivots.tolist()])


def reference_section_rows(pattern, r, rng, by_priority=False):
    """The section rows S that ``_tangent_ranks`` eliminates, one column at a
    time: columns by support size, then index, each of full rank stacking
    N_j (x) c_j, a column where A[omega_j] drops rank none. With
    ``by_priority``, each support is first sorted as the two-level
    elimination sorts it: rows observed by more columns first, ties by
    index. Then the r^2 columns of S at the gauge rows P are zeroed: the
    pivot rows of the first column of full rank with r rows or more, in that
    order."""
    p = FIELD_PRIME
    m, n = pattern.m, pattern.n
    A = rng.integers(0, p, size=(m, r))
    C = rng.integers(0, p, size=(r, n))
    supports = pattern.column_supports()
    observed = np.bincount([i for omega in supports for i in omega], minlength=m)
    S, gauge = [np.zeros((0, m * r), dtype=np.int64)], None
    for j in sorted(range(n), key=lambda j: len(supports[j])):
        rows = sorted(supports[j], key=lambda i: (-observed[i], i)) if by_priority else supports[j]
        omega = np.array(rows, dtype=np.intp)
        if not omega.size:
            continue
        (null,), (full,), (order,) = reference_left_null_mod_p(A[None, omega])
        if not full:
            continue
        if gauge is None and omega.size >= r:
            gauge = omega[order[:r]]
        for vector in null:
            lifted = np.zeros((m, r), dtype=np.int64)
            lifted[omega] = vector[:, None] * C[:, j] % p
            S.append(lifted.reshape(1, m * r))
    S = np.concatenate(S)
    if gauge is not None:
        S.reshape(-1, m, r)[:, gauge] = 0
    return S


def reference_is_row_basis(pattern, r, A, C, entries):
    """Whether ``entries`` are r(m+n-r) distinct observed entries whose rows of
    the factorization Jacobian at (A, C) have full rank, by
    ``reference_rank_mod_p``: row (i, j) holds C[:, j] at A's row i and A[i] at
    C's column j, reduced mod p."""
    m, n = pattern.m, pattern.n
    entries = [tuple(e) for e in np.asarray(entries).tolist()]
    if len(entries) != r * (m + n - r) or len(set(entries)) != len(entries) or not set(entries) <= pattern.entries:
        return False
    J = np.zeros((len(entries), r * (m + n)), dtype=np.int64)
    for row, (i, j) in enumerate(entries):
        J[row, i * r : (i + 1) * r] = C[:, j] % FIELD_PRIME
        J[row, (m + j) * r : (m + j + 1) * r] = A[i] % FIELD_PRIME
    return reference_rank_mod_p(J)[0] == len(entries)


def reference_laplace_minors(mat):
    """``plucker._laplace_minors`` with W filled block by block: each block of
    row a gathers and signs row a's entries anew, then takes its product."""
    m, r = mat.shape
    prev = mat[r - 1 :].T.copy()
    for k in range(2, r + 1):
        sets = np.array(list(itertools.combinations(range(r), k)))
        sub = _lex_rank(np.stack([np.delete(sets, i, axis=1) for i in range(k)], axis=1), r)
        sign = np.where(np.arange(k) % 2, -1, 1)
        W = np.zeros((len(sets), len(prev)))
        cur = np.empty((len(sets), math.comb(m - r + k, k)))
        for a, start, count in _lex_blocks(m, r, k):
            W[np.arange(len(sets))[:, None], sub] = sign * mat[a, sets]
            np.matmul(W, prev[:, -count:], out=cur[:, start : start + count])
        prev = cur
    return prev[0]


def reference_relaxed_slmf(pattern, r):
    """(ok, reason, violating_rows) of the counting test, row set by row set."""
    m, n = pattern.m, pattern.n
    if pattern.size != r * (m + n - r):
        return False, "size", None
    support_masks = [sum(1 << i for i in omega) for omega in pattern.column_supports()]
    for size in range(r + 1, m + 1):
        bound = r * (size - r)
        for rows in itertools.combinations(range(m), size):
            imask = sum(1 << i for i in rows)
            surplus = 0
            for smask in support_masks:
                inter = (smask & imask).bit_count()
                if inter > r:
                    surplus += inter - r
            if surplus > bound:
                return False, "inequality", rows
    total_surplus = sum(max(mask.bit_count() - r, 0) for mask in support_masks)
    if total_surplus != r * (m - r):
        return False, "equality", tuple(range(m))
    return True, None, None


class _ReferenceBudgetExhausted(Exception):
    pass


class ReferenceBudget:
    """Counts nodes one at a time, as the partition walk spends them."""

    def __init__(self, nodes):
        self.left = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise _ReferenceBudgetExhausted


def reference_partitions(columns, groups, budget, cut=lambda remaining, g: False, holds=lambda group: True):
    """Partitions into ``groups`` nonempty parts, walked one first group (one node) at a time.

    By default every partition is walked. A first group for which ``cut``
    says the columns it leaves cannot form the other groups is charged, and
    neither it nor its supersets are walked further; one that fails ``holds``
    on arrival has no partitions beneath it walked.
    """
    columns = sorted(columns)
    if groups <= 0 or len(columns) < groups:
        return
    if groups == 1:
        if holds(tuple(columns)):
            yield [tuple(columns)]
        return
    first, rest = columns[0], columns[1:]

    def lex_subsets(prefix, start):
        remaining = [c for c in rest if c not in prefix]
        budget.spend()
        if cut(remaining, groups - 1):
            return
        yield prefix, remaining
        for idx in range(start, len(rest)):
            yield from lex_subsets(prefix + [rest[idx]], idx + 1)

    for extra, remaining in lex_subsets([], 0):
        group = (first, *extra)
        if holds(group):
            for tail in reference_partitions(remaining, groups - 1, budget, cut, holds):
                yield [group] + tail


def _reference_augment(v, rows_of, owner, seen):
    for u in rows_of[v]:
        if not seen[u]:
            seen[u] = True
            w = owner[u]
            if w < 0 or _reference_augment(w, rows_of, owner, seen):
                owner[u] = v
                return True
    return False


def _reference_selection(pool, m, r, budget):
    """Greedy first linkage support of a sorted (subset, source, mask) pool, by Kuhn matchings."""
    needed = m - r
    if needed == 0:
        return SlmfWitness(supports=(), sources=())
    if len(pool) < needed:
        return None
    full = (1 << m) - 1
    suffix_union = [0] * (len(pool) + 1)
    for idx in range(len(pool) - 1, -1, -1):
        suffix_union[idx] = suffix_union[idx + 1] | pool[idx][2]
    if suffix_union[0] != full:
        return None
    chosen, rows_of, owner, covered = [], [], [-1] * m, 0
    for idx, (subset, _, mask) in enumerate(pool):
        budget.spend()
        k = len(chosen)
        if len(pool) - idx < needed - k or (suffix_union[idx] | covered) != full:
            break
        trial = owner[:]
        copies = rows_of + [subset] * (r + 1)
        if not all(_reference_augment(v, copies, trial, [False] * m) for v in range(k, k + r + 1)):
            continue
        for i in subset:
            if trial[i] > k:
                trial[i] = -1
        owner = trial
        chosen.append(idx)
        rows_of.append(subset)
        covered |= mask
        if len(chosen) == needed:
            return SlmfWitness(
                supports=tuple(pool[c][0] for c in chosen),
                sources=tuple(pool[c][1] for c in chosen),
            )
    return None


def reference_spanning_tree(pattern):
    """Entries, in ``sorted_entries()`` order, joining two components of the row-column graph.

    A spanning forest by union-find: m+n-1 entries iff the graph is connected.
    """
    m = pattern.m
    # rows, then columns; the caller holds at least m+n-1 entries, so this
    # costs no more than they do
    parent = list(range(m + pattern.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for i, j in pattern.sorted_entries():
        a, b = find(i), find(m + j)
        if a != b:
            parent[a] = b
            tree.append((i, j))
    return tree


def reference_enumerate(pattern, r, kind, budget_nodes, pruned=True):
    """The certificate search as a walk over partitions, returning (certificate, exhausted, nodes)
    like ``SearchOutcome``.

    Pruned, it cuts a first group whose leftover columns fail the covering
    test (every row observed once per group left, column surpluses of
    (m - r) per group left) and tests each group on arrival. Unpruned, it
    walks every partition and tests its groups in order.
    """
    groups = r if kind == "finite" else r + 1
    budget = ReferenceBudget(budget_nodes)
    supports = pattern.column_supports()
    memo = {}

    def select(group):
        if group not in memo:
            pool = {}
            for k in group:
                for subset in itertools.combinations(sorted(supports[k]), r + 1):
                    pool.setdefault(subset, (subset, k, sum(1 << i for i in subset)))
            memo[group] = _reference_selection(sorted(pool.values()), pattern.m, r, budget)
        return memo[group]

    def cut(columns, g):
        covered = all(sum(i in supports[c] for c in columns) >= g for i in range(pattern.m))
        surplus = sum(max(len(supports[c]) - r, 0) for c in columns)
        return not covered or surplus < g * (pattern.m - r)

    walk = {}
    if pruned:
        if cut(range(pattern.n), groups):
            return None, True, 0
        walk = {"cut": cut, "holds": lambda group: select(group) is not None}
    try:
        for partition in reference_partitions(range(pattern.n), groups, budget, **walk):
            witnesses = []
            for group in partition:
                if select(group) is None:
                    break
                witnesses.append(select(group))
            else:
                cert = Certificate(kind, tuple(partition), tuple(witnesses))
                return cert, False, budget_nodes - budget.left
    except _ReferenceBudgetExhausted:
        return None, False, budget_nodes
    return None, True, budget_nodes - budget.left
