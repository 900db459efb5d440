"""Tests for the support-of-a-linkage-matching-field (SLMF) property.

An (r, m) linkage support is a family of m-r column supports, each an
(r+1)-subset of range(m), such that every nonempty subfamily of size t covers
at least t + r rows. The property is equivalent to the induced sparse dual
basis having full column rank at a generic subspace, which gives a fast
randomized test over GF(p) alongside the exact combinatorial one, stopped
exactly at the family's Hall-matroid rank when it falls short; it shares
its elimination kernels and its trial loop (``first_full_rank``) with the
tangent rank tests (``plucker``).

The families meeting the covering inequality are the independent sets of the
matroid induced by |N(S)| - r (Edmonds), and one Hall oracle
(``HallMatching``) decides independence by bipartite matchings on row
bitmasks. Greedy over it (``first_linkage_support``) gives the certificate
search's selection. One greedy pass over a family's columns, cached on the
family (``Slmf._hall_pass``), gives the combinatorial check's answer at any
size and the randomized check's bound. A refuted family also gets its
minimum violating subfamily, a minimum circuit of the matroid: with one
column outside the pass's basis, that column's fundamental circuit, found
by r+1 augmentations, at any size; with two or more, by a scan, size by
size, whose time grows with the witness size and whose memory is one block
of subfamily pairs, only up to ``EXHAUSTIVE_COLUMN_LIMIT`` columns. A larger
refuted family with two or more columns outside the basis gets no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import index, or_
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .patterns import ObservationPattern, parse_pattern, pattern_to_grid
from .plucker import FIELD_PRIME, _restore, first_full_rank, left_null_mod_p, rank_mod_p

EXHAUSTIVE_COLUMN_LIMIT = 22


@dataclass(frozen=True)
class Slmf:
    """Candidate linkage support: m-r sorted (r+1)-subsets of range(m)."""

    m: int
    r: int
    columns: tuple[tuple[int, ...], ...]
    __setstate__ = _restore

    def __post_init__(self) -> None:
        m, r = index(self.m), index(self.r)
        if not 1 <= r < m:
            raise ValueError(f"need 1 <= r < m, got r={r}, m={m}")
        cols = tuple(tuple(sorted(index(i) for i in col)) for col in self.columns)
        if len(cols) != m - r:
            raise ValueError(f"expected {m - r} columns, got {len(cols)}")
        for j, col in enumerate(cols):
            if len(set(col)) != r + 1:
                raise ValueError(f"column {j + 1} must have {r + 1} distinct rows, got {len(set(col))}")
            if col[0] < 0 or col[-1] >= m:
                raise ValueError(f"column {j + 1} has rows outside range({m})")
        self.__dict__.update(m=m, r=r, columns=cols)

    def __getstate__(self) -> dict:
        # pickle and copy take the fields, not the pass cached beside them
        return {"m": self.m, "r": self.r, "columns": self.columns}

    @cached_property
    def _hall_pass(self) -> _HallPass:
        # kept in the instance dict, outside the fields that eq, hash and repr read
        masks = tuple(sum(1 << i for i in col) for col in self.columns)
        family = HallMatching(self.m, self.r)
        kept = [family.add(mask) for mask in masks]
        basis = tuple(j for j, ok in enumerate(kept) if ok)
        dependent = tuple(j for j, ok in enumerate(kept) if not ok)
        return _HallPass(masks, basis, dependent, family)


class _HallPass(NamedTuple):
    """Greedy ``HallMatching.add`` over every column of a family, in order.

    ``basis`` holds the positions it kept, a basis of the family in the Hall
    matroid, so their count is the family's rank; ``dependent`` the positions
    it turned down. ``family`` is the basis, member t (column ``basis[t]``)
    matched to one row, which its readers leave as it is.
    """

    masks: tuple[int, ...]
    basis: tuple[int, ...]
    dependent: tuple[int, ...]
    family: HallMatching


@dataclass(frozen=True)
class SlmfVerdict:
    """Outcome of an SLMF test.

    ``witness`` is a set of 0-based column indices violating the covering
    inequality; it is present exactly when the combinatorial method refutes a
    family whose Hall pass turns down one column, or a family of at most
    ``EXHAUSTIVE_COLUMN_LIMIT`` columns.
    """

    is_slmf: bool
    witness: Optional[tuple[int, ...]]
    method: str


def _reach(mask: int, rows: Sequence[int], owner: list[int], matched: int) -> int:
    """Rows reachable from the subset ``mask`` by alternating paths: its rows, and
    the rows of each member that owns a row reached (``matched``: rows with an owner)."""
    reach, todo = mask, mask & matched
    while todo:
        low = todo & -todo
        todo ^= low
        new = rows[owner[low.bit_length() - 1]] & ~reach
        reach |= new
        todo |= new & matched
    return reach


def _augment(v: int, rows: Sequence[int], owner: list[int]) -> int:
    """Kuhn's step without recursion: match member ``v``, re-matching others
    along an augmenting path, lowest rows first. Returns the newly matched
    row, or -1 when there is no augmenting path."""
    seen = 0
    path = [v]  # members on the alternating path from v
    via = [-1]  # via[t]: the row path[t] held when the path reached it
    untried = [rows[v]]
    while path:
        free = untried[-1] & ~seen
        if not free:
            path.pop()
            via.pop()
            untried.pop()
            continue
        low = free & -free
        seen |= low
        untried[-1] = free ^ low
        row = low.bit_length() - 1
        w = owner[row]
        if w < 0:
            owner[row] = path[-1]
            for t in range(len(path) - 1, 0, -1):
                owner[via[t]] = path[t - 1]
            return row
        path.append(w)
        via.append(row)
        untried.append(rows[w])
    return -1


class HallMatching:
    """A linkage support grown one (r+1)-subset at a time, each member matched to a row.

    A subset joins iff the family stays a linkage support: iff r+1 copies of
    it can be matched alongside the members (surplus form of Hall's theorem),
    which takes r+1 augmentations from the kept matching. Two cases need
    none. A subset with r+1 rows no member holds joins at once: for any
    members T, N(T + subset) holds T's |T| matched rows and those r+1. And a
    subset inside a reach R that ``add`` once turned down on its unmatched
    rows is turned down again: the members T owning R's matched rows then
    had N(T) in R and |R| <= |T| + r, and members are never removed. Those
    reaches are kept as an antichain. Subsets and rows are int bitmasks
    (row i is bit i).
    """

    __slots__ = ("r", "owner", "rows", "matched", "reaches")

    def __init__(self, m: int, r: int) -> None:
        self.r = r
        self.owner = [-1] * m  # owner[i]: the member matched to row i, or -1
        self.rows: list[int] = []  # row mask of each member
        self.matched = 0  # mask of the rows with an owner
        self.reaches: list[int] = []  # row masks inside which no subset joins

    def add(self, mask: int) -> bool:
        """Admit the subset with row mask ``mask`` iff the family stays a linkage support."""
        owner, rows, matched = self.owner, self.rows, self.matched
        free = mask & ~matched
        if free.bit_count() > self.r:
            low = free & -free
            owner[low.bit_length() - 1] = len(rows)
            rows.append(mask)
            self.matched = matched | low
            return True
        for reach in self.reaches:
            if not mask & ~reach:
                return False
        # the members matched into the subset's reach have no rows outside it,
        # so fewer than r+1 unmatched rows there is a Hall violator
        reach = _reach(mask, rows, owner, matched)
        if (reach & ~matched).bit_count() <= self.r:
            self.reaches = [old for old in self.reaches if old & ~reach] + [reach]
            return False
        _, trial, matched, joined = self._match_copies(mask)
        if not joined:
            return False
        k = len(rows)
        # the r+1 copies hold exactly the subset's rows; keep the first one's
        for i in range(mask.bit_length()):
            if mask >> i & 1 and trial[i] > k:
                trial[i] = -1
                matched ^= 1 << i
        rows.append(mask)
        self.owner, self.matched = trial, matched
        return True

    def least_tight_set(self, mask: int) -> list[int]:
        """The least set S of members with |N(S + subset)| - |S| least, for a subset
        with row mask ``mask`` that ``add`` turns down; the family is left as it is.

        Copies of the subset are matched, as in ``add``, up to the first with no
        augmenting path. The rows reachable from it are all matched, to the
        copies and to the members S, so N(S + subset) is those rows. Any S' at
        the least value has N(S' + subset) filled by its members and the
        copies, so the reach never leaves it, and S lies in S'.
        """
        rows, owner, matched, _ = self._match_copies(mask)
        reach = _reach(mask, rows, owner, matched)
        return [owner[i] for i in range(len(owner)) if reach >> i & 1 and owner[i] < len(self.rows)]

    def _match_copies(self, mask: int) -> tuple[list[int], list[int], int, bool]:
        """Match r+1 copies of the subset after the members, in copies of the family's
        lists, up to the first with no augmenting path: the rows, owners and matched
        rows of that matching, and whether every copy was matched."""
        k = len(self.rows)
        rows, owner, matched = self.rows + [mask] * (self.r + 1), self.owner[:], self.matched
        for v in range(k, k + self.r + 1):
            row = _augment(v, rows, owner)
            if row < 0:
                return rows, owner, matched, False
            matched |= 1 << row
        return rows, owner, matched, True


def first_linkage_support(
    masks: Sequence[int], m: int, r: int, spend: Callable[[], None] = lambda: None
) -> Optional[list[int]]:
    """Positions of the lexicographically first m-r of ``masks`` forming a linkage support.

    Greedy over the matroid in the given order yields its first basis. The
    walk stops once too few candidates are left, or once the rows still
    reachable miss one. ``spend`` is called once per candidate looked at.
    None when no m-r of them form one.
    """
    needed = m - r
    if needed == 0:
        return []
    if len(masks) < needed:
        return None
    full = (1 << m) - 1
    # suffix_union[idx]: the rows of masks[idx:]
    suffix_union = list(accumulate(reversed(masks), or_))[::-1]
    if suffix_union[0] != full:
        # the complete family must cover every row
        return None
    family = HallMatching(m, r)
    chosen: list[int] = []
    covered = 0
    for idx, mask in enumerate(masks):
        spend()
        if len(masks) - idx < needed - len(chosen):
            break
        if (suffix_union[idx] | covered) != full:
            # rows missing from everything still available; later
            # candidates only shrink the reachable union
            break
        if family.add(mask):
            chosen.append(idx)
            covered |= mask
            if len(chosen) == needed:
                return chosen
    return None


def _least_violator(masks: Sequence[int], r: int) -> Optional[tuple[int, ...]]:
    """Smallest subfamily, then lexicographically first, covering fewer than t + r rows.

    Meet in the middle: each half of the K masks gets the unions of its 2^(K/2)
    subfamilies, grouped by size, with their row counts. For t = 1, 2, ... each
    low group of size s meets the high group of size t - s, one block at a time:
    time grows with the witness size, and memory is one block (at K = 22, 462 x
    462 pairs: 2 MB, 3 past 64 rows). A pair covers at least the rows of either
    half, so halves already covering t + r rows are dropped before the block;
    the rest keep their order, so the block's first hit is unchanged.
    """
    K = len(masks)
    words = -(-max(mask.bit_length() for mask in masks) // 64)
    halves = []
    for part in (masks[: K // 2], masks[K // 2 :]):
        # unions[u]: the rows covered by the masks part[-1 - b] at the bits b of u;
        # so of two subfamilies of one size, the larger u is the lexicographically first
        unions = np.zeros((1 << len(part), words), dtype=np.uint64)
        for b, mask in enumerate(reversed(part)):
            split = [mask >> 64 * w & (1 << 64) - 1 for w in range(words)]
            np.bitwise_or(unions[: 1 << b], np.array(split, dtype=np.uint64), out=unions[1 << b : 2 << b])
        counts = np.bitwise_count(unions).sum(axis=1)
        sizes = np.bitwise_count(np.arange(1 << len(part)))
        groups = (np.flatnonzero(sizes == s)[::-1] for s in range(len(part) + 1))  # larger u first
        halves.append([(g, unions[g], counts[g]) for g in groups])
    (low, high), shift = halves, K - K // 2
    for t in range(1, K + 1):
        found = []
        for s in range(max(0, t - shift), min(K // 2, t) + 1):
            (lo_ids, lo, lo_counts), (hi_ids, hi, hi_counts) = low[s], high[t - s]
            lo_keep, hi_keep = lo_counts < t + r, hi_counts < t + r
            if not (lo_keep.any() and hi_keep.any()):
                continue
            lo_ids, lo, hi_ids, hi = lo_ids[lo_keep], lo[lo_keep], hi_ids[hi_keep], hi[hi_keep]
            covered = 0
            for w in range(words):
                covered = np.add(covered, np.bitwise_count(lo[:, None, w] | hi[None, :, w]), dtype=np.int32)
            a, b = divmod(int(np.argmax(covered < t + r)), len(hi))  # row-major order is lexicographic
            if covered[a, b] < t + r:
                found.append(int(lo_ids[a]) << shift | int(hi_ids[b]))
        if found:  # mask j is bit K - 1 - j of the lexicographically first
            return tuple(j for j in range(K) if max(found) >> K - 1 - j & 1)
    return None


def check_slmf_combinatorial(phi: Slmf) -> SlmfVerdict:
    """Exact check of the covering inequality over all nonempty subfamilies.

    The family's greedy Hall pass (``Slmf._hall_pass``) decides, at any size:
    it is a linkage support iff the pass turns no column down. On failure
    the witness is a violating index set of minimum cardinality, ties broken
    lexicographically: at any size when the pass turns down one column, and
    up to ``EXHAUSTIVE_COLUMN_LIMIT`` columns when it turns down more; past
    the limit such a refutation has no witness.

    A violating subfamily is dependent in the Hall matroid, and when it is a
    smallest one each proper subfamily is independent: a minimum violator is
    a circuit of least size. When the pass turns down one column d, the
    family is B + d for its basis B, of nullity one, and holds exactly one
    circuit C: two would, by circuit elimination on d, leave one inside B.
    So the minimum violator is C, with no tie to break. For S in B let
    h(S) = |N(S + d)| - |S|. S + d has rank at most |N(S + d)| - r and
    nullity at most one, so h(S) >= r, and S + d violates iff h(S) = r: the
    violators holding d are the minimizers of h, and C is the least of them.
    As h >= r, r copies of d match alongside B (Hall), and as d is turned
    down the next copy does not; the rows that copy reaches by alternating
    paths then give the least minimizer (``HallMatching.least_tight_set``),
    with no subfamily scan. C lies inside d's alternating reach R in B's
    matching: the members of C matched outside R hold distinct rows of N(C)
    outside R, so the rest of C, with its rows in R, violates too, and is C.
    With two or more columns turned down, a size-ordered scan
    (``_least_violator``) finds the witness, in time growing with it and a
    few MB of memory; past the limit its halves would grow as 2^(K/2).
    """
    hall = phi._hall_pass
    if not hall.dependent:
        return SlmfVerdict(is_slmf=True, witness=None, method="combinatorial")
    if len(hall.dependent) == 1:
        (d,) = hall.dependent
        witness = tuple(sorted([d, *(hall.basis[t] for t in hall.family.least_tight_set(hall.masks[d]))]))
    elif len(hall.masks) <= EXHAUSTIVE_COLUMN_LIMIT:
        witness = _least_violator(hall.masks, phi.r)
    else:
        witness = None
    return SlmfVerdict(is_slmf=False, witness=witness, method="combinatorial")


def _dual_basis_rank_mod_p(phi: Slmf, rng: np.random.Generator) -> int:
    """Rank over GF(p) of the dual basis evaluated at a random subspace.

    Column j is, up to a nonzero scale, the left null vector of the basis
    rows at its support, and zero where those rows drop rank.
    """
    basis = rng.integers(1, FIELD_PRIME, size=(phi.m, phi.r))
    supports = np.array(phi.columns)
    null, full, _ = left_null_mod_p(basis[supports])
    dual = np.zeros((phi.m, len(supports)), dtype=np.int64)
    dual[supports.T, np.arange(len(supports))] = (null[:, 0] * full[:, None]).T
    return rank_mod_p(dual)[0]


def check_slmf_randomized(phi: Slmf, seed: int = 0) -> SlmfVerdict:
    """Randomized rank test of the induced dual basis at random subspaces.

    Exact over GF(p): a single full-rank evaluation certifies the property.
    The family's Hall-matroid rank (``Slmf._hall_pass``) bounds the rank at every
    point. Columns independent at a point are nonzero there, so each
    ``B[omega_j]`` among them has rank r. For each nonempty subfamily T of
    them, the columns of T then lie in the left null space of ``B[N(T)]``,
    of dimension |N(T)| - r, so |N(T)| >= |T| + r: they are independent in
    the matroid. So the test stops at its first full-rank trial, or else,
    exactly, at the first trial that reaches the Hall rank below the
    target, which on a refuted family is the first trial but for a
    degenerate point. Only on a linkage support can every trial fall
    short, a wrong "no" with probability at most (d/p)^5, d = r(m-r) the
    degree of a full minor (Schwartz-Zippel), over the ``plucker.TRIALS`` = 5
    trials of the loop the tangent rank tests share (``first_full_rank``),
    which reads the seed as an int (``TypeError`` otherwise).
    """
    target = len(phi.columns)
    rank, _ = first_full_rank(
        lambda rng: _dual_basis_rank_mod_p(phi, rng), target, seed, bound=lambda: len(phi._hall_pass.basis)
    )
    return SlmfVerdict(is_slmf=rank == target, witness=None, method="randomized-rank")


def slmf_from_grid(text: str, r: int) -> Slmf:
    """Parse an SLMF from an ASCII grid of m rows and m-r columns; ``Slmf`` checks its shape."""
    pattern = parse_pattern(text)
    return Slmf(m=pattern.m, r=r, columns=pattern.column_supports())


def slmf_to_grid(phi: Slmf) -> str:
    entries = frozenset((i, j) for j, col in enumerate(phi.columns) for i in col)
    return pattern_to_grid(ObservationPattern(phi.m, len(phi.columns), entries))
