"""Certificate search and verification for finite and unique completability.

A certificate partitions the pattern's columns into r groups (finite case) or
r+1 groups (unique case) and exhibits, per group, a linkage support whose
columns are (r+1)-subsets drawn from the supports of that group's pattern
columns. Verification is exact. The search enumerates partitions
exhaustively, in lexicographic order of their groups; within a group it
selects the linkage support greedily, since the candidate families form a
matroid whose independence test is a bipartite matching (``slmf``'s Hall
oracle). A node is one first group visited or one pool subset tested. The
columns a first group leaves must still observe every row once per group
left, with surpluses (#omega_j - r)^+ summing to m-r per group left; when
they do not, nor do those any superset leaves, so the branch is cut. A group
that passes is tested at once, and the walk goes beneath it only when it
holds a linkage support. Complete at desk scale, budget-bounded beyond it.

One numpy kernel over row bitmasks bounds passing sub-patterns, which decides
the exact counting test; above ``ROW_SET_LIMIT`` rows the row sets that miss
at most one row bound them. A bound below r(m+n-r) rules out certificates.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import index, or_
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .numerics import RankReport, TangentSizeError, _row_column_forest, jacobian_rank_test
from .patterns import ObservationPattern, _checked_rank, _is_int
from .slmf import Slmf, check_slmf_combinatorial, first_linkage_support

DEFAULT_BUDGET = 10**7
# most rows for which the bound and the greedy scan all 2^m row sets: on a 2-CPU
# host they take 0.8 s on a 20 x 20 mask at r = 3, doubling with each row
ROW_SET_LIMIT = 20
_ROW_SET_CELLS = 1 << 17  # (row set, column) pairs the kernel evaluates at once
# most (r+1)-subsets of distinct column supports the certificate search lists:
# about 110 bytes each, with a group's pool (traced), so some 60 MB at the limit
MAX_SEARCH_SUBSETS = 1 << 19


class _BudgetExhausted(Exception):
    pass


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int) -> None:
        self.left = nodes

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _BudgetExhausted


@dataclass(frozen=True)
class SlmfWitness:
    """One group's linkage support plus the pattern column each subset came from."""

    supports: tuple[tuple[int, ...], ...]
    sources: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.supports) != len(self.sources):
            raise ValueError("each support needs exactly one source column")
        object.__setattr__(
            self, "supports", tuple(tuple(sorted(map(index, s))) for s in self.supports)
        )
        object.__setattr__(self, "sources", tuple(map(index, self.sources)))

    def as_slmf(self, m: int, r: int) -> Slmf:
        return Slmf(m=m, r=r, columns=self.supports)


@dataclass(frozen=True)
class Certificate:
    """Partition of the pattern columns plus one SLMF witness per group."""

    kind: str  # "finite" | "unique"
    partition: tuple[tuple[int, ...], ...]
    slmfs: tuple[SlmfWitness, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "unique"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if len(self.partition) != len(self.slmfs):
            raise ValueError("one SLMF witness is required per group")
        object.__setattr__(
            self, "partition", tuple(tuple(sorted(map(index, g))) for g in self.partition)
        )


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_clause: Optional[str]  # "structure" | "i" | "ii"
    detail: str


def _expected_groups(kind: str, r: int) -> int:
    return r if kind == "finite" else r + 1


def verify_certificate(
    pattern: ObservationPattern, r: int, cert: Certificate
) -> VerificationResult:
    """Check every clause of a certificate; name the first failure."""
    groups = _expected_groups(cert.kind, r)
    if len(cert.partition) != groups:
        return VerificationResult(
            False, "structure", f"{cert.kind} certificate needs {groups} groups, got {len(cert.partition)}"
        )
    seen: set[int] = set()
    for group in cert.partition:
        for col in group:
            if col in seen:
                return VerificationResult(False, "structure", f"column {col + 1} appears in two groups")
            if not 0 <= col < pattern.n:
                return VerificationResult(False, "structure", f"column {col + 1} out of range")
            seen.add(col)
    if len(seen) != pattern.n:
        missing = sorted(set(range(pattern.n)) - seen)
        return VerificationResult(
            False, "structure", f"columns {[c + 1 for c in missing]} missing from the partition"
        )

    supports = pattern.column_supports()
    for j, omega in enumerate(supports):
        if len(omega) < r:
            return VerificationResult(
                False, "i", f"column {j + 1} has {len(omega)} observed rows, fewer than r={r}"
            )

    for nu, (group, witness) in enumerate(zip(cert.partition, cert.slmfs)):
        if len(witness.supports) != pattern.m - r:
            return VerificationResult(
                False,
                "ii",
                f"group {nu + 1}: expected {pattern.m - r} supports, got {len(witness.supports)}",
            )
        for support, source in zip(witness.supports, witness.sources):
            shown = tuple(s + 1 for s in support)
            if source not in group:
                return VerificationResult(
                    False, "ii", f"group {nu + 1}: source column {source + 1} is not in the group"
                )
            if len(support) != r + 1 or len(set(support)) != r + 1:
                return VerificationResult(
                    False, "ii", f"group {nu + 1}: support {shown} does not have r+1 distinct rows"
                )
            if not set(support) <= set(supports[source]):
                return VerificationResult(
                    False, "ii", f"group {nu + 1}: support {shown} not contained in column {source + 1}"
                )
        if not witness.supports:
            continue  # r = m: the empty family is a linkage support
        verdict = check_slmf_combinatorial(witness.as_slmf(pattern.m, r))
        if verdict.is_slmf:
            continue
        where = "" if verdict.witness is None else f" at columns {tuple(t + 1 for t in verdict.witness)}"
        return VerificationResult(False, "ii", f"group {nu + 1}: covering inequality fails{where}")
    return VerificationResult(True, None, "all clauses hold")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a certificate search.

    ``exhausted`` records whether the whole search space was covered; a search
    that ran out of budget is inconclusive rather than negative. ``reason`` is
    None unless the search was refused before it began: ``"subset_limit"``
    when its subsets would pass ``MAX_SEARCH_SUBSETS``, which no budget lifts.
    """

    certificate: Optional[Certificate]
    exhausted: bool
    nodes: int
    reason: Optional[str] = None

    @property
    def status(self) -> str:
        if self.certificate is not None:
            return "found"
        return "none" if self.exhausted else "inconclusive"


def _partitions(
    columns: Sequence[int],
    groups: int,
    budget: _Budget,
    select: Callable[[tuple[int, ...]], Optional[SlmfWitness]],
    fits: Callable[[int, int], bool],
) -> Iterator[list[tuple[tuple[int, ...], SlmfWitness]]]:
    """Partitions into ``groups`` parts that each hold a linkage support, with the supports.

    Groups are ordered by least member, and enumeration is lexicographic on
    the tuple of groups, so the partition whose leading groups are smallest
    in tuple order comes first. A node is one first group visited. Its
    supersets follow it in the walk, so when ``fits`` refuses the columns it
    leaves for the other groups, its branch is cut. Otherwise ``select``
    tests it, and the walk goes beneath it when it holds a linkage support.
    """
    columns = sorted(columns)
    if groups == 1:
        witness = select(tuple(columns))
        if witness is not None:
            yield [(tuple(columns), witness)]
        return
    first, rest = columns[0], columns[1:]
    left = sum(1 << c for c in rest)  # the columns the first group leaves
    picked: list[int] = []  # the group's other members, as positions in ``rest``, increasing
    while True:
        budget.spend()
        descend = fits(left, groups - 1)
        if descend:
            group = (first, *(rest[t] for t in picked))
            witness = select(group)
            if witness is not None:
                remaining = [c for c in rest if left >> c & 1]
                for tail in _partitions(remaining, groups - 1, budget, select, fits):
                    yield [(group, witness)] + tail
        following = picked[-1] + 1 if picked else 0
        if descend and following < len(rest):
            picked.append(following)
            left ^= 1 << rest[following]
            continue
        # on to the next sibling, or to the parent's when this is the last item
        if picked and picked[-1] == len(rest) - 1:
            left ^= 1 << rest[picked.pop()]
        if not picked:
            return
        left ^= 1 << rest[picked[-1]] | 1 << rest[picked[-1] + 1]
        picked[-1] += 1


def _group_witness(
    pools: Sequence[Sequence[int]], rows: Sequence[int], group: Sequence[int], m: int, r: int, budget: _Budget
) -> Optional[SlmfWitness]:
    """The group's lexicographically first linkage support, each subset from its least column.

    ``pools[k]`` and ``rows[k]`` are the row masks of column k's (r+1)-subsets
    and of its support, row i at bit m-1-i: descending masks are in subset order.
    ``_enumerate`` memoizes it, as the greedy may spend budget, after testing
    that the group observes every row, a test that spends none.
    """
    pool = sorted(set().union(*(pools[k] for k in group)), reverse=True)
    chosen = first_linkage_support(pool, m, r, budget.spend)
    if chosen is None:
        return None
    picked = [pool[c] for c in chosen]
    return SlmfWitness(
        supports=tuple(tuple(i for i in range(m) if mask >> (m - 1 - i) & 1) for mask in picked),
        sources=tuple(next(k for k in group if mask & ~rows[k] == 0) for mask in picked),
    )


def _jacobian_proves(pattern: ObservationPattern, r: int, jacobian: Optional[RankReport]) -> bool:
    """Whether ``jacobian``, a ``jacobian_rank_test`` report, proves the pattern
    finitely completable at r, which spares a stage its row-set scan.

    A pass at r on the pattern, or on a sub-mask of it, does: its row basis
    is r(m+n-r) entries of the pattern whose rows of the Jacobian are
    independent, so they are a finitely completable exact-size sub-pattern
    (Kiraly-Theran-Tomioka), which passes the counting test
    (Pimentel-Alarcon-Boston-Nowak), and the counting bound reaches
    r(m+n-r). None or a report at r without a row basis proves nothing.

    Raises:
        ValueError: the report's target is not r(m+n-r), or its row basis is
            not r(m+n-r) entries of the pattern: it is of another rank or mask.
    """
    if jacobian is None:
        return False
    target, basis = r * (pattern.m + pattern.n - r), jacobian.row_basis
    if jacobian.target != target or basis is not None and (
        len(set(basis)) != target or not pattern.entries.issuperset(basis)
    ):
        raise ValueError(f"the Jacobian report is not of this mask at rank r={r}")
    return basis is not None


def _find_certificate(
    pattern: ObservationPattern, r: int, kind: str, budget_nodes: int, jacobian: Optional[RankReport]
) -> SearchOutcome:
    """Enumerate unless the counting bound rules certificates out.

    Certificate => finitely completable => the counting bound reaches
    r(m+n-r) (see ``_jacobian_proves``). So where ``jacobian`` proves the
    pattern finitely completable, neither bound is computed. Otherwise the
    line bound comes first: it caps a column of fewer than r rows on all
    rows, and a row no column observes on all the others, with no scan of
    row sets. Neither is charged to the budget.
    """
    r = _checked_rank(pattern, r)
    budget_nodes = index(budget_nodes)
    if budget_nodes < 0:
        raise ValueError(f"budget must be at least 0, got {budget_nodes}")
    target = r * (pattern.m + pattern.n - r)
    if not _jacobian_proves(pattern, r, jacobian) and (
        _line_bound(pattern, r)[0] < target or _counting_bound(pattern, r)[0] < target
    ):
        return SearchOutcome(None, exhausted=True, nodes=0)
    return _enumerate(pattern, r, kind, budget_nodes)


def _covering_test(supports: Sequence[Sequence[int]], m: int, r: int) -> Callable[[int, int], bool]:
    """fits(left, g): whether the columns in bitmask ``left`` might hold g linkage supports.

    A linkage support's m-r subsets cover all m rows, and at most
    (#omega_j - r)^+ of them lie in column j. So g of them need every row
    observed g times, and surpluses summing to g(m-r). At m = r the first
    part holds for columns of at least r rows, which the counting bound checks.
    """
    holders = [0] * m  # the columns observing each row
    by_surplus: dict[int, int] = {}  # the columns with each surplus
    for j, omega in enumerate(supports):
        for i in omega:
            holders[i] |= 1 << j
        surplus = max(len(omega) - r, 0)
        by_surplus[surplus] = by_surplus.get(surplus, 0) | 1 << j

    def fits(left: int, groups: int) -> bool:
        return all((h & left).bit_count() >= groups for h in holders) and sum(
            s * (cols & left).bit_count() for s, cols in by_surplus.items()
        ) >= groups * (m - r)

    return fits


def _enumerate(
    pattern: ObservationPattern, r: int, kind: str, budget_nodes: int
) -> SearchOutcome:
    """The first partition in order whose groups all hold a linkage support; supports memoized.

    Each distinct column support lists its (r+1)-subsets once, and a group's
    pool joins its columns' lists; past ``MAX_SEARCH_SUBSETS`` listed subsets
    the search is inconclusive at 0 nodes, before listing any. At m > r a
    linkage support covers every row, so a group missing a row holds none:
    that test spends no node and runs before the memo, which keeps a result
    only because computing it (``_group_witness``) may spend budget.
    """
    groups = _expected_groups(kind, r)
    supports, m = pattern.column_supports(), pattern.m
    fits = _covering_test(supports, m, r)
    if not fits((1 << pattern.n) - 1, groups):
        return SearchOutcome(None, exhausted=True, nodes=0)
    bits = {omega: [1 << (m - 1 - i) for i in omega] for omega in set(supports)}
    if sum(comb(len(b), r + 1) for b in bits.values()) > MAX_SEARCH_SUBSETS:
        return SearchOutcome(None, exhausted=False, nodes=0, reason="subset_limit")
    masks = {omega: list(map(sum, combinations(b, r + 1))) for omega, b in bits.items()}
    pools, rows = [masks[w] for w in supports], [sum(bits[w]) for w in supports]
    budget = _Budget(budget_nodes)
    memo: dict[tuple[int, ...], Optional[SlmfWitness]] = {}

    def select(group: tuple[int, ...]) -> Optional[SlmfWitness]:
        if m > r and reduce(or_, (rows[k] for k in group)) != (1 << m) - 1:
            return None  # the memo holds only groups observing every row
        if group not in memo:
            memo[group] = _group_witness(pools, rows, group, m, r, budget)
        return memo[group]

    try:
        for found in _partitions(range(pattern.n), groups, budget, select, fits):
            cert = Certificate(
                kind=kind,
                partition=tuple(group for group, _ in found),
                slmfs=tuple(witness for _, witness in found),
            )
            return SearchOutcome(cert, exhausted=False, nodes=budget_nodes - budget.left)
    except _BudgetExhausted:
        return SearchOutcome(None, exhausted=False, nodes=budget_nodes)
    return SearchOutcome(None, exhausted=True, nodes=budget_nodes - budget.left)


def find_finite_certificate(
    pattern: ObservationPattern, r: int, budget: int = DEFAULT_BUDGET, jacobian: Optional[RankReport] = None
) -> SearchOutcome:
    """Search for an r-group certificate of finite completability; a pass of
    ``jacobian``, the pattern's ``jacobian_rank_test`` report at r, spares the row-set scan."""
    return _find_certificate(pattern, r, "finite", budget, jacobian)


def find_unique_certificate(
    pattern: ObservationPattern, r: int, budget: int = DEFAULT_BUDGET, jacobian: Optional[RankReport] = None
) -> SearchOutcome:
    """Search for an (r+1)-group certificate of unique completability; a pass
    of ``jacobian`` spares the row-set scan, as in ``find_finite_certificate``."""
    return _find_certificate(pattern, r, "unique", budget, jacobian)


def _least_row_set(
    pattern: ObservationPattern, r: int
) -> Optional[tuple[int, tuple[int, ...], Optional[tuple[int, ...]]]]:
    """Least slack(I) over row sets I of r+1 or more rows, the first I attaining
    it, and the first I of negative slack, or None when there is none.

    slack(I) = r(#I - r) - sum_j max(#(support_j intersect I) - r, 0). "First"
    is the smallest, then the lexicographically first. Row i is bit m-1-i, so a
    larger mask of one size is a lexicographically earlier I, and the order
    #I 2^m - mask is least for the first I; masks run from the largest down in
    chunks of ``_ROW_SET_CELLS`` (row set, column) pairs. None when m == r.
    """
    m, n = pattern.m, pattern.n
    supports = pattern.column_supports()
    columns = np.array([sum(1 << (m - 1 - i) for i in w) for w in supports], dtype=np.int64)
    step = max(1, _ROW_SET_CELLS // n)
    best = violated = None  # least (slack, order) and least order of a negative slack
    for high in range(1 << m, 0, -step):
        masks = np.arange(high - 1, max(high - step, 0) - 1, -1, dtype=np.int64)
        sizes = np.bitwise_count(masks).astype(np.int64)
        masks, sizes = masks[sizes > r], sizes[sizes > r]
        if not len(masks):
            continue
        # sum_j max(c_j, r) - r n is the surplus sum_j max(c_j - r, 0)
        capped = np.bitwise_count(masks & columns[:, None])
        capped = np.maximum(capped, np.uint8(r)).sum(axis=0, dtype=np.int64)
        slack = r * (sizes - r + n) - capped
        order = (sizes << m) - masks
        least = slack.min()
        key = (int(least), int(order[slack == least].min()))
        best = key if best is None else min(best, key)
        if least < 0:
            first = int(order[slack < 0].min())
            violated = first if violated is None else min(violated, first)
    if best is None:
        return None

    def rows(order: int) -> tuple[int, ...]:  # -order's low m bits are the mask
        return tuple(i for i in range(m) if -order >> (m - 1 - i) & 1)

    return best[0], rows(best[1]), None if violated is None else rows(violated)


def _line_bound(pattern: ObservationPattern, r: int) -> tuple[int, Optional[int]]:
    """|Omega| + slack(I), least over I all rows and all rows but one, and the row
    the first I attaining it leaves out: m when it is all rows, None at m == r,
    where neither has r+1 rows and the bound is |Omega|.

    On all rows it is sum_j min(#omega_j, r) + r(m-r). Leaving out row i lowers
    the slack by r and raises it by c_i, the columns of r+1 rows or more
    holding i, so the least is at the least c_i, on ties at the largest i, as
    ``_least_row_set`` orders row sets. O(|Omega|) time and memory.
    """
    m, supports = pattern.m, pattern.column_supports()
    if m == r:
        return pattern.size, None
    bound = sum(min(len(omega), r) for omega in supports) + r * (m - r)
    held = Counter(i for omega in supports if len(omega) > r for i in omega)
    least = min(held.values()) if len(held) == m else 0
    if least > r or m == r + 1:  # at m = r+1 all rows but one are only r rows
        return bound, m
    return bound + least - r, next(i for i in reversed(range(m)) if held[i] == least)


def _counting_bound(
    pattern: ObservationPattern, r: int
) -> tuple[int, Optional[tuple[int, ...]], Optional[tuple[int, ...]]]:
    """Upper bound on any sub-pattern passing the counting test, its row set,
    and the first row set breaking a counting inequality (None when none does).

    In a row set I a passing S keeps at most min(#(omega_j intersect I), r) +
    max(#(S_j intersect I) - r, 0) entries of column j, and those surpluses
    sum to at most r(#I - r), so |S| <= |Omega| + slack_Omega(I) for every I.
    Up to ``ROW_SET_LIMIT`` rows it is the least over all row sets, and every
    counting inequality holds iff it reaches |Omega|. Above, it is the line
    bound, and the first breaking row set is left None, unscanned. Kept on
    the pattern object per r: the searches, the counting test and the
    necessary condition of one analysis share one scan.
    """
    shared, key = pattern._shared, ("counting_bound", r)
    if key not in shared:
        if pattern.m > ROW_SET_LIMIT:
            bound, out = _line_bound(pattern, r)
            shared[key] = (bound, None if out is None else tuple(i for i in range(pattern.m) if i != out), None)
        else:
            least = _least_row_set(pattern, r)
            shared[key] = (pattern.size, None, None) if least is None else (pattern.size + least[0], *least[1:])
    return shared[key]


def _greedy_counting_set(pattern: ObservationPattern, r: int) -> list[tuple[int, int]]:
    """Entries kept, in ``sorted_entries()`` order, while every counting inequality holds.

    Entry (i, j) raises the surplus by one exactly on the row sets containing
    i where column j already keeps r rows; it joins iff each has slack left.
    So a set of r(m+n-r) entries passes the counting test. The row sets and
    their slacks are two arrays over all 2^m row sets, int32 and int16: at
    m <= ``ROW_SET_LIMIT`` the slack lies within r*m <= 400 of 0.
    """
    m = pattern.m
    target = r * (m + pattern.n - r)
    masks = np.arange(1 << m, dtype=np.int32)
    slack = r * (np.bitwise_count(masks).astype(np.int16) - r)
    kept_masks = [0] * pattern.n
    kept: list[tuple[int, int]] = []
    for i, j in pattern.sorted_entries():
        bit = 1 << (m - 1 - i)
        if kept_masks[j].bit_count() >= r:
            # row sets containing row i, as views into the full arrays
            room = slack.reshape(-1, 2, bit)[:, 1]
            hit = np.bitwise_count(masks.reshape(-1, 2, bit)[:, 1] & kept_masks[j]) >= r
            if room.min(initial=1, where=hit) < 1:
                continue
            np.subtract(room, 1, out=room, where=hit)
        kept_masks[j] |= bit
        kept.append((i, j))
        if len(kept) == target:
            break
    return kept


@dataclass(frozen=True)
class RelaxedSlmfVerdict:
    """Outcome of the exact-size counting test.

    ``ok`` is None, with reason "row_limit", where ``check_necessary_condition``
    leaves an exact-size pattern undecided: more than ``ROW_SET_LIMIT`` rows,
    a Jacobian that falls short and a line bound that does not refute.
    ``violating_rows`` is the first row set (smallest, then lexicographic)
    breaking the counting inequality, when one exists and the pattern has at
    most ``ROW_SET_LIMIT`` rows.
    """

    ok: Optional[bool]
    reason: Optional[str]  # None | "size" | "row_limit" | "inequality"
    violating_rows: Optional[tuple[int, ...]]
    required_size: int
    actual_size: int


def check_relaxed_slmf(
    pattern: ObservationPattern, r: int, jacobian: Optional[RankReport] = None
) -> RelaxedSlmfVerdict:
    """Counting test for patterns of exact size r(m+n-r).

    Requires, for every row subset I with at least r+1 rows, that the observed
    surplus sum_j max(#(support_j intersect I) - r, 0) not exceed r(#I - r),
    which holds iff the counting bound reaches the size. Equality at the full
    row set follows, as the surplus there is at least r(m - r). At the exact
    size the pattern is its only exact-size sub-pattern, so this reads the
    verdict of ``check_necessary_condition`` with ``jacobian`` (run at seed 0
    when not given): a Jacobian pass, or at r = 1 a connected row-column
    graph, decides it at any size. A report of another mask or rank raises
    ValueError at any size.
    """
    r = _checked_rank(pattern, r)
    required = r * (pattern.m + pattern.n - r)
    actual = pattern.size
    _jacobian_proves(pattern, r, jacobian)  # refuses a report of another mask or rank
    if actual != required:
        return RelaxedSlmfVerdict(False, "size", None, required, actual)
    ok = check_necessary_condition(pattern, r, jacobian).contains_relaxed
    violated = _counting_bound(pattern, r)[2] if ok is False else None
    reason = {True: None, False: "inequality", None: "row_limit"}[ok]
    return RelaxedSlmfVerdict(ok, reason, violated, required, actual)


@dataclass(frozen=True)
class NecessaryConditionVerdict:
    """Whether the pattern contains an exact-size sub-pattern passing the test.

    ``contains_relaxed`` is None when the condition is left undecided: at
    r >= 2, a Jacobian that falls short, and then more than
    ``ROW_SET_LIMIT`` rows or a greedy set short of a bound that does not
    refute. ``nodes`` is 0 when the size check decides or nothing does
    above ``ROW_SET_LIMIT`` rows, else 1. ``witness`` is the passing
    sub-pattern: a spanning tree at r = 1, the entries of a row basis of the
    Jacobian, the pattern itself, or the greedy set. ``refuting_rows``
    (0-based) is set only on a refutation by the counting bound, and names
    the row set that caps passing sub-patterns below r(m+n-r).
    """

    contains_relaxed: Optional[bool]
    witness: Optional[ObservationPattern]
    nodes: int
    refuting_rows: Optional[tuple[int, ...]] = None


def check_necessary_condition(
    pattern: ObservationPattern, r: int, jacobian: Optional[RankReport] = None
) -> NecessaryConditionVerdict:
    """Decide whether a size-r(m+n-r) sub-pattern passes the counting test.

    This is a necessary condition for finite completability, never claimed
    sufficient. A pattern below the exact size fails at 0 nodes. Otherwise
    the first of these that decides spends one node:

    1. At r = 1 the passing sets are the forests of the row-column graph, a
       graphic matroid, so the condition holds iff that graph is connected,
       with a spanning tree as witness, at any size.
    2. At r >= 2, a pass of ``jacobian``, the pattern's
       ``jacobian_rank_test`` report at r (run here when not given), at any
       size: the entries of its row basis are a finitely completable
       exact-size sub-pattern, which passes the counting test
       (``_jacobian_proves``).
    3. A counting bound below r(m+n-r) refutes and names its row set, at
       any size: above ``ROW_SET_LIMIT`` rows it is the line bound. At r = 1
       a disconnected graph refutes at any size, with or without it.
    4. An exact-size pattern the bound does not refute is its own witness.
    5. Above the exact size, a greedy set reaching r(m+n-r) entries is the
       witness, as it passes the test by construction. This 2^m scan is the
       one step that runs only where the Jacobian falls short.

    Otherwise the verdict is None, at 0 nodes above ``ROW_SET_LIMIT`` rows.
    """
    r = _checked_rank(pattern, r)
    target = r * (pattern.m + pattern.n - r)
    if jacobian is None and r > 1 and pattern.size >= target:
        try:
            jacobian = jacobian_rank_test(pattern, r)
        except TangentSizeError:  # too large to set up, so no witness from it
            pass
    proved = _jacobian_proves(pattern, r, jacobian)
    if pattern.size < target:
        return NecessaryConditionVerdict(False, None, 0)
    if r == 1:
        tree, _ = _row_column_forest(pattern.sorted_entries())
        if len(tree) == target:
            return NecessaryConditionVerdict(True, pattern.restrict(tree), 1)
    elif proved:
        return NecessaryConditionVerdict(True, pattern.restrict(jacobian.row_basis), 1)
    bound, rows, _ = _counting_bound(pattern, r)
    if bound < target:
        return NecessaryConditionVerdict(False, None, 1, refuting_rows=rows)
    if r == 1:
        return NecessaryConditionVerdict(False, None, 1)
    if pattern.m > ROW_SET_LIMIT:
        return NecessaryConditionVerdict(None, None, 0)
    if pattern.size == target:
        return NecessaryConditionVerdict(True, pattern, 1)
    kept = _greedy_counting_set(pattern, r)
    if len(kept) == target:
        return NecessaryConditionVerdict(True, pattern.restrict(kept), 1)
    return NecessaryConditionVerdict(None, None, 1)


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(_certificate_dict(cert))


def _certificate_dict(cert: Certificate) -> dict:
    """The JSON object of a certificate, 1-based, as ``certificate_to_json`` writes it."""
    return {
        "kind": cert.kind,
        "partition": [[c + 1 for c in group] for group in cert.partition],
        "slmfs": [
            {
                "columns": [
                    {"support": [i + 1 for i in support], "source_column": source + 1}
                    for support, source in zip(w.supports, w.sources)
                ]
            }
            for w in cert.slmfs
        ],
    }


def _json_index(value) -> int:
    """A 1-based JSON integer as a 0-based index; any other number, a bool too, is refused."""
    if not _is_int(value):
        raise ValueError(f"bad certificate JSON: {json.dumps(value)} is not an integer")
    return value - 1


def certificate_from_json(text: str) -> Certificate:
    """A certificate as ``certificate_to_json`` writes it; ``ValueError`` where an index is no JSON integer."""
    payload = json.loads(text)
    partition = tuple(tuple(map(_json_index, group)) for group in payload["partition"])
    slmfs = tuple(
        SlmfWitness(
            supports=tuple(tuple(map(_json_index, col["support"])) for col in item["columns"]),
            sources=tuple(_json_index(col["source_column"]) for col in item["columns"]),
        )
        for item in payload["slmfs"]
    )
    return Certificate(kind=str(payload["kind"]), partition=partition, slmfs=slmfs)
