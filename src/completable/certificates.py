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

One numpy kernel over row bitmasks gives the exact counting test and an upper
bound on passing sub-patterns; a bound below r(m+n-r) rules out certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .patterns import ObservationPattern, column_subsets
from .slmf import (
    EXHAUSTIVE_COLUMN_LIMIT,
    Slmf,
    check_slmf_combinatorial,
    first_linkage_support,
)

DEFAULT_BUDGET = 10**7
# most rows for which the bound and the greedy scan all 2^m row sets: on a 2-CPU
# host they take 0.8 s on a 20 x 20 mask at r = 3, doubling with each row
ROW_SET_LIMIT = 20
_ROW_SET_CELLS = 1 << 20  # (row set, column) pairs the kernel evaluates at once


class _BudgetExhausted(Exception):
    pass


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int) -> None:
        self.left = int(nodes)

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
            self, "supports", tuple(tuple(sorted(s)) for s in self.supports)
        )
        object.__setattr__(self, "sources", tuple(int(k) for k in self.sources))

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
            self, "partition", tuple(tuple(sorted(g)) for g in self.partition)
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
            if source not in group:
                return VerificationResult(
                    False, "ii", f"group {nu + 1}: source column {source + 1} is not in the group"
                )
            if len(support) != r + 1:
                return VerificationResult(
                    False, "ii", f"group {nu + 1}: support {tuple(s + 1 for s in support)} has size != r+1"
                )
            if not set(support) <= set(supports[source]):
                return VerificationResult(
                    False,
                    "ii",
                    f"group {nu + 1}: support {tuple(s + 1 for s in support)} not contained "
                    f"in column {source + 1}",
                )
        masks = [sum(1 << i for i in s) for s in witness.supports]
        if first_linkage_support(masks, pattern.m, r) is None:
            if len(masks) > EXHAUSTIVE_COLUMN_LIMIT:
                where = f"(no minimum witness past {EXHAUSTIVE_COLUMN_LIMIT} supports)"
            else:
                least = check_slmf_combinatorial(witness.as_slmf(pattern.m, r)).witness
                where = f"at columns {tuple(t + 1 for t in least)}"
            return VerificationResult(
                False, "ii", f"group {nu + 1}: covering inequality fails {where}"
            )
    return VerificationResult(True, None, "all clauses hold")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a certificate search.

    ``exhausted`` records whether the whole search space was covered; a search
    that ran out of budget is inconclusive rather than negative.
    """

    certificate: Optional[Certificate]
    exhausted: bool
    nodes: int

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


def _subset_table(
    supports: Sequence[Sequence[int]], r: int
) -> tuple[list[tuple[int, ...]], list[int], list[list[int]], list[int]]:
    """The distinct (r+1)-subsets of the column supports in lexicographic order,
    their row bitmasks, for each column the positions of its subsets
    (increasing), and each column's row bitmask."""
    held = [column_subsets(omega, r + 1) for omega in supports]
    subsets = sorted(set().union(*held))
    position = {s: t for t, s in enumerate(subsets)}
    positions = [[position[s] for s in column] for column in held]
    rows = [sum(1 << i for i in omega) for omega in supports]
    return subsets, [sum(1 << i for i in s) for s in subsets], positions, rows


def _group_witness(
    table: tuple[list[tuple[int, ...]], list[int], list[list[int]], list[int]],
    group: Sequence[int],
    m: int,
    r: int,
    budget: _Budget,
) -> Optional[SlmfWitness]:
    """The group's lexicographically first linkage support, each subset from its least column."""
    subsets, masks, positions, rows = table
    if m > r and reduce(or_, (rows[k] for k in group)) != (1 << m) - 1:
        return None  # a linkage support covers every row
    pool = sorted(set().union(*(positions[k] for k in group)))
    chosen = first_linkage_support([masks[t] for t in pool], m, r, budget.spend)
    if chosen is None:
        return None
    picked = [pool[c] for c in chosen]
    return SlmfWitness(
        supports=tuple(subsets[t] for t in picked),
        sources=tuple(next(k for k in group if masks[t] & ~rows[k] == 0) for t in picked),
    )


def _find_certificate(
    pattern: ObservationPattern, r: int, kind: str, budget_nodes: int
) -> SearchOutcome:
    """Enumerate unless a small column or the counting bound rules certificates out.

    Certificate => finitely completable => full generic Jacobian rank
    r(m+n-r) (Kiraly-Theran-Tomioka) => a row basis of that Jacobian is a
    finitely completable exact-size sub-pattern => it passes the counting test
    (Pimentel-Alarcon-Boston-Nowak). The bound is not charged to the budget.
    """
    target = r * (pattern.m + pattern.n - r)
    if any(len(omega) < r for omega in pattern.column_supports()) or (
        pattern.m <= ROW_SET_LIMIT and _counting_bound(pattern, r)[0] < target
    ):
        return SearchOutcome(None, exhausted=True, nodes=0)
    return _enumerate(pattern, r, kind, budget_nodes)


def _covering_test(supports: Sequence[Sequence[int]], m: int, r: int) -> Callable[[int, int], bool]:
    """fits(left, g): whether the columns in bitmask ``left`` might hold g linkage supports.

    A linkage support's m-r subsets cover all m rows, and at most
    (#omega_j - r)^+ of them lie in column j. So g of them need every row
    observed g times, and surpluses summing to g(m-r). At m = r the first
    part holds for columns of at least r rows, which ``_find_certificate`` checks.
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
    """The first partition in order whose groups all hold a linkage support; supports memoized."""
    groups = _expected_groups(kind, r)
    fits = _covering_test(pattern.column_supports(), pattern.m, r)
    if not fits((1 << pattern.n) - 1, groups):
        return SearchOutcome(None, exhausted=True, nodes=0)
    budget = _Budget(budget_nodes)
    table = _subset_table(pattern.column_supports(), r)
    memo: dict[tuple[int, ...], Optional[SlmfWitness]] = {}

    def select(group: tuple[int, ...]) -> Optional[SlmfWitness]:
        if group not in memo:
            memo[group] = _group_witness(table, group, pattern.m, r, budget)
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
    pattern: ObservationPattern, r: int, budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Search for an r-group certificate of finite completability."""
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    return _find_certificate(pattern, r, "finite", budget)


def find_unique_certificate(
    pattern: ObservationPattern, r: int, budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Search for an (r+1)-group certificate of unique completability."""
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    return _find_certificate(pattern, r, "unique", budget)


def _least_row_set(
    pattern: ObservationPattern, r: int, score, stop=None
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Least score(slack(I)) over row sets I of r+1 or more rows, and the first I attaining it.

    slack(I) = r(#I - r) - sum_j max(#(support_j intersect I) - r, 0). Row i is
    bit m-1-i, so a larger mask of one size is a lexicographically earlier I;
    masks run from the largest down in chunks of ``_ROW_SET_CELLS`` (row set,
    column) pairs, until (score, #I) reaches ``stop``. None when m == r.
    """
    m, n = pattern.m, pattern.n
    supports = pattern.column_supports()
    columns = np.array([sum(1 << (m - 1 - i) for i in w) for w in supports], dtype=np.int64)
    step = max(1, _ROW_SET_CELLS // n)
    best = None
    for high in range(1 << m, 0, -step):
        masks = np.arange(high - 1, max(high - step, 0) - 1, -1, dtype=np.int64)
        sizes = np.bitwise_count(masks).astype(np.int64)
        masks, sizes = masks[sizes > r], sizes[sizes > r]
        if not len(masks):
            continue
        # sum_j max(c_j, r) - r n is the surplus sum_j max(c_j - r, 0)
        capped = np.bitwise_count(masks & columns[:, None])
        capped = np.maximum(capped, np.uint8(r)).sum(axis=0, dtype=np.int64)
        values = score(r * (sizes - r + n) - capped)
        pick = values == values.min()
        size = sizes[pick].min()
        key = (int(values.min()), int(size), -int(masks[pick & (sizes == size)][0]))
        best = key if best is None else min(best, key)
        if best[:2] == stop:
            break
    if best is None:
        return None
    return best[0], tuple(i for i in range(m) if -best[2] >> (m - 1 - i) & 1)


@lru_cache(maxsize=8)
def _counting_bound(
    pattern: ObservationPattern, r: int
) -> tuple[int, Optional[tuple[int, ...]]]:
    """Upper bound on any sub-pattern passing the counting test, and its row set.

    In a row set I a passing S keeps at most min(#(omega_j intersect I), r) +
    max(#(S_j intersect I) - r, 0) entries of column j, and those surpluses
    sum to at most r(#I - r), so |S| <= |Omega| + slack_Omega(I) for every I.
    Memoized, so the two certificate searches and the necessary condition of
    one analysis share one scan.
    """
    least = _least_row_set(pattern, r, lambda slack: slack)
    return (pattern.size, None) if least is None else (pattern.size + least[0], least[1])


def _greedy_counting_set(pattern: ObservationPattern, r: int) -> list[tuple[int, int]]:
    """Entries kept, in ``sorted_entries()`` order, while every counting inequality holds.

    Entry (i, j) raises the surplus by one exactly on the row sets containing
    i where column j already keeps r rows; it joins iff each has slack left.
    """
    m = pattern.m
    target = r * (m + pattern.n - r)
    masks = np.arange(1 << m, dtype=np.int64)
    slack = r * (np.bitwise_count(masks).astype(np.int64) - r)
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

    ``ok`` is None, with reason "row_limit", for an exact-size pattern of
    more than ``ROW_SET_LIMIT`` rows, whose 2^m row sets are not scanned.
    ``violating_rows`` is the first row set (smallest, then lexicographic)
    breaking the counting inequality, when one exists.
    """

    ok: Optional[bool]
    reason: Optional[str]  # None | "size" | "row_limit" | "inequality" | "equality"
    violating_rows: Optional[tuple[int, ...]]
    required_size: int
    actual_size: int


def check_relaxed_slmf(pattern: ObservationPattern, r: int) -> RelaxedSlmfVerdict:
    """Counting test for patterns of exact size r(m+n-r).

    Requires, for every row subset I with at least r+1 rows, that the observed
    surplus sum_j max(#(support_j intersect I) - r, 0) not exceed r(#I - r),
    with equality at the full row set. Above ``ROW_SET_LIMIT`` rows only the
    size is checked.
    """
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    m, n = pattern.m, pattern.n
    required = r * (m + n - r)
    actual = pattern.size
    if actual != required:
        return RelaxedSlmfVerdict(False, "size", None, required, actual)
    if m > ROW_SET_LIMIT:
        return RelaxedSlmfVerdict(None, "row_limit", None, required, actual)
    # a violated row set scores 0 (False); none comes before one of r+1 rows
    least = _least_row_set(pattern, r, lambda slack: slack >= 0, stop=(0, r + 1))
    if least is not None and least[0] == 0:
        return RelaxedSlmfVerdict(False, "inequality", least[1], required, actual)
    total_surplus = sum(
        max(len(omega) - r, 0) for omega in pattern.column_supports()
    )
    if total_surplus != r * (m - r):
        return RelaxedSlmfVerdict(
            False, "equality", tuple(range(m)), required, actual
        )
    return RelaxedSlmfVerdict(True, None, None, required, actual)


@dataclass(frozen=True)
class NecessaryConditionVerdict:
    """Whether the pattern contains an exact-size sub-pattern passing the test.

    ``contains_relaxed`` is None when the condition is left undecided: a zero
    budget, more than ``ROW_SET_LIMIT`` rows, or, at r >= 2, a greedy set
    short of a bound that does not refute. ``nodes`` is 0 or 1.
    ``refuting_rows`` (0-based) is set only on a refutation by the counting
    bound, and names the row set that caps passing sub-patterns below r(m+n-r).
    """

    contains_relaxed: Optional[bool]
    witness: Optional[ObservationPattern]
    nodes: int
    refuting_rows: Optional[tuple[int, ...]] = None


def check_necessary_condition(
    pattern: ObservationPattern, r: int, budget: int = DEFAULT_BUDGET
) -> NecessaryConditionVerdict:
    """Decide whether a size-r(m+n-r) sub-pattern passes the counting test.

    This is a necessary condition for finite completability, never claimed
    sufficient. A pattern below the exact size fails at 0 nodes; any other
    pattern of more than ``ROW_SET_LIMIT`` rows is undecided at 0 nodes; one
    of the exact size is a single direct check.

    A larger pattern of at most ``ROW_SET_LIMIT`` rows costs one node: a
    counting bound below r(m+n-r) refutes the condition, or a greedy set
    reaching r(m+n-r) entries, confirmed by ``check_relaxed_slmf``, is the
    witness. At r = 1 the passing sets are the forests of the bipartite
    row-column graph, a graphic matroid, so a greedy set short of the target
    refutes too. Otherwise, or at a zero budget, the verdict is None.
    """
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    target = r * (pattern.m + pattern.n - r)
    if pattern.size < target:
        return NecessaryConditionVerdict(False, None, 0)
    if pattern.m > ROW_SET_LIMIT:
        return NecessaryConditionVerdict(None, None, 0)
    if pattern.size == target:
        verdict = check_relaxed_slmf(pattern, r)
        return NecessaryConditionVerdict(
            verdict.ok, pattern if verdict.ok else None, 1
        )
    if budget < 1:
        return NecessaryConditionVerdict(None, None, 0)
    bound, rows = _counting_bound(pattern, r)
    if bound < target:
        return NecessaryConditionVerdict(False, None, 1, refuting_rows=rows)
    kept = _greedy_counting_set(pattern, r)
    if len(kept) == target:
        candidate = pattern.restrict(kept)
        if check_relaxed_slmf(candidate, r).ok:
            return NecessaryConditionVerdict(True, candidate, 1)
    elif r == 1:
        # a greedy forest is a largest forest
        return NecessaryConditionVerdict(False, None, 1)
    return NecessaryConditionVerdict(None, None, 1)


def certificate_to_json(cert: Certificate) -> str:
    payload = {
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
    return json.dumps(payload)


def certificate_from_json(text: str) -> Certificate:
    payload = json.loads(text)
    partition = tuple(tuple(int(c) - 1 for c in group) for group in payload["partition"])
    slmfs = tuple(
        SlmfWitness(
            supports=tuple(
                tuple(int(i) - 1 for i in col["support"]) for col in item["columns"]
            ),
            sources=tuple(int(col["source_column"]) - 1 for col in item["columns"]),
        )
        for item in payload["slmfs"]
    )
    return Certificate(kind=str(payload["kind"]), partition=partition, slmfs=slmfs)
