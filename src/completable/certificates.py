"""Certificate search and verification for finite and unique completability.

A certificate partitions the pattern's columns into r groups (finite case) or
r+1 groups (unique case) and exhibits, per group, a linkage support whose
columns are (r+1)-subsets drawn from the supports of that group's pattern
columns. Verification is exact. The search enumerates partitions
exhaustively; within a group it selects the linkage support greedily, since
the candidate families form a matroid whose independence test is a bipartite
matching. It is complete at desk scale and budget-bounded beyond it.

One numpy kernel over row bitmasks gives the exact counting test and an upper
bound on passing sub-patterns; a bound below r(m+n-r) rules out certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .patterns import ObservationPattern, column_subsets
from .slmf import Slmf, check_slmf_combinatorial

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
        if not witness.supports:
            continue  # m == r leaves nothing to check
        verdict = check_slmf_combinatorial(witness.as_slmf(pattern.m, r))
        if not verdict.is_slmf:
            return VerificationResult(
                False,
                "ii",
                f"group {nu + 1}: covering inequality fails at columns "
                f"{tuple(t + 1 for t in verdict.witness)}",
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


def _lex_subsets_containing_first(rest: list[int]) -> Iterator[list[int]]:
    """Subsets of ``rest`` in lexicographic tuple order (empty set first)."""

    def gen(prefix: list[int], start: int) -> Iterator[list[int]]:
        yield prefix
        for idx in range(start, len(rest)):
            yield from gen(prefix + [rest[idx]], idx + 1)

    yield from gen([], 0)


def _partitions(columns: Sequence[int], groups: int, budget: _Budget) -> Iterator[list[tuple[int, ...]]]:
    """Partitions into ``groups`` nonempty parts, groups ordered by least member.

    Enumeration is lexicographic on the tuple of groups, so the partition
    whose leading groups are smallest in tuple order comes first.
    """
    columns = sorted(columns)
    if groups <= 0 or len(columns) < groups:
        return
    if groups == 1:
        yield [tuple(columns)]
        return
    first, rest = columns[0], columns[1:]
    for extra in _lex_subsets_containing_first(rest):
        budget.spend()
        if len(rest) - len(extra) < groups - 1:
            continue
        group = tuple([first] + extra)
        taken = set(extra)
        remaining = [c for c in rest if c not in taken]
        for tail in _partitions(remaining, groups - 1, budget):
            yield [group] + tail


def _column_pools(
    supports: Sequence[Sequence[int]], r: int
) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per column, its (r+1)-subsets in lexicographic order with their row bitmasks."""
    return [
        [(subset, sum(1 << i for i in subset)) for subset in column_subsets(omega, r + 1)]
        for omega in supports
    ]


def _group_pool(
    column_pools: Sequence[Sequence[tuple[tuple[int, ...], int]]], group: Sequence[int]
) -> list[tuple[tuple[int, ...], int, int]]:
    """Deduplicated (subset, source column, row bitmask) pool for a group, lexicographic."""
    pool: dict[tuple[int, ...], tuple[tuple[int, ...], int, int]] = {}
    for k in sorted(group):
        for subset, mask in column_pools[k]:
            if subset not in pool:
                pool[subset] = (subset, k, mask)
    return sorted(pool.values())


def _augment(
    v: int, rows_of: Sequence[Sequence[int]], owner: list[int], seen: list[bool]
) -> bool:
    """Kuhn's step: match left vertex ``v``, re-matching others along an augmenting path."""
    for u in rows_of[v]:
        if not seen[u]:
            seen[u] = True
            w = owner[u]
            if w < 0 or _augment(w, rows_of, owner, seen):
                owner[u] = v
                return True
    return False


def _first_slmf_selection(
    pool: list[tuple[tuple[int, ...], int, int]], m: int, r: int, budget: _Budget
) -> Optional[SlmfWitness]:
    """Lexicographically first choice of m-r pool subsets forming an SLMF.

    The families whose every subfamily of t subsets covers at least t+r rows
    are the independent sets of the matroid induced by |N(S)| - r (Edmonds),
    so greedy over the pool in order yields the lexicographically first
    basis. A candidate is independent of the chosen subsets iff, alongside a
    matching of each chosen subset to its own row, r+1 copies of it can be
    matched too (surplus form of Hall's theorem); the matching of the chosen
    subsets is kept between candidates, so each test is r+1 augmentations.
    """
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
        # the complete family must cover every row
        return None

    chosen: list[int] = []
    rows_of: list[tuple[int, ...]] = []  # rows of the chosen subsets, in order
    owner = [-1] * m  # owner[i]: position in ``chosen`` matched to row i, or -1
    covered = 0
    for idx, (subset, _, mask) in enumerate(pool):
        budget.spend()
        k = len(chosen)
        if len(pool) - idx < needed - k:
            break
        if (suffix_union[idx] | covered) != full:
            # rows missing from everything still available; later
            # candidates only shrink the reachable union
            break
        trial = owner[:]
        copies = rows_of + [subset] * (r + 1)
        if not all(_augment(v, copies, trial, [False] * m) for v in range(k, k + r + 1)):
            continue
        # the r+1 copies hold exactly the candidate's rows; keep the first
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


def _enumerate(
    pattern: ObservationPattern, r: int, kind: str, budget_nodes: int
) -> SearchOutcome:
    """Partitions in order, each group's first linkage support greedily, memoized."""
    groups = _expected_groups(kind, r)
    budget = _Budget(budget_nodes)
    column_pools = _column_pools(pattern.column_supports(), r)
    memo: dict[frozenset[int], Optional[SlmfWitness]] = {}
    try:
        for partition in _partitions(range(pattern.n), groups, budget):
            witnesses = []
            for group in partition:
                key = frozenset(group)
                if key not in memo:
                    memo[key] = _first_slmf_selection(
                        _group_pool(column_pools, group), pattern.m, r, budget
                    )
                if memo[key] is None:
                    witnesses = None
                    break
                witnesses.append(memo[key])
            if witnesses is not None:
                cert = Certificate(
                    kind=kind, partition=tuple(partition), slmfs=tuple(witnesses)
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


def _counting_bound(
    pattern: ObservationPattern, r: int
) -> tuple[int, Optional[tuple[int, ...]]]:
    """Upper bound on any sub-pattern passing the counting test, and its row set.

    In a row set I a passing S keeps at most min(#(omega_j intersect I), r) +
    max(#(S_j intersect I) - r, 0) entries of column j, and those surpluses
    sum to at most r(#I - r), so |S| <= |Omega| + slack_Omega(I) for every I.
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

    ``violating_rows`` is the first row set (smallest, then lexicographic)
    breaking the counting inequality, when one exists.
    """

    ok: bool
    reason: Optional[str]  # None | "size" | "inequality" | "equality"
    violating_rows: Optional[tuple[int, ...]]
    required_size: int
    actual_size: int


def check_relaxed_slmf(pattern: ObservationPattern, r: int) -> RelaxedSlmfVerdict:
    """Counting test for patterns of exact size r(m+n-r).

    Requires, for every row subset I with at least r+1 rows, that the observed
    surplus sum_j max(#(support_j intersect I) - r, 0) not exceed r(#I - r),
    with equality at the full row set.
    """
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    m, n = pattern.m, pattern.n
    required = r * (m + n - r)
    actual = pattern.size
    if actual != required:
        return RelaxedSlmfVerdict(False, "size", None, required, actual)
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
    sufficient. A pattern below the exact size fails at 0 nodes; one of the
    exact size is a single direct check.

    A larger pattern of at most ``ROW_SET_LIMIT`` rows costs one node: a
    counting bound below r(m+n-r) refutes the condition, or a greedy set
    reaching r(m+n-r) entries, confirmed by ``check_relaxed_slmf``, is the
    witness. At r = 1 the passing sets are the forests of the bipartite
    row-column graph, a graphic matroid, so a greedy set short of the target
    refutes too. Otherwise, at a zero budget, or above ``ROW_SET_LIMIT`` rows
    the verdict is None.
    """
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range")
    target = r * (pattern.m + pattern.n - r)
    if pattern.size < target:
        return NecessaryConditionVerdict(False, None, 0)
    if pattern.size == target:
        verdict = check_relaxed_slmf(pattern, r)
        return NecessaryConditionVerdict(
            verdict.ok, pattern if verdict.ok else None, 1
        )
    if budget < 1 or pattern.m > ROW_SET_LIMIT:
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
