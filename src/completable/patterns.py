"""Observation patterns: the 0/1 masks whose completability the library analyzes.

A pattern is a set of observed (row, column) positions of an m-by-n matrix.
Indices are 0-based everywhere inside the library; every textual or JSON
interface speaks 1-based, matching the usual mathematical convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable

import numpy as np

from .plucker import _restore


class PatternFormatError(ValueError):
    """A pattern grid or JSON document could not be parsed."""


@dataclass(frozen=True)
class ObservationPattern:
    """An m-by-n observation mask stored as 0-based (row, column) pairs."""

    m: int
    n: int
    entries: frozenset[tuple[int, int]]
    __setstate__ = _restore

    def __post_init__(self) -> None:
        m, n = index(self.m), index(self.n)
        if m <= 0 or n <= 0:
            raise ValueError(f"dimensions must be positive, got {m} x {n}")
        entries = frozenset((index(i), index(j)) for i, j in self.entries)
        for i, j in entries:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) outside a {m} x {n} grid")
        self.__dict__.update(m=m, n=n, entries=entries)

    def __getstate__(self) -> dict:
        # pickle and copy take the fields, not the results cached beside them
        return {"m": self.m, "n": self.n, "entries": self.entries}

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def _column_supports(self) -> tuple[tuple[int, ...], ...]:
        # kept in the instance dict, outside the fields that eq, hash and repr read
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.entries:
            rows[j].append(i)
        return tuple(tuple(sorted(r)) for r in rows)

    @cached_property
    def _shared(self) -> dict:  # one Jacobian report and the counting bounds, kept like _column_supports
        return {}

    def column_support(self, j: int) -> tuple[int, ...]:
        """Sorted observed row indices of column ``j``."""
        if not 0 <= j < self.n:
            raise ValueError(f"column {j} out of range")
        return self._column_supports[j]

    def column_supports(self) -> tuple[tuple[int, ...], ...]:
        """Sorted observed row indices of every column, computed once per pattern."""
        return self._column_supports

    def empty_columns(self) -> tuple[int, ...]:
        supports = self.column_supports()
        return tuple(j for j in range(self.n) if not supports[j])

    def sorted_entries(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def restrict(self, keep: Iterable[tuple[int, int]]) -> "ObservationPattern":
        """Sub-pattern on the same grid containing only ``keep`` entries."""
        keep = frozenset(keep)
        if not keep <= self.entries:
            raise ValueError("restriction is not a subset of the observed entries")
        return ObservationPattern(self.m, self.n, keep)


def parse_pattern(text: str) -> ObservationPattern:
    """Parse an ASCII 0/1 grid, one matrix row per line.

    Raises:
        PatternFormatError: on empty input, ragged lines or characters other
            than ``0``/``1``; the message names the offending line and column
            (1-based).
    """
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if not lines:
        raise PatternFormatError("empty pattern: no grid lines found")
    width = len(lines[0])
    entries = set()
    for i, line in enumerate(lines):
        if len(line) != width:
            raise PatternFormatError(
                f"line {i + 1}: expected {width} characters, got {len(line)}"
            )
        for j, ch in enumerate(line):
            if ch == "1":
                entries.add((i, j))
            elif ch != "0":
                raise PatternFormatError(
                    f"line {i + 1}, column {j + 1}: illegal character {ch!r}"
                )
    return ObservationPattern(len(lines), width, frozenset(entries))


def pattern_to_grid(pattern: ObservationPattern) -> str:
    rows = []
    for i in range(pattern.m):
        rows.append(
            "".join("1" if (i, j) in pattern.entries else "0" for j in range(pattern.n))
        )
    return "\n".join(rows) + "\n"


def _is_int(value) -> bool:
    return type(value) is int  # a JSON integer; bool is a subclass of int


def pattern_from_json(text: str) -> ObservationPattern:
    """Parse the JSON pattern format, 1-based; every number must be a JSON integer,
    and each pair appear once.

    Raises:
        PatternFormatError: naming the first bad entry as written, with its
            1-based position in the list.
    """
    try:
        payload = json.loads(text)
        m, n, pairs = payload["m"], payload["n"], payload["entries"]
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise PatternFormatError(f"bad pattern JSON: {exc}") from exc
    for name, value in (("m", m), ("n", n)):
        if not _is_int(value):
            raise PatternFormatError(f'bad pattern JSON: "{name}" must be an integer, got {json.dumps(value)}')
    if m <= 0 or n <= 0:
        raise PatternFormatError(f"dimensions must be positive, got {m} x {n}")
    if not isinstance(pairs, list):
        raise PatternFormatError('bad pattern JSON: "entries" must be a list of [i, j] pairs')
    entries = {}  # each pair's 1-based position in the list
    for t, pair in enumerate(pairs, 1):
        shown = f"entry {t} {json.dumps(pair)}"
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise PatternFormatError(f"bad pattern JSON: {shown} is not a pair of integers")
        i, j = pair
        if not (1 <= i <= m and 1 <= j <= n):
            raise PatternFormatError(f"{shown} outside a {m} x {n} grid (rows and columns count from 1)")
        if (i - 1, j - 1) in entries:
            raise PatternFormatError(f"bad pattern JSON: {shown} repeats entry {entries[i - 1, j - 1]}")
        entries[i - 1, j - 1] = t
    return ObservationPattern(m, n, frozenset(entries))


def load_pattern(text: str) -> ObservationPattern:
    """Parse either the grid or the JSON pattern format, by sniffing."""
    if text.lstrip().startswith("{"):
        return pattern_from_json(text)
    return parse_pattern(text)


def random_pattern(m: int, n: int, k: int, seed=0) -> ObservationPattern:
    """Pattern with a uniformly random size-``k`` support per column.

    Columns are drawn independently; the result is deterministic per seed.
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"dimensions must be positive, got {m} x {n}")
    if not 0 < k <= m:
        raise ValueError(f"per-column entry count k={k} must satisfy 1 <= k <= m={m}")
    rng = np.random.default_rng(seed)
    entries = set()
    for j in range(n):
        for i in rng.choice(m, size=k, replace=False):
            entries.add((int(i), j))
    return ObservationPattern(m, n, frozenset(entries))


def _checked_rank(pattern: ObservationPattern, r) -> int:
    """r read as every stage reads it: by ``operator.index``, in range 1 <= r <= min(m, n)."""
    r = index(r)
    if not 1 <= r <= min(pattern.m, pattern.n):
        raise ValueError(f"rank r={r} out of range for a {pattern.m} x {pattern.n} pattern")
    return r


@dataclass(frozen=True)
class MinimumSizeCheck:
    """Comparison of the observed count against the r(m+n-r) lower bound."""

    required: int
    actual: int
    passed: bool


def minimum_size_check(pattern: ObservationPattern, r: int) -> MinimumSizeCheck:
    """Check #entries >= r(m+n-r), the dimension of the rank-<=r variety.

    Any pattern observing fewer positions admits infinitely many rank-r
    completions, so this is the cheapest necessary test.
    """
    r = _checked_rank(pattern, r)
    required = r * (pattern.m + pattern.n - r)
    actual = pattern.size
    return MinimumSizeCheck(required=required, actual=actual, passed=actual >= required)
