"""Seeded job lists for the three benchmark workloads.

``build_jobs(workload, seed)`` is the one place that decides what a run does.
Every job carries the files it needs (written by ``write_inputs`` during
set-up) and the in-memory ground truth the checker compares against.

Where a job's cost depends on its content (the searches of ``analyze`` walk
trees whose size depends on which entries are observed, and ``slmf-check``
runs one randomized trial on a yes and three on a no), the content comes from
the fixed ``CORPUS_SEED``, so two runs do the same work; ``--seed`` then sets
the job order and each job's ``--seed``. Where cost depends only on shapes
(the probes and the exports), the shapes are fixed and ``--seed`` draws the
masks and the factors B and C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from completable import (
    ObservationPattern,
    ObservedMatrix,
    Slmf,
    observed_to_csv,
    parse_pattern,
    pattern_to_grid,
    random_pattern,
    slmf_to_grid,
)

WORKLOADS = ("analyze-mix", "probe-large", "export-write")

# Fixed seed of the content-sensitive cases (the source paper's arXiv number).
CORPUS_SEED = 200412430
STRATUM_B_BUDGET = 100_000
DESK_MASKS = 16

# The two README fixtures (the 6x6 one extends the 6x5 one).
GRID_6X5 = "10011\n10110\n10001\n11110\n11011\n01010\n"
GRID_6X6 = "101111\n101101\n101010\n111100\n110111\n010101\n"

# ROADMAP baseline cases: (m, n, k, pattern seed, r).
ROADMAP_DESK = (8, 8, 5, 1, 2)
ROADMAP_BUDGETED = ((12, 12, 7, 3, 3), (12, 12, 5, 4, 2), (16, 16, 8, 0, 3))
ROADMAP_PROBE = (30, 30, 10, 30, 4)

# Exact-size masks of stratum (b), m = n, at r = 2.
EXACT_SIZE_DIMS = (12,)

# slmf-check candidates: (r, number of columns m - r), up to the
# 22-column limit of the exhaustive check.
SLMF_SHAPES = tuple((r, k) for r in (1, 2, 3, 4) for k in (6, 12, 16, 19, 21, 22))

# probe-large masks: (m, n, per-column entries, r).
PROBE_SHAPES = (
    (20, 20, 7, 3),
    (20, 28, 8, 3),
    (24, 24, 8, 3),
    (24, 32, 9, 4),
    (28, 20, 10, 4),
    (28, 28, 10, 4),
    (32, 24, 11, 4),
    (32, 32, 11, 4),
    (36, 28, 12, 5),
    (36, 36, 12, 5),
    (40, 40, 12, 5),
    (30, 60, 9, 4),
)

# export-write values matrices: (m, n, per-column entries, r). Each gets an
# export-system job and a complete job.
EXPORT_SHAPES = (
    (12, 12, 6, 2),
    (14, 18, 6, 2),
    (16, 16, 7, 3),
    (18, 14, 7, 3),
    (20, 20, 7, 3),
    (22, 16, 8, 4),
    (24, 24, 8, 4),
)
# Further export-system jobs of 0.1-0.2 s, so that the median and the tail
# job fall among exports rather than among millisecond-long completions.
EXPORT_ONLY_SHAPES = (
    (14, 20, 7, 3),
    (15, 18, 7, 3),
    (16, 20, 7, 3),
    (17, 17, 7, 3),
    (18, 18, 7, 3),
    (20, 14, 7, 3),
)


@dataclass
class Job:
    """One unit of work, run by ``harness.run_job`` and judged by ``check``.

    ``argv`` names input and output files relative to the run's input
    directory, written as ``{dir}/name``; ``files`` maps each input file name
    to its content. ``truth`` holds what the checker needs: the pattern, the
    ground-truth basis ``B`` and coefficients ``C``, or the SLMF candidate.
    """

    name: str
    kind: str  # "analyze" | "slmf" | "probe" | "export" | "complete"
    stratum: str
    rank: int
    argv: Optional[list[str]] = None
    files: dict[str, str] = field(default_factory=dict)
    outputs: tuple[str, ...] = ()
    truth: dict = field(default_factory=dict)

    def resolved_argv(self, directory: Path) -> list[str]:
        return [a.replace("{dir}", str(directory)) for a in self.argv]


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def exact_size_pattern(m: int, n: int, r: int, k: int, seed: int) -> ObservationPattern:
    """A random k-per-column mask trimmed to r(m+n-r) entries.

    Entries are removed in a seeded order, skipping any whose column is
    already down to r entries.
    """
    pattern = random_pattern(m, n, k, seed=seed)
    target = r * (m + n - r)
    entries = sorted(pattern.entries)
    counts = [len(w) for w in pattern.column_supports()]
    keep = set(entries)
    for idx in np.random.default_rng(seed).permutation(len(entries)):
        if len(keep) == target:
            break
        i, j = entries[idx]
        if counts[j] > r:
            keep.discard((i, j))
            counts[j] -= 1
    if len(keep) != target:
        raise ValueError(f"cannot trim a {m}x{n} k={k} mask to {target} entries")
    return pattern.restrict(keep)


def _analyze_job(name, stratum, pattern, r, seed, budget=None) -> Job:
    argv = ["analyze", f"{{dir}}/{name}.txt", "--rank", str(r), "--json", "--seed", str(seed)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    return Job(
        name=name,
        kind="analyze",
        stratum=stratum,
        rank=r,
        argv=argv,
        files={f"{name}.txt": pattern_to_grid(pattern)},
        truth={"pattern": pattern},
    )


def _analyze_mix(rng: np.random.Generator) -> list[Job]:
    corpus = np.random.default_rng(CORPUS_SEED)
    jobs = [
        _analyze_job("a-readme-6x5-r2", "a", parse_pattern(GRID_6X5), 2, _seed_int(rng)),
        _analyze_job("a-readme-6x6-r2", "a", parse_pattern(GRID_6X6), 2, _seed_int(rng)),
    ]
    m, n, k, s, r = ROADMAP_DESK
    jobs.append(
        _analyze_job(f"a-roadmap-{m}x{n}-k{k}-s{s}-r{r}", "a", random_pattern(m, n, k, seed=s), r, _seed_int(rng))
    )
    for idx in range(DESK_MASKS):
        m, n = (int(v) for v in corpus.integers(5, 9, size=2))
        r = int(corpus.integers(1, 4))
        k = min(int(corpus.integers(r + 1, r + 4)), m)
        s = _seed_int(corpus)
        jobs.append(
            _analyze_job(f"a-desk{idx:02d}-{m}x{n}-k{k}-r{r}", "a", random_pattern(m, n, k, seed=s), r, _seed_int(rng))
        )
    for m, n, k, s, r in ROADMAP_BUDGETED:
        jobs.append(
            _analyze_job(
                f"b-roadmap-{m}x{n}-k{k}-s{s}-r{r}", "b", random_pattern(m, n, k, seed=s), r,
                _seed_int(rng), budget=STRATUM_B_BUDGET,
            )
        )
    for m in EXACT_SIZE_DIMS:
        pattern = exact_size_pattern(m, m, 2, 4, _seed_int(corpus))
        jobs.append(
            _analyze_job(f"b-exact-{m}x{m}-r2", "b", pattern, 2, _seed_int(rng), budget=STRATUM_B_BUDGET)
        )
    for idx, (r, k) in enumerate(SLMF_SHAPES):
        m = r + k
        columns = tuple(tuple(sorted(corpus.choice(m, r + 1, replace=False).tolist())) for _ in range(k))
        phi = Slmf(m=m, r=r, columns=columns)
        name = f"c-slmf{idx:02d}-r{r}-m{m}"
        jobs.append(
            Job(
                name=name,
                kind="slmf",
                stratum="c",
                rank=r,
                argv=["slmf-check", f"{{dir}}/{name}.txt", "--rank", str(r), "--method", "both",
                      "--seed", str(_seed_int(rng))],
                files={f"{name}.txt": slmf_to_grid(phi)},
                truth={"phi": phi},
            )
        )
    return jobs


def _factors(rng: np.random.Generator, m: int, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.standard_normal((m, r)), rng.standard_normal((r, n))


def _probe_large(rng: np.random.Generator) -> list[Job]:
    m, n, k, s, r = ROADMAP_PROBE
    cases = [(f"roadmap-{m}x{n}-k{k}-s{s}-r{r}", random_pattern(m, n, k, seed=s), r)]
    for m, n, k, r in PROBE_SHAPES:
        cases.append((f"{m}x{n}-k{k}-r{r}", random_pattern(m, n, k, seed=_seed_int(rng)), r))
    jobs = []
    for name, pattern, r in cases:
        B, C = _factors(rng, pattern.m, pattern.n, r)
        jobs.append(
            Job(
                name=f"probe-{name}",
                kind="probe",
                stratum="probe",
                rank=r,
                truth={"pattern": pattern, "B": B, "C": C, "seed": _seed_int(rng)},
            )
        )
    return jobs


def _csv_rows(matrix: np.ndarray) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)


def _export_write(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for m, n, k, r in EXPORT_SHAPES + EXPORT_ONLY_SHAPES:
        pattern = random_pattern(m, n, k, seed=_seed_int(rng))
        B, C = _factors(rng, m, n, r)
        values = observed_to_csv(ObservedMatrix.from_matrix(B @ C, pattern))
        base = f"{m}x{n}-k{k}-r{r}"
        truth = {"pattern": pattern, "B": B, "C": C}
        jobs.append(
            Job(
                name=f"export-{base}",
                kind="export",
                stratum="export",
                rank=r,
                argv=["export-system", f"{{dir}}/values-{base}.csv", "--rank", str(r),
                      "--out", f"{{dir}}/system-{base}"],
                files={f"values-{base}.csv": values},
                outputs=(f"system-{base}.csv", f"system-{base}.json"),
                truth=truth,
            )
        )
        if (m, n, k, r) not in EXPORT_SHAPES:
            continue
        jobs.append(
            Job(
                name=f"complete-{base}",
                kind="complete",
                stratum="export",
                rank=r,
                argv=["complete", f"{{dir}}/values-{base}.csv", "--rank", str(r),
                      "--basis", f"{{dir}}/basis-{base}.csv", "--out", f"{{dir}}/completed-{base}.csv"],
                files={f"values-{base}.csv": values, f"basis-{base}.csv": _csv_rows(B)},
                outputs=(f"completed-{base}.csv",),
                truth=truth,
            )
        )
    return jobs


_BUILDERS = {"analyze-mix": _analyze_mix, "probe-large": _probe_large, "export-write": _export_write}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs, in the order a run executes them."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _BUILDERS[workload](rng)
    return [jobs[i] for i in rng.permutation(len(jobs))]


def write_inputs(jobs: list[Job], directory: Path) -> None:
    """Write every job's input files."""
    for job in jobs:
        for name, text in job.files.items():
            (directory / name).write_text(text)


def export_row_count(pattern: ObservationPattern, r: int) -> int:
    """Rows of the exported section system: sum_j C(|omega_j|, r+1)."""
    return sum(math.comb(len(w), r + 1) for w in pattern.column_supports())
