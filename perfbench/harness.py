"""Job execution, the closed job loop, and the end-to-end metrics.

One client runs the jobs one after another; each job starts when the
previous one returns. CLI jobs call ``completable.cli.main(argv)`` in this
process with stdout and stderr captured; probe jobs call the library. Only
the call itself is timed: reading outputs back, checking them and deleting
them happen between the timed intervals.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import signal
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import completable.cli
import completable.numerics
import completable.plucker
from completable import ObservedMatrix, SubspaceBasis

import check
from corpus import Job
from speed import SpeedSampler

JOB_CAP_S = 90.0
# A pass runs every job once, then runs again, round after round, the jobs
# whose executions total less than REPEAT_UNDER_S (by default), up to
# MAX_EXECUTIONS each.
# A job's time is the least of its executions: on a shared host other
# processes only ever add time, and rounds spread a job's executions apart.
REPEAT_UNDER_S = 0.5
MAX_EXECUTIONS = 3
# A run stops starting jobs this long after the process started, so that it
# exits well within the 180 s a run may take; jobs left over count as timed out.
RUN_DEADLINE_S = 165.0
# Verdict slots per job kind, for decided_fraction.
VERDICT_SLOTS = {"analyze": 5, "slmf": 1, "probe": 2, "export": 1, "complete": 1}

warnings.filterwarnings("ignore", message=r"pattern has \d+ entries, not the exact-size")

SAMPLER = SpeedSampler()


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM once the per-job cap has passed."""


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Outcome:
    job: str
    kind: str
    stratum: str
    status: str = "ok"  # "ok" | "timeout" | "error"
    seconds: float = 0.0
    ref_seconds: float = 0.0  # ``seconds`` at the reference CPU speed (speed.py)
    exit_code: int | None = None
    written_bytes: int = 0
    decided: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status != "ok" or bool(self.problems)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = completable.cli.main(argv)
    return code, out.getvalue()


def _run_probe(job: Job) -> dict:
    """The four library calls of a probe job, looked up at call time."""
    pattern, B, C, seed = (job.truth[k] for k in ("pattern", "B", "C", "seed"))
    basis = SubspaceBasis(B)
    observed = ObservedMatrix.from_matrix(B @ C, pattern)
    return {
        "jacobian": completable.numerics.jacobian_rank_test(pattern, job.rank, seed=seed),
        "section": completable.numerics.grassmann_section_rank_test(pattern, job.rank, seed=seed),
        "plucker": completable.plucker.plucker_of_basis(basis),
        "completed": completable.numerics.complete_matrix(observed, basis),
    }


def run_job(
    job: Job, directory: Path, reference: dict, verified: dict, cap: float, recorder=None
) -> Outcome:
    """Run one job under the cap, then check its output untimed.

    ``verified`` maps a job name to the digest of outputs already checked.
    """
    outcome = Outcome(job.name, job.kind, job.stratum)
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()
    if recorder is not None:
        recorder.job = job.name
    SAMPLER.begin()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        if job.kind == "probe":
            result = _run_probe(job)
        else:
            result = _run_cli(job.resolved_argv(directory))
    except JobTimeout:
        outcome.status = "timeout"
    except Exception:  # a traceback is a fault of the program under test
        outcome.status = "error"
        outcome.problems.append(traceback.format_exc(limit=3))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        outcome.seconds = time.perf_counter() - start
        SAMPLER.end()
        outcome.ref_seconds = SAMPLER.reference_seconds(outcome.seconds)
        if recorder is not None:
            recorder.job = None
    try:
        if outcome.status == "ok":
            _judge(job, outcome, result, directory, reference, verified)
    finally:
        for name in job.outputs:
            (directory / name).unlink(missing_ok=True)
    return outcome


def _judge(job: Job, outcome: Outcome, result, directory: Path, reference: dict, verified: dict) -> None:
    ref = reference.get(job.name)
    if job.kind == "probe":
        outcome.written_bytes = result["completed"].nbytes + result["plucker"].coords.nbytes
        outcome.problems += check.check_probe(job, result, ref)
        outcome.decided = sum(
            check.rank_verdict(result[k]) not in check.UNDECIDED for k in ("jacobian", "section")
        )
        return
    code, stdout = result
    outcome.exit_code = code
    outcome.written_bytes = len(stdout.encode()) + sum(
        (directory / name).stat().st_size for name in job.outputs if (directory / name).exists()
    )
    if job.kind == "analyze":
        outcome.problems += check.check_analyze(job, code, stdout, ref)
        if not outcome.problems:
            verdicts = check.analyze_verdicts(json.loads(stdout))
            outcome.decided = sum(verdicts[s] not in check.UNDECIDED for s in check.ANALYZE_STAGES)
    elif job.kind == "slmf":
        outcome.problems += check.check_slmf(job, code, stdout)
        outcome.decided = int(not outcome.problems)
    elif job.kind == "export":
        outcome.decided = int(code in (0, 65))
        if code != 0:
            outcome.problems.append(f"export-system exited {code}")
            return
        # Outputs byte-identical to ones already read back need no new read.
        digest = hashlib.sha256()
        for name in job.outputs:
            digest.update((directory / name).read_bytes())
        if verified.get(job.name) != digest.digest():
            outcome.problems += check.check_export(job, directory / job.outputs[0][: -len(".csv")])
            if not outcome.problems:
                verified[job.name] = digest.digest()
    elif job.kind == "complete":
        outcome.problems += check.check_complete(job, code, directory / job.outputs[0])
        outcome.decided = int(code in (0, 65))


def run_pass(
    jobs: list[Job], directory: Path, reference: dict, verified: dict, started: float, recorder=None,
    repeat_under_s: float = REPEAT_UNDER_S,
) -> list[Outcome]:
    """One closed-loop pass over the job list, in its seeded order."""
    outcomes = []
    spent = dict.fromkeys((job.name for job in jobs), 0.0)
    pending = list(jobs)
    for _ in range(MAX_EXECUTIONS):
        repeat = []
        for job in pending:
            left = RUN_DEADLINE_S - (time.perf_counter() - started)
            if left <= 1.0:
                outcomes.append(Outcome(job.name, job.kind, job.stratum, status="timeout"))
                continue
            outcome = run_job(job, directory, reference, verified, min(JOB_CAP_S, left), recorder)
            outcomes.append(outcome)
            spent[job.name] += outcome.seconds
            if not outcome.failed and spent[job.name] < repeat_under_s:
                repeat.append(job)
        pending = repeat
    return outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its rank.

    With fewer than eleven values no percentile qualifies; the maximum is
    reported with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list[list[Outcome]]) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced passes, plus their details.

    A job's time is the least of its executions; ``wall_s`` is the sum of
    the job times, one pass with every job run once. ``wall_ref_s`` is the
    same sum from the times at the reference CPU speed (speed.py).
    """
    per_job: dict[str, list[float]] = {}
    ref_per_job: dict[str, list[float]] = {}
    bytes_per_job: dict[str, list[int]] = {}
    for outcomes in passes:
        for o in outcomes:
            per_job.setdefault(o.job, []).append(o.seconds)
            ref_per_job.setdefault(o.job, []).append(o.ref_seconds)
            bytes_per_job.setdefault(o.job, []).append(o.written_bytes)
    job_s = {name: min(ts) for name, ts in per_job.items()}
    job_ref_s = {name: min(ts) for name, ts in ref_per_job.items()}
    everything = [o for outcomes in passes for o in outcomes]
    stratum_s: dict[str, float] = {}
    for o in {o.job: o for o in everything}.values():
        stratum_s[o.stratum] = stratum_s.get(o.stratum, 0.0) + job_s[o.job]
    tail_s, tail_pct = tail(list(job_s.values()))
    slots = sum(VERDICT_SLOTS[o.kind] for o in everything)
    failed = [o for o in everything if o.failed]
    metrics = {
        "wall_ref_s": (sum(job_ref_s.values()), "s"),
        "wall_s": (sum(job_s.values()), "s"),
        "job_p50_s": (statistics.median(job_s.values()), "s"),
        "job_tail_s": (tail_s, "s"),
        "decided_fraction": (sum(o.decided for o in everything) / slots, "share"),
        "ok_fraction": (1.0 - len(failed) / len(everything), "share"),
        "written_mb": (sum(statistics.median(b) for b in bytes_per_job.values()) / 1e6, "MB"),
    }
    detail = {
        "passes": len(passes),
        "jobs": len(job_s),
        "executions": len(everything),
        "job_tail_percentile": round(tail_pct, 2),
        "failed_fraction": len(failed) / len(everything),
        "job_seconds": {name: round(s, 6) for name, s in sorted(job_s.items())},
        "job_ref_seconds": {name: round(s, 6) for name, s in sorted(job_ref_s.items())},
        "stratum_seconds": {k: round(v, 6) for k, v in sorted(stratum_s.items())},
    }
    return metrics, detail
