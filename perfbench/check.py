"""Output checks, run outside the timed intervals.

Each ``check_*`` function returns a list of problems; an empty list means the
job's output is correct. Checks use the package's exact verifiers
(``verify_certificate``, ``check_relaxed_slmf``, ``check_slmf_combinatorial``)
and the ground truth the corpus generated, never the timed result alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from completable import (
    SubspaceBasis,
    certificate_from_json,
    certificate_to_json,
    check_relaxed_slmf,
    check_slmf_combinatorial,
    plucker_of_basis,
    verify_certificate,
)

from corpus import Job, export_row_count

COMPLETION_RTOL = 1e-6
ANNIHILATION_RTOL = 1e-8
CSV_BLOCK_ROWS = 64

ANALYZE_STAGES = ("finite", "unique", "necessary", "jacobian", "section")
UNDECIDED = ("inconclusive", "indeterminate", None)


def analyze_verdicts(report: dict) -> dict[str, str]:
    return {
        "finite": report["finite_certificate"]["status"],
        "unique": report["unique_certificate"]["status"],
        "necessary": report["necessary_condition"]["verdict"],
        "jacobian": report["jacobian_rank"]["verdict"],
        "section": report["grassmann_section_rank"]["verdict"],
        "minimum_size": report["minimum_size"]["verdict"],
        "relaxed": report["relaxed_slmf"]["verdict"],
    }


def rank_verdict(report) -> str:
    """The CLI's verdict for a RankReport, restated independently."""
    if report.indeterminate >= report.trials:
        return "inconclusive"
    if report.passed:
        return "pass"
    return "fail" if report.indeterminate == 0 else "inconclusive"


def compare_reference(verdicts: dict[str, str], reference: dict | None) -> list[str]:
    """A decided reference verdict may become inconclusive, never its opposite."""
    if reference is None:
        return []
    problems = []
    for stage, old in reference.items():
        new = verdicts.get(stage)
        if old not in UNDECIDED and new not in UNDECIDED and new != old:
            problems.append(f"{stage} verdict changed from {old} to {new}")
    return problems


def _expected_exit(v: dict[str, str]) -> int:
    if v["finite"] == "present" or v["jacobian"] == "pass":
        return 0
    if "fail" in (v["minimum_size"], v["necessary"], v["jacobian"]):
        return 2
    return 3


def check_analyze(job: Job, exit_code: int, stdout: str, reference: dict | None) -> list[str]:
    try:
        report = json.loads(stdout)
        verdicts = analyze_verdicts(report)
    except (ValueError, KeyError) as exc:
        return [f"unreadable analyze report: {exc!r}"]
    problems = []
    if exit_code != report["exit_code"] or exit_code != _expected_exit(verdicts):
        problems.append(
            f"exit code {exit_code}, report says {report['exit_code']}, verdicts imply {_expected_exit(verdicts)}"
        )
    pattern, r = job.truth["pattern"], job.rank
    for key, kind in (("finite_certificate", "finite"), ("unique_certificate", "unique")):
        entry = report[key]
        if entry["status"] != "present":
            if "certificate" in entry:
                problems.append(f"{kind}: certificate beside status {entry['status']}")
            continue
        text = json.dumps(entry.get("certificate"))
        try:
            cert = certificate_from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{kind} certificate does not parse: {exc!r}")
            continue
        if cert.kind != kind:
            problems.append(f"{kind} certificate has kind {cert.kind}")
        if certificate_to_json(cert) != text:
            problems.append(f"{kind} certificate does not round-trip through JSON")
        result = verify_certificate(pattern, r, cert)
        if not result.ok:
            problems.append(f"{kind} certificate fails clause {result.failed_clause}: {result.detail}")
    necessary = report["necessary_condition"]
    if necessary["verdict"] == "pass":
        problems += _check_witness(pattern, r, necessary.get("witness_entries"))
    if verdicts["finite"] == "present" and verdicts["jacobian"] == "fail":
        problems.append("finite certificate present beside a decided jacobian fail")
    return problems + compare_reference(verdicts, reference)


def _check_witness(pattern, r, entries) -> list[str]:
    if not entries:
        return ["necessary condition passes without a witness"]
    witness = {(i - 1, j - 1) for i, j in entries}
    if not witness <= pattern.entries:
        return ["necessary-condition witness is not a sub-mask"]
    sub = pattern.restrict(witness)
    if sub.size != r * (pattern.m + pattern.n - r):
        return [f"necessary-condition witness has {sub.size} entries, not r(m+n-r)"]
    if not check_relaxed_slmf(sub, r).ok:
        return ["necessary-condition witness fails the counting test"]
    return []


def check_slmf(job: Job, exit_code: int, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if exit_code not in (0, 2) or not lines or lines[0] not in ("slmf: yes", "slmf: no"):
        return [f"slmf-check exit {exit_code}: methods disagree or output is malformed"]
    verdict = check_slmf_combinatorial(job.truth["phi"])
    claimed = lines[0] == "slmf: yes"
    problems = []
    if claimed != verdict.is_slmf or exit_code != (0 if claimed else 2):
        problems.append(f"slmf-check says {lines[0]!r} with exit {exit_code}, combinatorial says {verdict.is_slmf}")
    if verdict.witness is not None:
        expected = "violating columns (combinatorial): {" + ",".join(str(t + 1) for t in verdict.witness) + "}"
        if expected not in lines:
            problems.append("slmf-check does not print the combinatorial witness")
    return problems


def completion_problems(X, B, C) -> list[str]:
    truth = B @ C
    X = np.asarray(X, dtype=float)
    if X.shape != truth.shape:
        return [f"completion has shape {X.shape}, expected {truth.shape}"]
    error = float(np.abs(X - truth).max())
    if not error <= COMPLETION_RTOL * max(1.0, float(np.abs(truth).max())):
        return [f"completion differs from the ground truth by {error:.3g}"]
    return []


def check_probe(job: Job, results: dict, reference: dict | None) -> list[str]:
    B, C = job.truth["B"], job.truth["C"]
    m, r = B.shape
    problems = completion_problems(results["completed"], B, C)
    if len(results["plucker"].coords) != math.comb(m, r):
        problems.append("plucker vector has the wrong number of coordinates")
    verdicts = {"jacobian": rank_verdict(results["jacobian"]), "section": rank_verdict(results["section"])}
    if verdicts["section"] == "pass" and verdicts["jacobian"] == "fail":
        problems.append("section rank passes beside a decided jacobian fail")
    return problems + compare_reference(verdicts, reference)


def check_export(job: Job, prefix: Path) -> list[str]:
    """Read the CSV back in blocks: row count, width, and annihilation of P(B)."""
    pattern, r = job.truth["pattern"], job.rank
    coords = plucker_of_basis(SubspaceBasis(job.truth["B"])).coords
    expected_rows = export_row_count(pattern, r)
    rows = 0
    worst = 0.0

    def absorb(block: list[str]) -> str | None:
        nonlocal rows, worst
        values = np.fromstring(",".join(block), sep=",")
        if values.size != len(block) * len(coords):
            return f"export rows near row {rows + 1} do not have {len(coords)} columns"
        matrix = values.reshape(len(block), len(coords))
        scale = np.abs(matrix) @ np.abs(coords)
        worst = max(worst, float((np.abs(matrix @ coords) / np.maximum(scale, 1e-300)).max()))
        rows += len(block)
        return None

    block: list[str] = []
    with open(f"{prefix}.csv") as fh:
        for line in fh:
            block.append(line.rstrip("\n"))
            if len(block) == CSV_BLOCK_ROWS:
                if (problem := absorb(block)) is not None:
                    return [problem]
                block = []
    if block and (problem := absorb(block)) is not None:
        return [problem]
    problems = []
    if rows != expected_rows:
        problems.append(f"export has {rows} rows, expected {expected_rows}")
    if worst > ANNIHILATION_RTOL:
        problems.append(f"export rows do not annihilate the Plucker vector of B (relative residual {worst:.3g})")
    index = json.loads(Path(f"{prefix}.json").read_text())
    if len(index["rows"]) != expected_rows or len(index["plucker_subsets"]) != len(coords):
        problems.append("export index map does not match the system's shape")
    return problems


def check_complete(job: Job, exit_code: int, path: Path) -> list[str]:
    if exit_code != 0:
        return [f"complete exited {exit_code}"]
    return completion_problems(np.loadtxt(path, delimiter=",", ndmin=2), job.truth["B"], job.truth["C"])
