"""The benchmark's own tests: a smoke run per workload and checker rejections.

Run from the root of a checkout with ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import harness  # noqa: E402
from corpus import build_jobs, write_inputs  # noqa: E402

pytestmark = pytest.mark.filterwarnings(r"ignore:pattern has \d+ entries, not the exact-size")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# A few cheap jobs per workload, selected by name.
SMOKE_JOBS = {"analyze-mix": "readme|slmf0[0-2]", "probe-large": "^probe-20x20", "export-write": "12x12"}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(SMOKE_JOBS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--only", SMOKE_JOBS[workload])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = declared + ([] if trace else [{"name": "job_p50_s", "unit": "s"}, {"name": "job_tail_s", "unit": "s"}])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in printed:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"] for line in lines)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "analyze-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_jobs_are_a_function_of_the_seed():
    names = lambda seed: [job.name for job in build_jobs("analyze-mix", seed)]  # noqa: E731
    assert names(5) == names(5)
    assert names(5) != names(6)
    first, again = build_jobs("export-write", 5), build_jobs("export-write", 5)
    assert [j.files for j in first] == [j.files for j in again]


def test_tail_keeps_ten_values_beyond():
    values = [float(v) for v in range(40)]
    value, percentile = harness.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 75.0


def _job(workload, name):
    return next(job for job in build_jobs(workload, 0) if job.name == name)


@pytest.fixture
def readme_report(tmp_path):
    job = _job("analyze-mix", "a-readme-6x5-r2")
    write_inputs([job], tmp_path)
    code, stdout = harness._run_cli(job.resolved_argv(tmp_path))
    return job, code, stdout


def test_checker_accepts_the_readme_analysis(readme_report):
    job, code, stdout = readme_report
    assert check.check_analyze(job, code, stdout, None) == []


def test_checker_rejects_a_corrupted_certificate(readme_report):
    job, code, stdout = readme_report
    report = json.loads(stdout)
    columns = report["finite_certificate"]["certificate"]["slmfs"][0]["columns"]
    columns[0]["support"] = columns[1]["support"]
    problems = check.check_analyze(job, code, json.dumps(report), None)
    assert any("finite certificate fails clause" in p for p in problems)


def test_checker_rejects_a_flipped_verdict(readme_report):
    job, code, stdout = readme_report
    reference = check.analyze_verdicts(json.loads(stdout))
    assert check.check_analyze(job, code, stdout, reference) == []
    flipped = dict(reference, jacobian="fail")
    assert check.check_analyze(job, code, stdout, flipped) == ["jacobian verdict changed from fail to pass"]
    # decided -> inconclusive and inconclusive -> decided are not failures
    assert check.compare_reference({"finite": "inconclusive"}, {"finite": "present"}) == []
    assert check.compare_reference({"finite": "present"}, {"finite": "inconclusive"}) == []


def test_checker_rejects_a_wrong_exit_code(readme_report):
    job, code, stdout = readme_report
    assert check.check_analyze(job, 3, stdout, None)


def test_checker_rejects_a_wrong_slmf_answer(tmp_path):
    job = next(job for job in build_jobs("analyze-mix", 0) if job.kind == "slmf")
    write_inputs([job], tmp_path)
    code, stdout = harness._run_cli(job.resolved_argv(tmp_path))
    assert check.check_slmf(job, code, stdout) == []
    swapped = {"slmf: yes": "slmf: no", "slmf: no": "slmf: yes"}
    first, *rest = stdout.splitlines()
    assert check.check_slmf(job, code, "\n".join([swapped[first], *rest]))


def test_checker_rejects_a_wrong_completion(tmp_path):
    job = _job("export-write", "complete-12x12-k6-r2")
    write_inputs([job], tmp_path)
    code, _ = harness._run_cli(job.resolved_argv(tmp_path))
    out = tmp_path / job.outputs[0]
    assert check.check_complete(job, code, out) == []
    X = np.loadtxt(out, delimiter=",")
    X[3, 4] += 1e-3
    np.savetxt(out, X, delimiter=",")
    assert check.check_complete(job, code, out)


def test_checker_rejects_a_wrong_probe_completion():
    job = _job("probe-large", "probe-20x20-k7-r3")
    result = harness._run_probe(job)
    assert check.check_probe(job, result, None) == []
    result["completed"] = result["completed"] * (1 + 1e-4)
    assert check.check_probe(job, result, None)


def test_checker_rejects_a_wrong_export_row_count(tmp_path):
    job = _job("export-write", "export-12x12-k6-r2")
    write_inputs([job], tmp_path)
    code, _ = harness._run_cli(job.resolved_argv(tmp_path))
    prefix = tmp_path / job.outputs[0][: -len(".csv")]
    assert code == 0 and check.check_export(job, prefix) == []
    csv = Path(f"{prefix}.csv")
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    assert any("rows, expected" in p for p in check.check_export(job, prefix))


def test_checker_rejects_an_export_that_misses_the_plucker_vector(tmp_path):
    job = _job("export-write", "export-12x12-k6-r2")
    write_inputs([job], tmp_path)
    harness._run_cli(job.resolved_argv(tmp_path))
    prefix = tmp_path / job.outputs[0][: -len(".csv")]
    csv = Path(f"{prefix}.csv")
    lines = csv.read_text().splitlines(keepends=True)
    lines[0] = ",".join("1.0" for _ in lines[0].split(",")) + "\n"
    csv.write_text("".join(lines))
    assert any("annihilate" in p for p in check.check_export(job, prefix))
