import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import completable
from completable import (
    ObservationPattern,
    ObservedMatrix,
    SubspaceBasis,
    certificate_to_json,
    complete_matrix,
    export_plucker_system,
    find_finite_certificate,
    find_unique_certificate,
    jacobian_rank_test,
    observed_from_csv,
    observed_to_csv,
    parse_pattern,
    pattern_to_grid,
    random_pattern,
    slmf_to_grid,
)
from completable.cli import MAX_COLUMNS, main
from conftest import (
    GRID_6X5,
    GRID_6X6,
    PHI_A,
    REPEATED_COLUMNS,
    exact_size_trim,
    reference_export_csv,
    reference_index_map,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "pattern.txt"
    path.write_text(GRID_6X5)
    return str(path)


def _observed_csv_file(tmp_path, seed=7):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 2))
    X = A @ rng.standard_normal((2, 5))
    obs = ObservedMatrix.from_matrix(X, parse_pattern(GRID_6X5))
    values = tmp_path / "values.csv"
    values.write_text(observed_to_csv(obs))
    basis = tmp_path / "basis.csv"
    basis.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in A) + "\n")
    return values, basis, X


def test_analyze_6x5_json(capsys, pattern_file):
    code, out, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["minimum_size"]["verdict"] == "pass"
    assert report["finite_certificate"]["status"] == "present"
    assert report["finite_certificate"]["certificate"]["partition"] == [[1, 2], [3, 4, 5]]
    assert report["unique_certificate"]["status"] == "absent"
    assert report["relaxed_slmf"]["verdict"] == "pass"
    assert report["necessary_condition"]["verdict"] == "pass"
    assert report["jacobian_rank"]["verdict"] == "pass"
    assert report["jacobian_rank"]["tested_rank"] == 18
    assert report["grassmann_section_rank"]["tested_rank"] == 8
    assert report["exit_code"] == 0


def test_analyze_deletion_is_evidence_against(capsys, tmp_path):
    grid = GRID_6X5.replace("10011", "00011", 1)  # drop the (1,1) entry
    path = tmp_path / "short.txt"
    path.write_text(grid)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["minimum_size"]["verdict"] == "fail"
    assert report["jacobian_rank"]["tested_rank"] == 17


def test_analyze_6x6_has_unique_certificate(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text(GRID_6X6)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["unique_certificate"]["status"] == "present"
    partition = report["unique_certificate"]["certificate"]["partition"]
    assert sorted(map(tuple, partition)) == [(1, 2), (3, 6), (4, 5)]


def test_analyze_embeds_the_certificates_json(capsys, tmp_path):
    """The report's finite and unique certificates are the objects that
    ``certificate_to_json`` writes, for one finite and one unique certificate."""
    for grid, kind, find in ((GRID_6X5, "finite", find_finite_certificate), (GRID_6X6, "unique", find_unique_certificate)):
        path = tmp_path / f"{kind}.txt"
        path.write_text(grid)
        _, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
        cert = find(parse_pattern(grid), 2).certificate
        assert cert is not None and cert.kind == kind
        assert json.loads(out)[f"{kind}_certificate"]["certificate"] == json.loads(certificate_to_json(cert))


def test_analyze_json_pattern_input(capsys, tmp_path, pattern_file):
    entries = [[i + 1, j + 1] for i, j in sorted(parse_pattern(GRID_6X5).entries)]
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps({"m": 6, "n": 5, "entries": entries}))
    code_json, out_json, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
    code_grid, out_grid, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--json")
    assert code_json == code_grid == 0
    assert json.loads(out_json) == json.loads(out_grid)


def test_analyze_parse_error_exit_64(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10\n1x\n")
    code, _, err = run_cli(capsys, "analyze", str(path), "--rank", "2")
    assert code == 64
    assert "line 2" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param('{"m": 3, "n": 2, "entries": [[1.5, 1]]}', "entry 1 [1.5, 1] is not a pair of integers", id="float-entry"),
        pytest.param('{"m": 3.7, "n": 2, "entries": [[1, 1]]}', '"m" must be an integer, got 3.7', id="float-m"),
        pytest.param('{"m": true, "n": 2, "entries": [[1, 1]]}', '"m" must be an integer, got true', id="bool-m"),
        pytest.param('{"m": "2", "n": 2, "entries": [[1, 1]]}', '"m" must be an integer, got "2"', id="string-m"),
        pytest.param('{"m": 3, "n": 2, "entries": [[1, 1], [0, 1]]}', "entry 2 [0, 1] outside a 3 x 2 grid", id="zero-row"),
        pytest.param('{"m": 2, "n": 2, "entries": [[1, 1], [1, 1], [2, 2]]}', "entry 2 [1, 1] repeats entry 1", id="repeated-pair"),
    ],
)
def test_analyze_json_pattern_takes_integers_only(capsys, tmp_path, payload, message):
    """A JSON pattern is not coerced: the entry or dimension is named as written, 1-based."""
    path = tmp_path / "pattern.json"
    path.write_text(payload)
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "1")
    assert (code, out) == (64, "")
    assert message in err


def test_analyze_missing_file_exit_64(capsys):
    code, _, err = run_cli(capsys, "analyze", "nope.txt", "--rank", "2")
    assert code == 64


def test_analyze_human_output_matches_json_verdicts(capsys, pattern_file):
    code_h, out_h, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2")
    code_j, out_j, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--json")
    assert code_h == code_j
    report = json.loads(out_j)
    assert f"minimum size: {report['minimum_size']['verdict']}" in out_h
    assert f"finite certificate: {report['finite_certificate']['status']}" in out_h
    assert f"exit status: {report['exit_code']}" in out_h


def test_slmf_check_accepts_fixture(capsys, tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text(slmf_to_grid(PHI_A))
    code, out, _ = run_cli(capsys, "slmf-check", str(path), "--rank", "2")
    assert code == 0
    assert "slmf: yes" in out


def test_slmf_check_rejects_with_witness(capsys, tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text(slmf_to_grid(REPEATED_COLUMNS))
    code, out, _ = run_cli(capsys, "slmf-check", str(path), "--rank", "2")
    assert code == 2
    assert "slmf: no" in out
    assert "{1,2}" in out


def test_slmf_check_single_method(capsys, tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text(slmf_to_grid(PHI_A))
    for method in ("combinatorial", "randomized"):
        code, out, _ = run_cli(
            capsys, "slmf-check", str(path), "--rank", "2", "--method", method
        )
        assert code == 0


def test_slmf_check_malformed_exit_64(capsys, tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text("11\n11\n10\n01\n00\n00\n")
    code, _, err = run_cli(capsys, "slmf-check", str(path), "--rank", "2")
    assert code == 64


@pytest.mark.parametrize(
    "grid, message",
    [
        ("1100\n1010\n1011\n0101\n0010\n0001\n", "column 2 must have 3 distinct rows, got 2"),
        ("11\n11\n11\n00\n00\n00\n", "expected 4 columns, got 2"),
    ],
    ids=["column-size", "column-count"],
)
def test_slmf_check_names_what_the_grid_has(capsys, tmp_path, grid, message):
    """Messages are 1-based and name counts, not rows."""
    path = tmp_path / "phi.txt"
    path.write_text(grid)
    code, out, err = run_cli(capsys, "slmf-check", str(path), "--rank", "2")
    assert (code, out) == (64, "")
    assert err == f"error: {path}: {message}\n"


def test_complete_roundtrip(capsys, tmp_path):
    values, basis, X = _observed_csv_file(tmp_path)
    out_file = tmp_path / "completed.csv"
    code, out, _ = run_cli(
        capsys,
        "complete",
        str(values),
        "--rank",
        "2",
        "--basis",
        str(basis),
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "residual" in out
    completed = np.loadtxt(out_file, delimiter=",")
    assert np.abs(completed - X).max() <= 1e-9 * np.abs(X).max()


def test_complete_writes_the_repr_of_every_cell(capsys, tmp_path):
    """The completed file is ``complete_matrix``'s result, each cell as its ``repr``,
    byte for byte, with lines ended by ``\\n``."""
    values, basis, _ = _observed_csv_file(tmp_path)
    out_file = tmp_path / "completed.csv"
    code, _, _ = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(out_file),
    )
    assert code == 0
    expected = complete_matrix(
        observed_from_csv(values.read_text()), SubspaceBasis(np.loadtxt(basis, delimiter=",", ndmin=2))
    )
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in expected)
    assert out_file.read_bytes() == text.encode()


def test_complete_fully_observed_returns_input(capsys, tmp_path):
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 2))
    X = A @ rng.standard_normal((2, 3))
    values = tmp_path / "values.csv"
    values.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")
    basis = tmp_path / "basis.csv"
    basis.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in A) + "\n")
    out_file = tmp_path / "completed.csv"
    code, _, _ = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(out_file),
    )
    assert code == 0
    assert np.allclose(np.loadtxt(out_file, delimiter=","), X)


def test_complete_wrong_rank_basis_exit_65(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)
    bad = tmp_path / "bad_basis.csv"
    bad.write_text("1.0,2.0\n2.0,4.0\n3.0,6.0\n4.0,8.0\n5.0,10.0\n6.0,12.0\n")
    code, _, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(bad), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 65
    assert "not a basis" in err


def test_complete_degenerate_projection_names_column(capsys, tmp_path):
    # column 3 of the mask keeps rows 2 and 4 only; a basis supported away
    # from those rows cannot complete it
    values, _, _ = _observed_csv_file(tmp_path)
    basis = tmp_path / "basis.csv"
    rows = np.zeros((6, 2))
    rows[0, 0] = rows[2, 1] = 1.0
    basis.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    code, _, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 65
    assert "column" in err


def test_gen_writes_deterministic_pattern(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "gen", "--m", "6", "--n", "5", "--rank", "2",
        "--per-column", "3", "--seed", "9",
    )
    assert code == 0
    first = (tmp_path / "pattern_000.txt").read_text()
    run_cli(
        capsys, "gen", "--m", "6", "--n", "5", "--rank", "2",
        "--per-column", "3", "--seed", "9",
    )
    assert (tmp_path / "pattern_000.txt").read_text() == first
    pattern = parse_pattern(first)
    assert all(len(s) == 3 for s in pattern.column_supports())


def test_gen_emit_stats(capsys, tmp_path, monkeypatch):
    """The statistics of 20 seeded draws, pinned: each draw's finite search
    takes its Jacobian report, whose pass spares the search its row-set scan."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "gen", "--m", "6", "--n", "5", "--rank", "2",
        "--per-column", "4", "--seed", "1", "--count", "20", "--emit-stats",
    )
    assert code == 0
    assert len(list(tmp_path.glob("pattern_*.txt"))) == 20
    assert [line for line in out.splitlines() if "fraction" in line] == [
        "finite-certificate fraction: 0.750 (15/20 decided)",
        "full-jacobian-rank fraction: 0.750",
    ]
    for idx, child in enumerate(np.random.SeedSequence(1).spawn(20)):  # draw idx seeds from child idx
        expected = pattern_to_grid(random_pattern(6, 5, 4, seed=child))
        assert (tmp_path / f"pattern_{idx:03d}.txt").read_text() == expected


def test_gen_per_column_too_large_exit_64(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "gen", "--m", "6", "--n", "5", "--rank", "2", "--per-column", "7"
    )
    assert code == 64


def test_gen_emit_stats_past_the_tangent_size_limit_exit_64_before_writing(capsys, tmp_path, monkeypatch):
    """The tangent size check counts the section rows as the first pattern's
    layout takes them, 80 of the 138 MB their full width would take, and
    refuses it: a refusal is one usage error, and no pattern file is written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "gen", "--m", "700", "--n", "700", "--rank", "5", "--per-column", "12", "--emit-stats"
    )
    assert (code, out) == (64, "")
    assert err == (
        "error: --emit-stats: the tangent rank system needs 80360400 bytes, more than the supported 67108864\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_gen_emit_stats_refusing_a_later_pattern_writes_no_file(capsys, tmp_path, monkeypatch):
    """The section rows' count depends on each pattern's hub rows: at seed 2 the
    first three 24 x 24 draws count 52-54 kB and the fourth 65 kB. With a cap
    between them, the fourth is refused after the first three passed, and
    still no pattern file is written: every statistic comes first."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(completable.numerics, "MAX_TANGENT_BYTES", 60000)
    code, out, err = run_cli(
        capsys, "gen", "--m", "24", "--n", "24", "--rank", "3", "--per-column", "8", "--seed", "2", "--count", "4",
        "--emit-stats",
    )
    assert (code, out) == (64, "")
    assert err == "error: --emit-stats: the tangent rank system needs 65232 bytes, more than the supported 60000\n"
    assert list(tmp_path.iterdir()) == []


def test_export_system_files(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)
    prefix = tmp_path / "system"
    code, out, _ = run_cli(
        capsys, "export-system", str(values), "--rank", "2", "--out", str(prefix)
    )
    assert code == 0
    matrix = np.loadtxt(prefix.with_suffix(".csv"), delimiter=",")
    index_map = json.loads(prefix.with_suffix(".json").read_text())
    assert matrix.shape == (22, 15)
    assert index_map["plucker_subsets"][0] == [1, 2]
    assert index_map["rows"][10] == {"column": 2, "phi": [4, 5, 6]}


def test_export_system_empty_pattern(capsys, tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("*,*\n*,*\n*,*\n")
    prefix = tmp_path / "empty"
    code, out, _ = run_cli(
        capsys, "export-system", str(values), "--rank", "2", "--out", str(prefix)
    )
    assert code == 0
    assert prefix.with_suffix(".csv").read_text() == ""
    index_map = json.loads(prefix.with_suffix(".json").read_text())
    assert index_map["rows"] == []
    assert len(index_map["plucker_subsets"]) == 3


def test_export_system_keeps_signed_zeros(capsys, tmp_path):
    # the observed 0 sits second in the 2-subset {1, 2} of column 1, so it
    # enters the system with sign -1 and is written as -0.0
    text = "1.5,*\n0,2.0\n-0.5,*\n*,3.0\n"
    values = tmp_path / "values.csv"
    values.write_text(text)
    prefix = tmp_path / "system"
    code, _, _ = run_cli(
        capsys, "export-system", str(values), "--rank", "1", "--out", str(prefix)
    )
    assert code == 0
    written = prefix.with_suffix(".csv").read_text()
    system = export_plucker_system(observed_from_csv(text), 1)
    assert written == reference_export_csv(system.matrix)
    assert "-0.0" in written.replace("\n", ",").split(",")


def test_complete_into_missing_directory_exit_64(capsys, tmp_path):
    values, basis, _ = _observed_csv_file(tmp_path)
    out_file = tmp_path / "missing" / "completed.csv"
    code, out, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(out_file),
    )
    assert (code, out) == (64, "")
    assert err.startswith(f"error: cannot write {out_file}:")


def test_export_system_into_missing_directory_exit_64(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)
    prefix = tmp_path / "missing" / "system"
    code, out, err = run_cli(
        capsys, "export-system", str(values), "--rank", "2", "--out", str(prefix)
    )
    assert (code, out) == (64, "")
    assert err.startswith(f"error: cannot write {prefix}.csv:")


def test_calls_in_one_process_match_single_calls(capsys, tmp_path, pattern_file):
    """``main`` builds its parser once per process; successive calls with other
    subcommands print what a fresh process prints, and a usage error still exits 64."""
    values, basis, _ = _observed_csv_file(tmp_path)
    phi = tmp_path / "phi.txt"
    phi.write_text(slmf_to_grid(PHI_A))
    calls = [
        ["analyze", pattern_file, "--rank", "2", "--json"],
        ["slmf-check", str(phi), "--rank", "2", "--method", "combinatorial"],
        ["export-system", str(values), "--rank", "2", "--out", str(tmp_path / "system")],
        ["complete", str(values), "--rank", "2", "--basis", str(basis), "--out", str(tmp_path / "x.csv")],
        ["analyze", pattern_file, "--rank", "1", "--seed", "3"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    env = {**os.environ, "PYTHONPATH": str(Path(completable.__file__).parents[1])}
    for argv, outcome in zip(calls, in_process):
        single = subprocess.run(
            [sys.executable, "-m", "completable", *argv], capture_output=True, text=True, env=env
        )
        assert outcome == (single.returncode, single.stdout, single.stderr)
    code, _, err = run_cli(capsys, "analyze", pattern_file, "--rank", "0")
    assert (code, err) == (64, "error: argument --rank: must be at least 1, got 0\n")
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 64 and err.startswith("error: argument command: invalid choice")


def test_analyze_reproducible_for_a_seed(capsys, pattern_file):
    _, first, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--seed", "7", "--json")
    _, second, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--seed", "7", "--json")
    assert first == second


def test_slmf_check_method_disagreement_is_a_tool_fault(capsys, tmp_path, monkeypatch):
    import completable.cli as cli_mod
    from completable import SlmfVerdict

    path = tmp_path / "phi.txt"
    path.write_text(slmf_to_grid(PHI_A))
    monkeypatch.setattr(
        cli_mod,
        "check_slmf_randomized",
        lambda phi, seed=0: SlmfVerdict(False, None),
    )
    code, _, err = run_cli(capsys, "slmf-check", str(path), "--rank", "2")
    assert code == 70
    assert "disagree" in err


def test_gen_refuses_the_first_draw_before_seeding_the_others(capsys, tmp_path, monkeypatch):
    """The draws' seeds are made one at a time: refusing the first of 200,000 draws
    holds no seed of the others, which all at once took 76 MiB, 352 B each."""
    monkeypatch.chdir(tmp_path)
    argv = ["--m", "700", "--n", "700", "--rank", "5", "--per-column", "12", "--emit-stats", "--count", "200000"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gen", *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (64, "")
    assert err.startswith("error: --emit-stats: the tangent rank system needs 80360400 bytes")
    assert peak < 16 << 20
    assert list(tmp_path.iterdir()) == []


def test_analyze_flags_empty_columns(capsys, tmp_path):
    path = tmp_path / "hollow.txt"
    path.write_text("110\n110\n110\n110\n")  # third column never observed
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
    report = json.loads(out)
    assert report["pattern"]["empty_columns"] == [3]
    assert code == 2  # eight entries cannot meet the ten required


@st.composite
def _grids_with_empty_columns(draw):
    """A 1 x 1 to 8 x 8 grid drawn column by column; any column may be empty."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return [sorted(draw(st.sets(st.integers(0, m - 1)))) for _ in range(n)], m


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_grids_with_empty_columns())
def test_analyze_pattern_block_is_the_grid_read_column_by_column(capsys, tmp_path, grid):
    """``analyze``'s pattern block counts the observed cells and each column's
    support, and lists the empty columns 1-based; the text report's
    ``empty columns:`` line lists the same columns, and is absent when none is."""
    supports, m = grid
    path = tmp_path / "grid.txt"
    path.write_text("".join("".join("1" if i in s else "0" for s in supports) + "\n" for i in range(m)))
    _, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "1", "--budget", "10", "--json")
    empty = [j + 1 for j, s in enumerate(supports) if not s]
    assert json.loads(out)["pattern"] == {
        "m": m,
        "n": len(supports),
        "observed": sum(map(len, supports)),
        "column_support_sizes": [len(s) for s in supports],
        "empty_columns": empty,
    }
    _, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "1", "--budget", "10")
    lines = [line for line in out.splitlines() if line.startswith("empty columns:")]
    assert lines == ([f"empty columns: {' '.join(map(str, empty))}"] if empty else [])


def test_exit_code_branches():
    from completable.cli import _exit_code

    def report(min_ok=True, cert="absent", nec="pass", jac="fail"):
        return {
            "minimum_size": {"verdict": "pass" if min_ok else "fail"},
            "finite_certificate": {"status": cert},
            "necessary_condition": {"verdict": nec},
            "jacobian_rank": {"verdict": jac},
        }

    assert _exit_code(report(cert="present")) == 0
    assert _exit_code(report(jac="pass")) == 0
    assert _exit_code(report(min_ok=False)) == 2
    assert _exit_code(report(nec="fail")) == 2
    assert _exit_code(report(jac="fail")) == 2
    assert _exit_code(report(cert="inconclusive", nec="inconclusive", jac="inconclusive")) == 3


def test_usage_error_on_unknown_command(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 64


def test_analyze_rank_equal_to_m_fully_observed(capsys, tmp_path):
    path = tmp_path / "full.txt"
    path.write_text("11\n11\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
    assert code == 0
    section = json.loads(out)["grassmann_section_rank"]
    assert (section["verdict"], section["tested_rank"], section["target"]) == ("pass", 0, 0)
    assert err == ""


@pytest.mark.parametrize("m", [21, 64])
def test_analyze_exact_size_column_passes_above_the_row_limit(capsys, tmp_path, monkeypatch, m):
    """An all-ones m x 1 column at r = 1 is connected, so the necessary condition
    and the counting test pass, and no row set is scanned."""
    from completable import certificates

    scan = mock.Mock()
    monkeypatch.setattr(certificates, "_least_row_set", scan)
    path = tmp_path / "column.txt"
    path.write_text("1\n" * m)
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "1", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["relaxed_slmf"]["verdict"], report["relaxed_slmf"]["reason"]) == ("pass", None)
    assert (report["necessary_condition"]["verdict"], report["necessary_condition"]["nodes"]) == (
        "pass",
        1,
    )
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "1")
    assert "relaxed SLMF: pass\n" in out
    assert scan.call_count == 0


def test_analyze_jacobian_row_basis_of_the_64x64_mask(capsys, tmp_path):
    """The 615 entries of a Jacobian row basis of 64 x 64 k12 s0 at r = 5, as a
    JSON pattern: the counting test reads the necessary condition's pass."""
    pattern = random_pattern(64, 64, 12, seed=0)
    basis = sorted(jacobian_rank_test(pattern, 5).row_basis)
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"m": 64, "n": 64, "entries": [[i + 1, j + 1] for i, j in basis]}))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "5", "--budget", "1000")
    assert (code, err) == (0, "")
    assert "relaxed SLMF: pass\n" in out
    assert "necessary condition: pass" in out


def test_analyze_exact_size_row_limit_where_the_jacobian_falls_short(capsys, tmp_path):
    """The 21 x 21 k4 s7 mask trimmed to the exact size 80 at r = 2: its Jacobian
    stops at 79 of 80 and its line bound does not refute, so the counting test
    is left to the row-set limit."""
    path = tmp_path / "trimmed.txt"
    path.write_text(pattern_to_grid(exact_size_trim(21, 2, 4, 7)))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "2", "--budget", "1000", "--json")
    assert err == ""
    report = json.loads(out)
    assert (report["relaxed_slmf"]["verdict"], report["relaxed_slmf"]["reason"]) == (
        "inconclusive",
        "row_limit",
    )
    assert report["necessary_condition"]["verdict"] == "inconclusive"
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--budget", "1000")
    assert "relaxed SLMF: inconclusive (row_limit)\n" in out


def test_analyze_exact_size_refuted_above_the_row_limit(capsys, tmp_path):
    """A 21 x 21 mask of the exact size 41 at r = 1 whose line bound is 40: the
    counting test fails on the inequality, with no violating rows named."""
    entries = {(0, j) for j in range(1, 21)} | {(i, 1) for i in range(1, 21)} | {(1, 2)}
    path = tmp_path / "star.txt"
    path.write_text(pattern_to_grid(ObservationPattern(21, 21, frozenset(entries))))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "1", "--json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["relaxed_slmf"] == {
        "verdict": "fail",
        "reason": "inequality",
        "violating_rows": None,
        "required_size": 41,
        "actual_size": 41,
    }
    assert report["necessary_condition"]["verdict"] == "fail"
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "1")
    assert "relaxed SLMF: fail (inequality)\n" in out


def test_analyze_rank_equal_to_m_with_a_missing_cell(capsys, tmp_path):
    path = tmp_path / "holed.txt"
    path.write_text("111\n111\n110\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "3", "--json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    # at r = m the Grassmannian is one point: the sections pass with nothing to
    # pin, while column 3's two rows leave one coefficient direction free
    assert report["grassmann_section_rank"] == {
        "verdict": "pass", "tested_rank": 0, "target": 0, "trials": 1, "pass_count": 1
    }
    assert (report["jacobian_rank"]["tested_rank"], report["jacobian_rank"]["target"]) == (8, 9)


def test_analyze_reports_an_oversized_tangent_system_inconclusive(capsys, pattern_file, monkeypatch):
    """The 6 x 5 fixture at r = 2 counts 1232 bytes up front, and 2000 with its
    section rows, so a cap of 1500 refuses it in the trial, before S."""
    import completable.numerics

    monkeypatch.setattr(completable.numerics, "MAX_TANGENT_BYTES", 1500)
    code, out, err = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--json")
    assert (code, err) == (0, "")  # the finite certificate still decides
    report = json.loads(out)
    for key in ("jacobian_rank", "grassmann_section_rank"):
        assert report[key] == {
            "verdict": "inconclusive",
            "error": "the tangent rank system needs 2000 bytes, more than the supported 1500",
        }
    _, out, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2")
    assert "jacobian rank: inconclusive (the tangent rank system needs 2000 bytes" in out


def test_analyze_refutes_by_a_degree_where_the_jacobian_cannot_run(capsys, tmp_path, monkeypatch):
    """``random_pattern(21, 21, 6, seed=1)`` at r = 2, with the tangent systems refused:
    row 12 holds one entry, fewer than r, so the necessary condition fails above
    ``ROW_SET_LIMIT`` rows and the report exits 2, not 3."""
    monkeypatch.setattr(completable.numerics, "MAX_TANGENT_BYTES", 1000)
    path = tmp_path / "mask.txt"
    path.write_text(pattern_to_grid(random_pattern(21, 21, 6, seed=1)))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "2", "--budget", "1000", "--json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["jacobian_rank"]["verdict"] == "inconclusive"
    assert report["necessary_condition"] == {"verdict": "fail", "witness_entries": None, "nodes": 1}


def test_analyze_refutes_by_the_line_bound_where_no_degree_does(capsys, tmp_path):
    """``random_pattern(24, 24, 6, seed=0)`` with row 1 kept only in columns 1 and 2,
    each cut to r = 2 rows, at r = 2: every row holds two entries or more, but
    no column of three rows or more holds row 1, so the bound on all the other
    rows is 24 * 2 + 2 (24 - 2) - 2 = 90 < 92. The necessary condition fails in
    one node and names that row set, and both searches end at 0 nodes."""
    from completable import ObservationPattern, check_necessary_condition

    base = random_pattern(24, 24, 6, seed=0)
    entries = {(i, j) for i, j in base.entries if i != 0 and j not in (0, 1)}
    pattern = ObservationPattern(24, 24, frozenset(entries | {(0, 0), (1, 0), (0, 1), (2, 1)}))
    assert min([i for i, _ in pattern.entries].count(i) for i in range(24)) >= 2
    path = tmp_path / "mask.txt"
    path.write_text(pattern_to_grid(pattern))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "2", "--budget", "100000", "--json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["necessary_condition"] == {"verdict": "fail", "witness_entries": None, "nodes": 1}
    for key in ("finite_certificate", "unique_certificate"):
        assert report[key] == {"status": "absent", "nodes": 0}
    assert report["jacobian_rank"] == {
        "verdict": "fail", "tested_rank": 90, "target": 92, "trials": 1, "pass_count": 0
    }
    assert report["grassmann_section_rank"] == {
        "verdict": "fail", "tested_rank": 42, "target": 44, "trials": 1, "pass_count": 0
    }
    assert check_necessary_condition(pattern, 2).refuting_rows == tuple(range(1, 24))


def test_analyze_refutes_a_thinned_40x40_mask_in_one_trial(capsys, tmp_path):
    """40 x 40 with 12 rows per column, row 1 thinned to 3 entries, at r = 5:
    the row is peeled and the rest is an (r+1)-core adding r(39 + 40 - r), so
    the bound 3 + 370 = 373 is below 375, and the first trial reaching it
    refutes exactly."""
    pattern = random_pattern(40, 40, 12, seed=0)
    dropped = sorted(e for e in pattern.entries if e[0] == 0)[3:]
    path = tmp_path / "thinned.txt"
    path.write_text(pattern_to_grid(pattern.restrict(pattern.entries - set(dropped))))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "5", "--json", "--budget", "1000")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["jacobian_rank"] == {
        "verdict": "fail", "tested_rank": 373, "target": 375, "trials": 1, "pass_count": 0
    }
    assert report["grassmann_section_rank"] == {
        "verdict": "fail", "tested_rank": 173, "target": 175, "trials": 1, "pass_count": 0
    }


def test_analyze_names_the_subset_limit_but_not_a_spent_budget(capsys, tmp_path, pattern_file):
    """The all-ones 24 x 24 mask at r = 11 lists C(24, 12) = 2,704,156 subsets, past
    ``MAX_SEARCH_SUBSETS``: both searches are refused, which no budget changes, and
    say so. A search out of budget at 0 nodes reads as before."""
    path = tmp_path / "dense.txt"
    path.write_text(("1" * 24 + "\n") * 24)
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "11", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    refused = {"status": "inconclusive", "reason": "subset_limit", "nodes": 0}
    assert report["finite_certificate"] == report["unique_certificate"] == refused
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "11")
    assert code == 0
    for label in ("finite", "unique"):
        assert f"\n{label} certificate: inconclusive (subset_limit: more than 524288 subsets)\n" in out
    code, out, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--budget", "0", "--json")
    assert json.loads(out)["finite_certificate"] == {"status": "inconclusive", "nodes": 0}
    code, out, _ = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--budget", "0")
    assert "\nfinite certificate: inconclusive\n" in out


def test_complete_nan_value_exit_64(capsys, tmp_path):
    values, basis, _ = _observed_csv_file(tmp_path)
    lines = values.read_text().splitlines()
    cells = lines[0].split(",")
    cells[0] = "nan"  # row 1, column 1 is observed in the fixture mask
    lines[0] = ",".join(cells)
    values.write_text("\n".join(lines) + "\n")
    out_file = tmp_path / "completed.csv"
    code, _, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(out_file),
    )
    assert code == 64
    assert "line 1, column 1" in err and "non-finite" in err
    assert not out_file.exists()


def test_export_system_inf_value_exit_64(capsys, tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("1.0,2.0\n3.0,inf\n5.0,*\n")
    prefix = tmp_path / "system"
    code, _, err = run_cli(
        capsys, "export-system", str(values), "--rank", "1", "--out", str(prefix)
    )
    assert code == 64
    assert "line 2, column 2" in err and "non-finite" in err
    assert not prefix.with_suffix(".csv").exists()


def test_complete_nan_basis_exit_65(capsys, tmp_path):
    values, basis, _ = _observed_csv_file(tmp_path)
    lines = basis.read_text().splitlines()
    lines[2] = "nan," + lines[2].split(",")[1]
    basis.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 65
    assert "finite" in err


def test_complete_basis_row_mismatch_exit_65(capsys, tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("1.0,2.0\n2.0,4.0\n")
    basis = tmp_path / "basis.csv"
    basis.write_text("1.0\n2.0\n3.0\n")
    code, _, err = run_cli(
        capsys, "complete", str(values), "--rank", "1",
        "--basis", str(basis), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 65
    assert "basis has 3 rows, the values have 2" in err


def test_complete_basis_with_more_columns_than_the_rank_exit_65(capsys, tmp_path):
    values, basis, _ = _observed_csv_file(tmp_path)  # a 6 x 2 basis
    code, _, err = run_cli(
        capsys, "complete", str(values), "--rank", "1",
        "--basis", str(basis), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 65
    assert "basis has 2 columns, expected rank 1" in err


def test_complete_missing_basis_file_exit_64(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)
    code, out, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (64, "")
    assert "nope.csv" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "text", ["", "# a comment\n", "\n  \n# two\n# comments\n"], ids=["empty", "comment", "blank-and-comments"]
)
def test_complete_basis_file_without_data_exit_64(capsys, tmp_path, text):
    """A basis file with no data row is a usage error in one line, with no
    warning from the CSV reader (an error under this suite's warning filter)."""
    values, basis, _ = _observed_csv_file(tmp_path)
    basis.write_text(text)
    code, out, err = run_cli(
        capsys, "complete", str(values), "--rank", "2",
        "--basis", str(basis), "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out, err) == (64, "", f"error: {basis}: empty basis file\n")
    assert not (tmp_path / "x.csv").exists()


def test_input_files_that_are_not_text_exit_64(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe1,2\n")
    for argv in (
        ["analyze", str(binary), "--rank", "1"],
        ["complete", str(values), "--rank", "2", "--basis", str(binary), "--out", str(tmp_path / "x.csv")],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith(f"error: cannot read {binary}: 'utf-8' codec can't decode byte 0xff")


def test_analyze_rank_above_min_m_n_exit_64(capsys, pattern_file):
    code, out, err = run_cli(capsys, "analyze", pattern_file, "--rank", "6")
    assert (code, out) == (64, "")
    assert "--rank 6 exceeds min(m, n) = 5" in err


def test_gen_rank_above_min_m_n_exit_64(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", "--m", "3", "--n", "3", "--rank", "4", "--per-column", "2")
    assert (code, out) == (64, "")
    assert err == "error: --rank 4 exceeds min(m, n) = 3\n"
    assert not list(tmp_path.glob("pattern_*.txt"))


def test_gen_and_analyze_name_the_same_rank_bound(capsys, tmp_path, monkeypatch):
    """Both commands word a rank above min(m, n) alike and exit 64."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mask.txt").write_text("110\n011\n101\n")
    gen = run_cli(capsys, "gen", "--m", "3", "--n", "3", "--rank", "4", "--per-column", "2")
    analyze = run_cli(capsys, "analyze", "mask.txt", "--rank", "4")
    assert gen == analyze == (64, "", "error: --rank 4 exceeds min(m, n) = 3\n")


def test_analyze_and_gen_past_the_column_limit_exit_64_before_any_column_is_built(capsys, tmp_path, monkeypatch):
    """A mask of MAX_COLUMNS + 1 columns, and a ``gen --n`` of as many, are one
    usage error each, named before the pattern's column supports are built;
    no pattern file is written. Rows have no such limit."""
    monkeypatch.chdir(tmp_path)
    n = MAX_COLUMNS + 1
    (tmp_path / "wide.json").write_text(json.dumps({"m": 2, "n": n, "entries": [[1, 1], [2, 1]]}))
    with mock.patch.object(ObservationPattern, "column_supports", side_effect=AssertionError("columns built")):
        analyze = run_cli(capsys, "analyze", "wide.json", "--rank", "1")
        gen = run_cli(capsys, "gen", "--m", "2", "--n", str(n), "--rank", "1", "--per-column", "1")
    assert analyze == (64, "", f"error: wide.json: {n} columns, more than the supported {MAX_COLUMNS}\n")
    assert gen == (64, "", f"error: --n {n} columns, more than the supported {MAX_COLUMNS}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["wide.json"]


def test_export_system_rank_above_m_names_the_bound_exit_64(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)  # 6 rows
    code, out, err = run_cli(capsys, "export-system", str(values), "--rank", "7", "--out", str(tmp_path / "sys"))
    assert (code, out) == (64, "")
    assert "need 1 <= r <= m, got r=7, m=6" in err
    assert not list(tmp_path.glob("sys*"))


@pytest.mark.parametrize(
    "grid, r, line, code, text_sha, json_sha",
    [
        (
            "110\n110\n110\n110\n", 1, "empty columns: 3", 2,
            "a833e655e0220018c1f118c7f8f433625bd6b09b2f139495b2f3250cb5c2ba7f",
            "0dc1ef04f8ae91b13ffe1caf35107f5beefd2d721f0a90c4859984e05ae01a0b",
        ),
        (
            "110\n110\n110\n110\n", 2, "section jacobian rank: pass (4/4, 1/1 trials)", 2,
            "426d8e6c0c1dd222b512fc80704f7906a621f82b77e0f55a795a1bed1542c609",
            "2ccd4c53bd17ab96fd7f2c3ea7c3616302b77cb5d957f5fb24207423981b4aeb",
        ),
        (
            "1100\n1100\n0011\n0010\n", 1, "relaxed SLMF: fail (inequality, rows {1,2})", 2,
            "4ce260d71ff2b2f9ed5d9567f1e7d0bd8e0d80acc779f356dc0073a9fdff2446",
            "24f773a828557a94259f6c47a4745459043d5c57b2c2f36012d6623bcbbe9988",
        ),
        (
            GRID_6X5, 2, "finite certificate: present (partition {1,2} / {3,4,5})", 0,
            "551a0dc11b5bc35aa92ddc13ac8f18a64289ba9f3e147c499a8227a91c09142a",
            "132f9d4eef339d2a15c65efb18cf8ed03b873d76a10d6d51b24e7028816aa63c",
        ),
        (
            ("1" * 24 + "\n") * 24, 11, "finite certificate: inconclusive (subset_limit: more than 524288 subsets)", 0,
            "3a966f3057e2aeb02077788760754955bba66da7d1ba5d68d5b9dd004199d703",
            "3f7ff37c5834b2d65a579d4019ab30a484a896e9f6d1ff1e31884959e5ff7197",
        ),
    ],
    ids=["empty-columns", "empty-column-section-pass", "violating-rows", "partition", "subset-limit"],
)
def test_text_report_line(capsys, tmp_path, grid, r, line, code, text_sha, json_sha):
    """A line of each optional form in the text report; every other byte of the text
    and JSON reports is pinned by its sha256, with the exit code."""
    path = tmp_path / "mask.txt"
    path.write_text(grid)
    runs = [run_cli(capsys, "analyze", str(path), "--rank", str(r), *flag) for flag in ([], ["--json"])]
    assert line in runs[0][1].splitlines()
    digests = [(c, hashlib.sha256(out.encode()).hexdigest()) for c, out, _ in runs]
    assert digests == [(code, text_sha), (code, json_sha)]


def test_complete_overflowing_column_exit_65(capsys, tmp_path):
    """Completing 1e308 along a basis (1, 10) overflows: a data error naming the column."""
    values = tmp_path / "values.csv"
    values.write_text("1e308\n*\n")
    basis = tmp_path / "basis.csv"
    basis.write_text("1.0\n10.0\n")
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "complete", str(values), "--rank", "1",
        "--basis", str(basis), "--out", str(out_file),
    )
    assert (code, out) == (65, "")
    assert err == "error: column 1: completed values overflow\n"
    assert not out_file.exists()


def _complete_near_the_float_limit(capsys, tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("1.7e308,1.0\n1.7e308,1.0\n")
    basis = tmp_path / "basis.csv"
    basis.write_text("1.0\n1.0\n")
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "complete", str(values), "--rank", "1",
        "--basis", str(basis), "--out", str(out_file),
    )
    return code, out, err, out_file


def test_complete_values_near_the_float_limit_stay_finite(capsys, tmp_path):
    """Observations near the largest float complete finitely, without a warning."""
    code, _, err, out_file = _complete_near_the_float_limit(capsys, tmp_path)
    assert (code, err) == (0, "")
    completed = np.loadtxt(out_file, delimiter=",", ndmin=2)
    assert np.isfinite(completed).all()
    assert np.allclose(completed, [[1.7e308, 1.0], [1.7e308, 1.0]], rtol=1e-12, atol=0)


def test_complete_prints_the_residual_relative_to_the_observed_scale(capsys, tmp_path):
    """An absolute residual of about 6e292 is a relative one of about 3.5e-16."""
    code, out, _, _ = _complete_near_the_float_limit(capsys, tmp_path)
    assert code == 0
    label = "max observed-entry residual, relative to max(1, |observed|): "
    (line,) = [line for line in out.splitlines() if line.startswith(label)]
    assert float(line[len(label):]) <= 1e-12


def test_export_system_too_many_rows_exit_64(capsys, tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("1.0,1.0\n" * 70)
    prefix = tmp_path / "system"
    code, _, err = run_cli(
        capsys, "export-system", str(values), "--rank", "1", "--out", str(prefix)
    )
    assert code == 64
    assert "70" in err and "64" in err
    assert not prefix.with_suffix(".csv").exists()


def test_export_system_past_the_byte_limit_exit_64(capsys, tmp_path):
    """C(64, 5) rows over C(64, 4) coordinates, refused before any row is built."""
    values = tmp_path / "values.csv"
    values.write_text("1.0\n" * 64)
    prefix = tmp_path / "system"
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "export-system", str(values), "--rank", "4", "--out", str(prefix)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 64
    assert "7624512 rows over 635376 coordinates" in err
    assert peak < 1 << 20
    assert not prefix.with_suffix(".csv").exists()


def test_export_system_counts_the_index_map_in_the_byte_limit(capsys, tmp_path):
    """One row over C(50, 6) coordinates: a 64 MB CSV, but an index map of over 286 MB."""
    values = tmp_path / "values.csv"
    values.write_text("1.0\n" * 7 + "*\n" * 43)
    prefix = tmp_path / "system"
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "export-system", str(values), "--rank", "6", "--out", str(prefix)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 64
    assert "1 rows over 15890700 coordinates" in err
    assert peak < 1 << 20
    assert not prefix.with_suffix(".csv").exists()


def test_export_system_streams_both_files(capsys, tmp_path):
    """One row over C(32, 5) = 201,376 coordinates: a 0.8 MB CSV and a 4.1 MB index
    map, written without holding either file's text, or a list per subset, whole."""
    text = "1.5\n-2.0\n0.0\n" * 2 + "*\n" * 26
    values = tmp_path / "values.csv"
    values.write_text(text)
    prefix = tmp_path / "system"
    tracemalloc.start()
    try:
        code, _, _ = run_cli(
            capsys, "export-system", str(values), "--rank", "5", "--out", str(prefix)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 << 20
    system = export_plucker_system(observed_from_csv(text), 5)
    assert system.shape == (1, 201376)
    assert prefix.with_suffix(".csv").read_text() == system.to_csv()
    assert prefix.with_suffix(".json").read_text() == json.dumps(reference_index_map(system)) + "\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_export_system_onto_a_full_disk_is_a_write_error(capsys, tmp_path):
    """``PREFIX.csv`` links to ``/dev/full``, whose every write fails with ENOSPC: exit 64."""
    values = tmp_path / "values.csv"
    values.write_text("1.0,2.0\n2.0,4.0\n")
    prefix = tmp_path / "system"
    prefix.with_suffix(".csv").symlink_to("/dev/full")
    code, out, err = run_cli(capsys, "export-system", str(values), "--rank", "1", "--out", str(prefix))
    assert (code, out) == (64, "")
    assert f"error: cannot write {prefix}.csv" in err


def _stdout_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    return open("/dev/full", "wb")


def _stdout_closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "wb")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", [_stdout_full, _stdout_closed_pipe], ids=["dev-full", "closed-pipe"])
def test_a_failed_write_to_standard_output_is_exit_64(pattern_file, stdout, unbuffered):
    """Standard output on ``/dev/full`` (ENOSPC) or on a pipe whose reader has
    closed it (EPIPE), buffered or not: one line on stderr and exit 64, not
    the interpreter's 120 after a failed flush at exit, nor a fault's 70."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(completable.__file__).parents[1]),
        "PYTHONUNBUFFERED": unbuffered,
    }
    with stdout() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "completable", "analyze", pattern_file, "--rank", "3", "--json"],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 64
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: cannot write standard output: [Errno ")


@pytest.mark.parametrize("stdout", [_stdout_full, _stdout_closed_pipe], ids=["dev-full", "closed-pipe"])
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["analyze", "--help"]], ids=" ".join)
def test_help_and_version_onto_an_unwritable_standard_output_exit_64(stdout, argv):
    """argparse drops a failed write of its help or version text and exits 0:
    here, as for a report, the failure is one line on stderr and exit 64."""
    env = {**os.environ, "PYTHONPATH": str(Path(completable.__file__).parents[1])}
    with stdout() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "completable", *argv], stdout=out, stderr=subprocess.PIPE, text=True, env=env
        )
    assert proc.returncode == 64
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: cannot write standard output: [Errno ")


def test_help_and_version_print_and_exit_0(capsys):
    version = f"completable {completable.__version__}"
    for argv, first in ((["--version"], version), (["analyze", "--help"], "usage: completable analyze")):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out, err = capsys.readouterr()
        assert (stop.value.code, err) == (0, "")
        assert out.startswith(first) and out.endswith("\n")


@pytest.mark.parametrize("method", ["both", "combinatorial", "randomized"])
def test_slmf_check_no_past_the_column_limit(capsys, tmp_path, method):
    """A refutation past 22 columns whose Hall pass turns down two columns is
    answered without a minimum witness: exit 2."""
    from completable import Slmf, SlmfVerdict, check_slmf_combinatorial

    path = tmp_path / "phi.txt"
    chain = tuple((j, j + 1) for j in range(23))
    phi = Slmf(m=26, r=1, columns=chain + ((0, 1), (1, 2)))
    assert check_slmf_combinatorial(phi) == SlmfVerdict(False, None)
    path.write_text(slmf_to_grid(phi))
    code, out, err = run_cli(capsys, "slmf-check", str(path), "--rank", "1", "--method", method)
    assert (code, out, err) == (2, "slmf: no\n", "")


@pytest.mark.parametrize("method", ["both", "combinatorial", "randomized"])
def test_slmf_check_names_a_nullity_one_witness_past_the_column_limit(capsys, tmp_path, method):
    """Past 22 columns, a refutation whose Hall pass turns down one column names
    that column's fundamental circuit, here the repeated pair: exit 2."""
    from completable import Slmf

    path = tmp_path / "phi.txt"
    path.write_text(slmf_to_grid(Slmf(m=25, r=1, columns=tuple((j, j + 1) for j in range(23)) + ((0, 1),))))
    code, out, err = run_cli(capsys, "slmf-check", str(path), "--rank", "1", "--method", method)
    witness = "" if method == "randomized" else "violating columns (combinatorial): {1,24}\n"
    assert (code, out, err) == (2, "slmf: no\n" + witness, "")


@pytest.mark.parametrize("method", ["both", "combinatorial"])
def test_slmf_check_yes_past_the_column_limit(capsys, tmp_path, method):
    """The Hall oracle answers a 24-column linkage support; no witness scan runs."""
    from completable import Slmf

    path = tmp_path / "phi.txt"
    path.write_text(slmf_to_grid(Slmf(m=25, r=1, columns=tuple((j, j + 1) for j in range(24)))))
    code, out, _ = run_cli(capsys, "slmf-check", str(path), "--rank", "1", "--method", method)
    assert (code, out) == (0, "slmf: yes\n")


def test_unexpected_exception_is_exit_70(capsys, pattern_file, monkeypatch):
    import completable.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli_mod, "build_analysis_report", boom)
    code, out, err = run_cli(capsys, "analyze", pattern_file, "--rank", "2")
    assert code == 70
    assert out == ""
    assert err.count("\n") == 1 and "RuntimeError: unexpected state" in err

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "build_analysis_report", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", pattern_file, "--rank", "2"])


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(["analyze", "PATTERN", "--rank", "2", "--seed", "-1"], "--seed", id="analyze-seed"),
        pytest.param(["analyze", "PATTERN", "--rank", "2", "--budget", "-1"], "--budget", id="analyze-budget"),
        pytest.param(["slmf-check", "PHI", "--rank", "2", "--seed", "-1"], "--seed", id="slmf-check-seed"),
        pytest.param(
            ["gen", "--m", "6", "--n", "5", "--rank", "2", "--per-column", "3", "--seed", "-1"],
            "--seed",
            id="gen-seed",
        ),
        pytest.param(
            ["gen", "--m", "6", "--n", "5", "--rank", "2", "--per-column", "0"], "--per-column", id="gen-per-column-0"
        ),
        pytest.param(
            ["gen", "--m", "6", "--n", "5", "--rank", "2", "--per-column", "-1"], "--per-column", id="gen-per-column-neg"
        ),
        pytest.param(["analyze", "PATTERN", "--rank", "0"], "--rank", id="analyze-rank-0"),
        pytest.param(["slmf-check", "PHI", "--rank", "0"], "--rank", id="slmf-check-rank-0"),
        pytest.param(
            ["complete", "VALUES", "--rank", "0", "--basis", "BASIS", "--out", "out.csv"], "--rank", id="complete-rank-0"
        ),
        pytest.param(["export-system", "VALUES", "--rank", "0", "--out", "out"], "--rank", id="export-system-rank-0"),
        pytest.param(["gen", "--m", "6", "--n", "5", "--rank", "0", "--per-column", "3"], "--rank", id="gen-rank-0"),
        pytest.param(
            ["gen", "--m", "6", "--n", "5", "--rank", "2", "--per-column", "3", "--count", "0"], "--count", id="gen-count-0"
        ),
        pytest.param(["gen", "--m", "0", "--n", "5", "--rank", "2", "--per-column", "1"], "--m", id="gen-m-0"),
        pytest.param(["gen", "--m", "6", "--n", "0", "--rank", "2", "--per-column", "3"], "--n", id="gen-n-0"),
    ],
)
def test_out_of_range_option_is_a_usage_error(capsys, tmp_path, monkeypatch, pattern_file, argv, option):
    """Rejected while parsing, before any analysis runs or any file is written."""
    phi = tmp_path / "phi.txt"
    phi.write_text(slmf_to_grid(PHI_A))
    values, basis, _ = _observed_csv_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    files = {"PATTERN": pattern_file, "PHI": str(phi), "VALUES": str(values), "BASIS": str(basis)}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (64, "")
    assert err.startswith(f"error: argument {option}:")
    assert not list(tmp_path.glob("pattern_*.txt")) and not list(tmp_path.glob("out*"))


def test_analyze_a_thousand_column_chain_does_not_exit_70(capsys, tmp_path):
    """The unique search walks a first group of 995 columns; it must not overflow the stack."""
    rows = [["0"] * 1000 for _ in range(3)]
    for j in range(1000):
        for i in (0, 1) if j < 995 else (1, 2):
            rows[i][j] = "1"
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{''.join(row)}\n" for row in rows))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["unique_certificate"]["status"] == "present"


# values cells beside plain numbers: unobserved, blank, non-finite, near the float
# limit, and not a number
_ODD_CELLS = ("*", "", "nan", "inf", "-inf", "1e308", "-1e308", "x")


def _mangled(draw, lines):
    """``lines`` as file text, or, on one draw in three, with one line made ragged or
    foreign, or emptied."""
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([lines[i][:-1], lines[i] + lines[i][-1:], lines[i] + "2", ""]))
    return "\n".join(lines) + "\n"


@st.composite
def _invocations(draw):
    """(argv, files): one command on generated input files named in ``files``."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    r = draw(st.integers(1, min(m, n) + 1))
    command = draw(st.sampled_from(["analyze", "slmf-check", "export-system", "complete"]))
    argv = [command, "input.txt", "--rank", str(r)]
    if command == "analyze":
        grid = ["".join(draw(st.sampled_from("01")) for _ in range(n)) for _ in range(m)]
        argv += ["--budget", str(draw(st.integers(0, 50)))] + draw(st.sampled_from([[], ["--json"]]))
        return argv, {"input.txt": _mangled(draw, grid)}
    if command == "slmf-check":
        size = min(r + 1, m)
        columns = [draw(st.sets(st.integers(0, m - 1), min_size=size, max_size=size)) for _ in range(max(m - r, 1))]
        grid = ["".join("01"[i in col] for col in columns) for i in range(m)]
        argv += ["--method", draw(st.sampled_from(["both", "combinatorial", "randomized"]))]
        return argv, {"input.txt": _mangled(draw, grid)}
    # the values of a rank-r integer matrix, some unobserved, and on a coin one odd cell
    ints = st.integers(-3, 3)
    basis = draw(st.lists(st.lists(ints, min_size=r, max_size=r), min_size=m, max_size=m))
    truth = np.array(basis) @ np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=r, max_size=r)))
    cells = [[repr(float(x)) if draw(st.integers(0, 3)) else "*" for x in row] for row in truth.tolist()]
    if draw(st.booleans()):
        cells[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_CELLS))
    files = {"input.txt": _mangled(draw, [",".join(row) for row in cells])}
    if command == "export-system":
        return argv + ["--out", "system"], files
    rows = [",".join(map(str, row)) for row in basis]
    rows.insert(draw(st.integers(0, m)), draw(st.sampled_from(["# a comment", "", "  "])))
    files["basis.csv"] = _mangled(draw, rows)
    return argv + ["--basis", "basis.csv", "--out", "out.csv"], files


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_invocations())
def test_generated_inputs_keep_the_exit_code_contract(capsys, tmp_path, invocation):
    """``analyze``, ``slmf-check``, ``export-system`` and ``complete`` on well formed
    and malformed grids, values and basis files: the exit code is a documented one
    but 70, stderr is empty or one ``error:`` line, nothing warns, and every cell a
    successful ``complete`` or ``export-system`` writes is finite."""
    argv, files = invocation
    for name in ("out.csv", "system.csv", "system.json"):
        (tmp_path / name).unlink(missing_ok=True)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in (*files, "out.csv", "system") else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 64, 65), err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), err
    assert not caught, [str(w.message) for w in caught]
    written = {"complete": "out.csv", "export-system": "system.csv"}.get(argv[0])
    if code == 0 and written:
        cells = [float(c) for line in (tmp_path / written).read_text().splitlines() for c in line.split(",")]
        assert all(np.isfinite(cells))


def test_analysis_of_a_mask_with_unobserved_rows_stays_small():
    """10^7 rows, four entries, r = 1: an unobserved row ends both searches at
    0 nodes and both tangent tests are refused, all before any O(m) allocation."""
    from completable import ObservationPattern
    from completable.cli import build_analysis_report

    pattern = ObservationPattern(10**7, 2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    tracemalloc.start()
    try:
        report = build_analysis_report(pattern, 1, seed=0, budget=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for key in ("finite_certificate", "unique_certificate"):
        assert report[key] == {"status": "absent", "nodes": 0}
    for key in ("jacobian_rank", "grassmann_section_rank"):
        assert report[key]["verdict"] == "inconclusive"
    assert report["exit_code"] == 2


def _refuted_6x5():
    """A 6 x 5 mask of the exact size 18 at r = 2 whose rows {1,2,3} break the
    counting inequality, so its Jacobian falls short and its row sets are scanned."""
    supports = [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3, 4), (0, 2, 3, 4, 5)]
    return ObservationPattern(6, 5, frozenset((i, j) for j, sup in enumerate(supports) for i in sup))


def test_one_analysis_runs_the_counting_bound_once(monkeypatch):
    """The searches, the counting test and the necessary condition share one
    row-set scan, which runs only where the Jacobian falls short.

    Every ``_least_row_set`` call counts, whatever pattern it scans. Above the
    exact size (8 x 8 k5 s1) and at it (the 6 x 5 fixture, and 20 x 20 k15 s0
    at r = 10, 300 entries on ``ROW_SET_LIMIT`` rows) the Jacobian passes,
    which proves the bound, so nothing is scanned and the counting test
    passes. Refuted at the exact size, the one scan, looking for a slack below
    0, names the counting test's first violating rows.
    """
    from completable import certificates
    from completable.cli import build_analysis_report

    scans = []
    kernel = certificates._least_row_set

    def counted(pattern, r, below):
        scans.append((pattern, r, below))
        return kernel(pattern, r, below)

    refuted = _refuted_6x5()
    monkeypatch.setattr(certificates, "_least_row_set", counted)
    for pattern, r, verdict, counting, rows, scanned in (
        (random_pattern(8, 8, 5, seed=1), 2, "pass", "fail", None, []),
        (parse_pattern(GRID_6X5), 2, "pass", "pass", None, []),
        (random_pattern(20, 20, 15, seed=0), 10, "pass", "pass", None, []),
        (refuted, 2, "fail", "fail", [1, 2, 3], [(refuted, 2, 0)]),
    ):
        scans.clear()
        report = build_analysis_report(pattern, r, seed=0, budget=10**5)
        assert report["necessary_condition"]["verdict"] == verdict
        assert report["relaxed_slmf"]["verdict"] == counting
        assert report["relaxed_slmf"]["violating_rows"] == rows
        assert scans == scanned


@pytest.mark.parametrize("grid, r", [(GRID_6X5, 2), ("110\n110\n110\n110\n", 2)], ids=["6x5", "empty-column"])
def test_one_analysis_calls_each_stage_once_through_the_cli_module(grid, r, monkeypatch):
    """Every stage function is looked up on ``completable.cli`` when called, where
    perfbench's spans wrap it, and runs once, the Jacobian test before the searches."""
    from completable import cli

    calls = []

    def counted(name, stage):
        return lambda *args, **kwargs: calls.append(name) or stage(*args, **kwargs)

    stages = (
        "minimum_size_check", "jacobian_rank_test", "find_finite_certificate", "find_unique_certificate",
        "check_relaxed_slmf", "check_necessary_condition", "grassmann_section_rank_test",
    )
    for name in stages:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    cli.build_analysis_report(parse_pattern(grid), r, seed=0, budget=10**5)
    assert calls == list(stages)


def test_each_parsed_pattern_runs_its_own_counting_scan(monkeypatch):
    """Two separately built copies of a refuted mask scan once per analysis:
    the counting bound lives on the pattern object, not in a process-wide cache."""
    from completable import certificates
    from completable.cli import build_analysis_report

    scans = []
    kernel = certificates._least_row_set
    monkeypatch.setattr(certificates, "_least_row_set", lambda *a: scans.append(a) or kernel(*a))
    for analyses in (1, 2):
        build_analysis_report(_refuted_6x5(), 2, seed=0, budget=10**5)
        assert len(scans) == analyses


def test_a_jacobian_pass_spares_the_20x20_row_set_scan(monkeypatch):
    """On 20 x 20 k8 s0 at r = 3 the Jacobian passes, so no analysis stage
    scans its 2^20 row sets."""
    from completable import certificates
    from completable.cli import build_analysis_report

    def unused(*args):
        raise AssertionError("the row sets were scanned")

    monkeypatch.setattr(certificates, "_least_row_set", unused)
    report = build_analysis_report(random_pattern(20, 20, 8, seed=0), 3, seed=0, budget=1000)
    assert report["jacobian_rank"]["verdict"] == "pass"
    assert report["relaxed_slmf"]["reason"] == "size"
    assert report["necessary_condition"]["verdict"] == "pass"


def test_an_analysis_keeps_no_pattern_alive():
    """Once the caller drops the pattern, nothing the analysis shared keeps it."""
    from completable.cli import build_analysis_report

    pattern = random_pattern(7, 7, 4, seed=27)
    build_analysis_report(pattern, 2, seed=0, budget=10**5)
    alive = weakref.ref(pattern)
    del pattern
    gc.collect()
    assert alive() is None


def test_one_analysis_reads_the_necessary_witness_off_the_jacobian(monkeypatch):
    """On the 16 x 16 k8 s0 mask at r = 3 no row set is scanned, and each trial
    point is eliminated once: the section test and the necessary condition
    read the Jacobian test's trials."""
    from completable import certificates, numerics
    from completable.cli import build_analysis_report

    scans, trials = [], []
    kernel, ranks = certificates._least_row_set, numerics._tangent_ranks
    monkeypatch.setattr(certificates, "_least_row_set", lambda *a: scans.append(a) or kernel(*a))
    monkeypatch.setattr(numerics, "_tangent_ranks", lambda *a: trials.append(a) or ranks(*a))
    report = build_analysis_report(random_pattern(16, 16, 8, seed=0), 3, seed=0, budget=1000)
    necessary = report["necessary_condition"]
    assert (necessary["verdict"], len(necessary["witness_entries"]), necessary["nodes"]) == ("pass", 87, 1)
    assert scans == []
    assert len(trials) == report["jacobian_rank"]["trials"] == report["grassmann_section_rank"]["trials"]


def test_analyze_at_40x40_reads_the_necessary_condition_off_the_jacobian(capsys, tmp_path):
    """Above ``ROW_SET_LIMIT`` rows a Jacobian pass decides the necessary condition,
    at a budget the searches run out of: 5 (40 + 40 - 5) = 375 witness entries."""
    path = tmp_path / "mask.txt"
    path.write_text(pattern_to_grid(random_pattern(40, 40, 12, seed=0)))
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "5", "--budget", "1000", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["finite_certificate"] == {"status": "inconclusive", "nodes": 1000}
    necessary = report["necessary_condition"]
    assert (necessary["verdict"], len(necessary["witness_entries"]), necessary["nodes"]) == ("pass", 375, 1)
    assert report["jacobian_rank"]["verdict"] == "pass"


def test_readme_analyze_example_is_what_the_cli_prints(capsys, tmp_path):
    """README's ``analyze mask.txt --rank 2`` transcript is the CLI's output, byte for byte."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(
        r"^\$ printf '([01\\n]+)' > mask\.txt\n\$ completable analyze mask\.txt --rank 2\n(.*?)^```",
        readme,
        re.M | re.S,
    )
    assert example is not None
    mask = tmp_path / "mask.txt"
    mask.write_text(example[1].replace("\\n", "\n"))
    code, out, err = run_cli(capsys, "analyze", str(mask), "--rank", "2")
    assert (out, err) == (example[2], "")
    assert f"exit status: {code} " in out


def test_readme_library_entry_points_run():
    """README's "Library entry points" block runs as written, so it names no
    function the package does not export."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library entry points\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block is not None and "from completable import" in block[1]
    exec(compile(block[1], "README.md", "exec"), {})


def test_the_public_api_is_this_list():
    """A name added to or removed from the package's API shows in this list."""
    assert completable.__all__ == [
        "Certificate",
        "DegenerateProjectionError",
        "ExportedSystem",
        "InconsistentObservationError",
        "MinimumSizeCheck",
        "NecessaryConditionVerdict",
        "NotABasisError",
        "ObservationPattern",
        "ObservedMatrix",
        "PatternFormatError",
        "PluckerVector",
        "RankReport",
        "RelaxedSlmfVerdict",
        "SearchOutcome",
        "Slmf",
        "SlmfVerdict",
        "SlmfWitness",
        "SubspaceBasis",
        "TangentSizeError",
        "VerificationResult",
        "certificate_from_json",
        "certificate_to_json",
        "certificates",
        "check_necessary_condition",
        "check_relaxed_slmf",
        "check_slmf_combinatorial",
        "check_slmf_randomized",
        "complete_matrix",
        "export_plucker_system",
        "find_finite_certificate",
        "find_unique_certificate",
        "grassmann_section_rank_test",
        "jacobian_rank_test",
        "load_pattern",
        "minimum_size_check",
        "numerics",
        "observed_from_csv",
        "observed_to_csv",
        "parse_pattern",
        "pattern_from_json",
        "pattern_to_grid",
        "patterns",
        "plucker",
        "plucker_of_basis",
        "random_pattern",
        "slmf",
        "slmf_from_grid",
        "slmf_to_grid",
        "verify_certificate",
    ]
