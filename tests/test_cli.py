import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import completable
from completable import (
    ObservationPattern,
    ObservedMatrix,
    SubspaceBasis,
    complete_matrix,
    export_plucker_system,
    observed_from_csv,
    observed_to_csv,
    parse_pattern,
    pattern_to_grid,
    random_pattern,
    slmf_to_grid,
)
from completable.cli import main
from conftest import GRID_6X5, GRID_6X6, PHI_A, REPEATED_COLUMNS, reference_export_csv


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


def test_analyze_json_pattern_input(capsys, tmp_path, pattern_file):
    from completable import pattern_to_json

    path = tmp_path / "pattern.json"
    path.write_text(pattern_to_json(parse_pattern(GRID_6X5)))
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
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "gen", "--m", "6", "--n", "5", "--rank", "2",
        "--per-column", "4", "--seed", "1", "--count", "20", "--emit-stats",
    )
    assert code == 0
    assert len(list(tmp_path.glob("pattern_*.txt"))) == 20
    fractions = [
        float(line.split(":")[1].split()[0])
        for line in out.splitlines()
        if "fraction" in line
    ]
    assert len(fractions) == 2
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_gen_per_column_too_large_exit_64(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "gen", "--m", "6", "--n", "5", "--rank", "2", "--per-column", "7"
    )
    assert code == 64


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
        lambda phi, seed=0: SlmfVerdict(False, None, "randomized-rank"),
    )
    code, _, err = run_cli(capsys, "slmf-check", str(path), "--rank", "2")
    assert code == 70
    assert "disagree" in err


def test_analyze_flags_empty_columns(capsys, tmp_path):
    path = tmp_path / "hollow.txt"
    path.write_text("110\n110\n110\n110\n")  # third column never observed
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "2", "--json")
    report = json.loads(out)
    assert report["pattern"]["empty_columns"] == [3]
    assert code == 2  # eight entries cannot meet the ten required


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
def test_analyze_exact_size_column_above_the_row_limit(capsys, tmp_path, m):
    path = tmp_path / "column.txt"
    path.write_text("1\n" * m)
    code, out, err = run_cli(capsys, "analyze", str(path), "--rank", "1", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["relaxed_slmf"]["verdict"], report["relaxed_slmf"]["reason"]) == (
        "inconclusive",
        "row_limit",
    )
    assert (report["necessary_condition"]["verdict"], report["necessary_condition"]["nodes"]) == (
        "pass",
        1,
    )
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "1")
    assert "relaxed SLMF: inconclusive (row_limit)" in out


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
    assert code == 2
    section = json.loads(out)["grassmann_section_rank"]
    assert section["verdict"] == "inconclusive"
    assert "column 3" in section["error"]
    assert err == ""


def test_analyze_reports_an_oversized_tangent_system_inconclusive(capsys, pattern_file, monkeypatch):
    import completable.numerics

    monkeypatch.setattr(completable.numerics, "MAX_TANGENT_BYTES", 1000)
    code, out, err = run_cli(capsys, "analyze", pattern_file, "--rank", "2", "--json")
    assert (code, err) == (0, "")  # the finite certificate still decides
    report = json.loads(out)
    for key in ("jacobian_rank", "grassmann_section_rank"):
        assert report[key] == {
            "verdict": "inconclusive",
            "error": "the tangent rank system needs 2000 bytes, more than the supported 1000",
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


def test_export_system_rank_above_m_names_the_bound_exit_64(capsys, tmp_path):
    values, _, _ = _observed_csv_file(tmp_path)  # 6 rows
    code, out, err = run_cli(capsys, "export-system", str(values), "--rank", "7", "--out", str(tmp_path / "sys"))
    assert (code, out) == (64, "")
    assert "need 1 <= r <= m, got r=7, m=6" in err
    assert not list(tmp_path.glob("sys*"))


@pytest.mark.parametrize(
    "grid, line",
    [
        ("110\n110\n110\n110\n", "empty columns: 3"),
        ("1100\n1100\n0011\n0010\n", "relaxed SLMF: fail (inequality, rows {1,2})"),
    ],
    ids=["empty-columns", "violating-rows"],
)
def test_text_report_line(capsys, tmp_path, grid, line):
    path = tmp_path / "mask.txt"
    path.write_text(grid)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--rank", "1")
    assert code == 2
    assert line in out.splitlines()


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
    assert prefix.with_suffix(".json").read_text() == json.dumps(system.index_map()) + "\n"


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
    """A refutation past 22 columns is answered without a minimum witness: exit 2."""
    from completable import Slmf, SlmfVerdict, check_slmf_combinatorial

    path = tmp_path / "phi.txt"
    chain = tuple((j, j + 1) for j in range(23))
    phi = Slmf(m=25, r=1, columns=chain + ((0, 1),))
    assert check_slmf_combinatorial(phi) == SlmfVerdict(False, None, "combinatorial")
    path.write_text(slmf_to_grid(phi))
    code, out, err = run_cli(capsys, "slmf-check", str(path), "--rank", "1", "--method", method)
    assert (code, out, err) == (2, "slmf: no\n", "")


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
    exact size (8 x 8 k5 s1) and at it (the 6 x 5 fixture) the Jacobian
    passes, which proves the bound, so nothing is scanned. Refuted at the
    exact size, the one scan names the counting test's first violating rows.
    """
    from completable import certificates
    from completable.cli import build_analysis_report

    scans = []
    kernel = certificates._least_row_set

    def counted(pattern, r):
        scans.append((pattern, r))
        return kernel(pattern, r)

    refuted = _refuted_6x5()
    monkeypatch.setattr(certificates, "_least_row_set", counted)
    for pattern, verdict, rows, scanned in (
        (random_pattern(8, 8, 5, seed=1), "pass", None, []),
        (parse_pattern(GRID_6X5), "pass", None, []),
        (refuted, "fail", [1, 2, 3], [(refuted, 2)]),
    ):
        scans.clear()
        report = build_analysis_report(pattern, 2, seed=0, budget=10**5)
        assert report["necessary_condition"]["verdict"] == verdict
        assert report["relaxed_slmf"]["violating_rows"] == rows
        assert scans == scanned


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
    """On the 16 x 16 k8 s0 mask at r = 3 the greedy counting set never runs, and
    each trial point is eliminated once: the section test and the necessary
    condition read the Jacobian test's trials."""
    from completable import certificates, numerics
    from completable.cli import build_analysis_report

    greedy, trials = [], []
    kernel, ranks = certificates._greedy_counting_set, numerics._tangent_ranks
    monkeypatch.setattr(certificates, "_greedy_counting_set", lambda *a: greedy.append(a) or kernel(*a))
    monkeypatch.setattr(numerics, "_tangent_ranks", lambda *a: trials.append(a) or ranks(*a))
    report = build_analysis_report(random_pattern(16, 16, 8, seed=0), 3, seed=0, budget=1000)
    necessary = report["necessary_condition"]
    assert (necessary["verdict"], len(necessary["witness_entries"]), necessary["nodes"]) == ("pass", 87, 1)
    assert greedy == []
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
