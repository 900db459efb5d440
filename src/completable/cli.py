"""Command-line front end.

Exit codes: 0 evidence of finite completability, 2 evidence against,
3 inconclusive, 64 usage or input-format error, 65 data error (degenerate or
inconsistent numerics), 70 internal fault.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (
    DEFAULT_BUDGET,
    MAX_SEARCH_SUBSETS,
    _certificate_dict,
    check_necessary_condition,
    check_relaxed_slmf,
    find_finite_certificate,
    find_unique_certificate,
)
from .numerics import (
    DegenerateProjectionError,
    InconsistentObservationError,
    ObservedMatrix,
    ObservedMatrixFormatError,
    RankReport,
    SectionTestError,
    TangentSizeError,
    complete_matrix,
    export_plucker_system,
    grassmann_section_rank_test,
    jacobian_rank_test,
    observed_from_csv,
)
from .patterns import (
    ObservationPattern,
    PatternFormatError,
    load_pattern,
    minimum_size_check,
    pattern_to_grid,
    random_pattern,
)
from .plucker import NotABasisError, SubspaceBasis
from .slmf import check_slmf_combinatorial, check_slmf_randomized, slmf_from_grid

EXIT_EVIDENCE = 0
EXIT_AGAINST = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_FAULT = 70

SCHEMA_VERSION = 1
# the most columns ``analyze`` reads and ``gen --n`` draws: a report holds memory and
# prints lines per column, about 172 MB at 10^6 columns; rows are not limited
MAX_COLUMNS = 1 << 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)

    def _print_message(self, message, file=None):  # argparse hook: help, usage and version
        # argparse drops a failed write; on standard output it is a usage error
        if file is sys.stdout:
            _print(message, end="", flush=True)
        else:
            super()._print_message(message, file)


def _int_at_least(low: int):
    """argparse type for an integer option with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


# write buffer of the output files written through Python: the index map,
# `complete`'s matrix and `gen`'s patterns; an export's CSV bypasses it, by
# writev on the file's descriptor (ExportedSystem.write_csv)
_OUTPUT_BUFFER = 1 << 20


@contextmanager
def _output(path: Path, binary: bool = False):
    """``path`` opened for writing text, or bytes if ``binary``, with a 1 MiB buffer;
    failing to open or write it is a usage error."""
    try:
        with path.open("wb" if binary else "w", buffering=_OUTPUT_BUFFER) as fh:
            yield fh
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _print(*values, **kwargs) -> None:
    """``print`` to standard output; failing to write it is a usage error.

    Once a write has failed, the descriptor is pointed at ``os.devnull``, so
    the interpreter's last flush at exit, of what could not be written,
    succeeds silently instead of printing a second error and exiting 120.
    """
    try:
        print(*values, **kwargs)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _UsageError(f"cannot write standard output: {exc}") from exc


def _load_pattern_file(path: str) -> ObservationPattern:
    try:
        return load_pattern(_read_text(path))
    except PatternFormatError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _load_values_file(path: str) -> ObservedMatrix:
    try:
        return observed_from_csv(_read_text(path))
    except ObservedMatrixFormatError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _rank_test(test, pattern: ObservationPattern, r: int, seed: int) -> tuple[dict, RankReport | None]:
    """The exact rank test's payload and report; where it could not run, an
    inconclusive payload with the reason, and None."""
    try:
        report = test(pattern, r, seed=seed)
    except (SectionTestError, TangentSizeError) as exc:
        return {"verdict": "inconclusive", "error": str(exc)}, None
    return {
        "verdict": "pass" if report.passed else "fail",
        "tested_rank": report.tested_rank,
        "target": report.target,
        "trials": report.trials,
        "pass_count": int(report.passed),
    }, report


# a decision of the counting test or the necessary condition; None is undecided
_VERDICT = {True: "pass", False: "fail", None: "inconclusive"}


def build_analysis_report(
    pattern: ObservationPattern, r: int, seed: int, budget: int
) -> dict:
    """Run every analysis on the pattern and assemble the JSON-ready report."""
    supports = pattern.column_supports()
    size_check = minimum_size_check(pattern, r)

    # cheapest proof first: a Jacobian pass carries the necessary condition's
    # witness and spares the searches and the counting test their row-set scan
    jacobian, jacobian_report = _rank_test(jacobian_rank_test, pattern, r, seed)
    finite = find_finite_certificate(pattern, r, budget=budget, jacobian=jacobian_report)
    unique = find_unique_certificate(pattern, r, budget=budget, jacobian=jacobian_report)
    relaxed = check_relaxed_slmf(pattern, r, jacobian_report)
    necessary = check_necessary_condition(pattern, r, jacobian_report)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "completable", "version": __version__},
        "seed": seed,
        "rank": r,
        "pattern": {
            "m": pattern.m,
            "n": pattern.n,
            "observed": pattern.size,
            "column_support_sizes": [len(w) for w in supports],
            "empty_columns": [j + 1 for j in pattern.empty_columns()],
        },
        "minimum_size": {
            "verdict": "pass" if size_check.passed else "fail",
            "required": size_check.required,
            "actual": size_check.actual,
        },
        "finite_certificate": _certificate_payload(finite),
        "unique_certificate": _certificate_payload(unique),
        "relaxed_slmf": {
            "verdict": _VERDICT[relaxed.ok],
            "reason": relaxed.reason,
            "violating_rows": [i + 1 for i in relaxed.violating_rows]
            if relaxed.violating_rows
            else None,
            "required_size": relaxed.required_size,
            "actual_size": relaxed.actual_size,
        },
        "necessary_condition": {
            "verdict": _VERDICT[necessary.contains_relaxed],
            "witness_entries": [
                [i + 1, j + 1] for i, j in necessary.witness.sorted_entries()
            ]
            if necessary.witness
            else None,
            "nodes": necessary.nodes,
        },
        "jacobian_rank": jacobian,
        "grassmann_section_rank": _rank_test(grassmann_section_rank_test, pattern, r, seed)[0],
    }
    report["exit_code"] = _exit_code(report)
    return report


def _certificate_payload(outcome) -> dict:
    status = {"found": "present", "none": "absent", "inconclusive": "inconclusive"}[
        outcome.status
    ]
    payload = {"status": status}
    if outcome.reason is not None:
        payload["reason"] = outcome.reason
    payload["nodes"] = outcome.nodes
    if outcome.certificate is not None:
        payload["certificate"] = _certificate_dict(outcome.certificate)
    return payload


def _exit_code(report: dict) -> int:
    if (
        report["finite_certificate"]["status"] == "present"
        or report["jacobian_rank"]["verdict"] == "pass"
    ):
        return EXIT_EVIDENCE
    if (
        report["minimum_size"]["verdict"] == "fail"
        or report["necessary_condition"]["verdict"] == "fail"
        or report["jacobian_rank"]["verdict"] == "fail"
    ):
        return EXIT_AGAINST
    return EXIT_INCONCLUSIVE


def _render_report(report: dict) -> str:
    p = report["pattern"]
    lines = [
        f"pattern: {p['m']} x {p['n']}, {p['observed']} observed entries",
        f"column support sizes: {' '.join(str(s) for s in p['column_support_sizes'])}",
    ]
    if p["empty_columns"]:
        lines.append(f"empty columns: {' '.join(str(j) for j in p['empty_columns'])}")
    ms = report["minimum_size"]
    lines.append(f"rank: {report['rank']}")
    lines.append(
        f"minimum size: {ms['verdict']} ({ms['actual']} observed, {ms['required']} required)"
    )
    for key, label in (
        ("finite_certificate", "finite certificate"),
        ("unique_certificate", "unique certificate"),
    ):
        entry = report[key]
        line = f"{label}: {entry['status']}"
        if "reason" in entry:
            line += f" ({entry['reason']}: more than {MAX_SEARCH_SUBSETS} subsets)"
        if entry.get("certificate"):
            groups = " / ".join(
                "{" + ",".join(str(c) for c in grp) + "}"
                for grp in entry["certificate"]["partition"]
            )
            line += f" (partition {groups})"
        lines.append(line)
    rel = report["relaxed_slmf"]
    line = f"relaxed SLMF: {rel['verdict']}"
    if rel["reason"]:
        line += f" ({rel['reason']}"
        if rel["violating_rows"]:
            line += f", rows {{{','.join(str(i) for i in rel['violating_rows'])}}}"
        line += ")"
    lines.append(line)
    nec = report["necessary_condition"]
    lines.append(f"necessary condition: {nec['verdict']}")
    for key, label in (
        ("jacobian_rank", "jacobian rank"),
        ("grassmann_section_rank", "section jacobian rank"),
    ):
        entry = report[key]
        if "tested_rank" in entry:
            lines.append(
                f"{label}: {entry['verdict']} ({entry['tested_rank']}/{entry['target']}, "
                f"{entry['pass_count']}/{entry['trials']} trials)"
            )
        else:
            lines.append(f"{label}: {entry['verdict']} ({entry.get('error', '')})")
    meaning = {
        EXIT_EVIDENCE: "finite-completability evidence found",
        EXIT_AGAINST: "evidence against",
        EXIT_INCONCLUSIVE: "inconclusive",
    }[report["exit_code"]]
    lines.append(f"exit status: {report['exit_code']} ({meaning})")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    pattern = _load_pattern_file(args.pattern_file)
    if pattern.n > MAX_COLUMNS:
        raise _UsageError(f"{args.pattern_file}: {pattern.n} columns, more than the supported {MAX_COLUMNS}")
    if args.rank > min(pattern.m, pattern.n):
        raise _UsageError(
            f"--rank {args.rank} exceeds min(m, n) = {min(pattern.m, pattern.n)}"
        )
    report = build_analysis_report(pattern, args.rank, args.seed, args.budget)
    if args.json:
        _print(json.dumps(report, separators=(",", ":")))
    else:
        _print(_render_report(report))
    return report["exit_code"]


def _cmd_slmf_check(args) -> int:
    text = _read_text(args.phi_file)
    try:
        phi = slmf_from_grid(text, args.rank)
    except (PatternFormatError, ValueError) as exc:
        raise _UsageError(f"{args.phi_file}: {exc}") from exc
    verdicts = {}
    if args.method in ("combinatorial", "both"):
        verdicts["combinatorial"] = check_slmf_combinatorial(phi)
    if args.method in ("randomized", "both"):
        verdicts["randomized"] = check_slmf_randomized(phi, seed=args.seed)
    answers = {v.is_slmf for v in verdicts.values()}
    if len(answers) > 1:
        print("tool fault: combinatorial and randomized methods disagree", file=sys.stderr)
        return EXIT_FAULT
    verdict = next(iter(verdicts.values()))
    is_slmf = verdict.is_slmf
    _print(f"slmf: {'yes' if is_slmf else 'no'}")
    for name, v in verdicts.items():
        if v.witness is not None:
            _print(f"violating columns ({name}): {{{','.join(str(t + 1) for t in v.witness)}}}")
    return EXIT_EVIDENCE if is_slmf else EXIT_AGAINST


def _cmd_complete(args) -> int:
    obs = _load_values_file(args.values_file)
    lines = _read_text(args.basis).splitlines()
    # loadtxt warns on a file with no data, and the check runs first to keep it quiet
    if not any(line.partition("#")[0].strip() for line in lines):
        raise _UsageError(f"{args.basis}: empty basis file")
    try:
        basis_rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise _UsageError(f"{args.basis}: {exc}") from exc
    try:
        basis = SubspaceBasis(basis_rows)
        if basis.r != args.rank:
            raise NotABasisError(f"basis has {basis.r} columns, expected rank {args.rank}")
        completed = complete_matrix(obs, basis)
    except (NotABasisError, DegenerateProjectionError, InconsistentObservationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    scale = max(1.0, *(abs(v) for v in obs.values.values()))
    residual = max(abs(completed[i, j] - v) for (i, j), v in obs.values.items()) / scale
    out = Path(args.out)
    with _output(out, binary=True) as fh:
        for row in completed.tolist():
            fh.write((",".join(map(repr, row)) + "\n").encode())
    _print(f"wrote {out}")
    _print(f"max observed-entry residual, relative to max(1, |observed|): {residual:.3e}")
    return EXIT_EVIDENCE


def _cmd_gen(args) -> int:
    if args.n > MAX_COLUMNS:
        raise _UsageError(f"--n {args.n} columns, more than the supported {MAX_COLUMNS}")
    if args.per_column > args.m:
        raise _UsageError(f"--per-column {args.per_column} exceeds m={args.m}")
    if args.rank > min(args.m, args.n):
        raise _UsageError(f"--rank {args.rank} exceeds min(m, n) = {min(args.m, args.n)}")
    children = np.random.SeedSequence(args.seed).spawn(args.count)
    cert_hits = 0
    cert_known = 0
    rank_hits = 0
    for idx, child in enumerate(children):
        pattern = random_pattern(args.m, args.n, args.per_column, seed=child)
        if args.emit_stats:
            # every pattern has --per-column entries in each column, so a tangent
            # system too large for the first is too large for all: the statistics
            # come before the pattern's file, and a refusal leaves no file
            try:
                report = jacobian_rank_test(pattern, args.rank, seed=int(child.generate_state(1)[0]))
            except TangentSizeError as exc:
                raise _UsageError(f"--emit-stats: {exc}") from exc
            rank_hits += report.passed
            outcome = find_finite_certificate(pattern, args.rank, jacobian=report)
            if outcome.status != "inconclusive":
                cert_known += 1
                cert_hits += outcome.status == "found"
        name = Path(f"pattern_{idx:03d}.txt")
        with _output(name) as fh:
            fh.write(pattern_to_grid(pattern))
        _print(f"wrote {name}")
    if args.emit_stats:
        frac_cert = cert_hits / cert_known if cert_known else float("nan")
        _print(f"finite-certificate fraction: {frac_cert:.3f} ({cert_hits}/{cert_known} decided)")
        _print(f"full-jacobian-rank fraction: {rank_hits / args.count:.3f}")
    return EXIT_EVIDENCE


def _cmd_export_system(args) -> int:
    obs = _load_values_file(args.values_file)
    try:
        system = export_plucker_system(obs, args.rank)
    except ValueError as exc:  # r above m, or more rows, coordinates or CSV bytes than supported
        raise _UsageError(f"{args.values_file}: {exc}") from exc
    csv_path = Path(args.out + ".csv")
    json_path = Path(args.out + ".json")
    with _output(csv_path, binary=True) as fh:
        system.write_csv(fh)
    with _output(json_path) as fh:
        system.write_index_map(fh)
        fh.write("\n")
    _print(f"wrote {csv_path} and {json_path}")
    rows, coords = system.shape
    _print(f"system: {rows} linear sections over {coords} coordinates (linear part only)")
    return EXIT_EVIDENCE


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="completable", description=__doc__)
    parser.add_argument("--version", action="version", version=f"completable {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run every completability test on a pattern")
    analyze.add_argument("pattern_file")
    analyze.add_argument("--rank", type=_int_at_least(1), required=True)
    analyze.add_argument("--seed", type=_int_at_least(0), default=0)
    analyze.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    slmf_check = sub.add_parser("slmf-check", help="test the linkage-support property")
    slmf_check.add_argument("phi_file")
    slmf_check.add_argument("--rank", type=_int_at_least(1), required=True)
    slmf_check.add_argument(
        "--method", choices=["both", "combinatorial", "randomized"], default="both"
    )
    slmf_check.add_argument("--seed", type=_int_at_least(0), default=0)
    slmf_check.set_defaults(func=_cmd_slmf_check)

    complete = sub.add_parser("complete", help="complete a matrix from a known column space")
    complete.add_argument("values_file")
    complete.add_argument("--rank", type=_int_at_least(1), required=True)
    complete.add_argument("--basis", required=True)
    complete.add_argument("--out", required=True)
    complete.set_defaults(func=_cmd_complete)

    gen = sub.add_parser("gen", help="generate random patterns, optionally with statistics")
    gen.add_argument("--m", type=_int_at_least(1), required=True)
    gen.add_argument("--n", type=_int_at_least(1), required=True)
    gen.add_argument("--rank", type=_int_at_least(1), required=True)
    gen.add_argument("--per-column", type=_int_at_least(1), required=True, dest="per_column")
    gen.add_argument("--seed", type=_int_at_least(0), default=0)
    gen.add_argument("--count", type=_int_at_least(1), default=1)
    gen.add_argument("--emit-stats", action="store_true", dest="emit_stats")
    gen.set_defaults(func=_cmd_gen)

    export = sub.add_parser("export-system", help="export the linear section system")
    export.add_argument("values_file")
    export.add_argument("--rank", type=_int_at_least(1), required=True)
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export_system)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        _print(end="", flush=True)  # a failed write of buffered output fails here, not at exit
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other failure is a fault of this tool
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
