"""Span recorder for the traced run.

The recorder replaces public functions of the package at the place their
caller looks them up (a module attribute or a class attribute) with wrappers
that record one span per call: name, start, end, parent span and job id.
Spans stay in memory; ``write_spans`` writes them out once the run is over.
Nothing under ``src/`` is edited: ``install`` returns a function that puts
every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import completable.certificates
import completable.cli
import completable.numerics
import completable.plucker

# Span name -> layer. A span is named after the module that defines the
# function, whichever namespace the call went through.
LAYERS = {
    "cli.main": "cli",
    "patterns.load_pattern": "patterns",
    "patterns.minimum_size_check": "patterns",
    "numerics.observed_from_csv": "patterns",
    "certificates.find_finite_certificate": "certificates",
    "certificates.find_unique_certificate": "certificates",
    "certificates.check_necessary_condition": "certificates",
    "certificates.check_relaxed_slmf": "certificates",
    "slmf.check_slmf_combinatorial": "slmf",
    "slmf.check_slmf_randomized": "slmf",
    "numerics.jacobian_rank_test": "numerics",
    "numerics.grassmann_section_rank_test": "numerics",
    "numerics.complete_matrix": "numerics",
    "numerics.export_plucker_system": "numerics",
    "numerics.ExportedSystem.to_csv": "numerics",
    "plucker.plucker_of_basis": "plucker",
}
LAYER_NAMES = ("cli", "patterns", "certificates", "slmf", "numerics", "plucker")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_search(c, prefix, result, args, kwargs):
    c[prefix + ".nodes"] += result.nodes
    c[prefix + ".budget_exhausted"] += result.status == "inconclusive"


def _count_necessary(c, prefix, result, args, kwargs):
    c[prefix + ".nodes"] += result.nodes
    c[prefix + ".inconclusive"] += result.contains_relaxed is None


def _count_jacobian(c, prefix, result, args, kwargs):
    pattern, r = _arg(args, kwargs, 0, "pattern"), _arg(args, kwargs, 1, "r")
    c[prefix + ".indeterminate"] += result.indeterminate
    c[prefix + ".jacobian_entries"] += pattern.size * r * (pattern.m + pattern.n)


def _count_section(c, prefix, result, args, kwargs):
    c[prefix + ".indeterminate"] += result.indeterminate


def _count_complete(c, prefix, result, args, kwargs):
    c[prefix + ".columns"] += result.shape[1]


def _count_export(c, prefix, result, args, kwargs):
    rows, coords = result.matrix.shape
    c[prefix + ".rows"] += rows
    c[prefix + ".coords"] += coords
    c[prefix + ".dense_mb"] += rows * coords * 8 / 1e6
    c[prefix + ".nnz"] += rows * (result.r + 1)
    c[prefix + ".cells"] += rows * coords


def _count_csv(c, prefix, result, args, kwargs):
    c[prefix + ".bytes"] += len(result)


def _count_plucker(c, prefix, result, args, kwargs):
    c[prefix + ".coords"] += len(result.coords)


COUNTERS = {
    "certificates.find_finite_certificate": _count_search,
    "certificates.find_unique_certificate": _count_search,
    "certificates.check_necessary_condition": _count_necessary,
    "numerics.jacobian_rank_test": _count_jacobian,
    "numerics.grassmann_section_rank_test": _count_section,
    "numerics.complete_matrix": _count_complete,
    "numerics.export_plucker_system": _count_export,
    "numerics.ExportedSystem.to_csv": _count_csv,
    "plucker.plucker_of_basis": _count_plucker,
}

# (owner, attribute, span name): where each caller looks the function up.
# The cli names are the stage functions as imported into the cli module; the
# numerics and plucker module attributes are where the probe jobs of this
# benchmark look them up; the certificates attributes are where the
# necessary search and certificate verification look them up.
TARGETS = (
    (completable.cli, "main", "cli.main"),
    (completable.cli, "load_pattern", "patterns.load_pattern"),
    (completable.cli, "minimum_size_check", "patterns.minimum_size_check"),
    (completable.cli, "observed_from_csv", "numerics.observed_from_csv"),
    (completable.cli, "find_finite_certificate", "certificates.find_finite_certificate"),
    (completable.cli, "find_unique_certificate", "certificates.find_unique_certificate"),
    (completable.cli, "check_necessary_condition", "certificates.check_necessary_condition"),
    (completable.cli, "check_relaxed_slmf", "certificates.check_relaxed_slmf"),
    (completable.cli, "check_slmf_combinatorial", "slmf.check_slmf_combinatorial"),
    (completable.cli, "check_slmf_randomized", "slmf.check_slmf_randomized"),
    (completable.cli, "jacobian_rank_test", "numerics.jacobian_rank_test"),
    (completable.cli, "grassmann_section_rank_test", "numerics.grassmann_section_rank_test"),
    (completable.cli, "complete_matrix", "numerics.complete_matrix"),
    (completable.cli, "export_plucker_system", "numerics.export_plucker_system"),
    (completable.certificates, "check_relaxed_slmf", "certificates.check_relaxed_slmf"),
    (completable.certificates, "check_slmf_combinatorial", "slmf.check_slmf_combinatorial"),
    (completable.numerics, "jacobian_rank_test", "numerics.jacobian_rank_test"),
    (completable.numerics, "grassmann_section_rank_test", "numerics.grassmann_section_rank_test"),
    (completable.numerics, "complete_matrix", "numerics.complete_matrix"),
    (completable.numerics.ExportedSystem, "to_csv", "numerics.ExportedSystem.to_csv"),
    (completable.plucker, "plucker_of_basis", "plucker.plucker_of_basis"),
)


class Recorder:
    """In-memory spans plus counters read off the wrapped calls' results.

    A span is ``[name, start, end, parent index or -1, job id]``. Calls made
    while ``job`` is None (set-up, output checks) are not recorded.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, name, result, args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every target; returns the function that restores them."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        for owner, attr, name in TARGETS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

        def restore() -> None:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

        return restore

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, by name, as (value, unit)."""
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for (name, *_), own in zip(self.spans, self.self_times()):
            self_s[name] += own
            calls[name] += 1
        c = self.counters
        out: dict[str, tuple[float, str]] = {
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "patterns.load_pattern.s": (self_s["patterns.load_pattern"], "s"),
            "numerics.observed_from_csv.s": (self_s["numerics.observed_from_csv"], "s"),
        }
        for stage in ("find_finite_certificate", "find_unique_certificate"):
            name = "certificates." + stage
            out[name + ".s"] = (self_s[name], "s")
            out[name + ".nodes"] = (c[name + ".nodes"], "count")
            out[name + ".budget_exhausted"] = (c[name + ".budget_exhausted"], "count")
        search_s = self_s["certificates.find_finite_certificate"] + self_s["certificates.find_unique_certificate"]
        search_nodes = c["certificates.find_finite_certificate.nodes"] + c["certificates.find_unique_certificate.nodes"]
        out["certificates.search.us_per_node"] = (1e6 * search_s / search_nodes if search_nodes else 0.0, "us")
        name = "certificates.check_necessary_condition"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".nodes"] = (c[name + ".nodes"], "count")
        out[name + ".inconclusive"] = (c[name + ".inconclusive"], "count")
        for name in ("certificates.check_relaxed_slmf", "slmf.check_slmf_combinatorial", "slmf.check_slmf_randomized"):
            out[name + ".s"] = (self_s[name], "s")
            out[name + ".calls"] = (calls[name], "count")
        name = "numerics.jacobian_rank_test"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".indeterminate"] = (c[name + ".indeterminate"], "count")
        out[name + ".jacobian_entries"] = (c[name + ".jacobian_entries"], "count")
        name = "numerics.grassmann_section_rank_test"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".indeterminate"] = (c[name + ".indeterminate"], "count")
        name = "numerics.complete_matrix"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".columns"] = (c[name + ".columns"], "count")
        name = "numerics.export_plucker_system"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".rows"] = (c[name + ".rows"], "count")
        out[name + ".coords"] = (c[name + ".coords"], "count")
        out[name + ".dense_mb"] = (c[name + ".dense_mb"], "MB")
        cells = c[name + ".cells"]
        out[name + ".nnz_share"] = (c[name + ".nnz"] / cells if cells else 0.0, "share")
        name = "numerics.ExportedSystem.to_csv"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".bytes"] = (c[name + ".bytes"], "B")
        name = "plucker.plucker_of_basis"
        out[name + ".s"] = (self_s[name], "s")
        out[name + ".coords"] = (c[name + ".coords"], "count")
        for layer in LAYER_NAMES:
            total = sum(s for name, s in self_s.items() if LAYERS[name] == layer)
            out[f"layer.{layer}.self_s"] = (total, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
