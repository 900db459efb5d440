#!/usr/bin/env python3
"""Record the verdicts the checker holds later versions to.

Run from the root of a checkout, at the commit whose verdicts become the
reference:

    python3 perfbench/make_reference.py

It runs every ``analyze`` job of analyze-mix and the fixed-mask probe of
probe-large (their masks do not depend on ``--seed``) and writes
``perfbench/reference.json``. A later run fails a job whose decided verdict
turns into a different decided verdict; inconclusive may become decided.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run._prepare_environment()
    import completable

    import check
    import harness
    from corpus import ROADMAP_PROBE, build_jobs, write_inputs

    verdicts = {}
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        directory = Path(tmp)
        jobs = [job for job in build_jobs("analyze-mix", 0) if job.kind == "analyze"]
        write_inputs(jobs, directory)
        for job in jobs:
            code, stdout = harness._run_cli(job.resolved_argv(directory))
            verdicts[job.name] = check.analyze_verdicts(json.loads(stdout))
            print(job.name, code, verdicts[job.name], flush=True)
    m, n, k, s, r = ROADMAP_PROBE
    for job in build_jobs("probe-large", 0):
        if job.name == f"probe-roadmap-{m}x{n}-k{k}-s{s}-r{r}":
            result = harness._run_probe(job)
            verdicts[job.name] = {key: check.rank_verdict(result[key]) for key in ("jacobian", "section")}
            print(job.name, verdicts[job.name])
    payload = {"package_version": completable.__version__, "verdicts": dict(sorted(verdicts.items()))}
    run.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
