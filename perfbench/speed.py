"""The CPU speed a job gets, sampled while it runs.

On a shared host the speed of a CPU changes from minute to minute, by half
or more, as other tenants come and go; a job of ten seconds takes as much
longer. Raw job times then spread across runs far more than any bound on a
change to the program could allow. So every job is also timed at a fixed
reference speed:

    ref_seconds = (seconds - sampling) * REFERENCE_KERNEL_S / median(kernel)

``kernel`` is the time of a fixed pure-Python loop, run by a SIGPROF
handler every ``INTERVAL_S`` of the process's CPU time while the job runs,
and a few times just before and after the job (for jobs too short to be
sampled inside). ``sampling`` is the time the handler took inside the job.
The raw seconds are reported beside the reference ones.

The handler runs in the job's thread between bytecodes, so it samples the
speed the job itself is getting. During a long call into C (BLAS) the
signal waits until the call returns; the sample is then late, not lost.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# Kernel samples taken just before and just after each job.
BRACKET = 5
# The kernel's time on the 2-CPU reference host at its fastest; the
# reference seconds are seconds at that speed.
REFERENCE_KERNEL_S = 2.5e-4


def kernel() -> int:
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


class SpeedSampler:
    """Kernel times sampled in and around one job at a time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sampling_s = 0.0

    def _on_prof(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.sampling_s += time.perf_counter() - start

    def _bracket(self) -> None:
        for _ in range(BRACKET):
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)

    def begin(self) -> None:
        """Sample before the job, then arm the in-job sampling."""
        self.samples = []
        self.sampling_s = 0.0
        self._bracket()
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def end(self) -> None:
        """Disarm the sampling, then sample after the job."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._bracket()

    def reference_seconds(self, seconds: float) -> float:
        """``seconds`` of the job just sampled, at the reference speed."""
        return (seconds - self.sampling_s) * REFERENCE_KERNEL_S / statistics.median(self.samples)
