"""Host-speed calibration: fixed work, timed inside each run.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over minutes; process CPU time drifts with wall time, so it
is no remedy.  A run therefore times a fixed kernel after every op and
scales its times by

    factor = mean kernel time in this run / REFERENCE_S

so that they read as seconds on the reference host (2 vCPU, Python 3.11.7,
numpy 2.4.6), where the factor is 1.  The kernel is the benchmark's own code,
never nc_hardy's, so a change to the program cannot move it.

The kernel is interpreter-bound rational arithmetic.  On the reference host
it tracked set-up and the one-thread workloads, the Monte Carlo one
included, and narrowed their spread over seeds.  On the two-thread mc-large
loop it widened it, as did a batched-LAPACK kernel on one or two threads, so
that loop is not scaled.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Mean seconds per kernel call on the reference host.  It only sets the
# scale: comparisons need the same value on both sides, not an exact one.
REFERENCE_S = 0.0065


def kernel() -> Fraction:
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
        counts[i % 101] = counts.get(i % 101, 0) + i
    return total


class HostSpeed:
    """Running mean of the kernel's time in this process."""

    def __init__(self) -> None:
        self._total_s = 0.0
        self._calls = 0

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self._total_s += perf_counter() - start
        self._calls += 1

    def factor(self) -> float:
        """Mean kernel time over the reference time: above 1 on a slower host."""
        return self._total_s / self._calls / REFERENCE_S if self._calls else 1.0
