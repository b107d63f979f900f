"""Contention correction for timings on a shared machine.

On a shared virtual machine, other tenants slow this process down in bursts
of milliseconds to minutes, and the guest cannot see it: CPU time equals
wall time and no steal time shows.  A probe therefore samples the machine's
speed while the benchmark runs: a SIGALRM handler, at jittered intervals (so
that it cannot lock onto a neighbour's period), times one fixed pure-Python
loop.  A window's slowdown is the mean loop time inside it over
REFERENCE_LOOP_S, and corrected seconds are measured seconds divided by that
slowdown.  A change to the library moves corrected seconds like raw ones;
the neighbours' load moves them much less.  The loop touches no library
code, and a handler call costs about 0.1% of the mean interval.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# The loop's time on a quiet 2-core Xeon VM (5th percentile of its samples).
# It sets the unit of corrected seconds; any fixed value gives the same
# comparisons between runs.
REFERENCE_LOOP_S = 65e-6


def spin() -> float:
    """Seconds taken by one fixed loop of integer bytecode."""
    start = time.perf_counter()
    x = 0
    for i in range(1000):
        x += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples spin() on SIGALRM; (start, seconds) pairs in `samples`."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self._jitter = random.Random(0)
        self._running = False

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL,
                         self.interval * self._jitter.uniform(0.5, 1.5))

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), spin()))
        if self._running:
            self._arm()

    def start(self):
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._arm()

    def stop(self):
        # a pending signal may still run _tick once, but it no longer re-arms
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean loop seconds sampled in [start, end); the nearest sample
        for a window shorter than the interval."""
        inside = [s for t, s in self.samples if start <= t < end]
        if not inside:
            if not self.samples:
                return spin()
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.mean(inside)

    def corrected(self, start: float, end: float) -> float:
        """Seconds of the window [start, end) at the reference speed."""
        return (end - start) * REFERENCE_LOOP_S / self.mean(start, end)
