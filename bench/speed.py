"""Host-speed probe: times a fixed kernel while the program runs.

The benchmark shares a host whose speed changes by up to 1.8x within
seconds (other tenants, not waiting: process CPU time equals wall time and
steal time is zero).  Timing a fixed kernel in the same thread, every
INTERVAL_S while the program runs, measures that speed where and when the
work happens.  Times are then reported in reference seconds:

    reference time = (measured time - probe time) * mean(REFERENCE_S / k)

with k the timed kernel runs, which is the measured
time whenever the kernel runs at its reference speed.  The kernel mixes
what the program does -- interpreter arithmetic, tuple and dict work,
small LAPACK calls -- and runs from a SIGALRM handler, so it interrupts
Python code only between bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# the kernel's time at the reference speed: mid-range of the 0.74-1.36 ms
# medians seen on the 2-core host that README.md's figures come from
REFERENCE_S = 1.0e-3

_MATRIX = np.sin(np.arange(1.0, 65.0)).reshape(8, 8)


def kernel() -> float:
    """Run the fixed kernel once; return its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    table: dict = {}
    for i in range(1500):
        key = (i & 127, i % 5)
        table[key] = table.get(key, 0) + i
    for _ in range(10):
        np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel every INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.samples: list[float] = []  # timed kernel runs
        self.busy_s = 0.0  # time the probe took, to subtract from the measured time

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # the first pass refills the caches the program's own work evicted
        kernel()
        self.samples.append(kernel())
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick(None, None)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to reference seconds.

        The mean of REFERENCE_S / k is the work done per measured second
        relative to the reference; one sample slowed by an interruption
        moves it little.  Weighting each sample by the time since the one
        before, to stand in for long numpy calls that delay the signal,
        widened the spread of ``m12`` over ten runs to 13.6 % (5.9-9.5 %
        without).
        """
        return statistics.fmean(REFERENCE_S / k for k in self.samples)
