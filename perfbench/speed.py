"""Host-speed calibration: job times rescaled to a reference host speed.

The benchmark shares a few cores of a busy host, whose speed swings by 1.5x
or more for tens of seconds at a time, and CPU time swings with it (the
slowdown is contention for the core and its caches, not lost time slices).
So beside the jobs, the benchmark times a fixed kernel of its own: plain
integer loops, Fraction arithmetic, ``math.fsum`` and small complex matrix
products, the kinds of work padic_mub does.  The kernel never changes, so
any change in its time is a change in the host.  A job's time is rescaled by
``REFERENCE_S / kernel time`` measured around it: the time the job would take
on a host where the kernel takes ``REFERENCE_S``.

The raw times stay in the run record, next to the measured kernel times.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's time on an idle 2-CPU Intel Xeon host (Python 3.11, numpy with
# OpenBLAS on one thread); rescaled times are in seconds of that host.
REFERENCE_S = 0.009

INTERVAL_S = 0.2  # at most one kernel run per interval: ~5% of the run
WINDOW = 25  # kernel runs (about 5 s) whose median rescales one job time

_RNG = np.random.default_rng(20110)
_MATRIX = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))
_PHASES = [math.cos(0.37 * i) for i in range(6000)]


def kernel() -> None:
    """Fixed work of the kinds padic_mub does; about 9 ms on the host above."""
    for _rep in range(3):
        s = 0
        for i in range(12000):
            s += i * i % 7
        f = Fraction(0)
        for i in range(1, 300):
            f += Fraction(i, i % 13 + 1)
        math.fsum(_PHASES)
        m = _MATRIX
        for _ in range(4):
            m = (m @ _MATRIX.conj().T) / 48
        np.exp(1j * np.abs(m))


class Clock:
    """Kernel runs interleaved with the jobs, at most one per ``INTERVAL_S``."""

    def __init__(self):
        self.at: list[float] = []  # start of each kernel run
        self.took: list[float] = []  # its duration
        self._next = 0.0
        kernel()  # untimed: the first run in a process pays for allocations

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now >= self._next:
            kernel()
            self.at.append(now)
            self.took.append(time.perf_counter() - now)
            self._next = time.perf_counter() + INTERVAL_S

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the WINDOW kernel runs nearest ``at``."""
        i = bisect.bisect(self.at, at)
        lo = max(0, min(i - WINDOW // 2, len(self.at) - WINDOW))
        return REFERENCE_S / statistics.median(self.took[lo:lo + WINDOW])
