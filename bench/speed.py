"""Machine-speed gauge: a fixed reference kernel timed between operations.

The reference machine is a shared virtual machine whose CPU speed drifts
by up to 1.6x within a minute, in CPU time as much as in wall time (see
README.md).  A run therefore times a reference kernel that uses neither
rkbudget nor any of its inputs, between operations, at most every 0.3 s.
The kernel has three parts shaped like rkbudget's own work: interpreter
arithmetic, calls on tiny numpy arrays, and small dense inverses.  The
speed factor is the geometric mean of the three parts' times over their
nominal times, so 1.0 is the nominal speed and 1.3 a machine running 30%
slow.  Dividing a latency by the factor read around it gives the latency
at nominal speed.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.3  # wall time between gauge readings during a loop
MARGIN_S = 0.5  # readings this close to an op's start or end describe it

_X = np.array([1.0])
_M = np.random.default_rng(0).normal(size=(60, 60)) + 8.0 * np.eye(60)


def _interpreter():
    s = 0
    for i in range(60000):
        s += i * i % 7
    return s


def _tiny_arrays():
    for _ in range(600):
        y = np.asarray(_X, dtype=float)
        z = y + 0.5 * y
        float(np.linalg.norm(z))
        np.all(np.isfinite(z))


def _dense():
    for _ in range(30):
        np.linalg.inv(_M)


# (part, its time at nominal speed in seconds)
PARTS = ((_interpreter, 5e-3), (_tiny_arrays, 5e-3), (_dense, 4e-3))


def reading() -> float:
    """One speed factor: geometric mean of part times over nominal times."""
    logs = []
    for part, nominal in PARTS:
        t0 = perf_counter()
        part()
        logs.append(math.log((perf_counter() - t0) / nominal))
    return math.exp(statistics.fmean(logs))


class SpeedGauge:
    """Timestamped speed factors, read between operations."""

    def __init__(self):
        self.times: list[float] = []
        self.readings: list[float] = []

    def read(self) -> float:
        value = reading()
        self.times.append(perf_counter())
        self.readings.append(value)
        return value

    def tick(self) -> None:
        """Read the gauge when the last reading is older than ``INTERVAL_S``."""
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """Median factor of the readings within ``MARGIN_S`` of ``[start, end]``.

        Readings are taken between operations, so a long operation is
        bracketed by the readings just before and just after it.  Falls back
        to the reading nearest to the interval.
        """
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        if hi > lo:
            return statistics.median(self.readings[lo:hi])
        nearest = min(range(len(self.times)), key=lambda i: min(abs(self.times[i] - start), abs(self.times[i] - end)))
        return self.readings[nearest]
