"""Statistics the benchmark reports: percentiles, self time, failure counts.

Kept free of numpy and of rkbudget so the unit tests in ``bench/tests`` run
without either.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``values``.

    Returns None when fewer than ``MIN_BEYOND`` samples lie above the
    chosen rank, since such a tail is too thin to report.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Children may overlap each other or stick out of the parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (a, b) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append(b - a - (covered_length(kids, a, b) if kids else 0.0))
    return out


def root_ids(parents) -> list[int]:
    """Per span: the index of its root span.  A parent precedes its children."""
    roots: list[int] = []
    for i, p in enumerate(parents):
        roots.append(i if p < 0 else roots[p])
    return roots


def _by_kind(samples) -> dict[str, list[tuple[float, str | None, float]]]:
    kinds: dict[str, list[tuple[float, str | None, float]]] = {}
    for label, latency, fail, work in samples:
        kinds.setdefault(label, []).append((latency, fail, work))
    return kinds


def steady_rate(samples) -> float:
    """Work units per second, robust to bursts of machine noise.

    ``samples`` are ``(kind, latency s, failure or None, work)`` tuples.
    Each kind's busy time is its op count times its median latency, so a
    few ops slowed by another tenant do not move the result.
    """
    busy = work = 0.0
    for ops in _by_kind(samples).values():
        busy += len(ops) * statistics.median(latency for latency, _, _ in ops)
        work += sum(w for _, _, w in ops)
    return work / busy


def typical_latency(samples) -> float:
    """Geometric mean over kinds of each kind's median successful latency.

    Kinds with no successful op are left out; the failures show in the
    failure counts instead.
    """
    medians = [
        statistics.median(ok)
        for ops in _by_kind(samples).values()
        if (ok := [latency for latency, fail, _ in ops if fail is None])
    ]
    return math.exp(statistics.fmean(math.log(m) for m in medians))


class Tally:
    """Attempted and failed operations, with failures counted by type."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def describe(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.failures.items()))
        return f"{self.failed}/{self.attempted}" + (f" ({kinds})" if kinds else "")
