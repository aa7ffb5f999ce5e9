"""Small statistics helpers used by metrics collection and benchmarks."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input (metrics-friendly)."""
    items = list(values)
    if not items:
        return 0.0
    return sum(items) / len(items)


def stdev(values: Iterable[float]) -> float:
    """Sample standard deviation; 0.0 when fewer than two values."""
    items = list(values)
    if len(items) < 2:
        return 0.0
    mu = mean(items)
    return math.sqrt(sum((value - mu) ** 2 for value in items) / (len(items) - 1))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100].

    The one sample quantile of the package: the serve summary, the SLO
    tracker, ``--metrics`` histograms and the bench harness's medians
    all read it.  Pinned edge behaviour: empty input returns 0.0, a
    single sample is every percentile of itself, ``pct`` outside
    [0, 100] clamps to the min/max, and a NaN ``pct`` raises rather
    than silently producing a NaN rank.
    """
    if math.isnan(pct):
        raise ValueError("percentile rank must not be NaN")
    pct = min(100.0, max(0.0, pct))
    items = sorted(values)
    if not items:
        return 0.0
    rank = pct / 100.0 * (len(items) - 1)
    low = int(rank)
    frac = rank - low
    if not frac:
        return items[low]
    lo, hi = items[low], items[low + 1]
    # Clamp: the lerp can round one ulp past either end.
    return min(max(lo + (hi - lo) * frac, lo), hi)


class RunningStats:
    """Welford online mean/variance accumulator.

    Used by the bandwidth estimator and the experiment runner so long runs
    never hold every sample in memory.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        # Welford's m2 can drift a hair below zero for near-constant
        # streams; clamp so stdev never hits sqrt() of a negative.
        return max(0.0, self._m2 / (self.count - 1))

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> "List[float]":
        """Return ``[count, mean, stdev, min, max]`` for report rows."""
        if not self.count:
            return [0, 0.0, 0.0, 0.0, 0.0]
        return [self.count, self.mean, self.stdev, self.minimum, self.maximum]
