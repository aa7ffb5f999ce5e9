"""Time-varying WAN bandwidth (§2.1).

"WAN bandwidth is scarce and highly variable across sites."  A
:class:`BandwidthProfile` is a piecewise-constant multiplier applied to
a site's nominal link capacity; the transfer scheduler integrates flows
through the changing capacity exactly (rates are recomputed at every
profile epoch).  Ready-made generators produce diurnal patterns and
bounded random walks, which is how production WAN capacity actually
drifts at the minutes granularity the paper's estimator assumes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class BandwidthProfile:
    """Piecewise-constant capacity multiplier over time.

    ``epochs`` is a sorted list of ``(start_time, multiplier)`` pairs;
    the first epoch must start at 0, starts are finite, and every
    multiplier is finite and > 0 (links degrade, they do not vanish).
    """

    epochs: Tuple[Tuple[float, float], ...]
    #: Epoch start times, precomputed once: ``multiplier_at`` sits inside
    #: the transfer scheduler's progressive-filling inner loop, and
    #: rebuilding this list per call dominated profile lookups.
    _starts: Tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.epochs:
            raise TopologyError("profile needs at least one epoch")
        if self.epochs[0][0] != 0.0:  # lint: allow[R004] — exact zero-start contract on the user-supplied schedule
            raise TopologyError("first epoch must start at time 0")
        previous = -math.inf
        for index, (start, multiplier) in enumerate(self.epochs):
            # Chained ranges are False for NaN, so NaN fails them too.
            if not previous < start < math.inf:
                raise TopologyError(
                    f"epoch {index} start must be finite and strictly "
                    f"increasing, got {start}"
                )
            if not 0.0 < multiplier < math.inf:
                raise TopologyError(
                    f"epoch {index} multiplier must be finite and > 0, "
                    f"got {multiplier}"
                )
            previous = start
        object.__setattr__(
            self, "_starts", tuple(start for start, _ in self.epochs)
        )

    @classmethod
    def constant(cls, multiplier: float = 1.0) -> "BandwidthProfile":
        return cls(epochs=((0.0, multiplier),))

    @classmethod
    def steps(cls, pairs: Sequence[Tuple[float, float]]) -> "BandwidthProfile":
        return cls(epochs=tuple(pairs))

    def multiplier_at(self, now: float) -> float:
        """Capacity multiplier in effect at time ``now``."""
        index = bisect.bisect_right(self._starts, now) - 1
        if index < 0:
            index = 0
        return self.epochs[index][1]

    def next_change_after(self, now: float) -> Optional[float]:
        """Start time of the next epoch strictly after ``now``."""
        index = bisect.bisect_right(self._starts, now + 1e-12)
        return self._starts[index] if index < len(self._starts) else None


def diurnal_profile(
    period: float = 86_400.0,
    low: float = 0.5,
    high: float = 1.0,
    steps_per_period: int = 24,
    num_periods: int = 2,
    phase: float = 0.0,
) -> BandwidthProfile:
    """Step approximation of a sinusoidal day/night capacity swing."""
    if not 0 < low <= high:
        raise TopologyError("need 0 < low <= high")
    if steps_per_period < 2 or num_periods < 1:
        raise TopologyError("need >= 2 steps per period and >= 1 period")
    epochs: List[Tuple[float, float]] = []
    step = period / steps_per_period
    mid = (high + low) / 2.0
    amplitude = (high - low) / 2.0
    for index in range(steps_per_period * num_periods):
        start = index * step
        angle = 2.0 * math.pi * (start / period) + phase
        epochs.append((start, mid + amplitude * math.sin(angle)))
    return BandwidthProfile.steps(epochs)


def random_walk_profile(
    duration: float,
    step_seconds: float,
    low: float = 0.4,
    high: float = 1.0,
    volatility: float = 0.1,
    seed: int = 7,
) -> BandwidthProfile:
    """Bounded random walk: each step multiplies by (1 ± volatility)."""
    if duration <= 0 or step_seconds <= 0:
        raise TopologyError("duration and step_seconds must be > 0")
    if not 0 < low <= high:
        raise TopologyError("need 0 < low <= high")
    rng = derive_rng(seed, "bandwidth-walk")
    epochs: List[Tuple[float, float]] = []
    value = (low + high) / 2.0
    now = 0.0
    while now < duration:
        epochs.append((now, value))
        value *= 1.0 + volatility * (2.0 * rng.random() - 1.0)
        value = min(high, max(low, value))
        now += step_seconds
    return BandwidthProfile.steps(epochs)
