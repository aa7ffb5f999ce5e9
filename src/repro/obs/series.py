"""Derivations: telemetry event streams → sim-time time-series.

The bus (:mod:`repro.obs.telemetry`) records *what happened*; this module
turns it into the quantities an operator actually reads:

* per-link utilization — bytes in flight ÷ effective capacity, one step
  per progressive-filling round (``used_bps × dt`` integrates back to the
  bytes the link carried, so the series reconciles with the sanitizer's
  byte conservation);
* per-site busy fraction — union of map/reduce stage intervals;
* flow occupancy — active vs. parked WAN flows over time;
* cumulative delivered vs. abandoned bytes (failed attempts that were
  retried are not abandoned);
* estimator error — the EWMA bandwidth estimate vs. the true effective
  capacity, sampled at every observed transfer completion;

plus rollups: time-weighted mean, time-weighted percentiles, and max.
All derivations are pure functions over a ``Sequence[TelemetryEvent]``,
so they run identically on a live bus or a replayed JSONL archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.telemetry import TelemetryEvent

#: One constant-value step: (start_time, duration, value).
Segment = Tuple[float, float, float]


@dataclass
class TimeSeries:
    """A piecewise-constant series over simulated time.

    Segments may be sparse (gaps carry no weight) and are kept in the
    order derived, which for telemetry streams is time order per link.
    """

    segments: List[Segment] = field(default_factory=list)

    def add(self, start: float, duration: float, value: float) -> None:
        if duration < 0:
            raise ObservabilityError(f"segment duration must be >= 0, got {duration}")
        self.segments.append((start, duration, value))

    @property
    def duration(self) -> float:
        return sum(dt for _, dt, _ in self.segments)

    @property
    def end(self) -> float:
        if not self.segments:
            return 0.0
        return max(t + dt for t, dt, _ in self.segments)

    def integral(self) -> float:
        """Sum of value × duration (e.g. bytes when value is bps)."""
        return sum(value * dt for _, dt, value in self.segments)

    def time_weighted_mean(self) -> float:
        total = self.duration
        if total <= 0:
            return 0.0
        return self.integral() / total

    def percentile(self, q: float) -> float:
        """Time-weighted percentile: the value exceeded (1-q) of the time.

        Each value weighs as long as it held, so this is not the sample
        quantile :func:`repro.util.stats.percentile`."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"q must be in [0, 1], got {q}")
        if not self.segments:
            return 0.0
        ranked = sorted(
            ((value, dt) for _, dt, value in self.segments if dt > 0),
            key=lambda pair: pair[0],
        )
        if not ranked:
            return self.segments[-1][2]
        total = sum(dt for _, dt in ranked)
        target = q * total
        accumulated = 0.0
        for value, dt in ranked:
            accumulated += dt
            if accumulated >= target - 1e-12:
                return value
        return ranked[-1][0]

    def maximum(self) -> float:
        if not self.segments:
            return 0.0
        return max(value for _, _, value in self.segments)

    def bucketed(self, buckets: int, end: Optional[float] = None) -> List[float]:
        """Time-weighted mean per equal-width bucket over [0, end]."""
        if buckets < 1:
            raise ObservabilityError("buckets must be >= 1")
        horizon = end if end is not None else self.end
        if horizon <= 0:
            return [0.0] * buckets
        width = horizon / buckets
        sums = [0.0] * buckets
        weights = [0.0] * buckets
        for start, dt, value in self.segments:
            if dt <= 0:
                continue
            stop = start + dt
            first = max(0, min(buckets - 1, int(start / width)))
            last = max(0, min(buckets - 1, int((stop - 1e-12) / width)))
            for index in range(first, last + 1):
                lo = max(start, index * width)
                hi = min(stop, (index + 1) * width)
                overlap = hi - lo
                if overlap > 0:
                    sums[index] += value * overlap
                    weights[index] += overlap
        return [
            sums[index] / weights[index] if weights[index] > 0 else 0.0
            for index in range(buckets)
        ]


def rollup(series: TimeSeries) -> Dict[str, float]:
    """The standard summary: time-weighted mean, p50, p99, max."""
    return {
        "mean": series.time_weighted_mean(),
        "p50": series.percentile(0.50),
        "p99": series.percentile(0.99),
        "max": series.maximum(),
    }


# ----------------------------------------------------------------------
# link utilization
# ----------------------------------------------------------------------

#: Link identity: (site, "up"|"down").
Link = Tuple[str, str]


def link_utilization(events: Sequence[TelemetryEvent]) -> Dict[Link, TimeSeries]:
    """Per-link utilization in [0, 1+]: used_bps ÷ capacity_bps per round.

    A blacked-out link (capacity 0 with parked flows) contributes value
    0.0 — the fault overlay, not the utilization curve, shows the outage.
    """
    series: Dict[Link, TimeSeries] = {}
    for event in events:
        if event.kind != "link-sample":
            continue
        attrs = event.attrs
        link = (str(attrs["site"]), str(attrs["direction"]))
        capacity = float(attrs["capacity_bps"])
        used = float(attrs["used_bps"])
        utilization = used / capacity if capacity > 0 else 0.0
        series.setdefault(link, TimeSeries()).add(
            float(event.t or 0.0), float(attrs["dt"]), utilization
        )
    return series


def link_throughput(events: Sequence[TelemetryEvent]) -> Dict[Link, TimeSeries]:
    """Per-link used bps per round (integral = bytes carried)."""
    series: Dict[Link, TimeSeries] = {}
    for event in events:
        if event.kind != "link-sample":
            continue
        attrs = event.attrs
        link = (str(attrs["site"]), str(attrs["direction"]))
        series.setdefault(link, TimeSeries()).add(
            float(event.t or 0.0), float(attrs["dt"]), float(attrs["used_bps"])
        )
    return series


def wan_bytes_carried(
    events: Sequence[TelemetryEvent], direction: str = "up"
) -> float:
    """Total WAN bytes the sampled links carried in one direction.

    Every WAN byte crosses exactly one uplink and one downlink, so this
    equals delivered WAN bytes plus partial progress of failed attempts —
    the consistency the telemetry test suite checks against the
    sanitizer's conservation ledger.
    """
    return sum(
        series.integral()
        for (_, link_direction), series in link_throughput(events).items()
        if link_direction == direction
    )


# ----------------------------------------------------------------------
# stages and site busy fraction
# ----------------------------------------------------------------------


def stage_intervals(events: Sequence[TelemetryEvent]) -> List[Dict]:
    """Gantt rows from stage-finish events: site, stage, job, start, end."""
    intervals: List[Dict] = []
    for event in events:
        if event.kind != "stage-finish":
            continue
        attrs = event.attrs
        intervals.append(
            {
                "site": str(attrs["site"]),
                "stage": str(attrs["stage"]),
                "job": str(attrs.get("job", "")),
                "start": float(attrs.get("start", 0.0)),
                "end": float(event.t or 0.0),
            }
        )
    return intervals


def _merge_intervals(
    intervals: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def site_busy(events: Sequence[TelemetryEvent]) -> Dict[str, TimeSeries]:
    """Per-site busy series: 1.0 while any map/reduce stage runs."""
    per_site: Dict[str, List[Tuple[float, float]]] = {}
    for interval in stage_intervals(events):
        if interval["end"] > interval["start"]:
            per_site.setdefault(interval["site"], []).append(
                (interval["start"], interval["end"])
            )
    series: Dict[str, TimeSeries] = {}
    for site, intervals in per_site.items():
        busy = TimeSeries()
        for start, end in _merge_intervals(intervals):
            busy.add(start, end - start, 1.0)
        series[site] = busy
    return series


def site_busy_fraction(
    events: Sequence[TelemetryEvent], horizon: Optional[float] = None
) -> Dict[str, float]:
    """Fraction of [0, horizon] each site spent computing."""
    series = site_busy(events)
    span = horizon if horizon is not None else sim_horizon(events)
    if span <= 0:
        return {site: 0.0 for site in series}
    return {
        site: min(1.0, busy.duration / span) for site, busy in series.items()
    }


def sim_horizon(events: Sequence[TelemetryEvent]) -> float:
    """Latest simulated timestamp any event carries."""
    times = [event.t for event in events if event.t is not None]
    return max(times) if times else 0.0


# ----------------------------------------------------------------------
# occupancy and cumulative bytes
# ----------------------------------------------------------------------


def flow_occupancy(
    events: Sequence[TelemetryEvent],
) -> Tuple[TimeSeries, TimeSeries]:
    """(active, parked) WAN flow counts over time from flows-sample."""
    active = TimeSeries()
    parked = TimeSeries()
    for event in events:
        if event.kind != "flows-sample":
            continue
        attrs = event.attrs
        start = float(event.t or 0.0)
        dt = float(attrs["dt"])
        active.add(start, dt, float(attrs["active"]))
        parked.add(start, dt, float(attrs["parked"]))
    return active, parked


def cumulative_bytes(
    events: Sequence[TelemetryEvent],
) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """(delivered, abandoned) cumulative WAN byte step-points by time.

    Delivered counts flow-finish events on WAN links.  Abandoned counts
    failed attempts that were *not* re-submitted: each retry event
    cancels its matching flow-fail, so bytes in flight between attempts
    are neither delivered nor abandoned yet.
    """
    retried: Dict[Tuple[float, str, str, float], int] = {}
    for event in events:
        if event.kind == "retry":
            key = (
                float(event.t or 0.0),
                str(event.attrs["src"]),
                str(event.attrs["dst"]),
                float(event.attrs["num_bytes"]),
            )
            retried[key] = retried.get(key, 0) + 1

    delivered_raw: List[Tuple[float, float]] = []
    abandoned_raw: List[Tuple[float, float]] = []
    for event in events:
        if event.kind == "flow-finish" and event.attrs.get("wan"):
            delivered_raw.append(
                (float(event.t or 0.0), float(event.attrs["num_bytes"]))
            )
        elif event.kind == "flow-fail":
            key = (
                float(event.t or 0.0),
                str(event.attrs["src"]),
                str(event.attrs["dst"]),
                float(event.attrs["num_bytes"]),
            )
            if retried.get(key, 0) > 0:
                retried[key] -= 1
                continue
            abandoned_raw.append(
                (float(event.t or 0.0), float(event.attrs["num_bytes"]))
            )

    def accumulate(points: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
        total = 0.0
        curve: List[Tuple[float, float]] = []
        for when, amount in sorted(points):
            total += amount
            curve.append((when, total))
        return curve

    return accumulate(delivered_raw), accumulate(abandoned_raw)


# ----------------------------------------------------------------------
# estimator error
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorSample:
    """One estimator-sample event, decoded."""

    t: float
    site: str
    direction: str
    observed_bps: float
    estimate_bps: float
    true_bps: Optional[float]

    @property
    def relative_error(self) -> Optional[float]:
        """(estimate - truth) / truth; None without a truth oracle."""
        if self.true_bps is None or self.true_bps <= 0:
            return None
        return (self.estimate_bps - self.true_bps) / self.true_bps


def estimator_samples(
    events: Sequence[TelemetryEvent],
) -> List[EstimatorSample]:
    samples: List[EstimatorSample] = []
    for event in events:
        if event.kind != "estimator-sample":
            continue
        attrs = event.attrs
        true_bps = attrs.get("true_bps")
        samples.append(
            EstimatorSample(
                t=float(event.t or 0.0),
                site=str(attrs["site"]),
                direction=str(attrs["direction"]),
                observed_bps=float(attrs["observed_bps"]),
                estimate_bps=float(attrs["estimate_bps"]),
                true_bps=None if true_bps is None else float(true_bps),
            )
        )
    samples.sort(key=lambda sample: sample.t)
    return samples


def estimator_error_series(
    events: Sequence[TelemetryEvent],
) -> Dict[str, List[Tuple[float, float]]]:
    """Signed relative estimator error points per direction, time-sorted."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for sample in estimator_samples(events):
        error = sample.relative_error
        if error is None:
            continue
        series.setdefault(sample.direction, []).append((sample.t, error))
    return series


def mean_abs_estimator_error(
    series: Dict[str, List[Tuple[float, float]]],
) -> Optional[float]:
    """Mean |error| over an :func:`estimator_error_series`; None if empty."""
    errors = [abs(error) for points in series.values() for _, error in points]
    if not errors:
        return None
    return sum(errors) / len(errors)


# ----------------------------------------------------------------------
# fault windows
# ----------------------------------------------------------------------


def fault_windows(events: Sequence[TelemetryEvent]) -> List[Dict]:
    """Decoded fault-window events — fault, site, start, end, severity —
    each distinct window once, in stream order (every controller a run
    builds emits the whole schedule, so ``compare`` holds one copy per
    scheme)."""
    windows: Dict[Tuple, Dict] = {}
    for event in events:
        if event.kind != "fault-window":
            continue
        attrs = event.attrs
        window = {
            "fault": str(attrs["fault"]),
            "site": str(attrs["site"]),
            "start": float(attrs["start"]),
            "end": None if attrs.get("end") is None else float(attrs["end"]),
            "severity": float(attrs.get("severity", 0.0)),
        }
        windows.setdefault(tuple(window.values()), window)
    return list(windows.values())
