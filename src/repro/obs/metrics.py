"""Counters, gauges and histograms with labeled series.

A :class:`MetricsRegistry` hands out metric instances keyed by name plus
a frozen label set, Prometheus-style::

    metrics.counter("shuffle_bytes", src="tokyo", dst="oregon").inc(4096)
    metrics.histogram("lp_solve_seconds").observe(0.012)

Nothing records into a registry while the system runs: it is the
accumulator :func:`repro.obs.views.metrics_from_events` folds a
telemetry stream into, and its snapshot (every series as a plain dict)
is what ``--metrics FILE`` writes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ObservabilityError

#: Series key: (metric name, sorted label items).
_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Mapping[str, Any]) -> _SeriesKey:
    return (name, tuple(sorted((key, str(value)) for key, value in labels.items())))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Sample accumulator with exact percentiles.

    Sample counts here are small (per-query observations), so the
    histogram keeps raw samples and computes exact linear-interpolation
    percentiles rather than bucketed approximations.
    """

    __slots__ = ("name", "labels", "samples")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.sum / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile ``q`` in [0, 100] with linear interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ObservabilityError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q / 100.0 * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction


class MetricsRegistry:
    """Registry of labeled metric series."""

    def __init__(self) -> None:
        self._series: "Dict[_SeriesKey, Counter | Gauge | Histogram]" = {}

    def _get(self, kind: type, name: str, labels: Mapping[str, Any]):
        key = _series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            # Labels are stored pre-sorted so every dump (snapshot dicts,
            # JSON, text tables) is byte-identical regardless of the
            # kwargs order at whichever call site created the series.
            series = kind(name, {k: str(labels[k]) for k in sorted(labels)})
            self._series[key] = series
        elif not isinstance(series, kind):
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{type(series).__name__}, not {kind.__name__}"
            )
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------

    def series(self) -> "List[Counter | Gauge | Histogram]":
        return [self._series[key] for key in sorted(self._series)]

    def snapshot(self) -> List[Dict[str, Any]]:
        """All series as JSON-serializable dicts."""
        out: List[Dict[str, Any]] = []
        for series in self.series():
            record: Dict[str, Any] = {
                "name": series.name,
                "labels": series.labels,
                "type": type(series).__name__.lower(),
            }
            if isinstance(series, Histogram):
                record.update(
                    count=series.count,
                    sum=series.sum,
                    mean=series.mean,
                    p50=series.percentile(50),
                    p90=series.percentile(90),
                    p99=series.percentile(99),
                    max=max(series.samples) if series.samples else 0.0,
                )
            else:
                record["value"] = series.value
            out.append(record)
        return out

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
