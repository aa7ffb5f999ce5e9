"""One stream, two views: spans and metric snapshots derived from events.

Nothing but the telemetry bus records while the system runs; the span
tree behind ``inspect`` and its Chrome export and the series behind
``--metrics`` are pure functions of its event sequence, so they are
identical on a live bus and on a reloaded ``--telemetry`` archive:

* :func:`spans_from_events` — wall-clock spans from ``span-begin`` /
  ``span-end`` pairs (nesting is stream order), ``map@site`` /
  ``reduce@site`` from a job's ``stage-finish`` events and
  ``shuffle a->b`` from its ``flow-finish`` / ``flow-fail`` events
  (materialized at its ``job-finish``, under whatever span is open
  there), and a query span's ``qct`` and ``[0, qct]`` interval from the
  ``query-finish`` inside it;
* :func:`metrics_from_events` — the same replay folded into labeled
  counter, gauge and histogram series (exact, linearly interpolated
  percentiles), returned as the snapshot records ``--metrics`` writes.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from repro.errors import ObservabilityError
from repro.obs.span import Span
from repro.obs.telemetry import TelemetryEvent
from repro.util.stats import percentile

#: ``span-begin``/``span-end`` attrs that are the span itself, not its attrs.
_SPAN_FIELDS = frozenset({"name", "stage", "at_wall_seconds", "sim_start", "sim_end"})

#: Attrs that ride on a span only to feed :func:`metrics_from_events`;
#: the span view leaves them out (they stay visible in the archive).
_METRIC_ONLY_ATTRS = frozenset({
    "filling_rounds", "parked_seconds", "simplex_status", "simplex_iterations",
    "probe_build_wall_seconds",
})

_MAP_ATTRS = (
    "site", "input_records", "map_output_bytes", "intermediate_bytes",
    "rdd_overhead_seconds",
)


def _sim_span(event: TelemetryEvent) -> Tuple[str, str, Dict[str, Any]]:
    """``(stage, name, attrs)`` of the simulated span that a
    ``stage-finish``, ``flow-finish`` or ``flow-fail`` event describes."""
    attrs = event.attrs
    if event.kind != "stage-finish":
        src, dst = attrs["src"], attrs["dst"]
        return "shuffle", f"shuffle {src}->{dst}", {
            "site": dst, "src": src, "dst": dst, "bytes": attrs["num_bytes"],
        }
    if attrs["stage"] == "map":
        return "map", f"map@{attrs['site']}", {
            key: attrs[key] for key in _MAP_ATTRS if key in attrs
        }
    return "reduce", f"reduce@{attrs['site']}", {
        "site": attrs["site"], "downloaded_bytes": attrs["downloaded_bytes"],
    }


def _job_order(event: TelemetryEvent) -> Tuple:
    """The engine's order within a job: maps, transfers by (src, dst),
    reduces (the sort is stable, so sites keep their stream order)."""
    if event.kind != "stage-finish":
        return (1, event.attrs["src"], event.attrs["dst"])
    return (0,) if event.attrs["stage"] == "map" else (2,)


def _replay(
    events: Iterable[TelemetryEvent], hidden: FrozenSet[str] = _SPAN_FIELDS
) -> List[Span]:
    """Rebuild the span tree; ``hidden`` span-event attrs stay off the spans."""
    spans: List[Span] = []
    stack: List[Span] = []
    #: job tag -> its stage-finish and flow-finish/-fail events, held until
    #: the job-finish so the job's spans come out map, shuffle, reduce.
    pending: Dict[str, List[TelemetryEvent]] = {}
    wall = 0.0

    def add(name: str, stage: str, attrs: Dict[str, Any], **interval) -> Span:
        span = Span(
            span_id=len(spans),
            name=name,
            stage=stage,
            parent_id=stack[-1].span_id if stack else None,
            wall_start=wall,
            attrs=attrs,
            **interval,
        )
        spans.append(span)
        return span

    for event in events:
        kind, attrs = event.kind, event.attrs
        if kind == "span-begin":
            wall = float(attrs["at_wall_seconds"])
            own = {k: v for k, v in attrs.items() if k not in hidden}
            stack.append(add(str(attrs["name"]), str(attrs["stage"]), own))
        elif kind == "span-end":
            if not stack or stack[-1].name != attrs["name"]:
                raise ObservabilityError(
                    f"span-end for {attrs['name']!r} does not close the "
                    f"innermost open span {[span.name for span in stack]}"
                )
            span = stack.pop()
            wall = span.wall_end = float(attrs["at_wall_seconds"])
            span.attrs.update((k, v) for k, v in attrs.items() if k not in hidden)
            if "sim_end" in attrs:
                span.sim_start = float(attrs["sim_start"])
                span.sim_end = float(attrs["sim_end"])
            elif span.stage == "query" and "qct" in span.attrs:
                span.sim_start, span.sim_end = 0.0, float(span.attrs["qct"])
        elif kind == "query-finish":
            for span in reversed(stack):
                if span.stage == "query":
                    span.attrs["qct"] = attrs["qct"]
                    break
        elif kind == "stage-finish":
            pending.setdefault(attrs["job"], []).append(event)
        elif kind in ("flow-finish", "flow-fail"):
            pending.setdefault(attrs["tag"], []).append(event)
        elif kind == "job-finish":
            job = pending.pop(attrs["job"], [])
            job.sort(key=_job_order)
            for done in job:
                stage, name, own = _sim_span(done)
                add(
                    name, stage, own, wall_end=wall,
                    sim_start=float(done.attrs.get("start", done.t)),
                    sim_end=float(done.t),
                )
    return spans


def spans_from_events(events: Iterable[TelemetryEvent]) -> List[Span]:
    """The span tree ``inspect`` tabulates and exports to Chrome."""
    return _replay(events, hidden=_SPAN_FIELDS | _METRIC_ONLY_ATTRS)


#: A fold's series, keyed by (metric name, sorted label items); each value
#: is the snapshot record being built (histograms hold raw ``samples``).
_Series = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Dict[str, Any]]


def _series(
    metrics: _Series, kind: str, name: str, labels: Dict[str, Any]
) -> Dict[str, Any]:
    """The one place a series is made: ``kind`` is counter, gauge or histogram."""
    key = (name, tuple(sorted((label, str(value)) for label, value in labels.items())))
    record = metrics.get(key)
    if record is None:
        # Labels are stored pre-sorted so every dump is byte-identical
        # whatever the kwargs order at the call site.
        record = metrics[key] = {"name": name, "labels": dict(key[1]), "type": kind}
        if kind == "histogram":
            record["samples"] = []
        else:
            record["value"] = 0.0
    elif record["type"] != kind:
        raise ObservabilityError(
            f"metric {name!r} already registered as {record['type']}, not {kind}"
        )
    return record


def _count(metrics: _Series, name: str, amount: float = 1.0, **labels) -> None:
    if amount < 0:
        raise ObservabilityError(f"counter {name!r} cannot decrease (inc {amount})")
    _series(metrics, "counter", name, labels)["value"] += amount


def _set(metrics: _Series, name: str, value: float, **labels) -> None:
    _series(metrics, "gauge", name, labels)["value"] = float(value)


def _observe(metrics: _Series, name: str, value: float, **labels) -> None:
    _series(metrics, "histogram", name, labels)["samples"].append(float(value))


def _snapshot(metrics: _Series) -> List[Dict[str, Any]]:
    """Every series as its ``--metrics`` record, in key order."""
    records = []
    for key in sorted(metrics):
        record = metrics[key]
        samples = record.pop("samples", None)
        if samples is not None:
            ordered, total = sorted(samples), sum(samples)
            record.update(
                count=len(samples),
                sum=total,
                mean=total / len(samples),
                p50=percentile(ordered, 50),
                p90=percentile(ordered, 90),
                p99=percentile(ordered, 99),
                max=max(samples),
            )
        records.append(record)
    return records


def _fold_span(metrics: _Series, span: Span) -> None:
    attrs = span.attrs
    if span.name == "wan-simulate":
        _count(metrics, "wan_simulations")
        _count(metrics, "wan_filling_rounds", attrs["filling_rounds"])
        _count(metrics, "wan_transfers", attrs["transfers"])
        if attrs["parked_seconds"] > 0:
            _count(metrics, "wan_fault_parked_seconds", attrs["parked_seconds"])
    elif span.name == "lp-solve" and "backend" in attrs:
        _count(metrics, "lp_solves", backend=attrs["backend"])
        _observe(metrics, "lp_solve_seconds", span.wall_duration)
        _set(metrics, "lp_variables", attrs["variables"])
        if "simplex_status" in attrs:
            iterations = attrs["simplex_iterations"]
            _count(metrics, "simplex_solves", status=attrs["simplex_status"])
            _count(metrics, "simplex_iterations", iterations)
            _observe(metrics, "simplex_iterations_per_solve", iterations)
    elif span.name == "cube-build":
        _observe(metrics, "cube_build_seconds", span.wall_duration)
    elif span.name == "similarity":
        _observe(metrics, "probe_build_seconds", attrs["probe_build_wall_seconds"])
    elif span.name.startswith("probe-build "):
        _count(metrics, "probe_records", attrs["records"], dataset=attrs["dataset"])
        _count(metrics, "probe_bytes", attrs["bytes"], dataset=attrs["dataset"])
    elif span.name.startswith("similarity-check "):
        _count(metrics, "similarity_checks")
        _observe(metrics, "similarity_check_seconds", span.wall_duration)
        _observe(metrics, "cross_site_similarity", attrs["similarity"])
    elif span.stage == "dag-stage":
        _count(metrics, "dag_stages")
    elif span.stage == "query" and "qct" in attrs:
        _observe(metrics, "qct_seconds", attrs["qct"], scheme=attrs["scheme"])
    elif span.stage == "shuffle":
        src, dst = attrs["src"], attrs["dst"]
        link = "lan" if src == dst else "wan"
        _count(metrics, "shuffle_bytes", attrs["bytes"], src=src, dst=dst, link=link)
    elif span.stage == "map":
        site, overhead = attrs["site"], attrs["rdd_overhead_seconds"]
        _count(metrics, "combiner_input_bytes", attrs["map_output_bytes"], site=site)
        _count(metrics, "combiner_output_bytes", attrs["intermediate_bytes"], site=site)
        _observe(metrics, "map_seconds", span.sim_duration, site=site)
        if overhead > 0:
            _observe(metrics, "rdd_overhead_seconds", overhead, site=site)


def metrics_from_events(events: Iterable[TelemetryEvent]) -> List[Dict[str, Any]]:
    """The series ``--metrics`` writes, folded from the event stream."""
    events = list(events)
    metrics: _Series = {}
    for span in _replay(events):
        _fold_span(metrics, span)
    for event in events:
        kind, attrs = event.kind, event.attrs
        if kind == "flow-finish":
            if attrs["wan"]:
                _count(
                    metrics, "wan_bytes", attrs["num_bytes"],
                    src=attrs["src"], dst=attrs["dst"],
                )
        elif kind == "flow-fail":
            _count(metrics, "wan_fault_failed_transfers")
            _count(metrics, "wan_fault_failed_bytes", attrs["num_bytes"])
        elif kind == "retry":
            _count(metrics, "retries")
        elif kind == "abandon":
            _count(metrics, "wan_fault_abandoned_transfers")
            _count(metrics, "wan_fault_abandoned_bytes", attrs["num_bytes"])
        elif kind == "task-wave":
            _count(metrics, "task_retries", attrs["waves"], site=attrs["site"])
        elif kind == "reduce-tasks":
            _set(metrics, "reduce_tasks", attrs["tasks"], site=attrs["site"])
        elif kind == "plan":
            _count(metrics, "moved_bytes", attrs["moved_bytes"], scheme=attrs["scheme"])
        elif kind == "degraded-replan":
            _count(metrics, "degraded_replans", scheme=attrs["scheme"])
        elif kind == "query-abort":
            _count(metrics, "query_aborts", scheme=attrs["scheme"])
    return _snapshot(metrics)
