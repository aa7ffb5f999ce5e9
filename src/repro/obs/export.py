"""Trace export: JSONL (with round-trip loading) and Chrome trace events.

JSONL is the machine-readable span format — one :class:`Span` dict per
line, loadable with :func:`load_jsonl` (the ``inspect`` command's input).
:func:`load_jsonl` also accepts a ``--telemetry`` archive and derives the
spans from its events, so one archive feeds ``inspect`` and ``report``.

Chrome export targets the ``chrome://tracing`` / Perfetto trace-event
JSON format (``{"traceEvents": [...]}``, complete events with ``ph: "X"``
and microsecond timestamps).  The dual-clock span model maps onto two
trace *processes*: pid 1 renders wall-clock intervals, pid 2 renders
simulated-clock intervals, so both decompositions are visible side by
side without conflating their time bases.  Span nesting is expressed per
process through ``tid`` lanes (one lane per root span's subtree on the
wall process; one lane per site on the simulated process).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.span import Span
from repro.obs.telemetry import load_jsonl as load_telemetry, read_jsonl
from repro.obs.views import spans_from_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.schedule import FaultSchedule

_WALL_PID = 1
_SIM_PID = 2


def _spans_of(spans: Sequence[Span]) -> List[Span]:
    return sorted(spans, key=lambda span: span.span_id)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def export_jsonl(spans: Sequence[Span], path: str) -> None:
    """Write one span per line, in span-id order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in _spans_of(spans):
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")


def load_jsonl(path: str) -> List[Span]:
    """Load spans written by :func:`export_jsonl`, or derive them from a
    telemetry archive (recognised by its header line)."""
    records = read_jsonl(path)
    if records and "telemetry" in records[0][1]:
        return spans_from_events(load_telemetry(path)[1])
    return [Span.from_dict(record) for _, record in records]


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------


def _metadata_event(pid: int, tid: int, name: str, kind: str) -> Dict[str, Any]:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _subtree_lanes(spans: Sequence[Span]) -> Dict[int, int]:
    """Assign each span the lane (tid) of its root ancestor."""
    parents = {span.span_id: span.parent_id for span in spans}
    lanes: Dict[int, int] = {}
    root_lane: Dict[int, int] = {}
    for span in spans:
        node = span.span_id
        while parents.get(node) is not None:
            node = parents[node]  # type: ignore[assignment]
        if node not in root_lane:
            root_lane[node] = len(root_lane) + 1
        lanes[span.span_id] = root_lane[node]
    return lanes


def _fault_trace_events(
    faults: "FaultSchedule", sim_lanes: Dict[str, int], events: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Chaos fault windows as trace events on the affected site's lane.

    Finite windows become ``"X"`` duration events, so a blackout renders
    as a bar overlapping the stage/transfer spans it disturbed; unbounded
    windows (permanent site outages) become ``"i"`` instant events at
    onset, since an infinite ``dur`` is not representable.
    """
    annotations: List[Dict[str, Any]] = []
    ordered = sorted(
        faults.events, key=lambda event: (event.start, event.site, event.kind)
    )
    for fault in ordered:
        site = fault.site
        if site not in sim_lanes:
            sim_lanes[site] = len(sim_lanes) + 1
            events.append(
                _metadata_event(_SIM_PID, sim_lanes[site], site, "thread_name")
            )
        base: Dict[str, Any] = {
            "name": f"fault:{fault.kind}",
            "cat": "fault",
            "pid": _SIM_PID,
            "tid": sim_lanes[site],
            "ts": fault.start * 1e6,
            "args": {"site": site, "severity": fault.severity},
        }
        if math.isinf(fault.end):
            annotations.append({**base, "ph": "i", "s": "t"})
        else:
            annotations.append(
                {**base, "ph": "X", "dur": max(fault.end - fault.start, 0.0) * 1e6}
            )
    return annotations


def chrome_trace_events(
    spans: Sequence[Span],
    faults: "Optional[FaultSchedule]" = None,
) -> List[Dict[str, Any]]:
    """All spans as Chrome trace-event dicts (metadata events first).

    ``faults`` annotates the simulated-clock process with the chaos
    schedule's windows so blackouts and stragglers render inline with
    the spans they disturbed.
    """
    spans = _spans_of(spans)
    events: List[Dict[str, Any]] = [
        _metadata_event(_WALL_PID, 0, "wall-clock", "process_name"),
        _metadata_event(_SIM_PID, 0, "simulated-clock", "process_name"),
    ]
    lanes = _subtree_lanes(spans)

    sim_lanes: Dict[str, int] = {}
    for span in spans:
        if span.wall_end is not None:
            events.append(
                {
                    "name": span.name,
                    "cat": span.stage or "span",
                    "ph": "X",
                    "pid": _WALL_PID,
                    "tid": lanes[span.span_id],
                    "ts": span.wall_start * 1e6,
                    "dur": max(span.wall_duration, 0.0) * 1e6,
                    "args": {"span_id": span.span_id, **span.attrs},
                }
            )
        if span.is_simulated:
            site = str(span.attrs.get("site", "global"))
            if site not in sim_lanes:
                sim_lanes[site] = len(sim_lanes) + 1
                events.append(
                    _metadata_event(
                        _SIM_PID, sim_lanes[site], site, "thread_name"
                    )
                )
            events.append(
                {
                    "name": span.name,
                    "cat": span.stage or "span",
                    "ph": "X",
                    "pid": _SIM_PID,
                    "tid": sim_lanes[site],
                    "ts": (span.sim_start or 0.0) * 1e6,
                    "dur": span.sim_duration * 1e6,
                    "args": {"span_id": span.span_id, **span.attrs},
                }
            )
    if faults is not None:
        events.extend(_fault_trace_events(faults, sim_lanes, events))
    return events


def export_chrome(
    spans: Sequence[Span],
    path: str,
    faults: "Optional[FaultSchedule]" = None,
) -> None:
    """Write the Chrome ``chrome://tracing`` JSON object format."""
    document = {
        "traceEvents": chrome_trace_events(spans, faults=faults),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")


def validate_chrome_events(events: Iterable[Dict[str, Any]]) -> None:
    """Cheap structural validation of trace events (used by tests/CI)."""
    for event in events:
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ObservabilityError(
                    f"trace event missing {field!r}: {event}"
                )
        if event["ph"] == "X":
            if "ts" not in event or "dur" not in event:
                raise ObservabilityError(
                    f"complete event missing ts/dur: {event}"
                )
            if event["dur"] < 0:
                raise ObservabilityError(f"negative duration: {event}")
        if event["ph"] == "i" and "ts" not in event:
            raise ObservabilityError(f"instant event missing ts: {event}")
