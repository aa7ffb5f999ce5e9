"""Chrome trace export of a telemetry stream.

Chrome export targets the ``chrome://tracing`` / Perfetto trace-event
JSON format (``{"traceEvents": [...]}``, complete events with ``ph: "X"``
and microsecond timestamps), rendered from the events of a live bus or
of a reloaded ``--telemetry`` archive (``repro inspect ARCHIVE --chrome
FILE``).  The dual-clock span model maps onto two trace *processes*:
pid 1 renders wall-clock intervals, pid 2 renders simulated-clock
intervals, so both decompositions are visible side by side without
conflating their time bases.  Span nesting is expressed per process
through ``tid`` lanes (one lane per root span's subtree on the wall
process; one lane per site on the simulated process); the stream's
chaos fault windows share the simulated process's site lanes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.errors import ObservabilityError
from repro.obs.series import fault_windows
from repro.obs.span import Span
from repro.obs.telemetry import TelemetryEvent
from repro.obs.views import spans_from_events

_WALL_PID = 1
_SIM_PID = 2


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
    windows: List[Dict[str, Any]],
    sim_lanes: Dict[str, int],
    trace: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Chaos fault windows as trace events on the affected site's lane.

    Finite windows become ``"X"`` duration events, so a blackout renders
    as a bar overlapping the stage/transfer spans it disturbed; unbounded
    windows (permanent site outages) become ``"i"`` instant events at
    onset, since an infinite ``dur`` is not representable.
    """
    annotations: List[Dict[str, Any]] = []
    ordered = sorted(
        windows, key=lambda window: (window["start"], window["site"], window["fault"])
    )
    for window in ordered:
        site, start, end = window["site"], window["start"], window["end"]
        if site not in sim_lanes:
            sim_lanes[site] = len(sim_lanes) + 1
            trace.append(
                _metadata_event(_SIM_PID, sim_lanes[site], site, "thread_name")
            )
        base: Dict[str, Any] = {
            "name": f"fault:{window['fault']}",
            "cat": "fault",
            "pid": _SIM_PID,
            "tid": sim_lanes[site],
            "ts": start * 1e6,
            "args": {"site": site, "severity": window["severity"]},
        }
        if end is None:
            annotations.append({**base, "ph": "i", "s": "t"})
        else:
            annotations.append(
                {**base, "ph": "X", "dur": max(end - start, 0.0) * 1e6}
            )
    return annotations


def chrome_trace_events(events: Sequence[TelemetryEvent]) -> List[Dict[str, Any]]:
    """The stream's spans and fault windows as Chrome trace-event dicts
    (metadata events first, fault windows last)."""
    spans = spans_from_events(events)
    trace: List[Dict[str, Any]] = [
        _metadata_event(_WALL_PID, 0, "wall-clock", "process_name"),
        _metadata_event(_SIM_PID, 0, "simulated-clock", "process_name"),
    ]
    lanes = _subtree_lanes(spans)

    sim_lanes: Dict[str, int] = {}
    for span in spans:
        if span.wall_end is not None:
            trace.append(
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
                trace.append(
                    _metadata_event(
                        _SIM_PID, sim_lanes[site], site, "thread_name"
                    )
                )
            trace.append(
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
    trace.extend(_fault_trace_events(fault_windows(events), sim_lanes, trace))
    return trace


def export_chrome(events: Sequence[TelemetryEvent], path: str) -> None:
    """Write the Chrome ``chrome://tracing`` JSON object format."""
    document = {
        "traceEvents": chrome_trace_events(events),
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
