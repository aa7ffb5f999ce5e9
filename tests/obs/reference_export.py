"""Two exporters as they were before they changed, kept as oracles.

The telemetry archive writer as it was until the exporter read columns,
kept verbatim as the oracle for :func:`repro.obs.telemetry.write_jsonl`:
materialize every event, sort by ``seq``, build a ``to_dict`` record and
run one ``json.dumps(sort_keys=True)`` per event.  Slow, and obviously
the JSON module's own bytes.  ``tests/properties/test_obs_oracles.py``
holds the production writer to these bytes over generated streams.

The Chrome trace builder as it was while ``run``/``compare`` wrote
Chrome traces themselves: from a live run's span view, with the fault
lanes drawn from the chaos schedule the CLI rebuilt from its flags.
``tests/obs/test_export.py`` holds :func:`repro.obs.export.
chrome_trace_events` over a reloaded archive to its document.
"""

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.chaos.schedule import FaultSchedule
from repro.obs.span import Span
from repro.obs.telemetry import TELEMETRY_VERSION, TelemetryBus, TelemetryEvent

_WALL_PID = 1
_SIM_PID = 2


def _events_of(
    source: Union[TelemetryBus, Sequence[TelemetryEvent]]
) -> List[TelemetryEvent]:
    events = source.events if isinstance(source, TelemetryBus) else list(source)
    return sorted(events, key=lambda event: event.seq)


def reference_write_jsonl(
    source: Union[TelemetryBus, Sequence[TelemetryEvent]], path: str
) -> int:
    """Write the versioned JSONL archive; returns the event count."""
    events = _events_of(source)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "telemetry": "repro.obs.telemetry",
            "version": TELEMETRY_VERSION,
            "events": len(events),
        }
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return len(events)


# ----------------------------------------------------------------------
# the Chrome trace builder
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


def reference_chrome_trace_events(
    spans: Sequence[Span],
    faults: "Optional[FaultSchedule]" = None,
) -> List[Dict[str, Any]]:
    """All spans as Chrome trace-event dicts (metadata events first).

    ``faults`` annotates the simulated-clock process with the chaos
    schedule's windows so blackouts and stragglers render inline with
    the spans they disturbed.
    """
    spans = sorted(spans, key=lambda span: span.span_id)
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
