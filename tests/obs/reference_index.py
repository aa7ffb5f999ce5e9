"""The analyzer's index pass and occupancy index as they were before
they got leaner.

Kept verbatim as the oracle for ``repro.obs.critpath``'s
:class:`~repro.obs.critpath._EventIndex` and ``_occupancy``: kinds tested
in the order the index was written, a ``_Flow`` dataclass built by
keyword per flow-start, ``setdefault`` with a fresh list per event, a
generator over every segment for the reach, and the link keys of each
flow's intervals built per flow.  :func:`reference_critical_paths` runs
the analyzer with both swapped in; ``tests/properties/test_obs_oracles.py``
holds its report to the production one, and a hostile event to the same
error text.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from repro.errors import ObservabilityError
from repro.obs import critpath
from repro.obs.critpath import CritPathReport, _query_span, _TOL, _unreadable
from repro.obs.telemetry import TelemetryEvent


@dataclass
class _Flow:
    """One WAN/LAN flow reassembled from flow-start/flow-finish pairs."""

    tag: str
    src: str
    dst: str
    num_bytes: float
    start: float
    finish: float = math.nan
    wan: bool = True


#: The kinds the index pass reads; it skips every other event at once.
_INDEXED = frozenset({
    "link-sample", "serve-queue", "serve-admit", "serve-start", "serve-finish",
    "stage-finish", "flow-start", "flow-finish", "flow-fail", "span-begin",
})


class _EventIndex:
    """Single-pass index of everything the analyzer needs."""

    def __init__(self, events: Sequence[TelemetryEvent]) -> None:
        self.arrival: Dict[int, float] = {}
        self.admit: Dict[int, float] = {}
        self.queue_seconds: Dict[int, float] = {}
        self.start: Dict[int, float] = {}
        self.finish: Dict[int, Tuple[float, float, bool, str, str]] = {}
        # job tag -> site -> (start, end)
        self.map_spans: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.reduce_spans: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.flows: List[_Flow] = []
        self.flows_by_tag: Dict[str, List[_Flow]] = {}
        # (direction, site) -> sorted [(t0, t1, capacity_bps), ...]
        self.link_segments: Dict[Tuple[str, str], List[Tuple[float, float, float]]] = {}
        # One (span-begin attrs, events, qct) per batch query span.  Its
        # events stay out of this index: every batch query restarts the
        # sim clock at 0 and reuses the job tag.
        self.batch: List[Tuple[Dict, List[TelemetryEvent], Optional[float]]] = []
        open_flows: Dict[Tuple[str, str, str], List[_Flow]] = {}
        stream = iter(events)
        try:
            for event in stream:
                kind = event.kind
                if kind not in _INDEXED:
                    continue
                attrs, t = event.attrs, event.t
                if kind == "link-sample":
                    t0 = float(t)
                    t1 = t0 + float(attrs.get("dt", 0.0))
                    self.link_segments.setdefault(
                        (str(attrs["direction"]), str(attrs["site"])), []
                    ).append((t0, t1, float(attrs.get("capacity_bps", 0.0))))
                elif kind == "serve-queue":
                    self.arrival[int(attrs["query"])] = float(t)
                elif kind == "serve-admit":
                    query = int(attrs["query"])
                    self.admit[query] = float(t)
                    self.queue_seconds[query] = float(attrs.get("queue_seconds", 0.0))
                elif kind == "serve-start":
                    self.start[int(attrs["query"])] = float(t)
                elif kind == "serve-finish":
                    self.finish[int(attrs["query"])] = (
                        float(t),
                        float(attrs.get("qct", 0.0)),
                        bool(attrs.get("cached", False)),
                        str(attrs.get("tenant", "")),
                        str(attrs.get("dataset", "")),
                    )
                elif kind == "stage-finish":
                    spans = (
                        self.map_spans
                        if attrs.get("stage") == "map"
                        else self.reduce_spans
                    )
                    job = str(attrs.get("job", ""))
                    spans.setdefault(job, {})[str(attrs["site"])] = (
                        float(attrs.get("start", t)),
                        float(t),
                    )
                elif kind == "flow-start":
                    flow = _Flow(
                        tag=str(attrs.get("tag", "")),
                        src=str(attrs["src"]),
                        dst=str(attrs["dst"]),
                        num_bytes=float(attrs.get("num_bytes", 0.0)),
                        start=float(t),
                        wan=bool(attrs.get("wan", True)),
                    )
                    self.flows.append(flow)
                    self.flows_by_tag.setdefault(flow.tag, []).append(flow)
                    open_flows.setdefault((flow.tag, flow.src, flow.dst), []).append(flow)
                elif kind in ("flow-finish", "flow-fail"):
                    key = (
                        str(attrs.get("tag", "")),
                        str(attrs["src"]),
                        str(attrs["dst"]),
                    )
                    started = open_flows.get(key)
                    if started:
                        started.pop(0).finish = float(t)
                elif kind == "span-begin" and attrs.get("stage") == "query":
                    self.batch.append((attrs, *_query_span(stream)))
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            # One handler around the pass, not a check per event: this
            # loop is the analyzer's hot path.
            raise ObservabilityError(
                f"{kind} event at t={t} has {_unreadable(error, attrs, t)}"
            ) from None
        for segments in self.link_segments.values():
            segments.sort()
        # Any segment with an end inside a window starts within this of it.
        self.segment_reach = _TOL + max(
            [0.0, *(abs(t1 - t0) for s in self.link_segments.values() for t0, t1, _ in s)]
        )


def _occupancy(index: _EventIndex) -> Dict[object, tuple]:
    """The blame pass's interval index, built once per analysis: served
    queries' map-stage spans (``"map"``, keyed by position in map_spans)
    and WAN flows per ``("up"|"down", site)`` (keyed by position in
    flows), as ``(start-sorted (start, end, key) list, longest)``; only
    positive lengths overlap anything (an unfinished flow ends at nan)."""
    tenant_of = {query: meta[3] for query, meta in index.finish.items()}

    def tenant(tag: str) -> str:
        try:
            return tenant_of.get(int(tag[1:]), "")
        except ValueError:
            return ""

    owners = {tag: tenant(tag) for tag in (*index.map_spans, *index.flows_by_tag)}
    held: Dict[object, list] = {"map": []}
    for ordinal, (job, spans) in enumerate(index.map_spans.items()):
        owner = job.startswith("q") and owners[job]
        for start, end in spans.values() if owner else ():
            held["map"].append((start, end, (ordinal, job, owner)))
    for position, flow in enumerate(index.flows):
        owner = flow.wan and owners[flow.tag]
        interval = (flow.start, flow.finish, (position, owner))
        for link in (("up", flow.src), ("down", flow.dst)) if owner else ():
            held.setdefault(link, []).append(interval)
    for key, intervals in held.items():
        kept = sorted(item for item in intervals if item[0] < item[1])
        held[key] = kept, max((end - start for start, end, _ in kept), default=0.0)
    return held


def reference_critical_paths(events: Sequence[TelemetryEvent]) -> CritPathReport:
    """:func:`~repro.obs.critpath.analyze_critical_paths` over the index
    pass and occupancy index above."""
    with mock.patch.object(critpath, "_EventIndex", _EventIndex), mock.patch.object(
        critpath, "_occupancy", _occupancy
    ):
        return critpath.analyze_critical_paths(events)
