"""Per-query critical-path reconstruction over telemetry archives.

Under the multi-tenant serve loop a query's QCT is no longer "map +
shuffle + reduce": it queues behind WFQ admission, waits for executor
slots, and shares every WAN link with co-running tenants.  This module
replays a telemetry event stream *after* the run and rebuilds, for every
served query and every batch query span (a serve session of one: no
queue, no slot wait), the exact chain of waits that produced its QCT:

``queue wait -> slot wait -> map/combine compute -> WAN shuffle ->
reduce``

with the WAN term split into the *uncontended serial* time (what the
critical flow would have taken alone, integrated over the link-sample
capacity segments the water-filling loop emitted) and the
*contention-induced delay* (the rest).  Every boundary in the chain is
an event timestamp, so the components telescope: they sum to the
query's QCT within 1e-9, and :meth:`repro.obs.sanitize.Sanitizer.
check_critical_path` enforces that conservation contract when the
sanitizer is armed.

On top of the decomposition the analyzer attributes each query's
contention delay (slot wait + WAN contention) to the tenants whose work
co-occupied the contended slots/links during the relevant segments — a
tenant x tenant blame matrix, weighted by co-occupancy overlap seconds.

Everything here is a pure reader: the analyzer consumes an event
sequence and produces a report; it never touches engine/wan/serve
state.  Two same-seed runs produce bit-identical :meth:`CritPathReport.
digest` values (the CI serve-smoke gate).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter, sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs import instrument
from repro.obs.telemetry import TelemetryEvent

#: Absolute slack when matching event timestamps (mirrors the
#: sanitizer's sim-clock tolerance).
_TOL = 1e-9

#: The tag ``MapReduceEngine.run`` gives the one job of a batch query
#: (a served query's job is tagged ``q<index>``).
_BATCH_JOB = "job-0"

#: Path components in critical-path order; also the digest column order.
COMPONENTS = (
    "queue_wait",
    "slot_wait",
    "map_seconds",
    "wan_serial",
    "wan_contention",
    "reduce_seconds",
    "cached_seconds",
)


_components_of = attrgetter(*COMPONENTS)


@dataclass(frozen=True)
class QueryPath:
    """One query's reconstructed critical path (all sim seconds)."""

    index: int
    tenant: str
    dataset: str
    status: str  # "executed" | "cached"
    bound: str  # "wan" | "compute" | "cache"
    arrival: float
    finish: float
    qct: float
    queue_wait: float
    slot_wait: float
    map_seconds: float
    wan_serial: float
    wan_contention: float
    reduce_seconds: float
    cached_seconds: float
    crit_site: str = ""  # site whose reduce (or map) ended last
    crit_src: str = ""  # source site of the critical inbound flow

    @property
    def components(self) -> Tuple[float, ...]:
        return _components_of(self)

    @property
    def total(self) -> float:
        """Sum of all components (must equal :attr:`qct` within 1e-9)."""
        return math.fsum(self.components)

    @property
    def residual(self) -> float:
        """Conservation error: component sum minus the reported QCT."""
        return self.total - self.qct

    @property
    def contention_seconds(self) -> float:
        """The blameable share of the path: slot wait + WAN contention."""
        return self.slot_wait + self.wan_contention


@dataclass
class CritPathReport:
    """Every query's path plus the aggregated tenant blame matrix."""

    paths: List[QueryPath] = field(default_factory=list)
    #: victim tenant -> culprit tenant -> attributed contention seconds.
    blame: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: query index -> culprit tenant -> attributed contention seconds.
    query_blame: Dict[int, Dict[str, float]] = field(default_factory=dict)
    tenants: List[str] = field(default_factory=list)

    def component_totals(self) -> Dict[str, float]:
        totals = {name: 0.0 for name in COMPONENTS}
        for path in self.paths:
            for name in COMPONENTS:
                totals[name] += getattr(path, name)
        return totals

    def max_residual(self) -> float:
        return max((abs(path.residual) for path in self.paths), default=0.0)

    def digest(self) -> str:
        """SHA-256 over every path row and blame cell (sim clock only)."""
        digest = hashlib.sha256()
        for path in self.paths:
            fields = [
                str(path.index),
                path.tenant,
                path.dataset,
                path.status,
                path.bound,
                path.crit_site,
                path.crit_src,
                _canonical(path.arrival),
                _canonical(path.finish),
                _canonical(path.qct),
            ]
            fields.extend(_canonical(value) for value in path.components)
            digest.update("|".join(fields).encode())
            digest.update(b"\n")
        for victim in sorted(self.blame):
            for culprit in sorted(self.blame[victim]):
                cell = self.blame[victim][culprit]
                digest.update(
                    f"blame|{victim}|{culprit}|{_canonical(cell)}\n".encode()
                )
        return digest.hexdigest()

    def to_dict(self) -> Dict:
        return {
            "queries": [
                {
                    "index": path.index,
                    "tenant": path.tenant,
                    "dataset": path.dataset,
                    "status": path.status,
                    "bound": path.bound,
                    "crit_site": path.crit_site,
                    "crit_src": path.crit_src,
                    "arrival": path.arrival,
                    "finish": path.finish,
                    "qct": path.qct,
                    "residual": path.residual,
                    **{name: getattr(path, name) for name in COMPONENTS},
                }
                for path in self.paths
            ],
            "component_totals": self.component_totals(),
            "blame": {
                victim: dict(sorted(culprits.items()))
                for victim, culprits in sorted(self.blame.items())
            },
            "tenants": list(self.tenants),
            "max_residual": self.max_residual(),
            "digest": self.digest(),
        }


def _canonical(value: float) -> str:
    return format(float(value), ".12e")


# ----------------------------------------------------------------------
# event indexing
# ----------------------------------------------------------------------


@dataclass(slots=True)
class _Flow:
    """One WAN/LAN flow reassembled from flow-start/flow-finish pairs."""

    tag: str
    src: str
    dst: str
    num_bytes: float
    start: float
    wan: bool = True
    finish: float = math.nan


def _query_span(stream) -> Tuple[List[TelemetryEvent], Optional[float]]:
    """Consume the batch query span just opened on ``stream``.

    Returns the events inside it and its QCT: the ``query-finish``
    inside it, overridden by a ``qct`` on its ``span-end`` — what
    ``views._replay`` reads.
    """
    held: List[TelemetryEvent] = []
    qct, depth = None, 1
    for event in stream:
        kind = event.kind
        depth += (kind == "span-begin") - (kind == "span-end")
        if not depth:
            return held, event.attrs.get("qct", qct)
        if kind == "query-finish":
            qct = event.attrs["qct"]
        held.append(event)
    return held, None  # the span never closed: no QCT to decompose


#: The kinds the index pass reads; it skips every other event at once.
_INDEXED = frozenset({
    "link-sample", "serve-queue", "serve-admit", "serve-start", "serve-finish",
    "stage-finish", "flow-start", "flow-finish", "flow-fail", "span-begin",
})

#: What the index pass reads as a float (and ``query`` as an int).
_FLOATS = {"t", "queue_seconds", "qct", "start", "num_bytes", "dt", "capacity_bps"}


_first, _second = itemgetter(0), itemgetter(1)


def _unreadable(error: Exception, attrs: Dict, t) -> str:
    """What the index pass could not read off the event it failed on."""
    if isinstance(error, KeyError):
        return f"no {error.args[0]!r} attribute"
    for name, value in (*attrs.items(), ("t", t)):
        try:
            (int if name == "query" else float if name in _FLOATS else str)(value)
        except (TypeError, ValueError, OverflowError):
            return f"a non-numeric {name!r} attribute ({value!r})"
    return "an unreadable attribute"


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
        # Filled through defaultdicts (no empty list built per event),
        # handed on as plain dicts.
        open_flows: Dict[Tuple[str, str, str], List[_Flow]] = defaultdict(list)
        segments_of: Dict[Tuple[str, str], list] = defaultdict(list)
        flows_by_tag: Dict[str, List[_Flow]] = defaultdict(list)
        flows = self.flows
        stream = iter(events)
        try:
            for event in stream:
                kind = event.kind
                if kind not in _INDEXED:
                    continue
                attrs, t = event.attrs, event.t
                # The kinds a serve stream holds most of come first.
                if kind == "link-sample":
                    t0 = float(t)
                    t1 = t0 + float(attrs.get("dt", 0.0))
                    segments_of[(str(attrs["direction"]), str(attrs["site"]))].append(
                        (t0, t1, float(attrs.get("capacity_bps", 0.0)))
                    )
                elif kind == "flow-start":
                    tag = str(attrs.get("tag", ""))
                    src = str(attrs["src"])
                    dst = str(attrs["dst"])
                    flow = _Flow(
                        tag, src, dst, float(attrs.get("num_bytes", 0.0)), float(t),
                        bool(attrs.get("wan", True)),
                    )
                    flows.append(flow)
                    flows_by_tag[tag].append(flow)
                    open_flows[(tag, src, dst)].append(flow)
                elif kind == "flow-finish" or kind == "flow-fail":
                    key = (
                        str(attrs.get("tag", "")),
                        str(attrs["src"]),
                        str(attrs["dst"]),
                    )
                    started = open_flows.get(key)
                    if started:
                        started.pop(0).finish = float(t)
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
                elif kind == "span-begin" and attrs.get("stage") == "query":
                    self.batch.append((attrs, *_query_span(stream)))
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            # One handler around the pass, not a check per event: this
            # loop is the analyzer's hot path.
            raise ObservabilityError(
                f"{kind} event at t={t} has {_unreadable(error, attrs, t)}"
            ) from None
        self.link_segments = dict(segments_of)
        self.flows_by_tag = dict(flows_by_tag)
        longest = 0.0
        for segments in segments_of.values():
            segments.sort()
            ends, starts = map(_second, segments), map(_first, segments)
            longest = max(chain((longest,), map(abs, map(sub, ends, starts))))
        # Any segment with an end inside a window starts within this of it.
        self.segment_reach = _TOL + longest


def _capacity_at(
    when: float, segments: Optional[List[Tuple[float, float, float]]]
) -> Optional[float]:
    """Piecewise-constant capacity lookup; holds the last value in gaps."""
    if not segments:
        return None
    position = bisect_right(segments, (when, math.inf, math.inf))
    if position == 0:
        return segments[0][2]
    return segments[position - 1][2]


def _solo_seconds(
    start: float,
    end: float,
    num_bytes: float,
    up_segments: Optional[List[Tuple[float, float, float]]],
    down_segments: Optional[List[Tuple[float, float, float]]],
    reach: float,
) -> float:
    """Time the flow would take alone: bytes over min(link capacities).

    Integrates the bottleneck capacity (the tighter of the source uplink
    and destination downlink, both piecewise constant over the coalesced
    link-sample segments) from the flow's start until ``num_bytes`` are
    carried.  Max-min fair sharing never hands a flow more than link
    capacity, so the solo time is a lower bound on the observed time;
    the result is clamped into ``[0, end - start]`` regardless.  Only
    segments starting within ``reach`` of the flow's lifetime can bound
    it, so each link's sorted segments are bisected to those.
    """
    total = end - start
    if num_bytes <= 0.0 or total <= _TOL:
        return max(total, 0.0)
    if up_segments is None and down_segments is None:
        return total  # no link samples: a LAN hop, nothing was shared
    boundaries = {start, end}
    for segments in (up_segments or [], down_segments or []):
        lo = bisect_left(segments, (start - reach,))  # (t,) sorts before (t, ...)
        for t0, t1, _capacity in segments[lo : bisect_left(segments, (end + reach,))]:
            if start < t0 < end:
                boundaries.add(t0)
            if start < t1 < end:
                boundaries.add(t1)
    ordered = sorted(boundaries)
    carried = 0.0
    elapsed = 0.0
    for left, right in zip(ordered, ordered[1:]):
        # The least capacity on record, as ``min`` picks it.
        up = _capacity_at(left, up_segments)
        down = _capacity_at(left, down_segments)
        if up is None:
            rate = 0.0 if down is None else down
        else:
            rate = up if down is None or not down < up else down
        if rate <= 0.0:
            elapsed += right - left
            continue
        chunk = rate * (right - left)
        if carried + chunk >= num_bytes:
            elapsed += (num_bytes - carried) / rate
            return min(max(elapsed, 0.0), total)
        carried += chunk
        elapsed += right - left
    return total  # capacity never covered the bytes: no contention slack


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    """``max(0.0, min(a1, b1) - max(a0, b0))`` as those builtins pick
    (a NaN included), without calling them."""
    shared = (b1 if b1 < a1 else a1) - (b0 if b0 > a0 else a0)
    return shared if shared > 0.0 else 0.0


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
    ups: Dict[str, list] = {}
    downs: Dict[str, list] = {}
    for position, flow in enumerate(index.flows):
        owner = flow.wan and owners[flow.tag]
        if owner:
            interval = (flow.start, flow.finish, (position, owner))
            ups.setdefault(flow.src, []).append(interval)
            downs.setdefault(flow.dst, []).append(interval)
    held.update((("up", site), intervals) for site, intervals in ups.items())
    held.update((("down", site), intervals) for site, intervals in downs.items())
    for key, intervals in held.items():
        kept = sorted([item for item in intervals if item[0] < item[1]])
        lengths = map(sub, map(_second, kept), map(_first, kept))
        held[key] = kept, max(lengths, default=0.0)
    return held


def _around(table: tuple, t0: float, t1: float) -> List:
    """Keys of the intervals that can overlap ``(t0, t1)``: those starting
    in ``[t0 - longest, t1)``, widened by ``_TOL`` for rounding."""
    intervals, longest = table  # probes (t,) sort before every (t, end, key)
    lo = bisect_left(intervals, (t0 - longest - _TOL,))
    return [key for _, _, key in intervals[lo : bisect_left(intervals, (t1,))]]


def analyze_critical_paths(events: Sequence[TelemetryEvent]) -> CritPathReport:
    """Rebuild every query's critical path from one event stream.

    Served queries come first, by index; batch queries (``stage="query"``
    spans) follow in stream order, indexed by ordinal, each decomposed
    over its own slice of the stream with arrival = admit = start = 0.
    Conservation (components sum to the reported ``qct`` within 1e-9) is
    verified through the armed sanitizer's ``check_critical_path``
    invariant for every query.
    """
    index = _EventIndex(events)
    occupancy = _occupancy(index)
    report = CritPathReport()
    tenants = sorted(
        {meta[3] for meta in index.finish.values() if meta[3]}
    )
    report.tenants = tenants
    sanitizer = instrument.current().sanitizer
    for query in sorted(index.finish):
        finish, qct, cached, tenant, dataset = index.finish[query]
        if cached:
            path = QueryPath(
                index=query,
                tenant=tenant,
                dataset=dataset,
                status="cached",
                bound="cache",
                arrival=finish - qct,
                finish=finish,
                qct=qct,
                queue_wait=0.0,
                slot_wait=0.0,
                map_seconds=0.0,
                wan_serial=0.0,
                wan_contention=0.0,
                reduce_seconds=0.0,
                cached_seconds=qct,
            )
        else:
            path = _executed_path(
                index, query, f"q{query}", finish, qct, tenant, dataset
            )
        if sanitizer.enabled:
            sanitizer.check_critical_path(path)
        report.paths.append(path)
        culprits = _blame_query(index, occupancy, path, tenant)
        if culprits:
            report.query_blame[query] = culprits
            victim = report.blame.setdefault(tenant, {})
            for culprit, seconds in culprits.items():
                victim[culprit] = victim.get(culprit, 0.0) + seconds
    for ordinal, (begin, held, qct) in enumerate(index.batch):
        if qct is None:
            continue
        own = _EventIndex(held)
        own.admit[ordinal] = 0.0  # the span opens at sim time 0, admitted
        path = _executed_path(
            own, ordinal, _BATCH_JOB, float(qct), float(qct),
            str(begin.get("scheme", "")), str(begin.get("dataset", "")),
        )
        if sanitizer.enabled:
            sanitizer.check_critical_path(path)
        report.paths.append(path)  # one tenant: nobody to blame
    return report


def render_components(report: CritPathReport) -> str:
    """The QCT attribution table ``inspect`` prints."""
    from repro.util.tabulate import format_table

    if not report.paths:
        return "no finished queries in the stream — nothing to attribute"
    total = math.fsum(path.qct for path in report.paths)
    totals = report.component_totals()
    rows = [
        [
            name.replace("_seconds", "").replace("_", " "),
            f"{totals[name]:.4f}",
            f"{100.0 * totals[name] / total:.2f}" if total > 0 else "-",
        ]
        for name in COMPONENTS
    ]
    bounds = [path.bound for path in report.paths]
    title = (
        f"critical path: {len(bounds)} queries, total QCT {total:.4f}s "
        f"({bounds.count('wan')} wan-bound, {bounds.count('compute')} "
        f"compute-bound, {bounds.count('cache')} cache-served)"
    )
    table = format_table(rows, headers=("component", "sim s", "% QCT"), title=title)
    return f"{table}\nconservation: max residual {report.max_residual():.3e} s"


def _executed_path(
    index: _EventIndex,
    query: int,
    job: str,
    finish: float,
    qct: float,
    tenant: str,
    dataset: str,
) -> QueryPath:
    admit = index.admit.get(query, finish)
    arrival = index.arrival.get(query, admit - index.queue_seconds.get(query, 0.0))
    start = index.start.get(query, admit)
    reduce_spans = index.reduce_spans.get(job, {})
    map_spans = index.map_spans.get(job, {})
    # The critical site is the one whose reduce ended at the query
    # finish; with no reduce phase (nothing received) it is the site
    # whose map ended last.
    crit_site = ""
    anchor = finish
    reduce_seconds = 0.0
    for site in sorted(reduce_spans):
        span_start, span_end = reduce_spans[site]
        if abs(span_end - finish) <= _TOL:
            crit_site = site
            anchor = span_start
            reduce_seconds = finish - span_start
            break
    if not crit_site:
        for site in sorted(map_spans):
            if abs(map_spans[site][1] - finish) <= _TOL:
                crit_site = site
                break
    # WAN-bound iff the last inbound flow at the critical site gated the
    # reduce start (it arrived at/after the site's own map end).
    crit_flow: Optional[_Flow] = None
    if crit_site:
        map_end = map_spans.get(crit_site, (start, start))[1]
        inbound = [
            flow
            for flow in index.flows_by_tag.get(job, [])
            if flow.dst == crit_site and not math.isnan(flow.finish)
        ]
        if inbound:
            last = max(inbound, key=lambda flow: (flow.finish, flow.src))
            if (
                last.finish >= map_end - _TOL
                and abs(last.finish - anchor) <= _TOL
            ):
                crit_flow = last
    if crit_flow is not None:
        map_seconds = crit_flow.start - start
        wan_total = anchor - crit_flow.start
        links = index.link_segments
        serial = _solo_seconds(
            crit_flow.start,
            crit_flow.finish,
            crit_flow.num_bytes,
            links.get(("up", crit_flow.src)) if crit_flow.wan else None,
            links.get(("down", crit_flow.dst)) if crit_flow.wan else None,
            index.segment_reach,
        )
        serial = min(serial, wan_total)
        bound = "wan"
        crit_src = crit_flow.src
    else:
        map_seconds = anchor - start
        wan_total = 0.0
        serial = 0.0
        bound = "compute"
        crit_src = ""
    return QueryPath(
        index=query,
        tenant=tenant,
        dataset=dataset,
        status="executed",
        bound=bound,
        arrival=arrival,
        finish=finish,
        qct=qct,
        queue_wait=admit - arrival,
        slot_wait=start - admit,
        map_seconds=map_seconds,
        wan_serial=serial,
        wan_contention=wan_total - serial,
        reduce_seconds=reduce_seconds,
        cached_seconds=0.0,
        crit_site=crit_site,
        crit_src=crit_src,
    )


def _blame_query(
    index: _EventIndex, occupancy: Dict[object, tuple], path: QueryPath, tenant: str
) -> Dict[str, float]:
    """Split one query's contention seconds across co-occupying tenants.

    Slot wait is attributed by overlap of other queries' map stages with
    the wait window; WAN contention by overlap of other WAN flows on the
    critical flow's two links with the critical flow's lifetime.  Weight
    is overlap seconds; with no co-occupant on record the delay is
    self-attributed so the blame matrix conserves contention seconds.
    Candidates come from the interval index and are visited in stream
    order (map jobs in ``map_spans`` order, flows in ``index.flows``
    order), so every weight is the same float sum a scan would make.
    """
    blame: Dict[str, float] = {}
    job = f"q{path.index}"
    if path.slot_wait > _TOL:
        window0 = path.arrival + path.queue_wait  # == admit
        window1 = window0 + path.slot_wait  # == start
        weights: Dict[str, float] = {}
        nearby = set(_around(occupancy["map"], window0, window1))
        for _, other_job, other_tenant in sorted(nearby):
            shared = sum(
                _overlap(span[0], span[1], window0, window1)
                for span in index.map_spans[other_job].values()
            )
            if other_job != job and shared > 0.0:
                weights[other_tenant] = weights.get(other_tenant, 0.0) + shared
        _distribute(blame, path.slot_wait, weights, tenant)
    if path.wan_contention > _TOL and path.crit_src:
        crit = next(
            (
                flow
                for flow in index.flows_by_tag.get(job, [])
                if flow.src == path.crit_src and flow.dst == path.crit_site
            ),
            None,
        )
        weights = {}
        if crit is not None:  # finished: flow-finish pairs first-in, first-out
            nearby = {
                key
                for link in (("up", crit.src), ("down", crit.dst))
                for key in _around(occupancy.get(link, ((), 0.0)), crit.start, crit.finish)
            }
            for position, other_tenant in sorted(nearby):
                flow = index.flows[position]
                shared = _overlap(flow.start, flow.finish, crit.start, crit.finish)
                if flow is not crit and shared > 0.0:
                    weights[other_tenant] = weights.get(other_tenant, 0.0) + shared
        _distribute(blame, path.wan_contention, weights, tenant)
    return blame


def _distribute(
    blame: Dict[str, float],
    seconds: float,
    weights: Dict[str, float],
    fallback: str,
) -> None:
    total = math.fsum(weights.values())
    if total <= 0.0:
        blame[fallback] = blame.get(fallback, 0.0) + seconds
        return
    for culprit in sorted(weights):
        share = seconds * (weights[culprit] / total)
        blame[culprit] = blame.get(culprit, 0.0) + share


def emit_blame(report: CritPathReport, bus) -> int:
    """Append one ``slo-blame`` event per blamed query to ``bus``.

    Events land in (finish, index) order so two same-seed runs produce
    byte-identical archives; returns the number of events emitted.
    """
    emitted = 0
    ordered = sorted(report.paths, key=lambda path: (path.finish, path.index))
    for path in ordered:
        culprits = report.query_blame.get(path.index)
        if not culprits:
            continue
        top = max(sorted(culprits), key=lambda name: culprits[name])
        total = math.fsum(culprits.values())
        bus.emit(
            "slo-blame",
            t=path.finish,
            tenant=path.tenant,
            query=path.index,
            culprit=top,
            seconds=total,
            share=culprits[top] / total if total > 0 else 0.0,
            slot_wait=path.slot_wait,
            wan_contention=path.wan_contention,
        )
        emitted += 1
    return emitted
