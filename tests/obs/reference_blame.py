"""The analyzer's per-query scans as they were until they bisected.

Kept verbatim as the oracle for ``repro.obs.critpath``'s interval
index: :func:`reference_blame_query` rebuilds ``tenant_of`` per query and
tests every map-stage span of every other job against the slot-wait
window and every flow of the archive against the critical flow;
:func:`reference_solo_seconds` collects capacity boundaries from every
segment of both links.  Quadratic in run length, and obviously the
definitions.  ``tests/properties/test_obs_oracles.py`` holds the
analyzer's paths, ``blame`` and ``query_blame`` to
:func:`reference_analysis`.
"""

import math
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from repro.obs import critpath
from repro.obs.critpath import (
    _TOL,
    CritPathReport,
    QueryPath,
    _capacity_at,
    _distribute,
    _EventIndex,
    analyze_critical_paths,
)
from repro.obs.telemetry import TelemetryEvent


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def reference_blame_query(
    index: _EventIndex, path: QueryPath, tenant: str
) -> Dict[str, float]:
    """Split one query's contention seconds across co-occupying tenants.

    Slot wait is attributed by overlap of other queries' map stages with
    the wait window; WAN contention by overlap of other WAN flows on the
    critical flow's two links with the critical flow's lifetime.  Weight
    is overlap seconds; with no co-occupant on record the delay is
    self-attributed so the blame matrix conserves contention seconds.
    """
    blame: Dict[str, float] = {}
    job = f"q{path.index}"
    tenant_of = {
        query: meta[3] for query, meta in index.finish.items()
    }
    if path.slot_wait > _TOL:
        window0 = path.arrival + path.queue_wait  # == admit
        window1 = window0 + path.slot_wait  # == start
        weights: Dict[str, float] = {}
        for other_job, spans in index.map_spans.items():
            if other_job == job or not other_job.startswith("q"):
                continue
            try:
                other_query = int(other_job[1:])
            except ValueError:
                continue
            other_tenant = tenant_of.get(other_query, "")
            if not other_tenant:
                continue
            shared = sum(
                _overlap(span[0], span[1], window0, window1)
                for span in spans.values()
            )
            if shared > 0.0:
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
        if crit is not None:
            weights = {}
            for flow in index.flows:
                if flow is crit or not flow.wan or math.isnan(flow.finish):
                    continue
                if flow.src != crit.src and flow.dst != crit.dst:
                    continue
                shared = _overlap(flow.start, flow.finish, crit.start, crit.finish)
                if shared <= 0.0:
                    continue
                try:
                    other_tenant = tenant_of.get(int(flow.tag[1:]), "")
                except (ValueError, IndexError):
                    other_tenant = ""
                if other_tenant:
                    weights[other_tenant] = weights.get(other_tenant, 0.0) + shared
            _distribute(blame, path.wan_contention, weights, tenant)
        else:
            _distribute(blame, path.wan_contention, {}, tenant)
    return blame


def reference_solo_seconds(
    start: float,
    end: float,
    num_bytes: float,
    up_segments: Optional[List[Tuple[float, float, float]]],
    down_segments: Optional[List[Tuple[float, float, float]]],
) -> float:
    """``_solo_seconds`` with its boundary scan over every segment of both
    links (the production one bisects to the flow's lifetime)."""
    total = end - start
    if num_bytes <= 0.0 or total <= _TOL:
        return max(total, 0.0)
    if up_segments is None and down_segments is None:
        return total  # no link samples: a LAN hop, nothing was shared
    boundaries = {start, end}
    for segments in (up_segments, down_segments):
        for t0, t1, _capacity in segments or ():
            if start < t0 < end:
                boundaries.add(t0)
            if start < t1 < end:
                boundaries.add(t1)
    ordered = sorted(boundaries)
    carried = 0.0
    elapsed = 0.0
    for left, right in zip(ordered, ordered[1:]):
        capacities = [
            capacity
            for capacity in (
                _capacity_at(left, up_segments),
                _capacity_at(left, down_segments),
            )
            if capacity is not None
        ]
        rate = min(capacities) if capacities else 0.0
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


def reference_analysis(events: Sequence[TelemetryEvent]) -> CritPathReport:
    """The analyzer with the old segment scan and the old blame pass.

    Paths come from :func:`analyze_critical_paths` with ``_solo_seconds``
    swapped for :func:`reference_solo_seconds`; ``blame`` and
    ``query_blame`` are aggregated over them by
    :func:`reference_blame_query`, as the analyzer aggregates its own.
    """

    def solo(start, end, num_bytes, up, down, reach):
        return reference_solo_seconds(start, end, num_bytes, up, down)

    with mock.patch.object(critpath, "_solo_seconds", solo):
        report = analyze_critical_paths(events)
    index = _EventIndex(events)
    report.blame, report.query_blame = {}, {}
    for path in report.paths[: len(index.finish)]:  # served first, by index
        culprits = reference_blame_query(index, path, path.tenant)
        if culprits:
            report.query_blame[path.index] = culprits
            victim = report.blame.setdefault(path.tenant, {})
            for culprit, seconds in culprits.items():
                victim[culprit] = victim.get(culprit, 0.0) + seconds
    return report
