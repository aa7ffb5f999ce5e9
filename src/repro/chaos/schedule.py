"""Deterministic fault schedules (the chaos layer's ground truth).

A :class:`FaultSchedule` is a fixed, seed-derived list of
:class:`FaultEvent` windows that the WAN simulator and the engine consult
while they run.  Faults are *data*, not callbacks: two runs with the same
schedule replay the exact same failures, which is what makes chaos runs
comparable across schemes and reproducible in CI.

Fault kinds and their semantics:

``link-degrade``
    The site's uplink and downlink capacity is multiplied by
    ``severity`` (in ``(0, 1)``) during the window.
``link-blackout``
    Capacity drops to zero during the window.  Flows through the site
    *park* — they keep their place and resume when capacity returns —
    rather than erroring out (see
    :class:`~repro.wan.transfer.TransferScheduler`).
``transfer-stall``
    Same zero-capacity link effect as a blackout, but modelling an
    end-host pathology (TCP stall, dead connection) rather than the link
    itself going dark; reported separately.
``site-outage``
    The whole site is dark: links at zero *and* the site is reported
    dead to the runtime, which triggers degraded re-planning.
``straggler``
    The site's executors run ``severity``× slower (>= 1) for the whole
    job.
``task-failure``
    ``severity`` map-task waves at the site fail and re-execute, each
    re-run costing the busiest executor's map time again.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultError

#: Fault kinds that scale (or zero) a site's link capacity.
LINK_KINDS = ("link-degrade", "link-blackout", "transfer-stall", "site-outage")
#: Fault kinds that act on the site's compute.
COMPUTE_KINDS = ("straggler", "task-failure")
FAULT_KINDS = LINK_KINDS + COMPUTE_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One fault window at one site.

    ``severity`` is kind-specific: the capacity multiplier for
    ``link-degrade``, the slowdown factor for ``straggler``, the number
    of failed waves for ``task-failure``; unused (0.0) for the
    zero-capacity kinds.
    """

    kind: str
    site: str
    start: float
    end: float
    severity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.site:
            raise FaultError("fault event needs a site name")
        if not math.isfinite(self.start):
            raise FaultError(f"fault start must be finite, got {self.start}")
        if self.start < 0:
            raise FaultError(f"fault start must be >= 0, got {self.start}")
        if math.isnan(self.end):  # inf is a permanent fault
            raise FaultError(f"fault end must be a number or inf, got {self.end}")
        if self.end <= self.start:
            raise FaultError(
                f"fault window must be non-empty, got [{self.start}, {self.end}]"
            )
        if not math.isfinite(self.severity):
            raise FaultError(f"fault severity must be finite, got {self.severity}")
        if self.kind == "link-degrade" and not 0.0 < self.severity < 1.0:
            raise FaultError(
                f"link-degrade severity must be in (0, 1), got {self.severity}"
            )
        if self.kind == "straggler" and self.severity < 1.0:
            raise FaultError(
                f"straggler severity must be >= 1, got {self.severity}"
            )
        if self.kind == "task-failure" and (
            self.severity < 1.0 or self.severity != int(self.severity)
        ):
            raise FaultError(
                f"task-failure severity must be a positive integer wave "
                f"count, got {self.severity}"
            )

    def active_at(self, now: float) -> bool:
        """Whether the window covers ``now`` (start inclusive, end exclusive)."""
        return self.start <= now < self.end

    @property
    def is_link_fault(self) -> bool:
        return self.kind in LINK_KINDS

    def link_multiplier(self) -> float:
        """Capacity multiplier while the window is active (0 for blackouts)."""
        if self.kind == "link-degrade":
            return self.severity
        return 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable batch of fault events plus fast lookup structure.

    The schedule precomputes, per site, the sorted link-fault windows and
    the global sorted list of capacity change points, so the transfer
    scheduler's inner loop pays one bisect per lookup.
    """

    events: Tuple[FaultEvent, ...]
    name: str = ""
    seed: Optional[int] = None
    _link_events: Dict[str, Tuple[FaultEvent, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _change_points: Tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        per_site: Dict[str, List[FaultEvent]] = {}
        points: List[float] = []
        for event in self.events:
            if event.is_link_fault:
                per_site.setdefault(event.site, []).append(event)
                points.append(event.start)
                if not math.isinf(event.end):
                    points.append(event.end)
        object.__setattr__(
            self,
            "_link_events",
            {
                site: tuple(sorted(site_events, key=lambda e: (e.start, e.end)))
                for site, site_events in per_site.items()
            },
        )
        object.__setattr__(self, "_change_points", tuple(sorted(set(points))))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultSchedule":
        return cls(events=(), name="none")

    @property
    def is_empty(self) -> bool:
        return not self.events

    def sites(self) -> List[str]:
        """All sites named by any event, sorted."""
        return sorted({event.site for event in self.events})

    # ------------------------------------------------------------------
    # link faults (consulted by the WAN simulator)
    # ------------------------------------------------------------------

    def link_multiplier(self, site: str, now: float) -> float:
        """Product of active link-fault multipliers at ``site`` (0 = dark)."""
        multiplier = 1.0
        for event in self._link_events.get(site, ()):
            if event.start > now:
                break
            if event.active_at(now):
                multiplier *= event.link_multiplier()
                if multiplier == 0.0:  # lint: allow[R004] — blackout multipliers are exact literal zeros
                    return 0.0
        return multiplier

    def next_change_after(self, now: float) -> Optional[float]:
        """Earliest link-capacity change point strictly after ``now``."""
        index = bisect.bisect_right(self._change_points, now + 1e-12)
        if index >= len(self._change_points):
            return None
        return self._change_points[index]

    # ------------------------------------------------------------------
    # compute faults (consulted by the engine)
    # ------------------------------------------------------------------

    def compute_slowdown(self, site: str) -> float:
        """Combined straggler slowdown factor for the site's executors."""
        slowdown = 1.0
        for event in self.events:
            if event.kind == "straggler" and event.site == site:
                slowdown *= event.severity
        return slowdown

    def task_failure_waves(self, site: str) -> int:
        """Total failed map-task waves to re-execute at the site."""
        return int(
            sum(
                event.severity
                for event in self.events
                if event.kind == "task-failure" and event.site == site
            )
        )

    # ------------------------------------------------------------------
    # outages (consulted by the failure-aware runtime)
    # ------------------------------------------------------------------

    def outage_sites(self) -> List[str]:
        """Sites with a whole-site outage anywhere in the schedule."""
        return sorted(
            {event.site for event in self.events if event.kind == "site-outage"}
        )

    def site_dead_at(self, site: str, now: float) -> bool:
        return any(
            event.kind == "site-outage" and event.site == site and event.active_at(now)
            for event in self.events
        )

    def outages_starting_in(self, start: float, end: float) -> List[FaultEvent]:
        """Site outages whose window opens inside ``[start, end)``."""
        return [
            event
            for event in self.events
            if event.kind == "site-outage" and start <= event.start < end
        ]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def describe(self) -> str:
        label = self.name or "custom"
        if self.is_empty:
            return f"chaos schedule {label}: no faults"
        parts = ", ".join(
            f"{count} {kind}"
            for kind, count in sorted(self.counts_by_kind().items())
        )
        return f"chaos schedule {label}: {parts} across {len(self.sites())} sites"

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }


def merge_schedules(*schedules: FaultSchedule) -> FaultSchedule:
    """Concatenate schedules into one (events kept in given order)."""
    events: List[FaultEvent] = []
    for schedule in schedules:
        events.extend(schedule.events)
    name = "+".join(s.name for s in schedules if s.name) or "merged"
    return FaultSchedule(events=tuple(events), name=name)
