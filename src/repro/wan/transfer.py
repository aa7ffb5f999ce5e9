"""Concurrent WAN transfer simulation with max-min fair sharing.

Every transfer between two sites crosses the source site's uplink and the
destination site's downlink (§5's bottleneck model).  When several
transfers share a link they split its bandwidth max-min fairly, which is
what TCP flows through a common bottleneck approximate.  The simulator is
event driven (progressive filling recomputed at every arrival/completion),
so staged transfer plans — data movement before the query, shuffle during
it — get accurate finish times.

Intra-site transfers never touch the WAN; they proceed at the site's LAN
rate without modelled contention.

Fault injection (:mod:`repro.chaos`): an optional
:class:`~repro.chaos.schedule.FaultSchedule` scales link capacity the
same way bandwidth profiles do, except its multiplier may be *zero*
(blackouts, stalls, site outages).  Flows caught in a zero-capacity
epoch **park**: they keep their queue position at rate zero and resume
when capacity returns.  Parking never trips the "all rates zero" stall
error as long as a capacity change point lies ahead; a flow parked for
longer than ``stall_timeout_seconds`` (cumulatively) fails its attempt
instead — all-or-nothing, like a dropped connection — and surfaces as a
:class:`TransferResult` with ``failed=True`` for the retry layer
(:func:`repro.chaos.runtime.simulate_with_retries`) to handle.

Two objects divide the work.  :class:`TransferScheduler` is the network
as configured plus the *capacity oracle* over it (what a link carries at
time ``t``, when capacity next changes, when a transfer's first byte can
land); it holds no run state.  :class:`WanSession` is one run over that
network: the clock, the flows — each carrying its effective start, its
link keys and, once known, its finish time — the progressive-filling
rounds and the telemetry coalescing state.  Every driver (batch
``simulate()``, data movement, chaos retries, the serve event loop) is a
session; ``simulate()`` is one run to drain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.obs import instrument
from repro.wan.topology import WanTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.schedule import FaultSchedule

#: Resource key: ("up"|"down", site_name).
_Resource = Tuple[str, str]
#: What a sampled filling round hands to link telemetry: the WAN flow
#: count, capacities before and after filling, flow ids per resource,
#: and the parked flows.
_RoundSample = Tuple[
    int,
    Dict[_Resource, float],
    Dict[_Resource, float],
    Dict[_Resource, Set[int]],
    List["_Flow"],
]

_EPSILON_BYTES = 1e-6
_EPSILON_TIME = 1e-12


@dataclass(frozen=True)
class Transfer:
    """A single point-to-point data transfer request."""

    src: str
    dst: str
    num_bytes: float
    start_time: float = 0.0
    tag: str = ""

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise TopologyError(f"transfer bytes must be >= 0, got {self.num_bytes}")
        if self.start_time < 0:
            raise TopologyError("transfer start_time must be >= 0")


@dataclass(frozen=True)
class TransferResult:
    """Completion (or failure) record for one transfer.

    ``failed`` transfers delivered nothing — the attempt timed out while
    parked at zero capacity; ``finish_time`` is then the moment the
    attempt was abandoned.  ``attempts`` counts submissions including
    this one (> 1 only for results stamped by the retry layer).
    """

    transfer: Transfer
    finish_time: float
    failed: bool = False
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.finish_time - self.transfer.start_time

    @property
    def delivered_bytes(self) -> float:
        """Bytes that actually landed: all of them, or none on failure."""
        return 0.0 if self.failed else self.transfer.num_bytes

    @property
    def throughput_bps(self) -> float:
        """Average achieved throughput; 0 for empty or failed transfers."""
        if self.duration <= 0:
            return 0.0
        return self.delivered_bytes / self.duration


@dataclass
class _Flow:
    """One submitted transfer and everything the run learns about it."""

    flow_id: int
    transfer: Transfer
    remaining: float
    #: When data starts landing: the requested start plus WAN propagation.
    start: float
    #: ``("up", src), ("down", dst)``; empty for an intra-site hop.
    resources: Tuple[_Resource, ...]
    rate: float = 0.0
    parked_seconds: float = 0.0
    failed: bool = False
    #: Completion (or abandonment) time; None while pending or in flight.
    finish: Optional[float] = None
    #: Telemetry-only: whether the last round left this flow parked, so
    #: flow-park events mark episode starts rather than every round.
    was_parked: bool = False

    def result(self) -> TransferResult:
        return TransferResult(
            transfer=self.transfer, finish_time=self.finish, failed=self.failed
        )


class WanSession:
    """One WAN run: the clock, the flows and the filling rounds.

    All run state lives here — pending and in-flight flows, the clock,
    round and park counters, and the telemetry coalescing state — and
    the session asks its :class:`TransferScheduler` only for
    configuration and the capacity oracle.  A session stays open, so
    *independent queries* can keep injecting flows while earlier flows
    are still in flight — the substrate of the concurrent serving layer
    (:mod:`repro.serve`).  Flows from every submitter contend for the
    same uplink/downlink capacity epochs under one max-min fair filling;
    :meth:`TransferScheduler.simulate` is a session run to drain, so
    batch and serving cannot diverge.

    Protocol::

        session = WanSession(scheduler)
        session.submit(first_query_flows)          # start >= session.now
        done = session.advance(limit=next_event_t) # completions <= limit
        session.submit(second_query_flows)         # mid-flight injection
        done += session.advance()                  # drain

    ``advance`` stops at the first round that completes flows (so the
    caller can react — e.g. start a reduce stage — before the clock
    moves on), at ``limit``, or when the session drains.  Completions
    are returned as :class:`TransferResult` in flow-submission order
    within each call.

    Flow ids are dense (``self._flows[flow_id]`` is the flow), and each
    flow records its effective start, link keys and finish time once, so
    no round re-derives them and no call walks finished flows.
    """

    def __init__(self, scheduler: "TransferScheduler") -> None:
        self.scheduler = scheduler
        self.now = 0.0
        self.filling_rounds = 0
        self.parked_seconds = 0.0
        self._pending: List[_Flow] = []
        self._head = 0
        self._active: List[_Flow] = []
        self._flows: List[_Flow] = []
        self._last_now = 0.0
        # Telemetry coalescing state (see _emit_round_samples).
        self._site_multipliers: Dict[str, float] = {}
        self._pending_samples: Dict[_Resource, List[float]] = {}
        # True while the previous telemetry-sampled round parked flows;
        # keeps per-flow park bookkeeping off the fault-free hot path.
        self._had_parked = False

    @property
    def drained(self) -> bool:
        """True when no pending or in-flight flow remains."""
        return self._head >= len(self._pending) and not self._active

    def submit(self, transfers: Sequence[Transfer]) -> None:
        """Inject flows; every effective start must be >= ``now``."""
        scheduler = self.scheduler
        scheduler._check_sites(transfers)
        flows = [
            _Flow(
                flow_id=len(self._flows) + offset,
                transfer=transfer,
                remaining=transfer.num_bytes,
                start=scheduler._effective_start(transfer),
                resources=(
                    ()
                    if transfer.src == transfer.dst
                    else (("up", transfer.src), ("down", transfer.dst))
                ),
            )
            for offset, transfer in enumerate(transfers)
        ]
        for flow in flows:
            if flow.start < self.now - _EPSILON_TIME:
                raise TopologyError(
                    f"flow {flow.transfer.src}->{flow.transfer.dst} starts at "
                    f"{flow.start} but the session clock is already at "
                    f"{self.now}"
                )
        self._flows.extend(flows)
        self._pending = self._pending[self._head:] + flows
        self._pending.sort(key=lambda flow: (flow.start, flow.flow_id))
        self._head = 0
        # A submission can change per-link occupancy mid-segment; flush
        # so coalesced samples never span the injection point.
        self.flush_telemetry()

    def advance(
        self, limit: float = math.inf, stop_on_completion: bool = True
    ) -> List[TransferResult]:
        """Run filling rounds until ``limit``, a completion, or drain.

        Returns the flows that finished (or failed their stall attempt)
        during this call, in submission order.  The session clock ends at
        ``min(limit, drain time)`` unless a completion stopped it first.
        """
        obs = instrument.current()
        sanitizer = obs.sanitizer
        telemetry = obs.telemetry
        stall_timeout = self.scheduler.stall_timeout_seconds
        pending = self._pending
        active = self._active
        completed: List[_Flow] = []

        while self._head < len(pending) or active:
            now = self.now
            if not active:
                next_start = pending[self._head].start
                if next_start >= limit - _EPSILON_TIME and next_start > now:
                    break
                now = max(now, next_start)
                self.now = now
            # Admit every flow whose (latency-adjusted) start has arrived.
            while (
                self._head < len(pending)
                and pending[self._head].start <= now + _EPSILON_TIME
            ):
                flow = pending[self._head]
                self._head += 1
                if telemetry.enabled:
                    telemetry.emit(
                        "flow-start",
                        t=now,
                        src=flow.transfer.src,
                        dst=flow.transfer.dst,
                        num_bytes=flow.transfer.num_bytes,
                        tag=flow.transfer.tag,
                        wan=bool(flow.resources),
                    )
                if flow.remaining <= _EPSILON_BYTES:
                    flow.finish = max(now, flow.start)
                    completed.append(flow)
                    if telemetry.enabled:
                        self._emit_flow_finish(telemetry, flow)
                else:
                    active.append(flow)
            if not active:
                if completed and stop_on_completion:
                    break
                continue
            if now >= limit - _EPSILON_TIME:
                break

            sample = self._assign_rates(now, telemetry.enabled)
            self.filling_rounds += 1
            horizon = self._next_event_horizon(now, limit)
            if sample is not None:
                self._emit_round_samples(telemetry, now, horizon, *sample)
            for flow in active:
                if flow.rate > 0:
                    flow.remaining -= flow.rate * horizon
                else:
                    flow.parked_seconds += horizon
                    self.parked_seconds += horizon
            now += horizon
            self.now = now
            if sanitizer.enabled:
                sanitizer.check_clock(self._last_now, now, where="wan-filling")
            self._last_now = now

            still_active: List[_Flow] = []
            round_completed = False
            for flow in active:
                if flow.remaining <= _EPSILON_BYTES:
                    flow.finish = now
                    completed.append(flow)
                    round_completed = True
                    if telemetry.enabled:
                        self._emit_flow_finish(telemetry, flow)
                elif (
                    flow.rate <= 0.0
                    and flow.parked_seconds >= stall_timeout - _EPSILON_TIME
                ):
                    flow.failed = True
                    flow.finish = now
                    completed.append(flow)
                    round_completed = True
                    if telemetry.enabled:
                        telemetry.emit(
                            "flow-fail",
                            t=now,
                            src=flow.transfer.src,
                            dst=flow.transfer.dst,
                            num_bytes=flow.transfer.num_bytes,
                            tag=flow.transfer.tag,
                            start=flow.transfer.start_time,
                            parked_seconds=flow.parked_seconds,
                        )
                else:
                    still_active.append(flow)
            active[:] = still_active
            if round_completed and stop_on_completion:
                break

        if self.drained and not completed and not math.isinf(limit):
            # Idle session: snap the clock forward so the caller's next
            # submission (at its event time == limit) is never "late".
            self.now = max(self.now, limit)
        completed.sort(key=lambda flow: flow.flow_id)
        return [flow.result() for flow in completed]

    def flush_telemetry(self) -> None:
        """Emit every pending coalesced link segment (call at drain)."""
        telemetry = instrument.current().telemetry
        if telemetry.enabled:
            for resource, segment in self._pending_samples.items():
                _emit_link_sample(telemetry, resource, segment)
            self._pending_samples.clear()

    def all_results(self) -> List[TransferResult]:
        """Results for every finished flow, in submission order."""
        return [
            flow.result() for flow in self._flows if flow.finish is not None
        ]

    # ------------------------------------------------------------------
    # one filling round
    # ------------------------------------------------------------------

    def _assign_rates(self, now: float, sampling: bool) -> Optional[_RoundSample]:
        """Max-min fair (progressive filling) rate assignment.

        Sets ``rate`` on every in-flight flow.  When ``sampling`` — the
        telemetry-on path — it also returns the per-resource aggregates
        link sampling needs: the WAN flow count, the original
        capacities, the residual capacities after filling (their
        difference is the carried rate, which water-filling leaves
        behind for free), per-resource flow-id sets, and the parked
        flows.  This keeps round sampling O(resources) instead of adding
        a second O(flows) pass per round; per-flow park bookkeeping only
        runs while a fault window is actually parking flows.

        The resource → flows map is rebuilt from the in-flight flows
        every round; an incremental assignment would keep it here, on
        the session, and patch it at admission and completion.
        """
        scheduler = self.scheduler
        flows = self._flows
        capacity: Dict[_Resource, float] = {}
        users: Dict[_Resource, Set[int]] = {}
        unfrozen: Set[int] = set()
        for flow in self._active:
            if not flow.resources:
                flow.rate = scheduler.lan_bps
                continue
            unfrozen.add(flow.flow_id)
            for resource in flow.resources:
                if resource not in capacity:
                    direction, site = resource
                    capacity[resource] = scheduler.effective_bps(
                        site, direction, now
                    )
                    users[resource] = set()
                users[resource].add(flow.flow_id)

        wan = len(unfrozen)
        original_capacity = dict(capacity) if sampling else None
        parked_possible = False
        while unfrozen:
            bottleneck: Optional[_Resource] = None
            bottleneck_share = math.inf
            for resource, resource_users in users.items():
                live = resource_users & unfrozen
                if not live:
                    continue
                share = capacity[resource] / len(live)
                if share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck = resource
            assert bottleneck is not None
            if bottleneck_share <= 0.0:
                parked_possible = True
            for flow_id in users[bottleneck] & unfrozen:
                flow = flows[flow_id]
                flow.rate = bottleneck_share
                unfrozen.discard(flow_id)
                for resource in flow.resources:
                    capacity[resource] = max(0.0, capacity[resource] - bottleneck_share)

        if original_capacity is None:
            return None
        parked: List[_Flow] = []
        if parked_possible or self._had_parked:
            # Fault-window path: track park episodes per flow.
            for flow in self._active:
                if not flow.resources:
                    continue
                if flow.rate <= 0.0:
                    parked.append(flow)
                elif flow.was_parked:
                    flow.was_parked = False
        self._had_parked = bool(parked)
        return wan, original_capacity, capacity, users, parked

    def _next_event_horizon(self, now: float, limit: float) -> float:
        """Time until the next completion, arrival, capacity change,
        park-timeout expiry, or the caller's ``limit``.

        Parked flows (rate zero under a fault blackout) contribute no
        completion event, but an upcoming capacity change point or a
        finite stall timeout still bounds the horizon; only when *none*
        of the event sources lies ahead is the simulation genuinely
        stuck and the stall error raised.  A finite ``limit`` also
        rescues an otherwise stalled round — the session will simply
        stop there.
        """
        stall_timeout = self.scheduler.stall_timeout_seconds
        horizon = math.inf
        for flow in self._active:
            if flow.rate > 0:
                horizon = min(horizon, flow.remaining / flow.rate)
            else:
                horizon = min(horizon, stall_timeout - flow.parked_seconds)
        if self._head < len(self._pending):
            horizon = min(horizon, max(self._pending[self._head].start - now, 0.0))
        next_change = self.scheduler._next_capacity_change(now)
        if next_change is not None:
            horizon = min(horizon, next_change - now)
        if not math.isinf(limit):
            horizon = min(horizon, limit - now)
        if math.isinf(horizon):
            raise TopologyError("transfer simulation stalled (all rates zero)")
        return max(horizon, _EPSILON_TIME)

    def _emit_flow_finish(self, telemetry, flow: _Flow) -> None:
        """flow-finish telemetry, with achieved throughput over the flow."""
        seconds = flow.finish - flow.start
        throughput = flow.transfer.num_bytes / seconds if seconds > 0 else 0.0
        telemetry.emit(
            "flow-finish",
            t=flow.finish,
            src=flow.transfer.src,
            dst=flow.transfer.dst,
            num_bytes=flow.transfer.num_bytes,
            tag=flow.transfer.tag,
            wan=bool(flow.resources),
            start=flow.transfer.start_time,
            seconds=seconds,
            throughput_bps=throughput,
            parked_seconds=flow.parked_seconds,
        )

    def _emit_round_samples(
        self,
        telemetry,
        now: float,
        horizon: float,
        wan: int,
        capacities: Dict[_Resource, float],
        residual: Dict[_Resource, float],
        users: Dict[_Resource, Set[int]],
        parked: List[_Flow],
    ) -> None:
        """Per-round link occupancy telemetry (telemetry-on path only).

        Consumes the aggregates :meth:`_assign_rates` returned for this
        round, so the per-round cost is O(resources in use).  Link
        samples are coalesced: contiguous rounds in which a link keeps
        the same capacity and flow count extend one pending ``[start,
        end, bytes, capacity_bps, flows]`` segment (accumulating the
        bytes carried) instead of emitting per round.  A segment is
        flushed as a single link-sample whose ``used_bps`` is the
        byte-weighted mean rate over the segment — so ``used_bps`` ×
        ``dt`` still integrates to the bytes the link actually carried,
        and utilization series reconcile with the sanitizer's byte
        conservation — when the link's capacity or flow count changes,
        the link goes idle, a submission arrives, or the caller flushes
        at drain (:meth:`flush_telemetry`).  Also emits capacity-epoch
        events when a site's effective multiplier changes between
        rounds, flow-park at park-episode starts, and one flows-sample
        per round with occupancy counts.
        """
        for flow in parked:
            if not flow.was_parked:
                flow.was_parked = True
                telemetry.emit(
                    "flow-park",
                    t=now,
                    src=flow.transfer.src,
                    dst=flow.transfer.dst,
                    tag=flow.transfer.tag,
                    remaining_bytes=flow.remaining,
                )
        end = now + horizon
        pending_samples = self._pending_samples
        # Insertion order of the capacity map follows deterministic flow
        # order, so iteration needs no sort to stay reproducible.
        for resource, capacity in capacities.items():
            rate = capacity - residual[resource]
            flows_on = len(users[resource])
            segment = pending_samples.get(resource)
            if (
                segment is not None
                and segment[1] == now
                and segment[3] == capacity
                and segment[4] == flows_on
            ):
                # Contiguous, same capacity, same flow count: extend the
                # segment and accumulate the bytes this round carries.
                segment[1] = end
                segment[2] += rate * horizon
                continue
            site = resource[1]
            # A multiplier change always changes capacity_bps, so epoch
            # detection only needs to run on segment breaks.
            multiplier = self.scheduler._capacity_multiplier(site, now)
            if self._site_multipliers.get(site) != multiplier:
                self._site_multipliers[site] = multiplier
                telemetry.emit(
                    "capacity-epoch", t=now, site=site, multiplier=multiplier
                )
            if segment is not None:
                _emit_link_sample(telemetry, resource, segment)
            pending_samples[resource] = [
                now, end, rate * horizon, capacity, flows_on,
            ]
        if len(pending_samples) > len(capacities):
            for resource in [r for r in pending_samples if r not in capacities]:
                _emit_link_sample(telemetry, resource, pending_samples.pop(resource))
        telemetry.emit(
            "flows-sample",
            t=now,
            active=wan - len(parked),
            parked=len(parked),
            lan=len(self._active) - wan,
            dt=horizon,
        )


def _emit_link_sample(telemetry, resource: _Resource, segment: List[float]) -> None:
    """One coalesced ``[start, end, bytes, capacity_bps, flows]`` segment."""
    direction, site = resource
    duration = segment[1] - segment[0]
    telemetry.emit(
        "link-sample",
        t=segment[0],
        site=site,
        direction=direction,
        used_bps=segment[2] / duration if duration > 0 else 0.0,
        capacity_bps=segment[3],
        flows=int(segment[4]),
        dt=duration,
    )


class TransferScheduler:
    """The WAN as configured, and the capacity oracle over it.

    Holds validated configuration (topology, LAN rate, bandwidth
    profiles, propagation delay, fault schedule, stall timeout) and
    answers questions about it: a link's capacity at ``t``
    (:meth:`effective_bps`), the next capacity change after ``t``, when
    a transfer's first byte can land, whether its sites exist.  It holds
    no run state at all — every run is a :class:`WanSession` — so one
    scheduler backs any number of independent or concurrent runs, and
    each :meth:`simulate` call is a fresh epoch starting at time zero.
    """

    def __init__(
        self,
        topology: WanTopology,
        lan_bps: float = 10.0e9,
        profiles: "Optional[Dict[str, object]]" = None,
        propagation_seconds: float = 0.0,
        faults: "Optional[FaultSchedule]" = None,
        stall_timeout_seconds: float = math.inf,
    ) -> None:
        """``profiles`` optionally maps site name to a
        :class:`~repro.wan.variability.BandwidthProfile` scaling both its
        uplink and downlink over time (§2.1's bandwidth variability).

        ``propagation_seconds`` adds a fixed one-way WAN latency to every
        inter-site transfer (data only starts landing after it), modelling
        the propagation delay of intercontinental paths; intra-site
        transfers are unaffected.

        ``faults`` optionally injects a chaos
        :class:`~repro.chaos.schedule.FaultSchedule` whose link faults
        scale capacity like profiles but may reach zero; a flow parked at
        zero capacity for ``stall_timeout_seconds`` total fails its
        attempt (the default keeps flows parked indefinitely).
        """
        if lan_bps <= 0:
            raise TopologyError("lan_bps must be > 0")
        if propagation_seconds < 0:
            raise TopologyError("propagation_seconds must be >= 0")
        if stall_timeout_seconds <= 0:
            raise TopologyError("stall_timeout_seconds must be > 0")
        self.topology = topology
        self.lan_bps = lan_bps
        self.profiles = profiles or {}
        self.propagation_seconds = propagation_seconds
        self.faults = faults
        self.stall_timeout_seconds = stall_timeout_seconds
        unknown = set(self.profiles) - set(topology.site_names)
        if unknown:
            raise TopologyError(f"profiles name unknown sites {sorted(unknown)}")
        if faults is not None:
            unknown = set(faults.sites()) - set(topology.site_names)
            if unknown:
                raise TopologyError(
                    f"fault schedule names unknown sites {sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def simulate(self, transfers: Sequence[Transfer]) -> List[TransferResult]:
        """Simulate all transfers; returns results in input order.

        A :class:`WanSession` run to drain.
        """
        telemetry = instrument.current().telemetry
        with telemetry.span(
            "wan-simulate", stage="wan", transfers=len(transfers)
        ) as span:
            session = WanSession(self)
            session.submit(transfers)
            session.advance(stop_on_completion=False)
            session.flush_telemetry()
            span.set(
                filling_rounds=session.filling_rounds,
                parked_seconds=session.parked_seconds,
            )
        return session.all_results()

    def session(self) -> WanSession:
        """Open a resumable shared-clock session (the serving substrate)."""
        return WanSession(self)

    def makespan(self, transfers: Sequence[Transfer]) -> float:
        """Time at which the last transfer completes (0.0 for none)."""
        results = self.simulate(transfers)
        if not results:
            return 0.0
        return max(result.finish_time for result in results)

    def serial_time(self, transfers: Sequence[Transfer]) -> float:
        """Naive baseline: run the transfers one at a time, in order.

        Used by the WAN-fairness ablation bench to show what ignoring link
        sharing would predict.  Each transfer starts at the later of the
        previous finish and its own *effective* start (propagation
        included), and its bytes are integrated through the same
        time-varying capacity (bandwidth profiles and fault epochs) the
        fair simulator uses — so the ablation compares fair sharing
        against a consistent serial baseline, not one running on a
        different network.
        """
        now = 0.0
        for transfer in transfers:
            start = max(now, self._effective_start(transfer))
            if transfer.src == transfer.dst:
                now = start + transfer.num_bytes / self.lan_bps
                continue
            now = self._serial_finish(transfer, start)
        return now

    def _serial_finish(self, transfer: Transfer, start: float) -> float:
        """Finish time of one WAN transfer running alone from ``start``."""
        nominal = min(
            self.topology.uplink(transfer.src), self.topology.downlink(transfer.dst)
        )
        remaining = transfer.num_bytes
        now = start
        while remaining > _EPSILON_BYTES:
            rate = nominal * min(
                self._capacity_multiplier(transfer.src, now),
                self._capacity_multiplier(transfer.dst, now),
            )
            next_change = self._next_capacity_change(now)
            if rate <= 0.0:
                if next_change is None:
                    raise TopologyError(
                        "serial transfer parked forever (capacity never returns)"
                    )
                now = next_change  # park until capacity comes back
                continue
            if next_change is None or remaining <= rate * (next_change - now):
                now += remaining / rate
                remaining = 0.0
            else:
                remaining -= rate * (next_change - now)
                now = next_change
        return now

    # ------------------------------------------------------------------
    # capacity oracle (what a WanSession asks)
    # ------------------------------------------------------------------

    def _effective_start(self, transfer: Transfer) -> float:
        """Requested start plus WAN propagation for inter-site transfers."""
        if transfer.src == transfer.dst:
            return transfer.start_time
        return transfer.start_time + self.propagation_seconds

    def _check_sites(self, transfers: Sequence[Transfer]) -> None:
        for transfer in transfers:
            if transfer.src not in self.topology:
                raise TopologyError(f"unknown source site {transfer.src!r}")
            if transfer.dst not in self.topology:
                raise TopologyError(f"unknown destination site {transfer.dst!r}")

    def _capacity_multiplier(self, site: str, now: float) -> float:
        """Profile multiplier × fault multiplier (may be zero under chaos)."""
        profile = self.profiles.get(site)
        multiplier = (
            1.0 if profile is None else profile.multiplier_at(now)  # type: ignore[attr-defined]
        )
        if self.faults is not None:
            multiplier *= self.faults.link_multiplier(site, now)
        return multiplier

    def effective_bps(self, site: str, direction: str, now: float) -> float:
        """True effective link capacity at ``now``: nominal × multiplier.

        The ground truth the bandwidth estimator is judged against
        (estimator-sample telemetry); ``direction`` is ``"up"`` or
        ``"down"``.
        """
        if direction == "up":
            nominal = self.topology.uplink(site)
        elif direction == "down":
            nominal = self.topology.downlink(site)
        else:
            raise TopologyError(f"direction must be 'up' or 'down', got {direction!r}")
        return nominal * self._capacity_multiplier(site, now)

    def _next_capacity_change(self, now: float) -> Optional[float]:
        """Earliest upcoming profile epoch or fault window boundary."""
        upcoming = [
            profile.next_change_after(now)  # type: ignore[attr-defined]
            for profile in self.profiles.values()
        ]
        if self.faults is not None:
            upcoming.append(self.faults.next_change_after(now))
        upcoming = [epoch for epoch in upcoming if epoch is not None]
        return min(upcoming) if upcoming else None
