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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.obs import instrument
from repro.wan.topology import WanTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.schedule import FaultSchedule

#: Resource key: ("up"|"down", site_name).
_Resource = Tuple[str, str]

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
    flow_id: int
    transfer: Transfer
    remaining: float
    rate: float = 0.0
    parked_seconds: float = 0.0
    failed: bool = False
    #: Telemetry-only: whether the last round left this flow parked, so
    #: flow-park events mark episode starts rather than every round.
    was_parked: bool = False


class WanSession:
    """A resumable WAN simulation sharing one clock across submitters.

    :meth:`TransferScheduler.simulate` runs one batch to completion and
    resets; a session instead stays open so *independent queries* can
    keep injecting flows while earlier flows are still in flight — the
    substrate of the concurrent serving layer (:mod:`repro.serve`).
    Flows from every submitter contend for the same uplink/downlink
    capacity epochs under the same max-min fair filling the batch path
    uses; in fact the batch path is this class run to drain, so the two
    cannot diverge.

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
    """

    def __init__(self, scheduler: "TransferScheduler") -> None:
        self.scheduler = scheduler
        self.now = 0.0
        self.filling_rounds = 0
        self.parked_seconds = 0.0
        self._counter = itertools.count()
        self._pending: List[_Flow] = []
        self._head = 0
        self._active: List[_Flow] = []
        self._flows: List[_Flow] = []
        self._finish_times: Dict[int, float] = {}
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
        telemetry = instrument.current().telemetry
        flows = [
            _Flow(
                flow_id=next(self._counter),
                transfer=transfer,
                remaining=transfer.num_bytes,
            )
            for transfer in transfers
        ]
        for flow in flows:
            if scheduler._effective_start(flow.transfer) < self.now - _EPSILON_TIME:
                raise TopologyError(
                    f"flow {flow.transfer.src}->{flow.transfer.dst} starts at "
                    f"{scheduler._effective_start(flow.transfer)} but the "
                    f"session clock is already at {self.now}"
                )
        self._flows.extend(flows)
        self._pending = self._pending[self._head:] + flows
        self._pending.sort(
            key=lambda flow: (
                scheduler._effective_start(flow.transfer),
                flow.flow_id,
            )
        )
        self._head = 0
        if telemetry.enabled:
            # A submission can change per-link occupancy mid-segment;
            # flush so coalesced samples never span the injection point.
            self.scheduler._flush_link_samples(telemetry, self._pending_samples)

    def advance(
        self, limit: float = math.inf, stop_on_completion: bool = True
    ) -> List[TransferResult]:
        """Run filling rounds until ``limit``, a completion, or drain.

        Returns the flows that finished (or failed their stall attempt)
        during this call, in submission order.  The session clock ends at
        ``min(limit, drain time)`` unless a completion stopped it first.
        """
        scheduler = self.scheduler
        obs = instrument.current()
        sanitizer = obs.sanitizer
        telemetry = obs.telemetry
        pending = self._pending
        active = self._active
        finish_times = self._finish_times
        completed: List[int] = []

        while self._head < len(pending) or active:
            now = self.now
            if not active:
                next_start = scheduler._effective_start(
                    pending[self._head].transfer
                )
                if next_start >= limit - _EPSILON_TIME and next_start > now:
                    break
                now = max(now, next_start)
                self.now = now
            # Admit every flow whose (latency-adjusted) start has arrived.
            while (
                self._head < len(pending)
                and scheduler._effective_start(pending[self._head].transfer)
                <= now + _EPSILON_TIME
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
                        wan=flow.transfer.src != flow.transfer.dst,
                    )
                if flow.remaining <= _EPSILON_BYTES:
                    finish_times[flow.flow_id] = max(
                        now, scheduler._effective_start(flow.transfer)
                    )
                    completed.append(flow.flow_id)
                    if telemetry.enabled:
                        scheduler._emit_flow_finish(
                            telemetry, flow, finish_times[flow.flow_id]
                        )
                else:
                    active.append(flow)
            if not active:
                if completed and stop_on_completion:
                    break
                continue
            if now >= limit - _EPSILON_TIME:
                break

            sample: Optional[Dict[str, Any]] = (
                {"had_parked": self._had_parked} if telemetry.enabled else None
            )
            scheduler._assign_rates(active, now, sample)
            self.filling_rounds += 1
            next_arrival = (
                scheduler._effective_start(pending[self._head].transfer)
                if self._head < len(pending)
                else None
            )
            extra_bound = None if math.isinf(limit) else limit - now
            horizon = scheduler._next_event_horizon(
                active, next_arrival, now, extra_bound=extra_bound
            )
            if sample is not None:
                self._had_parked = bool(sample["parked"])
                scheduler._emit_round_samples(
                    telemetry, sample, now, horizon, self._site_multipliers,
                    self._pending_samples,
                )
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
                    finish_times[flow.flow_id] = now
                    completed.append(flow.flow_id)
                    round_completed = True
                    if telemetry.enabled:
                        scheduler._emit_flow_finish(telemetry, flow, now)
                elif (
                    flow.rate <= 0.0
                    and flow.parked_seconds
                    >= scheduler.stall_timeout_seconds - _EPSILON_TIME
                ):
                    flow.failed = True
                    finish_times[flow.flow_id] = now
                    completed.append(flow.flow_id)
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
        flow_index = {flow.flow_id: flow for flow in self._flows}
        return [
            TransferResult(
                transfer=flow_index[flow_id].transfer,
                finish_time=finish_times[flow_id],
                failed=flow_index[flow_id].failed,
            )
            for flow_id in sorted(completed)
        ]

    def flush_telemetry(self) -> None:
        """Emit every pending coalesced link segment (call at drain)."""
        telemetry = instrument.current().telemetry
        if telemetry.enabled:
            self.scheduler._flush_link_samples(telemetry, self._pending_samples)

    def all_results(self) -> List[TransferResult]:
        """Results for every finished flow, in submission order."""
        return [
            TransferResult(
                transfer=flow.transfer,
                finish_time=self._finish_times[flow.flow_id],
                failed=flow.failed,
            )
            for flow in self._flows
            if flow.flow_id in self._finish_times
        ]


class TransferScheduler:
    """Simulates a batch of transfers over a :class:`WanTopology`.

    The scheduler is stateless across :meth:`simulate` calls; each call
    simulates an independent epoch starting at time zero.
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

        The batch event loop is a :class:`WanSession` run to drain.
        Admission walks an index cursor over the start-sorted flow list,
        so a batch of n flows admits in O(n) total instead of the O(n²)
        that popping the head of a list costs.
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
    # internals
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

    def _emit_flow_finish(self, telemetry, flow: _Flow, finish: float) -> None:
        """flow-finish telemetry, with achieved throughput over the flow."""
        start = self._effective_start(flow.transfer)
        seconds = finish - start
        throughput = flow.transfer.num_bytes / seconds if seconds > 0 else 0.0
        telemetry.emit(
            "flow-finish",
            t=finish,
            src=flow.transfer.src,
            dst=flow.transfer.dst,
            num_bytes=flow.transfer.num_bytes,
            tag=flow.transfer.tag,
            wan=flow.transfer.src != flow.transfer.dst,
            start=flow.transfer.start_time,
            seconds=seconds,
            throughput_bps=throughput,
            parked_seconds=flow.parked_seconds,
        )

    def _emit_round_samples(
        self,
        telemetry,
        sample: Dict[str, Any],
        now: float,
        horizon: float,
        site_multipliers: Dict[str, float],
        pending_samples: Dict[_Resource, List[float]],
    ) -> None:
        """Per-round link occupancy telemetry (telemetry-on path only).

        Consumes the aggregates :meth:`_assign_rates` collected for this
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
        the link goes idle, or the simulation drains
        (:meth:`_flush_link_samples`).  Also emits capacity-epoch events
        when a site's effective multiplier changes between rounds,
        flow-park at park-episode starts, and one flows-sample per round
        with occupancy counts.
        """
        parked = sample["parked"]
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
        capacities = sample["capacity"]
        residual = sample["residual"]
        users = sample["users"]
        end = now + horizon
        pending_get = pending_samples.get
        # Insertion order of the capacity map follows deterministic flow
        # order, so iteration needs no sort to stay reproducible.
        for resource, capacity in capacities.items():
            rate = capacity - residual[resource]
            flows_on = len(users[resource])
            segment = pending_get(resource)
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
            direction, site = resource
            # A multiplier change always changes capacity_bps, so epoch
            # detection only needs to run on segment breaks.
            multiplier = self._capacity_multiplier(site, now)
            if site_multipliers.get(site) != multiplier:
                site_multipliers[site] = multiplier
                telemetry.emit(
                    "capacity-epoch", t=now, site=site, multiplier=multiplier
                )
            if segment is not None:
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
            pending_samples[resource] = [
                now, end, rate * horizon, capacity, flows_on,
            ]
        if len(pending_samples) > len(capacities):
            idle = {
                resource: pending_samples.pop(resource)
                for resource in list(pending_samples)
                if resource not in capacities
            }
            self._flush_link_samples(telemetry, idle)
        telemetry.emit(
            "flows-sample",
            t=now,
            active=sample["wan"] - len(parked),
            parked=len(parked),
            lan=sample["lan"],
            dt=horizon,
        )

    @staticmethod
    def _flush_link_samples(
        telemetry, pending_samples: Dict[_Resource, List[float]]
    ) -> None:
        """Emit every pending coalesced link segment and clear the map."""
        for (direction, site), segment in pending_samples.items():
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
        pending_samples.clear()

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

    def _assign_rates(
        self,
        active: List[_Flow],
        now: float = 0.0,
        sample: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Max-min fair (progressive filling) rate assignment.

        When ``sample`` is passed — the telemetry-on path; the session
        seeds it with ``had_parked``, whether its previous round parked
        flows — it is filled with the per-resource aggregates link
        sampling needs: the original capacities, the residual capacities
        after filling (their difference is the carried rate, which
        water-filling leaves behind for free), per-resource flow-id
        sets, and the parked flows.  This keeps round sampling
        O(resources) instead of adding a second O(flows) pass per round;
        per-flow park bookkeeping only runs while a fault window is
        actually parking flows.
        """
        wan_flows = [flow for flow in active if flow.transfer.src != flow.transfer.dst]
        for flow in active:
            if flow.transfer.src == flow.transfer.dst:
                flow.rate = self.lan_bps
        if sample is not None:
            sample["wan"] = len(wan_flows)
            sample["lan"] = len(active) - len(wan_flows)
            sample["parked"] = []
        if not wan_flows:
            if sample is not None:
                sample["capacity"] = {}
                sample["residual"] = {}
                sample["users"] = {}
            return

        capacity: Dict[_Resource, float] = {}
        users: Dict[_Resource, Set[int]] = {}
        flow_resources: Dict[int, Tuple[_Resource, _Resource]] = {}
        for flow in wan_flows:
            up: _Resource = ("up", flow.transfer.src)
            down: _Resource = ("down", flow.transfer.dst)
            capacity.setdefault(
                up,
                self.topology.uplink(flow.transfer.src)
                * self._capacity_multiplier(flow.transfer.src, now),
            )
            capacity.setdefault(
                down,
                self.topology.downlink(flow.transfer.dst)
                * self._capacity_multiplier(flow.transfer.dst, now),
            )
            users.setdefault(up, set()).add(flow.flow_id)
            users.setdefault(down, set()).add(flow.flow_id)
            flow_resources[flow.flow_id] = (up, down)

        original_capacity = dict(capacity) if sample is not None else None
        unfrozen: Set[int] = {flow.flow_id for flow in wan_flows}
        rates: Dict[int, float] = {}
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
            frozen_now = users[bottleneck] & unfrozen
            for flow_id in frozen_now:
                rates[flow_id] = bottleneck_share
                unfrozen.discard(flow_id)
                for resource in flow_resources[flow_id]:
                    capacity[resource] = max(0.0, capacity[resource] - bottleneck_share)

        if sample is None:
            for flow in wan_flows:
                flow.rate = rates[flow.flow_id]
            return
        if parked_possible or sample["had_parked"]:
            # Fault-window path: track park episodes per flow.
            parked = sample["parked"]
            for flow in wan_flows:
                rate = rates[flow.flow_id]
                flow.rate = rate
                if rate <= 0.0:
                    parked.append(flow)
                elif flow.was_parked:
                    flow.was_parked = False
        else:
            for flow in wan_flows:
                flow.rate = rates[flow.flow_id]
        sample["capacity"] = original_capacity
        sample["residual"] = capacity
        sample["users"] = users

    def _next_event_horizon(
        self,
        active: List[_Flow],
        next_arrival: Optional[float],
        now: float,
        extra_bound: Optional[float] = None,
    ) -> float:
        """Time until the next completion, arrival, capacity change, or
        park-timeout expiry.

        Parked flows (rate zero under a fault blackout) contribute no
        completion event, but an upcoming capacity change point or a
        finite stall timeout still bounds the horizon; only when *none*
        of the four event sources lies ahead is the simulation genuinely
        stuck and the stall error raised.  ``extra_bound`` (a session's
        advance limit) caps the horizon and also rescues an otherwise
        stalled round — the session will simply stop at its limit.
        """
        horizon = math.inf
        parked = False
        for flow in active:
            if flow.rate > 0:
                horizon = min(horizon, flow.remaining / flow.rate)
            else:
                parked = True
                if not math.isinf(self.stall_timeout_seconds):
                    horizon = min(
                        horizon,
                        self.stall_timeout_seconds - flow.parked_seconds,
                    )
        if next_arrival is not None:
            horizon = min(horizon, max(next_arrival - now, 0.0))
        if parked or self.profiles or self.faults is not None:
            next_change = self._next_capacity_change(now)
            if next_change is not None:
                horizon = min(horizon, next_change - now)
        if extra_bound is not None:
            horizon = min(horizon, extra_bound)
        if math.isinf(horizon):
            raise TopologyError("transfer simulation stalled (all rates zero)")
        return max(horizon, _EPSILON_TIME)
