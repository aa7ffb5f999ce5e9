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
network: the clock, the flows, the progressive-filling rounds and the
telemetry coalescing state.  Its in-flight state is columnar — parallel
lists of flow, ``(src, dst)`` pair id, bytes left and seconds parked —
and a round water-fills over the distinct *pairs* (flows of one pair
share both links, hence one rate) — each freeze iteration touches only
the pairs crossing its bottleneck and, per pair, the one other link —
then moves the flows in whole-column passes.  Every driver (batch
``simulate()``, data movement, chaos retries, the serve event loop) is a
session; ``simulate()`` is one run to drain.
"""

from __future__ import annotations

import math
from collections import _count_elements
from dataclasses import dataclass
from operator import truediv
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.obs import instrument
from repro.wan.topology import WanTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.schedule import FaultSchedule

#: Link key: ("up"|"down", site_name).
_Resource = Tuple[str, str]
#: What a sampled filling round hands to link telemetry: the WAN flow
#: count, the link ids in use, then by link id the capacities before and
#: after filling and the flow counts, and whether a share was zero.
_RoundSample = Tuple[int, List[int], List[float], List[float], List[int], bool]

_EPSILON_BYTES = 1e-6
_EPSILON_TIME = 1e-12


class _TransferFields(NamedTuple):
    src: str
    dst: str
    num_bytes: float
    start_time: float = 0.0
    tag: str = ""


class Transfer(_TransferFields):
    """A single point-to-point data transfer request.

    An immutable tuple: a frozen dataclass sets every field through
    ``object.__setattr__``, and a session builds one of these (and one
    :class:`TransferResult`) per flow.
    """

    __slots__ = ()

    def __new__(
        cls, src: str, dst: str, num_bytes: float,
        start_time: float = 0.0, tag: str = "",
    ) -> "Transfer":
        # Chained ranges reject NaN (every comparison is False) and inf.
        if not 0.0 <= num_bytes < math.inf:
            raise TopologyError(
                f"transfer {src}->{dst}: num_bytes must be finite "
                f"and >= 0, got {num_bytes}"
            )
        if not 0.0 <= start_time < math.inf:
            raise TopologyError(
                f"transfer {src}->{dst}: start_time must be finite "
                f"and >= 0, got {start_time}"
            )
        return tuple.__new__(cls, (src, dst, num_bytes, start_time, tag))


class TransferResult(NamedTuple):
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


@dataclass(slots=True)
class _Flow:
    """One submitted transfer and what the run learns about it (bytes
    left and seconds parked are session columns while it is in flight)."""

    flow_id: int
    transfer: Transfer
    #: When data starts landing: the requested start plus WAN propagation.
    start: float
    #: Interned ``(src, dst)`` id; 0 for an intra-site hop.
    pair: int
    failed: bool = False
    #: Completion (or abandonment) time; None while pending or in flight.
    finish: Optional[float] = None
    #: Telemetry-only: whether the last round left this flow parked, so
    #: flow-park events mark episode starts rather than every round.
    was_parked: bool = False

    def result(self) -> TransferResult:
        return TransferResult(self.transfer, self.finish, self.failed)


class WanSession:
    """One WAN run: the clock, the flows and the filling rounds.

    All run state lives here; the session asks its
    :class:`TransferScheduler` only for configuration and the capacity
    oracle.  A session stays open, so *independent queries* can keep
    injecting flows while earlier flows are still in flight — the
    substrate of the concurrent serving layer (:mod:`repro.serve`).
    Flows from every submitter contend for the same uplink/downlink
    capacity epochs under one max-min fair filling;
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

    Flow ids are dense (``self._flows[flow_id]`` is the flow), the
    in-flight columns are parallel lists in admission order, and pairs
    and links are interned to small ints at submission: a round indexes
    lists — it hashes no tuple and walks no finished flow.
    """

    def __init__(self, scheduler: "TransferScheduler") -> None:
        self.scheduler = scheduler
        self.now = 0.0
        self.filling_rounds = 0
        self.parked_seconds = 0.0
        self._pending: List[_Flow] = []
        self._head = 0
        self._flows: List[_Flow] = []
        self._active: List[_Flow] = []
        self._pairs: List[int] = []
        self._remaining: List[float] = []
        self._parked: List[float] = []
        # Interning tables; pair 0 is "intra-site": no links, LAN rate.
        self._pair_ids: Dict[Tuple[str, str], int] = {}
        self._pair_links: List[Tuple[int, ...]] = [()]
        self._link_ids: Dict[_Resource, int] = {}
        self._links: List[_Resource] = []
        # Without profiles or faults a link carries its nominal rate for
        # the whole run: read it once, when the link is interned.
        self._static = not scheduler.profiles and scheduler.faults is None
        self._static_capacity: List[float] = []
        # A static session's last fill, ``(rate by pair, sample)``: reused
        # until a WAN flow joins or leaves (see _assign_rates).
        self._fill: Optional[Tuple[Dict[int, float], Optional[_RoundSample]]] = None
        self._last_now = 0.0
        # Telemetry coalescing state (see _emit_round_samples).
        self._site_multipliers: Dict[str, float] = {}
        self._pending_samples: Dict[int, List[float]] = {}
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
                start=scheduler._effective_start(transfer),
                pair=self._pair_id(transfer.src, transfer.dst),
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

    def _pair_id(self, src: str, dst: str) -> int:
        """Intern ``(src, dst)`` and its two links; 0 when intra-site."""
        if src == dst:
            return 0
        pair = self._pair_ids.get((src, dst))
        if pair is None:
            pair = self._pair_ids[(src, dst)] = len(self._pair_links)
            self._pair_links.append(
                (self._link_id("up", src), self._link_id("down", dst))
            )
        return pair

    def _link_id(self, direction: str, site: str) -> int:
        link = self._link_ids.get((direction, site))
        if link is None:
            link = self._link_ids[(direction, site)] = len(self._links)
            self._links.append((direction, site))
            if self._static:
                self._static_capacity.append(
                    self.scheduler.effective_bps(site, direction, 0.0)
                )
        return link

    def advance(
        self, limit: float = math.inf, stop_on_completion: bool = True
    ) -> List[TransferResult]:
        """Run filling rounds until ``limit``, a completion, or drain.

        Returns the flows that finished (or failed their stall attempt)
        during this call, in submission order.  The session clock ends at
        ``min(limit, drain time)`` unless a completion stopped it first.

        A round assigns one rate per pair (:meth:`_assign_rates`) and
        moves the flows in whole-column passes: rates by pair, earliest
        completion, bytes left.  When every rate is positive — every
        round outside a fault window — those three C-level passes are
        all, and the completion scan runs only if a flow came within
        ``_EPSILON_BYTES`` of done.  A parked flow (rate zero) instead
        bounds the horizon by what is left of its stall timeout, accrues
        the horizon (onto ``parked_seconds`` once per parked flow, in
        flow order: float sums are order sensitive) and fails once
        parked ``stall_timeout_seconds``.
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
                    telemetry.record("flow-start", now, {
                        "src": flow.transfer.src,
                        "dst": flow.transfer.dst,
                        "num_bytes": flow.transfer.num_bytes,
                        "tag": flow.transfer.tag,
                        "wan": flow.pair != 0,
                    })
                if flow.transfer.num_bytes <= _EPSILON_BYTES:
                    flow.finish = max(now, flow.start)
                    completed.append(flow)
                    if telemetry.enabled:
                        self._emit_flow_end(telemetry, flow, 0.0)
                else:
                    if flow.pair:
                        self._fill = None
                    active.append(flow)
                    self._pairs.append(flow.pair)
                    self._remaining.append(flow.transfer.num_bytes)
                    self._parked.append(0.0)
            if not active:
                if completed and stop_on_completion:
                    break
                continue
            if now >= limit - _EPSILON_TIME:
                break

            rates, sample = self._assign_rates(now, telemetry.enabled)
            self.filling_rounds += 1
            remaining = self._remaining
            parked = self._parked
            moving = min(rates) > 0.0
            if moving:
                next_finish = min(map(truediv, remaining, rates))
            else:
                next_finish = min(
                    left / rate if rate > 0 else stall_timeout - idle
                    for left, rate, idle in zip(remaining, rates, parked)
                )
            horizon = self._next_event_horizon(now, limit, next_finish)
            if sample is not None:
                self._emit_round_samples(telemetry, now, horizon, rates, sample)
            # A parked flow's rate is exactly zero, so this leaves its bytes.
            self._remaining = remaining = [
                left - rate * horizon for left, rate in zip(remaining, rates)
            ]
            if not moving:
                for index, rate in enumerate(rates):
                    if rate <= 0:
                        parked[index] += horizon
                        self.parked_seconds += horizon
            now += horizon
            self.now = now
            if sanitizer.enabled:
                sanitizer.check_clock(self._last_now, now, where="wan-filling")
            self._last_now = now
            if moving and min(remaining) > _EPSILON_BYTES:
                continue

            # Some flow is done, or a parked one may have timed out.
            if moving:
                done = [
                    index
                    for index, left in enumerate(remaining)
                    if left <= _EPSILON_BYTES
                ]
            else:
                expired = stall_timeout - _EPSILON_TIME
                done = [
                    index
                    for index, left in enumerate(remaining)
                    if left <= _EPSILON_BYTES
                    or (rates[index] <= 0.0 and parked[index] >= expired)
                ]
            for index in done:
                flow = active[index]
                if flow.pair:
                    self._fill = None
                flow.failed = remaining[index] > _EPSILON_BYTES
                flow.finish = now
                completed.append(flow)
                if telemetry.enabled:
                    self._emit_flow_end(telemetry, flow, parked[index])
            for index in reversed(done):  # few per round: cut them out
                for column in (active, self._pairs, remaining, parked):
                    del column[index]
            if done and stop_on_completion:
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
            for link, segment in self._pending_samples.items():
                self._emit_link_sample(telemetry, link, segment)
            self._pending_samples.clear()

    def all_results(self) -> List[TransferResult]:
        """Results for every finished flow, in submission order."""
        return [flow.result() for flow in self._flows if flow.finish is not None]

    # ------------------------------------------------------------------
    # one filling round
    # ------------------------------------------------------------------

    def _assign_rates(
        self, now: float, sampling: bool
    ) -> Tuple[List[float], Optional[_RoundSample]]:
        """Max-min fair (progressive filling) rates, one per in-flight flow.

        Flows of one ``(src, dst)`` pair cross the same two links and
        freeze together at one share, so the round fills *pair classes*.
        One C pass (``_count_elements``, what ``Counter`` calls) counts
        them; its insertion order is the pairs' first appearance among
        the flows, and the pass over it lists the links in the order a
        flow-by-flow scan first meets them (``order`` — the order that
        breaks ties between equally shared links), each link's crossing
        pairs, and its live flow count (lists indexed by link id).

        An iteration scans the links that still have unfrozen pairs, in
        ``order``, for the least ``capacity / live``, and freezes the
        unfrozen pairs crossing that bottleneck.  Each is the only one of
        them on its other link (two pairs sharing both links are one
        pair), so it takes its share off that link ``count`` times, one
        subtraction after another, and is clamped at zero once: the share
        is >= 0, so a running difference that reaches zero stays there and
        one clamp at the end is a clamp at every step.  Never ``count * share``, which rounds
        differently from the flow-by-flow fill this replaces (the oracle
        in ``tests/wan/reference_fill.py``) and would move every later
        share.  No later iteration reads the bottleneck's own residual,
        so it is folded only when ``sampling`` asks for it; links whose
        last pair froze leave the scan, which keeps its order.

        On a static session the fill is a pure function of the ordered
        WAN pair counts, and intra-site flows (pair 0) are popped before
        it: a round after only a LAN flow joined or left, or after a
        ``limit`` stop, repeats the previous fill exactly (748 of the
        5 124 rounds of a perfbench ``serve-contended`` unit).  So the
        last rate by pair and sample are kept (``self._fill``) until
        :meth:`advance` admits or cuts out a WAN flow; only the rates by
        flow are read again.  Every other round changes the WAN flow
        set, so a persistent link → flows index would have almost
        nothing to skip.

        When ``sampling`` (telemetry on) the second result is what link
        sampling needs, all O(links): capacities before filling and
        residuals after (their difference, the carried rate, comes for
        free), flows per link, and whether some share was zero — only
        then can a flow have parked.
        """
        pairs = self._pairs
        fill = self._fill
        if fill is not None and (fill[1] is not None or not sampling):
            pair_rate, sample = fill
            return [pair_rate[pair] for pair in pairs], sample if sampling else None
        pair_links = self._pair_links
        counts: Dict[int, int] = {}
        _count_elements(counts, pairs)
        wan = len(pairs) - counts.pop(0, 0)
        live = [0] * len(self._links)
        # By link in use: (pair, the pair's other link, its flow count)
        # for every pair crossing it, in first-appearance order.
        crossing: List[List[Tuple[int, int, int]]]
        crossing = [None] * len(live)  # type: ignore[list-item]
        order: List[int] = []
        for pair, count in counts.items():
            up, down = pair_links[pair]
            if live[up]:
                crossing[up].append((pair, down, count))
            else:
                order.append(up)
                crossing[up] = [(pair, down, count)]
            live[up] += count
            if live[down]:
                crossing[down].append((pair, up, count))
            else:
                order.append(down)
                crossing[down] = [(pair, up, count)]
            live[down] += count
        if self._static:
            capacity = self._static_capacity[:]
        else:
            effective_bps = self.scheduler.effective_bps
            capacity = [0.0] * len(live)
            for link in order:
                direction, site = self._links[link]
                capacity[link] = effective_bps(site, direction, now)
        if sampling:
            # The fill writes ``capacity`` only, never the static list.
            original_capacity = self._static_capacity if self._static else capacity[:]
            users = live[:]

        pair_rate = {0: self.scheduler.lan_bps}
        parked_possible = False
        unfrozen = wan
        scan = order[:]  # the links with unfrozen pairs, in tie order
        while unfrozen:
            bottleneck = -1
            bottleneck_share = math.inf
            for link in scan:
                share = capacity[link] / live[link]
                if share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck = link
            assert bottleneck >= 0
            scan.remove(bottleneck)
            if bottleneck_share <= 0.0:
                parked_possible = True
            for pair, other, count in crossing[bottleneck]:
                if not live[other]:
                    continue  # frozen when ``other`` was the bottleneck
                pair_rate[pair] = bottleneck_share
                # The fold, written out for the one or two flows most
                # pairs hold (no loop to set up).
                if count == 1:
                    left = capacity[other] - bottleneck_share
                elif count == 2:
                    left = capacity[other] - bottleneck_share - bottleneck_share
                else:
                    left = capacity[other]
                    for _ in range(count):
                        left -= bottleneck_share
                capacity[other] = left if left > 0.0 else 0.0
                users_left = live[other] - count
                live[other] = users_left
                if not users_left:
                    scan.remove(other)
            frozen = live[bottleneck]
            if sampling:
                left = capacity[bottleneck]
                for _ in range(frozen):
                    left -= bottleneck_share
                capacity[bottleneck] = left if left > 0.0 else 0.0
            live[bottleneck] = 0
            unfrozen -= frozen

        rates = [pair_rate[pair] for pair in pairs]
        sample = (
            (wan, order, original_capacity, capacity, users, parked_possible)
            if sampling else None
        )
        if self._static:
            self._fill = (pair_rate, sample)
        return rates, sample

    def _next_event_horizon(self, now: float, limit: float, horizon: float) -> float:
        """Time until the next completion or park-timeout expiry (the
        ``horizon`` the flow columns gave), arrival, capacity change, or
        the caller's ``limit``.

        Parked flows (rate zero under a fault blackout) contribute no
        completion event, but an upcoming capacity change point or a
        finite stall timeout still bounds the horizon; only when *none*
        of the event sources lies ahead is the simulation genuinely
        stuck and the stall error raised.  A finite ``limit`` also
        rescues a stalled round — the session simply stops there.
        """
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

    def _emit_flow_end(self, telemetry, flow: _Flow, parked_seconds: float) -> None:
        """flow-fail, or flow-finish with the throughput achieved."""
        transfer = flow.transfer
        if flow.failed:
            telemetry.record("flow-fail", flow.finish, {
                "src": transfer.src,
                "dst": transfer.dst,
                "num_bytes": transfer.num_bytes,
                "tag": transfer.tag,
                "start": transfer.start_time,
                "parked_seconds": parked_seconds,
            })
            return
        seconds = flow.finish - flow.start
        telemetry.record("flow-finish", flow.finish, {
            "wan": flow.pair != 0,
            "seconds": seconds,
            "throughput_bps": transfer.num_bytes / seconds if seconds > 0 else 0.0,
            "src": transfer.src,
            "dst": transfer.dst,
            "num_bytes": transfer.num_bytes,
            "tag": transfer.tag,
            "start": transfer.start_time,
            "parked_seconds": parked_seconds,
        })

    def _emit_link_sample(self, telemetry, link: int, segment: List[float]) -> None:
        """One coalesced ``[start, end, bytes, capacity_bps, flows]`` segment."""
        direction, site = self._links[link]
        duration = segment[1] - segment[0]
        telemetry.record("link-sample", segment[0], {
            "site": site,
            "direction": direction,
            "used_bps": segment[2] / duration if duration > 0 else 0.0,
            "capacity_bps": segment[3],
            "flows": int(segment[4]),
            "dt": duration,
        })

    def _emit_round_samples(
        self, telemetry, now: float, horizon: float,
        rates: List[float], sample: _RoundSample,
    ) -> None:
        """Per-round link occupancy telemetry (telemetry-on path only).

        Consumes the aggregates :meth:`_assign_rates` returned for this
        round, so the per-round cost is O(links in use).  Link samples
        are coalesced: contiguous rounds in which a link keeps the same
        capacity and flow count extend one pending ``[start, end, bytes,
        capacity_bps, flows]`` segment (accumulating the bytes carried)
        instead of emitting per round.  A segment is flushed as a single
        link-sample whose ``used_bps`` is the byte-weighted mean rate
        over the segment — so ``used_bps`` × ``dt`` still integrates to
        the bytes the link actually carried, and utilization series
        reconcile with the sanitizer's byte conservation — when the
        link's capacity or flow count changes, the link goes idle, a
        submission arrives, or the caller flushes at drain
        (:meth:`flush_telemetry`).  Also emits capacity-epoch events
        when a site's effective multiplier changes between rounds,
        flow-park at park-episode starts (tracked per flow only while a
        fault window is parking flows), and one flows-sample per round
        with occupancy counts.
        """
        wan, order, capacities, residual, users, parked_possible = sample
        parked = 0
        if parked_possible or self._had_parked:
            # Fault-window path: track park episodes per flow.
            for flow, rate, left in zip(self._active, rates, self._remaining):
                if rate > 0.0:
                    flow.was_parked = False
                    continue
                parked += 1
                if not flow.was_parked:
                    flow.was_parked = True
                    telemetry.record("flow-park", now, {
                        "src": flow.transfer.src,
                        "dst": flow.transfer.dst,
                        "tag": flow.transfer.tag,
                        "remaining_bytes": left,
                    })
        self._had_parked = parked > 0
        end = now + horizon
        pending_samples = self._pending_samples
        multipliers = self._site_multipliers
        # A static session's multiplier is 1.0 throughout: its one epoch
        # per site fires at the site's first segment.
        static = self._static
        # ``order`` follows flow order, so no sort is needed to reproduce.
        for link in order:
            capacity = capacities[link]
            rate = capacity - residual[link]
            flows_on = users[link]
            segment = pending_samples.get(link)
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
            site = self._links[link][1]
            # A multiplier change always changes capacity_bps, so epoch
            # detection only needs to run on segment breaks.
            multiplier = (
                1.0 if static else self.scheduler._capacity_multiplier(site, now)
            )
            if multipliers.get(site) != multiplier:
                multipliers[site] = multiplier
                telemetry.record(
                    "capacity-epoch", now, {"site": site, "multiplier": multiplier}
                )
            if segment is not None:
                self._emit_link_sample(telemetry, link, segment)
            pending_samples[link] = [
                now, end, rate * horizon, capacity, flows_on,
            ]
        if len(pending_samples) > len(order):
            for link in [idle for idle in pending_samples if not users[idle]]:
                self._emit_link_sample(telemetry, link, pending_samples.pop(link))
        telemetry.record("flows-sample", now, {
            "active": wan - parked,
            "parked": parked,
            "lan": len(self._active) - wan,
            "dt": horizon,
        })


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
        # Only the stall timeout may be infinite (its default: park
        # forever); NaN fails every one of these ranges.
        if not 0.0 < lan_bps < math.inf:
            raise TopologyError(f"lan_bps must be finite and > 0, got {lan_bps}")
        if not 0.0 <= propagation_seconds < math.inf:
            raise TopologyError(
                f"propagation_seconds must be finite and >= 0, "
                f"got {propagation_seconds}"
            )
        if not stall_timeout_seconds > 0.0:
            raise TopologyError(
                f"stall_timeout_seconds must be > 0, got {stall_timeout_seconds}"
            )
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
        if not self.profiles and self.faults is None:
            return None
        upcoming = [
            profile.next_change_after(now)  # type: ignore[attr-defined]
            for profile in self.profiles.values()
        ]
        if self.faults is not None:
            upcoming.append(self.faults.next_change_after(now))
        return min((epoch for epoch in upcoming if epoch is not None), default=None)
