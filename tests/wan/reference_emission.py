"""The WAN session's telemetry emitters as they were before they got leaner.

Kept verbatim as the oracle for ``WanSession._emit_round_samples``,
``_emit_link_sample`` and ``_emit_flow_end``: the scheduler's capacity
multiplier asked at every segment break, static session or not, each
flow end's attributes built as a dict and splatted into ``emit``, and
every event handed to ``emit`` as keywords.  (``advance`` is shared:
its flow-start events are held by ``tests/wan/golden/session_events.json``.)
:class:`ReferenceEmissionSession` is a :class:`~repro.wan.transfer.
WanSession` with these three put back; ``tests/properties/
test_wan_emission.py`` holds the production event stream to its, event
for event.
"""

from typing import List

from repro.wan.transfer import WanSession, _Flow, _RoundSample


class ReferenceEmissionSession(WanSession):
    """A session that emits telemetry through the methods below."""

    def _emit_flow_end(self, telemetry, flow: _Flow, parked_seconds: float) -> None:
        """flow-fail, or flow-finish with the throughput achieved."""
        transfer = flow.transfer
        attrs = dict(
            src=transfer.src,
            dst=transfer.dst,
            num_bytes=transfer.num_bytes,
            tag=transfer.tag,
            start=transfer.start_time,
            parked_seconds=parked_seconds,
        )
        if flow.failed:
            telemetry.emit("flow-fail", t=flow.finish, **attrs)
            return
        seconds = flow.finish - flow.start
        telemetry.emit(
            "flow-finish",
            t=flow.finish,
            wan=flow.pair != 0,
            seconds=seconds,
            throughput_bps=transfer.num_bytes / seconds if seconds > 0 else 0.0,
            **attrs,
        )

    def _emit_link_sample(self, telemetry, link: int, segment: List[float]) -> None:
        """One coalesced ``[start, end, bytes, capacity_bps, flows]`` segment."""
        direction, site = self._links[link]
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
                    telemetry.emit(
                        "flow-park",
                        t=now,
                        src=flow.transfer.src,
                        dst=flow.transfer.dst,
                        tag=flow.transfer.tag,
                        remaining_bytes=left,
                    )
        self._had_parked = parked > 0
        end = now + horizon
        pending_samples = self._pending_samples
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
            multiplier = self.scheduler._capacity_multiplier(site, now)
            if self._site_multipliers.get(site) != multiplier:
                self._site_multipliers[site] = multiplier
                telemetry.emit(
                    "capacity-epoch", t=now, site=site, multiplier=multiplier
                )
            if segment is not None:
                self._emit_link_sample(telemetry, link, segment)
            pending_samples[link] = [
                now, end, rate * horizon, capacity, flows_on,
            ]
        if len(pending_samples) > len(order):
            for link in [idle for idle in pending_samples if not users[idle]]:
                self._emit_link_sample(telemetry, link, pending_samples.pop(link))
        telemetry.emit(
            "flows-sample",
            t=now,
            active=wan - parked,
            parked=parked,
            lan=len(self._active) - wan,
            dt=horizon,
        )
