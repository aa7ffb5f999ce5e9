"""The serve event loop: admission, shared-clock execution, completion.

Four event sources drive one simulation clock:

1. **arrivals** from the open-loop load generator,
2. **flow completions** from the shared :class:`~repro.wan.transfer.
   WanSession` (every in-flight query's shuffle flows contend for the
   same max-min-fair capacity epochs),
3. **query finishes** (a job's reduce stage ends ``reduce_seconds``
   after its last inbound byte — a known absolute time the moment the
   last flow drains),
4. **data batches** (optional): at each scheduled batch time, every
   attached :class:`~repro.workloads.dynamic.DynamicDataFeed` applies its
   next batch to the served catalog and the cube cache drops that
   dataset's entries (``invalidate_dataset``) — a query arriving after
   the batch misses the cache instead of serving a stale cube.

Ties process finishes first, then batches, then arrivals, so a query
arriving exactly at a batch time sees the post-batch (invalidated)
cache.

At each event the scheduler sheds or queues new arrivals (consulting the
cube cache first), releases finished queries, and admits queued work
under weighted fair queueing — planning each admitted job with the
engine's plan/complete split at an absolute start offset gated by
per-site executor-slot availability, so map stages from different
queries also contend.

Everything is seed-deterministic: event times come from the simulator
and the seeded load generator, ties break on arrival index, and
completions are processed in flow-submission order, so two runs with the
same seed produce bit-identical reports (the CI serve-smoke gate).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.dynamic import DynamicDataFeed

from repro.core.controller import Controller
from repro.engine.job import JobResult, PlannedJob
from repro.errors import ServeError
from repro.obs import instrument
from repro.query.spec import RecurringQuery
from repro.serve.cache import CubeCache
from repro.serve.loadgen import Arrival, LoadGenerator
from repro.serve.spec import canonical_query_key
from repro.serve.tenants import Tenant, TenantScheduler
from repro.systems.base import SystemConfig
from repro.util.stats import mean, percentile
from repro.wan.topology import WanTopology
from repro.workloads.base import Workload

_EPSILON = 1e-9


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving run (all sim-deterministic)."""

    seed: int = 11
    num_tenants: int = 4
    num_queries: int = 40
    arrival_rate: float = 2.0  # aggregate queries per sim-second
    zipf_s: float = 1.1
    max_inflight: int = 8
    max_inflight_per_tenant: int = 4
    queue_depth: int = 16
    cache_capacity: int = 32
    cache_serve_seconds: float = 0.05  # fixed cost of a cube-cache answer
    #: Per-site concurrent map-stage slots; None = the site's executor
    #: count.  Lower it to sharpen cross-query compute contention.
    map_slots_per_site: Optional[int] = None
    #: Tenant weights, cycled over tenants (default: all 1.0).
    tenant_weights: Tuple[float, ...] = ()

    def tenant_list(self) -> List[Tenant]:
        if self.num_tenants < 1:
            raise ServeError("need at least one tenant")
        weights = self.tenant_weights or (1.0,)
        return [
            Tenant(
                name=f"tenant-{index:02d}",
                weight=float(weights[index % len(weights)]),
            )
            for index in range(self.num_tenants)
        ]


@dataclass
class ServedQuery:
    """One arrival's full lifecycle on the shared clock."""

    index: int
    tenant: str
    dataset_id: str
    arrival: float
    status: str = "queued"  # queued | executed | cached | shed
    admit: Optional[float] = None
    start: Optional[float] = None
    finish: Optional[float] = None
    wan_bytes: float = 0.0

    @property
    def qct(self) -> float:
        """Queueing-inclusive latency: arrival to finish."""
        if self.finish is None:
            return math.inf
        return self.finish - self.arrival

    @property
    def service_seconds(self) -> float:
        """Execution-only latency: admission to finish."""
        if self.finish is None or self.admit is None:
            return 0.0
        return self.finish - self.admit


@dataclass
class TenantReport:
    name: str
    weight: float
    offered: int = 0
    executed: int = 0
    cached: int = 0
    shed: int = 0
    mean_qct: float = 0.0

    @property
    def completed(self) -> int:
        return self.executed + self.cached


@dataclass
class ServeReport:
    """What a serving run produced, ready for CLI/bench/CI consumption."""

    config: ServeConfig
    scheme: str
    queries: List[ServedQuery] = field(default_factory=list)
    tenants: List[TenantReport] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    makespan: float = 0.0  # sim time the last query finished
    wall_seconds: float = 0.0  # excluded from digests by name

    @property
    def completed(self) -> List[ServedQuery]:
        return [q for q in self.queries if q.status in ("executed", "cached")]

    @property
    def shed(self) -> int:
        return sum(1 for q in self.queries if q.status == "shed")

    @property
    def executed(self) -> int:
        return sum(1 for q in self.queries if q.status == "executed")

    @property
    def latencies(self) -> List[float]:
        return [q.qct for q in self.completed]

    @property
    def p50_qct(self) -> float:
        return percentile(self.latencies, 50.0)

    @property
    def p99_qct(self) -> float:
        return percentile(self.latencies, 99.0)

    @property
    def mean_qct(self) -> float:
        return mean(self.latencies)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def total_wan_bytes(self) -> float:
        return sum(q.wan_bytes for q in self.queries)

    @property
    def fairness(self) -> float:
        """Jain's index over weight-normalized completed throughput.

        1.0 means every tenant that offered load got service exactly in
        proportion to its weight; 1/n means one tenant got everything.
        """
        shares = [
            report.completed / report.weight
            for report in self.tenants
            if report.offered > 0
        ]
        if not shares:
            return 1.0
        squared_sum = sum(shares) ** 2
        sum_squared = sum(share**2 for share in shares)
        if sum_squared <= 0.0:  # no tenant completed anything yet
            return 1.0
        return squared_sum / (len(shares) * sum_squared)

    def sim_digest(self) -> str:
        """Hash of every sim-clock observable (wall excluded).

        One line per query, ``index|tenant|dataset|status`` then arrival,
        admit, start, finish and WAN bytes as ``%.12e`` (``-`` for a
        time not reached), then the cache counters.  Each line is hashed
        as it is made: joining 5 000 lines first costs ~2 MiB of peak
        memory for no measurable speed.
        """
        digest = hashlib.sha256()
        for query in self.queries:
            admit, start, finish = query.admit, query.start, query.finish
            if finish is not None and admit is not None and start is not None:
                line = _DIGEST_LINE % (
                    query.index, query.tenant, query.dataset_id, query.status,
                    query.arrival, admit, start, finish, query.wan_bytes,
                )
            else:  # shed, or still queued or running
                line = "|".join([
                    str(query.index), query.tenant, query.dataset_id,
                    query.status, _canonical(query.arrival),
                    _canonical(admit), _canonical(start), _canonical(finish),
                    _canonical(query.wan_bytes),
                ]) + "\n"
            digest.update(line.encode())
        digest.update(
            f"cache|{self.cache_hits}|{self.cache_misses}|"
            f"{self.cache_evictions}".encode()
        )
        return digest.hexdigest()

    def latency_histogram(self, bins: int = 20) -> Dict[str, List[float]]:
        """Fixed-width latency histogram (the CI artifact payload)."""
        latencies = self.latencies
        if not latencies or bins < 1:
            return {"edges": [], "counts": []}
        top = max(latencies)
        width = top / bins if top > 0 else 1.0
        counts = [0] * bins
        for value in latencies:
            slot = min(int(value / width), bins - 1) if width > 0 else 0
            counts[slot] += 1
        edges = [width * index for index in range(bins + 1)]
        return {"edges": edges, "counts": counts}

    def to_dict(self) -> Dict:
        return {
            "scheme": self.scheme,
            "seed": self.config.seed,
            "tenants": [
                {
                    "name": report.name,
                    "weight": report.weight,
                    "offered": report.offered,
                    "executed": report.executed,
                    "cached": report.cached,
                    "shed": report.shed,
                    "mean_qct": report.mean_qct,
                }
                for report in self.tenants
            ],
            "queries": len(self.queries),
            "completed": len(self.completed),
            "executed": self.executed,
            "shed": self.shed,
            "p50_qct": self.p50_qct,
            "p99_qct": self.p99_qct,
            "mean_qct": self.mean_qct,
            "makespan": self.makespan,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "fairness": self.fairness,
            "total_wan_bytes": self.total_wan_bytes,
            "sim_digest": self.sim_digest(),
            "wall_seconds": self.wall_seconds,
        }


#: A ``sim_digest`` line of a finished query: ``%.12e`` is the text
#: ``_canonical`` gives a float.
_DIGEST_LINE = "%s|%s|%s|%s|%.12e|%.12e|%.12e|%.12e|%.12e\n"


def _canonical(value: Optional[float]) -> str:
    """Canonical float text for digests (matches telemetry_digest's idea)."""
    if value is None:
        return "-"
    return format(float(value), ".12e")


@dataclass
class _Running:
    """Book-keeping for one admitted, executing query."""

    arrival: Arrival
    tenant: str
    query: RecurringQuery
    planned: PlannedJob
    remaining_flows: int
    results: List = field(default_factory=list)
    job: Optional[JobResult] = None


class ServeScheduler:
    """Serves one workload to many tenants over one shared sim clock."""

    def __init__(
        self,
        controller: Controller,
        workload: Workload,
        config: ServeConfig = ServeConfig(),
        tenants: Optional[Sequence[Tenant]] = None,
        feeds: Optional[Dict[str, "DynamicDataFeed"]] = None,
        batch_times: Optional[Sequence[float]] = None,
    ) -> None:
        """``feeds`` maps dataset ids to dynamic data feeds; at each time
        in ``batch_times`` (sorted, sim seconds) every non-exhausted feed
        applies one batch and the cube cache invalidates that dataset.
        ``batch_times`` without ``feeds`` (or vice versa) is an error."""
        if not workload.queries:
            raise ServeError(f"workload {workload.name!r} has no queries")
        if bool(feeds) != bool(batch_times):
            raise ServeError("feeds and batch_times must be given together")
        self.controller = controller
        self.workload = workload
        self.config = config
        self._feeds = dict(feeds) if feeds else {}
        self._batch_times = sorted(batch_times) if batch_times else []
        self._batch_cursor = 0
        self.batches_applied = 0
        unknown = set(self._feeds) - set(workload.dataset_ids)
        if unknown:
            raise ServeError(
                f"feeds reference unknown datasets {sorted(unknown)}"
            )
        self.tenants = TenantScheduler(
            list(tenants) if tenants is not None else config.tenant_list(),
            max_inflight=config.max_inflight,
            max_inflight_per_tenant=config.max_inflight_per_tenant,
            queue_depth=config.queue_depth,
        )
        self.cache = CubeCache(config.cache_capacity)
        self.loadgen = LoadGenerator(
            config.seed,
            list(self.tenants.tenants),
            len(workload.queries),
            rate=config.arrival_rate,
            zipf_s=config.zipf_s,
        )
        topology: WanTopology = controller.topology
        self._slot_capacity = {
            site.name: (
                config.map_slots_per_site
                if config.map_slots_per_site is not None
                else site.executors
            )
            for site in topology
        }
        if any(cap < 1 for cap in self._slot_capacity.values()):
            raise ServeError("map_slots_per_site must be >= 1")
        self._site_busy: Dict[str, List[float]] = {
            name: [] for name in self._slot_capacity
        }

    # ------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Drive the event loop to completion; returns the report."""
        started_wall = time.perf_counter()  # lint: allow[R001]
        # One run's state; the event handlers below read it off self.
        self._engine = self.controller.engine
        self._session = session = self._engine.scheduler.session()
        self._records: Dict[int, ServedQuery] = {}
        self._running: Dict[int, _Running] = {}
        self._finish_heap: List[Tuple[float, int]] = []
        running, finish_heap = self._running, self._finish_heap
        arrivals = self.loadgen.generate(self.config.num_queries)
        cursor = 0
        clock = 0.0

        while cursor < len(arrivals) or running or self.tenants.queued:
            next_arrival = (
                arrivals[cursor].time if cursor < len(arrivals) else math.inf
            )
            next_finish = finish_heap[0][0] if finish_heap else math.inf
            next_batch = (
                self._batch_times[self._batch_cursor]
                if self._batch_cursor < len(self._batch_times)
                else math.inf
            )
            limit = min(next_arrival, next_finish, next_batch)
            if not session.drained:
                done = session.advance(limit=limit, stop_on_completion=True)
                if done:
                    clock = session.now
                    self._absorb_flows(done)
                    continue
            if math.isinf(limit):
                stuck = self.tenants.queued
                raise ServeError(
                    f"admission wedged: {stuck} queries queued with no "
                    "in-flight work and no arrivals left"
                )
            clock = max(clock, limit)
            # Tie order: finishes, then batches, then arrivals — a query
            # arriving at the batch instant sees the invalidated cache.
            if next_finish <= limit:
                self._drain_finishes(clock)
            elif next_batch <= limit:
                self._apply_batches(clock)
            else:
                while (
                    cursor < len(arrivals)
                    and arrivals[cursor].time <= clock + _EPSILON
                ):
                    self._arrive(arrivals[cursor])
                    cursor += 1
            self._admit(clock)

        session.flush_telemetry()
        report = self._build_report()
        report.wall_seconds = time.perf_counter() - started_wall  # lint: allow[R001]
        return report

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _arrive(self, arrival: Arrival) -> None:
        """Cache-check, then queue or shed one offered query."""
        query = self.workload.queries[arrival.query_index]
        record = ServedQuery(
            index=arrival.index,
            tenant=arrival.tenant,
            dataset_id=query.spec.dataset_id,
            arrival=arrival.time,
        )
        self._records[arrival.index] = record
        telemetry = instrument.current().telemetry
        key = canonical_query_key(query.spec)
        entry = self.cache.lookup(key, arrival.time)
        if entry is not None:
            record.status = "cached"
            record.admit = arrival.time
            record.start = arrival.time
            record.finish = arrival.time + self.config.cache_serve_seconds
            if telemetry.enabled:
                telemetry.emit(
                    "serve-finish",
                    t=record.finish,
                    tenant=record.tenant,
                    query=arrival.index,
                    dataset=record.dataset_id,
                    qct=record.qct,
                    cached=True,
                )
            return
        if not self.tenants.enqueue(arrival.tenant, arrival):
            record.status = "shed"
            if telemetry.enabled:
                telemetry.emit(
                    "serve-shed",
                    t=arrival.time,
                    tenant=record.tenant,
                    query=arrival.index,
                    dataset=record.dataset_id,
                    queue_depth=self.config.queue_depth,
                )
            return
        if telemetry.enabled:
            telemetry.emit(
                "serve-queue",
                t=arrival.time,
                tenant=record.tenant,
                query=arrival.index,
                dataset=record.dataset_id,
                depth=len(self.tenants[record.tenant].queue),
            )
            # Explicit admission-wait marker (schema v3): the queue wait
            # starts here; serve-admit closes it with queue_seconds.
            telemetry.emit(
                "queue-enter",
                t=arrival.time,
                tenant=record.tenant,
                query=arrival.index,
                position=len(self.tenants[record.tenant].queue),
                queued_total=self.tenants.queued,
            )

    def _admit(self, clock: float) -> None:
        """Admit queued queries under WFQ until a cap binds."""
        telemetry = instrument.current().telemetry
        engine = self._engine
        while True:
            picked = self.tenants.next_admission()
            if picked is None:
                return
            tenant, arrival = picked
            query = self.workload.queries[arrival.query_index]
            record = self._records[arrival.index]
            start = self._slot_start(clock)
            job_spec = self.controller.compile(self.workload, query.spec)
            task_map, dead_sites = engine.resolve_routing(
                self.controller.reduce_fractions, job_spec.num_reduce_tasks
            )
            planned = engine.plan_job(
                self.workload.catalog.get(query.spec.dataset_id),
                job_spec,
                task_map,
                dead_sites=dead_sites,
                cube_sorted=self.controller.profile.uses_cubes,
                tag=f"q{arrival.index}",
                start_offset=start,
            )
            self._occupy_slots(start, planned)
            record.status = "executing"
            record.admit = clock
            record.start = start
            if telemetry.enabled:
                telemetry.emit(
                    "serve-admit",
                    t=clock,
                    tenant=tenant.name,
                    query=arrival.index,
                    dataset=record.dataset_id,
                    queue_seconds=clock - arrival.time,
                )
                # Explicit slot-wait marker (schema v3): how long the
                # admitted query sat waiting for a free map slot.
                telemetry.emit(
                    "slot-wait",
                    t=clock,
                    tenant=tenant.name,
                    query=arrival.index,
                    seconds=start - clock,
                    start=start,
                )
                telemetry.emit(
                    "serve-start",
                    t=start,
                    tenant=tenant.name,
                    query=arrival.index,
                    dataset=record.dataset_id,
                    slot_wait_seconds=start - clock,
                )
            entry = _Running(
                arrival=arrival,
                tenant=tenant.name,
                query=query,
                planned=planned,
                remaining_flows=len(planned.transfers),
            )
            self._running[arrival.index] = entry
            if planned.transfers:
                self._session.submit(planned.transfers)
            else:
                # No shuffle at all: the finish time is known right away.
                entry.job = engine.complete_job(planned, [])
                heapq.heappush(
                    self._finish_heap, (entry.job.qct, arrival.index)
                )

    def _absorb_flows(self, done) -> None:
        """Route completed WAN flows to their queries; finish drained jobs."""
        for result in done:
            index = int(result.transfer.tag[1:])
            entry = self._running[index]
            entry.results.append(result)
            entry.remaining_flows -= 1
            if entry.remaining_flows == 0:
                entry.job = self._engine.complete_job(
                    entry.planned, entry.results
                )
                heapq.heappush(self._finish_heap, (entry.job.qct, index))

    def _drain_finishes(self, clock: float) -> None:
        """Retire every query whose reduce stage ended by ``clock``."""
        telemetry = instrument.current().telemetry
        finish_heap = self._finish_heap
        while finish_heap and finish_heap[0][0] <= clock + _EPSILON:
            finish, index = heapq.heappop(finish_heap)
            entry = self._running.pop(index)
            record = self._records[index]
            record.status = "executed"
            record.finish = finish
            record.wan_bytes = entry.job.total_wan_bytes
            self.tenants.release(entry.tenant)
            # Deterministic completion order: the recurrence counter
            # advances exactly as queries finish.
            entry.query.record_execution()
            self.cache.insert(
                canonical_query_key(entry.query.spec),
                now=finish,
                service_seconds=record.service_seconds,
                wan_bytes=entry.job.total_wan_bytes,
            )
            if telemetry.enabled:
                telemetry.emit(
                    "serve-finish",
                    t=finish,
                    tenant=record.tenant,
                    query=index,
                    dataset=record.dataset_id,
                    qct=record.qct,
                    cached=False,
                )

    def _apply_batches(self, clock: float) -> None:
        """Land one scheduled data batch per feed; invalidate its cubes.

        Every cached slice of a grown dataset is stale the moment the
        batch lands, so the cache drops them — the next arrival for that
        dataset misses and recomputes against the grown shards.
        """
        telemetry = instrument.current().telemetry
        self._batch_cursor += 1
        for dataset_id, feed in self._feeds.items():
            if feed.exhausted:
                continue
            dataset = self.workload.catalog.get(dataset_id)
            feed.apply_next_batch(dataset)
            self.batches_applied += 1
            invalidated = self.cache.invalidate_dataset(dataset_id, clock)
            if telemetry.enabled:
                telemetry.emit(
                    "serve-batch",
                    t=clock,
                    dataset=dataset_id,
                    batch=feed.applied_batches,
                    invalidated=invalidated,
                )

    # ------------------------------------------------------------------
    # executor-slot gating
    # ------------------------------------------------------------------

    def _slot_start(self, clock: float) -> float:
        """Earliest time every site has a free map slot (>= ``clock``)."""
        start = clock
        for site, busy in self._site_busy.items():
            still_busy = [until for until in busy if until > clock + _EPSILON]
            self._site_busy[site] = still_busy
            capacity = self._slot_capacity[site]
            if len(still_busy) >= capacity:
                ordered = sorted(still_busy)
                start = max(start, ordered[len(ordered) - capacity])
        return start

    def _occupy_slots(self, start: float, planned: PlannedJob) -> None:
        """Hold one slot per site for the query's map interval."""
        for site, metrics in planned.per_site.items():
            if metrics.excluded or metrics.map_finish <= start + _EPSILON:
                continue
            busy = [
                until
                for until in self._site_busy[site]
                if until > start + _EPSILON
            ]
            busy.append(metrics.map_finish)
            self._site_busy[site] = busy

    # ------------------------------------------------------------------

    def _build_report(self) -> ServeReport:
        records = self._records
        queries = [records[index] for index in sorted(records)]
        makespan = max(
            (q.finish for q in queries if q.finish is not None), default=0.0
        )
        tenant_reports = []
        for tenant in self.tenants.tenants.values():
            own = [q for q in queries if q.tenant == tenant.name]
            done = [q for q in own if q.status in ("executed", "cached")]
            tenant_reports.append(
                TenantReport(
                    name=tenant.name,
                    weight=tenant.weight,
                    offered=len(own),
                    executed=sum(1 for q in own if q.status == "executed"),
                    cached=sum(1 for q in own if q.status == "cached"),
                    shed=sum(1 for q in own if q.status == "shed"),
                    mean_qct=mean(q.qct for q in done),
                )
            )
        return ServeReport(
            config=self.config,
            scheme=self.controller.profile.name,
            queries=queries,
            tenants=tenant_reports,
            cache_hits=self.cache.stats.hits,
            cache_misses=self.cache.stats.misses,
            cache_evictions=self.cache.stats.evictions,
            makespan=makespan,
        )


def serve_workload(
    scheme: str,
    workload_factory,
    topology: WanTopology,
    system_config: Optional[SystemConfig] = None,
    serve_config: ServeConfig = ServeConfig(),
) -> ServeReport:
    """Prepare a scheme and serve a Zipf workload against it."""
    from repro.systems.registry import make_system

    controller = make_system(scheme, topology, system_config or SystemConfig())
    workload = workload_factory()
    controller.prepare(workload)
    scheduler = ServeScheduler(controller, workload, serve_config)
    return scheduler.run()
