"""End-to-end map-reduce job execution over geo-distributed shards.

Order of events per job (matching §2.1's stage structure):

1. every site chunks its shard into RDD partitions, deals them to
   machines, assigns partitions to executors (round-robin or
   similarity-aware), and runs map + combine — compute time is the
   busiest executor's bytes over the site's per-executor compute rate,
   plus any RDD-similarity-checking overhead;
2. each combined record routes to a reduce task, hence a site; all
   cross-site intermediate data is simulated as concurrent WAN transfers
   with max-min fair sharing, starting when the source site's map stage
   finishes;
3. a site's reduce work starts when its last inbound byte lands; QCT is
   the latest site finish time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.engine.assignment import assign_partitions
from repro.engine.combiner import CombinedOutput, combine
from repro.engine.rdd import make_partitions, round_robin
from repro.engine.shuffle import ReduceTaskMap
from repro.engine.spec import MapReduceSpec
from repro.errors import EngineError
from repro.obs import instrument
from repro.similarity.dimsum import DimsumConfig
from repro.types import GeoDataset, records_bytes
from repro.wan.topology import WanTopology
from repro.wan.transfer import Transfer, TransferResult, TransferScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.schedule import FaultSchedule


@dataclass
class SiteMetrics:
    """Per-site accounting for one job."""

    site: str
    input_bytes: float = 0.0
    input_records: int = 0
    map_output_bytes: float = 0.0
    intermediate_bytes: float = 0.0  # after combining: the f_i of Table 1
    intermediate_records: int = 0
    uploaded_bytes: float = 0.0  # WAN bytes sent to other sites
    downloaded_bytes: float = 0.0  # WAN bytes received from other sites
    local_shuffle_bytes: float = 0.0  # intra-site shuffle (LAN)
    map_seconds: float = 0.0
    rdd_overhead_seconds: float = 0.0
    map_finish: float = 0.0
    reduce_seconds: float = 0.0
    finish_time: float = 0.0
    #: Chaos accounting: map-task waves re-executed after injected
    #: failures, shuffle bytes lost to abandoned transfers, and whether
    #: the site sat out the job entirely (site outage).
    task_retry_waves: int = 0
    lost_bytes: float = 0.0
    excluded: bool = False

    @property
    def combine_savings(self) -> float:
        """Fraction of map output removed by the combiner at this site."""
        if self.map_output_bytes <= 0:
            return 0.0
        return 1.0 - self.intermediate_bytes / self.map_output_bytes


@dataclass
class JobResult:
    """Outcome of one job execution."""

    qct: float
    per_site: Dict[str, SiteMetrics]
    transfers: List[TransferResult] = field(default_factory=list)
    #: Per-key combined record counts and bytes (populated only when the
    #: engine ran with ``collect_keys=True``; used by joins and by DAG
    #: stage materialization).
    key_counts: Dict = field(default_factory=dict)
    key_bytes: Dict = field(default_factory=dict)

    @property
    def total_intermediate_bytes(self) -> float:
        return sum(metrics.intermediate_bytes for metrics in self.per_site.values())

    @property
    def total_wan_bytes(self) -> float:
        return sum(metrics.uploaded_bytes for metrics in self.per_site.values())

    @property
    def total_rdd_overhead_seconds(self) -> float:
        return sum(
            metrics.rdd_overhead_seconds for metrics in self.per_site.values()
        )

    @property
    def total_lost_bytes(self) -> float:
        """Shuffle bytes that never arrived (abandoned under chaos)."""
        return sum(metrics.lost_bytes for metrics in self.per_site.values())

    @property
    def failed_transfers(self) -> List[TransferResult]:
        return [result for result in self.transfers if result.failed]


@dataclass
class PlannedJob:
    """A job after its map stage and shuffle plan, awaiting WAN results.

    Splitting planning from completion lets a serving layer inject many
    jobs' transfers into one shared :class:`~repro.wan.transfer.WanSession`
    and finish each job as its flows drain; :meth:`MapReduceEngine.run_many`
    is just the batch composition of the two halves.  ``start_offset``
    stamps the job onto an absolute shared clock: map runs
    ``[start_offset, map_finish]``, transfers start at absolute times, and
    the resulting QCT is an absolute completion time on that clock.
    ``start_offset == 0.0`` keeps the job-relative batch semantics
    bit-identical.
    """

    tag: str
    per_site: Dict[str, SiteMetrics]
    transfers: List[Transfer] = field(default_factory=list)
    start_offset: float = 0.0
    collect_keys: bool = False
    key_counts: Dict = field(default_factory=dict)
    key_bytes: Dict = field(default_factory=dict)

    @property
    def map_finish(self) -> float:
        """Latest map finish across sites (absolute when offset-stamped)."""
        return max(
            (m.map_finish for m in self.per_site.values() if not m.excluded),
            default=self.start_offset,
        )


class MapReduceEngine:
    """Executes :class:`MapReduceSpec` jobs over a :class:`WanTopology`."""

    def __init__(
        self,
        topology: WanTopology,
        partition_records: int = 64,
        rdd_similarity: bool = False,
        dimsum_config: DimsumConfig = DimsumConfig(),
        lan_bps: float = 10.0e9,
        seed: int = 7,
        faults: "Optional[FaultSchedule]" = None,
        stall_timeout_seconds: float = math.inf,
    ) -> None:
        """``faults`` injects a chaos schedule: dead sites sit out the
        job, stragglers slow a site's map/reduce compute, failed task
        waves re-execute, and the shuffle runs over the fault-aware WAN
        simulator (``stall_timeout_seconds`` bounds blackout parking;
        transfers that exceed it are lost and their bytes accounted in
        :attr:`SiteMetrics.lost_bytes`)."""
        if partition_records < 1:
            raise EngineError("partition_records must be >= 1")
        self.topology = topology
        self.partition_records = partition_records
        self.rdd_similarity = rdd_similarity
        self.dimsum_config = dimsum_config
        self.faults = faults
        self.scheduler = TransferScheduler(
            topology,
            lan_bps=lan_bps,
            faults=faults,
            stall_timeout_seconds=stall_timeout_seconds,
        )
        self.seed = seed

    # ------------------------------------------------------------------

    def run(
        self,
        dataset: GeoDataset,
        spec: MapReduceSpec,
        reduce_fractions: Optional[Mapping[str, float]] = None,
        cube_sorted: bool = False,
    ) -> JobResult:
        """Execute one job; returns the QCT and per-site metrics.

        ``reduce_fractions`` defaults to a uniform split over all sites.
        ``cube_sorted`` feeds records in cube-cluster order (Iridium-C and
        Bohr) instead of raw order (Iridium).
        """
        [result] = self.run_many(
            [(dataset, spec)],
            reduce_fractions=reduce_fractions,
            cube_sorted=cube_sorted,
        )
        return result

    def run_many(
        self,
        jobs: Sequence["tuple[GeoDataset, MapReduceSpec]"],
        reduce_fractions: Optional[Mapping[str, float]] = None,
        cube_sorted: bool = False,
        share_task_map: bool = False,
        collect_keys: bool = False,
    ) -> List[JobResult]:
        """Execute several jobs concurrently over the shared WAN.

        All jobs' shuffle transfers contend for the same uplinks and
        downlinks (max-min fair), so each job's QCT reflects the others'
        load — the situation recurring queries face in production.

        ``share_task_map`` routes every job's keys through one reduce-task
        map (all jobs must agree on ``num_reduce_tasks``); this aligns
        key → site routing across jobs, which joins require.
        ``collect_keys`` additionally aggregates per-key combined counts
        into each :class:`JobResult` (used by the join operator).
        """
        if not jobs:
            return []
        fractions, dead_sites = self._live_fractions(reduce_fractions)
        if share_task_map:
            task_counts = {spec.num_reduce_tasks for _dataset, spec in jobs}
            if len(task_counts) != 1:
                raise EngineError(
                    "share_task_map requires equal num_reduce_tasks; "
                    f"got {sorted(task_counts)}"
                )
            shared = ReduceTaskMap.from_fractions(fractions, task_counts.pop())
            task_maps = [shared] * len(jobs)
        else:
            task_maps = [
                ReduceTaskMap.from_fractions(fractions, spec.num_reduce_tasks)
                for _dataset, spec in jobs
            ]

        per_job: List[PlannedJob] = []
        all_transfers: List = []
        for index, (dataset, spec) in enumerate(jobs):
            planned = self.plan_job(
                dataset,
                spec,
                task_maps[index],
                dead_sites=dead_sites,
                cube_sorted=cube_sorted,
                collect_keys=collect_keys,
                tag=f"job-{index}",
            )
            per_job.append(planned)
            all_transfers.extend(planned.transfers)

        by_tag: Dict[str, List[TransferResult]] = {job.tag: [] for job in per_job}
        for result in self.scheduler.simulate(all_transfers):
            by_tag[result.transfer.tag].append(result)
        return [self.complete_job(job, by_tag[job.tag]) for job in per_job]

    # ------------------------------------------------------------------
    # plan / complete halves (the serving layer's entry points)
    # ------------------------------------------------------------------

    def resolve_routing(
        self,
        reduce_fractions: Optional[Mapping[str, float]],
        num_reduce_tasks: int,
    ) -> "tuple[ReduceTaskMap, frozenset[str]]":
        """Resolve reduce fractions against faults into a task map.

        Returns the key→site routing plus the set of dead sites (to pass
        through to :meth:`plan_job`).
        """
        fractions, dead_sites = self._live_fractions(reduce_fractions)
        return ReduceTaskMap.from_fractions(fractions, num_reduce_tasks), dead_sites

    def plan_job(
        self,
        dataset: GeoDataset,
        spec: MapReduceSpec,
        task_map: ReduceTaskMap,
        *,
        dead_sites: "frozenset[str]" = frozenset(),
        cube_sorted: bool = False,
        collect_keys: bool = False,
        tag: str = "job-0",
        start_offset: float = 0.0,
    ) -> PlannedJob:
        """Run the map stage and plan the shuffle; no WAN simulation yet."""
        metrics = {
            site.name: SiteMetrics(site=site.name) for site in self.topology
        }
        site_outputs: Dict[str, List[CombinedOutput]] = {}
        for site_name in self.topology.site_names:
            if site_name in dead_sites:
                # Site outage: its shard is unreachable — no map work,
                # no shuffle contribution, partial results downstream.
                metrics[site_name].excluded = True
                site_outputs[site_name] = []
                continue
            site_outputs[site_name] = self._map_stage(
                dataset, spec, site_name, metrics[site_name], cube_sorted
            )
            if start_offset:
                metrics[site_name].map_finish = (
                    start_offset + metrics[site_name].map_finish
                )
        planned = PlannedJob(
            tag=tag,
            per_site=metrics,
            start_offset=start_offset,
            collect_keys=collect_keys,
        )
        if collect_keys:
            counts: Dict = {}
            sizes: Dict = {}
            for outputs in site_outputs.values():
                for output in outputs:
                    for key, record in output.records.items():
                        counts[key] = counts.get(key, 0) + record.merged_count
                        sizes[key] = sizes.get(key, 0.0) + record.size_bytes
            planned.key_counts, planned.key_bytes = counts, sizes
        planned.transfers = self._plan_shuffle(
            site_outputs, task_map, metrics, tag=tag
        )
        return planned

    def complete_job(
        self, planned: PlannedJob, transfer_results: Sequence[TransferResult]
    ) -> JobResult:
        """Finish a planned job once its WAN transfers have results."""
        qct = self._reduce_stage(transfer_results, planned.per_site)
        job_result = JobResult(
            qct=qct, per_site=planned.per_site, transfers=list(transfer_results)
        )
        if planned.collect_keys:
            job_result.key_counts = planned.key_counts
            job_result.key_bytes = planned.key_bytes
        obs = instrument.current()
        if obs.sanitizer.enabled:
            obs.sanitizer.check_job(job_result)
        if obs.telemetry.enabled:
            self._emit_job_telemetry(
                obs.telemetry,
                job_result,
                planned.tag,
                map_start=planned.start_offset,
            )
        return job_result

    @staticmethod
    def _emit_job_telemetry(
        telemetry, result: JobResult, job: str, map_start: float = 0.0
    ) -> None:
        """Stage/task lifecycle events for one job (per-site, sim clock).

        Map runs [map_start, map_finish], reduce
        [finish - reduce_seconds, finish]; stage-finish carries its own
        start so the Gantt derivation never has to pair events.
        """
        for site, site_metrics in result.per_site.items():
            if site_metrics.excluded:
                continue
            if site_metrics.input_records or site_metrics.map_finish > map_start:
                telemetry.emit(
                    "stage-start", t=map_start, stage="map", site=site, job=job
                )
                telemetry.emit(
                    "stage-finish",
                    t=site_metrics.map_finish,
                    stage="map",
                    site=site,
                    job=job,
                    start=map_start,
                    input_bytes=site_metrics.input_bytes,
                    input_records=site_metrics.input_records,
                    map_output_bytes=site_metrics.map_output_bytes,
                    intermediate_bytes=site_metrics.intermediate_bytes,
                    rdd_overhead_seconds=site_metrics.rdd_overhead_seconds,
                )
            if site_metrics.task_retry_waves > 0:
                telemetry.emit(
                    "task-wave",
                    t=site_metrics.map_finish,
                    site=site,
                    job=job,
                    waves=site_metrics.task_retry_waves,
                )
            if site_metrics.reduce_seconds > 0:
                reduce_start = site_metrics.finish_time - site_metrics.reduce_seconds
                telemetry.emit(
                    "stage-start", t=reduce_start, stage="reduce", site=site, job=job
                )
                telemetry.emit(
                    "stage-finish",
                    t=site_metrics.finish_time,
                    stage="reduce",
                    site=site,
                    job=job,
                    start=reduce_start,
                    downloaded_bytes=site_metrics.downloaded_bytes,
                )
        telemetry.emit(
            "job-finish",
            t=result.qct,
            job=job,
            qct=result.qct,
            wan_bytes=result.total_wan_bytes,
            lost_bytes=result.total_lost_bytes,
        )

    # ------------------------------------------------------------------

    def _resolve_fractions(
        self, reduce_fractions: Optional[Mapping[str, float]]
    ) -> Dict[str, float]:
        if reduce_fractions is None:
            share = 1.0 / len(self.topology)
            return {name: share for name in self.topology.site_names}
        unknown = set(reduce_fractions) - set(self.topology.site_names)
        if unknown:
            raise EngineError(f"reduce fractions name unknown sites {sorted(unknown)}")
        return dict(reduce_fractions)

    def _dead_sites(self) -> "frozenset[str]":
        """Sites dark at job start under the injected fault schedule."""
        if self.faults is None:
            return frozenset()
        return frozenset(
            name
            for name in self.topology.site_names
            if self.faults.site_dead_at(name, 0.0)
        )

    def _live_fractions(
        self, reduce_fractions: Optional[Mapping[str, float]]
    ) -> "tuple[Dict[str, float], frozenset[str]]":
        """Reduce fractions over the sites alive at job start, plus the
        dead sites reduce work was re-routed away from (renormalized)."""
        fractions = self._resolve_fractions(reduce_fractions)
        dead_sites = self._dead_sites()
        if not dead_sites:
            return fractions, dead_sites
        alive = {
            site: fraction
            for site, fraction in fractions.items()
            if site not in dead_sites
        }
        total = sum(alive.values())
        if not alive or total <= 0:
            raise EngineError(
                "all reduce fractions land on dead sites "
                f"{sorted(dead_sites)}; nothing can host reduce tasks"
            )
        return {site: fraction / total for site, fraction in alive.items()}, dead_sites

    def _map_stage(
        self,
        dataset: GeoDataset,
        spec: MapReduceSpec,
        site_name: str,
        site_metrics: SiteMetrics,
        cube_sorted: bool,
    ) -> List[CombinedOutput]:
        """Run map + combine at one site; returns per-executor outputs."""
        site = self.topology.site(site_name)
        shard = dataset.shard(site_name)
        site_metrics.input_bytes = float(records_bytes(shard))
        site_metrics.input_records = len(shard)
        if not shard:
            return []

        partitions = make_partitions(
            shard,
            site_name,
            self.partition_records,
            key_indices=spec.key_indices,
            cube_sorted=cube_sorted,
        )
        machine_loads = round_robin(partitions, site.machines)
        executor_outputs: List[CombinedOutput] = []
        busiest_executor_bytes = 0.0
        for machine_partitions in machine_loads:
            assignment = assign_partitions(
                machine_partitions,
                site.executors_per_machine,
                spec.key_indices,
                similarity_aware=self.rdd_similarity,
                dimsum_config=self.dimsum_config,
                seed=self.seed,
            )
            site_metrics.rdd_overhead_seconds += assignment.overhead_seconds
            for executor_partitions in assignment.executor_partitions:
                records = [
                    record
                    for partition in executor_partitions
                    for record in partition.records
                ]
                if spec.filters:  # WHERE pushdown at the map
                    records = [record for record in records if spec.matches(record)]
                if not records:
                    continue
                output = combine(records, spec.key_indices, spec.reduction_ratio)
                executor_outputs.append(output)
                executor_bytes = float(records_bytes(records))
                busiest_executor_bytes = max(busiest_executor_bytes, executor_bytes)

        site_metrics.map_output_bytes = sum(
            output.map_output_bytes for output in executor_outputs
        )
        site_metrics.intermediate_bytes = sum(
            output.total_bytes for output in executor_outputs
        )
        site_metrics.intermediate_records = sum(
            output.num_records for output in executor_outputs
        )
        site_metrics.map_seconds = busiest_executor_bytes / site.compute_bps
        if self.faults is not None:
            # Stragglers stretch the busiest executor; every failed task
            # wave re-runs it once more.
            slowdown = self.faults.compute_slowdown(site_name)
            waves = self.faults.task_failure_waves(site_name)
            site_metrics.task_retry_waves = waves
            site_metrics.map_seconds *= slowdown * (1.0 + waves)
        site_metrics.map_finish = (
            site_metrics.map_seconds + site_metrics.rdd_overhead_seconds
        )
        return executor_outputs

    def _plan_shuffle(
        self,
        site_outputs: Mapping[str, List[CombinedOutput]],
        task_map: ReduceTaskMap,
        metrics: Dict[str, SiteMetrics],
        tag: str = "job-0",
    ) -> List[Transfer]:
        """Route combined records to reduce sites; build WAN transfers.

        Routing is batched: each source site's keys go through
        :meth:`ReduceTaskMap.routing_table` (one hash pass per distinct
        key, memoized across calls); per-destination byte totals are the
        strict left fold ``volume[(src, dst)] += record.size_bytes`` over
        the records in encounter order.
        """
        volume: Dict[tuple, float] = {}
        for src, outputs in site_outputs.items():
            sized = [
                (key, record.size_bytes)
                for output in outputs
                for key, record in output.records.items()
            ]
            if not sized:
                continue
            table = task_map.routing_table([key for key, _size in sized])
            for key, size in sized:
                edge = (src, table[key])
                volume[edge] = volume.get(edge, 0.0) + size
        telemetry = instrument.current().telemetry
        transfers: List[Transfer] = []
        wan_bytes = 0.0
        lan_bytes = 0.0
        earliest_start: Optional[float] = None
        for (src, dst), num_bytes in sorted(volume.items()):
            if src == dst:
                metrics[src].local_shuffle_bytes += num_bytes
                lan_bytes += num_bytes
            else:
                metrics[src].uploaded_bytes += num_bytes
                metrics[dst].downloaded_bytes += num_bytes
                wan_bytes += num_bytes
            start = metrics[src].map_finish
            if earliest_start is None or start < earliest_start:
                earliest_start = start
            transfers.append(
                Transfer(
                    src=src,
                    dst=dst,
                    num_bytes=num_bytes,
                    start_time=metrics[src].map_finish,
                    tag=tag,
                )
            )
        # One aggregate event per planning call; per-edge detail is already
        # on the flow-start events the transfers produce.
        if telemetry.enabled and transfers:
            telemetry.emit(
                "shuffle-plan",
                t=earliest_start,
                tag=tag,
                edges=len(transfers),
                wan_bytes=wan_bytes,
                lan_bytes=lan_bytes,
            )
        return transfers

    def _reduce_stage(
        self, results: Sequence[TransferResult], metrics: Dict[str, SiteMetrics]
    ) -> float:
        """Compute reduce finish times; returns the job QCT.

        Transfers that failed under chaos delivered nothing: their bytes
        move from the uploaded/downloaded ledgers into the source site's
        ``lost_bytes`` (so WAN conservation holds over delivered bytes),
        and the reduce at the destination still waits out the failed
        attempt before proceeding with what did arrive.
        """
        inbound_finish: Dict[str, float] = {}
        inbound_bytes: Dict[str, float] = {}
        for result in results:
            dst = result.transfer.dst
            inbound_finish[dst] = max(inbound_finish.get(dst, 0.0), result.finish_time)
            if result.failed:
                src = result.transfer.src
                metrics[src].uploaded_bytes -= result.transfer.num_bytes
                metrics[src].lost_bytes += result.transfer.num_bytes
                metrics[dst].downloaded_bytes -= result.transfer.num_bytes
                continue
            inbound_bytes[dst] = inbound_bytes.get(dst, 0.0) + result.transfer.num_bytes

        qct = 0.0
        for site_name, site_metrics in metrics.items():
            site = self.topology.site(site_name)
            start = max(site_metrics.map_finish, inbound_finish.get(site_name, 0.0))
            received = inbound_bytes.get(site_name, 0.0)
            site_metrics.reduce_seconds = received / (
                site.compute_bps * site.executors
            )
            if self.faults is not None and received > 0:
                site_metrics.reduce_seconds *= self.faults.compute_slowdown(
                    site_name
                )
            site_metrics.finish_time = start + site_metrics.reduce_seconds
            qct = max(qct, site_metrics.finish_time)
        return qct
