"""The Bohr controller (§3) — and, with capabilities switched off, every
baseline scheme.

``prepare`` runs the offline pipeline in the lag between recurring query
arrivals: (1) format shards into OLAP cubes, (2) probe-based similarity
checking from each dataset's bottleneck site, (3) data/task placement
(joint LP or the Iridium heuristic), (4) data movement with similarity-
aware or random record selection.  ``run_query`` then executes a query on
the engine under the prepared placement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.engine.job import JobResult, MapReduceEngine
from repro.errors import ConfigurationError, FaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.runtime import ChaosConfig
from repro.obs import instrument
from repro.olap.dimension_cube import DimensionCubeSet
from repro.olap.storage import StorageModel, StorageReport
from repro.placement.iridium import IridiumPlanner
from repro.placement.joint import JointPlanner, PlacementDecision
from repro.placement.model import PlacementProblem
from repro.placement.plan import (
    MovementPolicy,
    MovementReport,
    PlacementPlan,
    execute_plan,
)
from repro.query.compiler import compile_query
from repro.query.spec import RecurringQuery
from repro.similarity.checker import SimilarityChecker, intra_site_similarity
from repro.similarity.dimsum import DimsumConfig
from repro.similarity.probes import Probe, ProbeBuilder
from repro.systems.base import SystemConfig, SystemProfile
from repro.wan.estimator import BandwidthEstimator
from repro.wan.topology import WanTopology
from repro.workloads.base import Workload


@dataclass
class PreparationReport:
    """Everything the offline phase produced and how long it took."""

    scheme: str
    cube_build_seconds: float = 0.0
    probe_build_seconds: float = 0.0
    similarity_check_seconds: float = 0.0
    lp_solve_seconds: float = 0.0
    planner_iterations: int = 0
    estimated_shuffle_seconds: float = math.inf
    reduce_fractions: Dict[str, float] = field(default_factory=dict)
    movement: Optional[MovementReport] = None
    probes: Dict[str, Probe] = field(default_factory=dict)
    cross_similarity: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    intra_similarity: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def total_probe_bytes(self) -> int:
        return sum(probe.size_bytes for probe in self.probes.values())

    @property
    def moved_bytes(self) -> float:
        return self.movement.total_moved_bytes if self.movement else 0.0


@dataclass
class QueryOutcome:
    """One query execution under the failure-aware runtime.

    ``aborted`` queries overshot the chaos deadline: ``completed_sites``
    finished their reduce work in time and ``partial_fraction`` is the
    share of reduce-input bytes those sites account for — the
    partial-result the caller can still serve.  ``lost_bytes`` counts
    shuffle data abandoned by exhausted transfer retries.
    """

    result: JobResult
    aborted: bool = False
    deadline_seconds: Optional[float] = None
    completed_sites: List[str] = field(default_factory=list)
    partial_fraction: float = 1.0
    lost_bytes: float = 0.0


class Controller:
    """One scheme's controller over one topology."""

    def __init__(
        self,
        profile: SystemProfile,
        topology: WanTopology,
        config: SystemConfig = SystemConfig(),
        chaos: "Optional[ChaosConfig]" = None,
    ) -> None:
        topology.validate()
        self.profile = profile
        self.topology = topology
        self.config = config
        self.chaos = chaos
        faults = chaos.faults if chaos is not None else None
        stall_timeout = (
            chaos.retry.stall_timeout_seconds if chaos is not None else math.inf
        )
        self.engine = MapReduceEngine(
            topology,
            partition_records=config.partition_records,
            rdd_similarity=profile.rdd_similarity,
            dimsum_config=DimsumConfig(gamma=config.dimsum_gamma, seed=config.seed),
            seed=config.seed,
            faults=faults,
            stall_timeout_seconds=stall_timeout,
        )
        #: Movement runs on the engine's WAN scheduler: one topology, one
        #: fault schedule, one stall timeout.
        self.scheduler = self.engine.scheduler
        self.bandwidth = BandwidthEstimator(topology)
        self.checker = SimilarityChecker()
        self._cubes: Dict[Tuple[str, str], DimensionCubeSet] = {}
        self._fractions: Optional[Dict[str, float]] = None
        self._prepared: Optional[PreparationReport] = None
        self._movement_fractions: Dict[Tuple[str, str, str], float] = {}
        self._policy: MovementPolicy = MovementPolicy.RANDOM
        self.last_outcome: Optional[QueryOutcome] = None
        self.degraded_replans = 0
        #: Sites taken out by a fault; later replans keep excluding them.
        self.dead_sites: set = set()
        telemetry = instrument.current().telemetry
        if chaos is not None and telemetry.enabled:
            for event in chaos.faults.events:
                telemetry.emit(
                    "fault-window",
                    t=event.start,
                    fault=event.kind,
                    site=event.site,
                    start=event.start,
                    end=None if math.isinf(event.end) else event.end,
                    severity=event.severity,
                )

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------

    def prepare(self, workload: Workload) -> PreparationReport:
        """Run pre-processing, similarity checking, placement, movement."""
        obs = instrument.current()
        with obs.telemetry.span(
            "prepare", stage="prepare", scheme=self.profile.name
        ):
            return self._prepare(workload, obs)

    def _prepare(self, workload: Workload, obs) -> PreparationReport:
        report = PreparationReport(scheme=self.profile.name)
        if self.profile.uses_cubes:
            with obs.telemetry.span("cube-build", stage="cube"):
                self._build_cubes(workload, report)
        if self.profile.uses_similarity:
            with obs.telemetry.span("similarity", stage="probe") as span:
                self._check_similarity(workload, report)
                span.set(probe_build_wall_seconds=report.probe_build_seconds)

        alive = [
            site
            for site in self.topology.site_names
            if site not in self.dead_sites
        ]
        with obs.telemetry.span("placement", stage="placement"):
            decision = self._decide(
                workload, report, sites=alive if self.dead_sites else None
            )

        self._policy = (
            MovementPolicy.SIMILARITY
            if self.profile.uses_similarity
            else MovementPolicy.RANDOM
        )
        pre_move_bytes = {
            dataset.dataset_id: dataset.bytes_by_site()
            for dataset in workload.catalog
        }
        with obs.telemetry.span(
            "movement", stage="movement", policy=self._policy.name
        ):
            report.movement = self._move(
                workload, decision.moves, decision.reduce_fractions
            )
        self.bandwidth.observe_transfers(
            report.movement.transfers, truth=self.scheduler.effective_bps
        )
        if obs.telemetry.enabled:
            estimated = report.estimated_shuffle_seconds
            obs.telemetry.emit(
                "plan",
                scheme=self.profile.name,
                moved_bytes=report.movement.total_moved_bytes,
                estimated_shuffle_seconds=(
                    None if math.isinf(estimated) else estimated
                ),
                planner_iterations=report.planner_iterations,
                probes=len(report.probes),
                lp_wall_seconds=report.lp_solve_seconds,
            )
        self._fractions = dict(decision.reduce_fractions)
        self._movement_fractions = {}
        for (dataset_id, src, dst), moved in report.movement.moved_bytes.items():
            held = pre_move_bytes.get(dataset_id, {}).get(src, 0.0)
            if held > 0:
                self._movement_fractions[(dataset_id, src, dst)] = min(
                    1.0, moved / held
                )
        self._prepared = report
        return report

    def place_new_data(
        self,
        workload: Workload,
        new_bytes_by_site: Dict[str, Dict[str, float]],
    ) -> Optional[MovementReport]:
        """Transfer newly arrived data per the current decision (§8.6).

        "When a new batch of data arrives, they are pre-processed ... and
        transferred to other sites if necessary according to the initial
        task and data placement decision before the next query arrives."
        The current plan's per-(dataset, src→dst) movement fractions are
        applied to the batch's bytes; records are selected under the same
        policy as the original movement.
        """
        if not self._movement_fractions:
            return None
        moves: Dict[Tuple[str, str, str], float] = {}
        for (dataset_id, src, dst), fraction in self._movement_fractions.items():
            batch = new_bytes_by_site.get(dataset_id, {}).get(src, 0.0)
            if batch > 0 and fraction > 0:
                moves[(dataset_id, src, dst)] = fraction * batch
        if not moves:
            return None
        return self._move(workload, moves, self._fractions or {}, retry=False)

    def prepare_degraded(
        self, workload: Workload, dead_sites: List[str]
    ) -> PreparationReport:
        """Re-solve the placement with ``dead_sites`` excluded (chaos).

        Triggered when a site outage invalidates the standing plan:
        the placement LP runs again over the surviving sites only
        (reusing the already-measured probe similarities), and reduce
        fractions shift so no work is routed to dead sites.  Data held
        at dead sites is unreachable and drops out of the problem.
        """
        obs = instrument.current()
        dead = set(dead_sites) | self.dead_sites
        alive = [site for site in self.topology.site_names if site not in dead]
        if not alive:
            raise FaultError("all sites are down; no placement can survive")
        self.dead_sites = dead
        # Standing per-batch movement routes must not touch dead sites.
        self._movement_fractions = {
            key: fraction
            for key, fraction in self._movement_fractions.items()
            if key[1] not in dead and key[2] not in dead
        }
        with obs.telemetry.span(
            "degraded-replan",
            stage="chaos",
            scheme=self.profile.name,
            dead=",".join(sorted(dead)),
        ):
            report = PreparationReport(scheme=self.profile.name)
            if self._prepared is not None:
                report.cross_similarity = dict(self._prepared.cross_similarity)
                report.intra_similarity = dict(self._prepared.intra_similarity)
            if len(alive) == 1:
                # Sole survivor: everything it still holds reduces locally.
                self._fractions = {alive[0]: 1.0}
                report.reduce_fractions = dict(self._fractions)
            else:
                decision = self._decide(workload, report, sites=alive)
                report.movement = self._move(
                    workload, decision.moves, decision.reduce_fractions
                )
                self.bandwidth.observe_transfers(
                    report.movement.transfers, truth=self.scheduler.effective_bps
                )
                self._fractions = dict(decision.reduce_fractions)
        self.degraded_replans += 1
        if obs.telemetry.enabled:
            obs.telemetry.emit(
                "degraded-replan",
                scheme=self.profile.name,
                dead=",".join(sorted(dead)),
                survivors=len(alive),
                lp_wall_seconds=report.lp_solve_seconds,
            )
        return report

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------

    def run_query(self, workload: Workload, query: RecurringQuery) -> JobResult:
        """Execute one recurring query under the prepared placement."""
        spec = query.spec
        obs = instrument.current()
        if obs.telemetry.enabled:
            obs.telemetry.emit(
                "query-start",
                t=0.0,
                dataset=spec.dataset_id,
                scheme=self.profile.name,
            )
        with obs.telemetry.span(
            f"query:{spec.dataset_id}",
            stage="query",
            dataset=spec.dataset_id,
            scheme=self.profile.name,
        ):
            result = self.engine.run(
                workload.catalog.get(spec.dataset_id),
                self.compile(workload, spec),
                reduce_fractions=self._fractions,
                cube_sorted=self.profile.uses_cubes,
            )
            if obs.telemetry.enabled:
                obs.telemetry.emit(
                    "query-finish",
                    t=result.qct,
                    dataset=spec.dataset_id,
                    scheme=self.profile.name,
                    qct=result.qct,
                    wan_bytes=result.total_wan_bytes,
                    lost_bytes=result.total_lost_bytes,
                )
        query.record_execution()
        return result

    def run_query_outcome(
        self, workload: Workload, query: RecurringQuery
    ) -> QueryOutcome:
        """Run one query and judge it against the chaos deadline.

        Without a configured deadline this is :meth:`run_query` plus
        lost-byte accounting.  With one, a query whose QCT overshoots is
        marked aborted and the sites whose reduce work *did* finish in
        time are reported as the partial result, weighted by their share
        of reduce-input bytes.
        """
        result = self.run_query(workload, query)
        obs = instrument.current()
        deadline = (
            self.chaos.deadline_seconds if self.chaos is not None else None
        )
        outcome = QueryOutcome(
            result=result,
            deadline_seconds=deadline,
            lost_bytes=result.total_lost_bytes,
        )
        if deadline is not None and result.qct > deadline:
            outcome.aborted = True
            active = {
                site: metrics
                for site, metrics in result.per_site.items()
                if not metrics.excluded
            }
            outcome.completed_sites = [
                site
                for site, metrics in active.items()
                if metrics.finish_time <= deadline + 1e-9
            ]
            total = sum(
                metrics.downloaded_bytes + metrics.local_shuffle_bytes
                for metrics in active.values()
            )
            done = sum(
                active[site].downloaded_bytes + active[site].local_shuffle_bytes
                for site in outcome.completed_sites
            )
            outcome.partial_fraction = done / total if total > 0 else 1.0
            if obs.telemetry.enabled:
                obs.telemetry.emit(
                    "query-abort",
                    t=deadline,
                    dataset=query.spec.dataset_id,
                    scheme=self.profile.name,
                    qct=result.qct,
                    deadline=deadline,
                    partial_fraction=outcome.partial_fraction,
                )
        self.last_outcome = outcome
        return outcome

    def run_all_queries(
        self, workload: Workload, limit: Optional[int] = None
    ) -> List[JobResult]:
        queries = workload.queries[:limit] if limit else workload.queries
        return [self.run_query(workload, query) for query in queries]

    # ------------------------------------------------------------------
    # serving-layer hooks (repro.serve)
    # ------------------------------------------------------------------

    @property
    def reduce_fractions(self) -> Optional[Dict[str, float]]:
        """The prepared placement's reduce fractions (None before prepare)."""
        return dict(self._fractions) if self._fractions is not None else None

    def compile(self, workload: Workload, spec):
        """Compile one query spec exactly as :meth:`run_query` does (the
        serving layer plans jobs itself, plan/complete split on the
        engine)."""
        return compile_query(
            spec,
            workload.schema(spec.dataset_id),
            num_reduce_tasks=self.config.num_reduce_tasks,
        )

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------

    @property
    def preparation(self) -> Optional[PreparationReport]:
        return self._prepared

    def storage_report(self, site: str, workload: Workload) -> StorageReport:
        """Per-node storage breakdown for this scheme (Table 6 row).

        Raw storage counts the data currently at the node *plus* what it
        moved away: §7 leaves HDFS replication untouched, so movement
        only creates additional copies and the origin keeps its blocks.
        """
        raw_bytes = sum(
            dataset.bytes_at(site) for dataset in workload.catalog
        )
        if self._prepared and self._prepared.movement:
            raw_bytes += int(sum(
                moved
                for (_dataset, src, _dst), moved
                in self._prepared.movement.moved_bytes.items()
                if src == site
            ))
        model = StorageModel(raw_bytes)
        if not self.profile.uses_cubes:
            return model.iridium()
        cubes = []
        for dataset in workload.catalog:
            cube_set = self._cubes.get((dataset.dataset_id, site))
            if cube_set is not None:
                cubes.append(cube_set.base)
                for query_type in cube_set.query_types:
                    cubes.append(cube_set.cube_for(list(query_type)))
        if not self.profile.uses_similarity:
            return model.iridium_c(cubes)
        probe_records = sum(
            len(probe.records)
            for probe in (self._prepared.probes.values() if self._prepared else [])
        )
        return model.bohr(cubes, probe_records)

    def mean_storage_report(self, workload: Workload) -> StorageReport:
        """Average per-node storage across all sites (the Table 6 view).

        Per-site numbers vary with where movement deposited copies; the
        paper reports the average per-node overhead.
        """
        reports = [
            self.storage_report(site, workload)
            for site in self.topology.site_names
        ]
        count = len(reports)
        return StorageReport(
            scheme=self.profile.name,
            raw_bytes=sum(r.raw_bytes for r in reports) // count,
            cube_bytes=sum(r.cube_bytes for r in reports) // count,
            similarity_bytes=sum(r.similarity_bytes for r in reports) // count,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _build_cubes(self, workload: Workload, report: PreparationReport) -> None:
        # Wall-clock on purpose: offline cube-build cost (Tables 3-5 prep).
        started = time.perf_counter()  # lint: allow[R001]
        for dataset in workload.catalog:
            schema = workload.schema(dataset.dataset_id)
            types = [
                query.spec.group_by
                for query in workload.queries_for(dataset.dataset_id)
            ]
            measure = self._cube_measure(workload, dataset.dataset_id, schema)
            for site in self.topology.site_names:
                cube_set = DimensionCubeSet.build(
                    dataset.shard(site), schema, measure=measure
                )
                for group_by in types:
                    cube_set.register_query_type(list(group_by))
                self._cubes[(dataset.dataset_id, site)] = cube_set
        report.cube_build_seconds = time.perf_counter() - started  # lint: allow[R001]

    @staticmethod
    def _cube_measure(workload: Workload, dataset_id: str, schema) -> Optional[str]:
        """The numeric attribute the dataset's cubes keep a sum of.

        Chosen as the first SUM/AVG column among the dataset's queries, so
        those aggregations can be answered straight from the cubes.
        """
        from repro.olap.query import parse_aggregate

        for query in workload.queries_for(dataset_id):
            for expression in query.spec.aggregates:
                func, column = parse_aggregate(expression)
                if func in ("SUM", "AVG") and column in schema:
                    return column
        return None

    def answer_aggregation(self, workload: Workload, query) -> Dict:
        """Serve an aggregation query straight from the OLAP cubes.

        This is Table 6's cube-only serving path: no raw data is touched.
        Works for COUNT over any query type and SUM/AVG over the cube's
        measure attribute; other shapes raise and the caller falls back
        to :meth:`run_query`.
        """
        from repro.errors import QueryError
        from repro.olap.query import answer_query

        if not self.profile.uses_cubes:
            raise QueryError(
                f"{self.profile.name} keeps no cubes; use run_query instead"
            )
        cube_sets = [
            self._cubes[(query.dataset_id, site)]
            for site in self.topology.site_names
            if (query.dataset_id, site) in self._cubes
        ]
        if not cube_sets:
            raise QueryError(
                f"no cubes built for dataset {query.dataset_id!r}; call "
                "prepare() first"
            )
        return answer_query(query, cube_sets)

    def _check_similarity(self, workload: Workload, report: PreparationReport) -> None:
        """Probes from each dataset's bottleneck site → similarity info."""
        builder = ProbeBuilder(k=self.config.probe_k)
        dataset_bytes = {
            dataset.dataset_id: dataset.total_bytes for dataset in workload.catalog
        }
        if not any(dataset_bytes.values()):
            return
        budget = builder.allocate_across_datasets(
            {key: value for key, value in dataset_bytes.items() if value > 0}
        )
        # Wall-clock on purpose: offline probe-build cost (Tables 3-5 prep).
        started = time.perf_counter()  # lint: allow[R001]
        for dataset in workload.catalog:
            allocation = budget.get(dataset.dataset_id, 0)
            if allocation < 1:
                continue
            bottleneck = self.topology.bottleneck_site(dataset.bytes_by_site())
            cube_set = self._cubes.get((dataset.dataset_id, bottleneck))
            if cube_set is None or cube_set.base.total_count == 0:
                continue
            weights = workload.query_type_weights_for(dataset.dataset_id)
            probe = builder.build(
                dataset.dataset_id,
                bottleneck,
                cube_set,
                {tuple(key): weight for key, weight in weights.items()},
                k=allocation,
            )
            report.probes[dataset.dataset_id] = probe
        report.probe_build_seconds = time.perf_counter() - started  # lint: allow[R001]

        checker_seconds_before = self.checker.total_seconds
        for dataset_id, probe in report.probes.items():
            cubes_by_site = {
                site: self._cubes[(dataset_id, site)]
                for site in self.topology.site_names
                if (dataset_id, site) in self._cubes
            }
            results = self.checker.check_against_sites(probe, cubes_by_site)
            for site, similarity in results.items():
                report.cross_similarity[
                    (dataset_id, probe.origin_site, site)
                ] = similarity.similarity
        report.similarity_check_seconds = (
            self.checker.total_seconds - checker_seconds_before
        )

    def _placement_problem(
        self,
        workload: Workload,
        report: PreparationReport,
        sites: Optional[List[str]] = None,
    ) -> PlacementProblem:
        """Build the LP input; ``sites`` restricts it to survivors only
        (degraded replanning under a site outage — dead sites' data is
        unreachable and drops out)."""
        site_names = sites if sites is not None else self.topology.site_names
        allowed = set(site_names)
        input_bytes: Dict[str, Dict[str, float]] = {}
        reduction: Dict[str, float] = {}
        similarity: Dict[str, Dict[str, float]] = {}
        cross: Dict[str, Dict[Tuple[str, str], float]] = {}
        for dataset in workload.catalog:
            dataset_id = dataset.dataset_id
            input_bytes[dataset_id] = {
                site: float(size)
                for site, size in dataset.bytes_by_site().items()
                if site in allowed
            }
            primary = workload.primary_query(dataset_id)
            reduction[dataset_id] = primary.default_reduction_ratio()
            if self.profile.uses_similarity:
                # S_i^a is the query-weighted mean across the dataset's
                # query types: each type combines on its own keys, and the
                # reduce placement serves all of them (§4.1's per-type
                # dimension cubes give each type's similarity for free).
                type_weights = workload.query_type_weights_for(dataset_id)
                per_site: Dict[str, float] = {}
                for site in site_names:
                    cube_set = self._cubes.get((dataset_id, site))
                    if cube_set is None:
                        continue
                    weighted = 0.0
                    for type_key, weight in type_weights.items():
                        cube = cube_set.cube_for(list(type_key))
                        weighted += weight * intra_site_similarity(cube)
                    per_site[site] = min(weighted, 0.999)
                    report.intra_similarity[(dataset_id, site)] = per_site[site]
                similarity[dataset_id] = per_site
                # Probe-measured S^a_{i,j} prices inflows in the LP; pairs
                # the probes did not cover stay at the conservative 0.
                pairs = {
                    (origin, target): value
                    for (d_id, origin, target), value
                    in report.cross_similarity.items()
                    if d_id == dataset_id
                    and origin in allowed
                    and target in allowed
                }
                if pairs:
                    cross[dataset_id] = pairs
        compute = {}
        if self.config.consider_compute:
            compute = {
                site.name: site.compute_bps * site.executors
                for site in self.topology
                if site.name in allowed
            }
        estimated = self.bandwidth.estimated_topology()
        if sites is not None:
            estimated = WanTopology.from_sites(
                [estimated.site(name) for name in site_names]
            )
        return PlacementProblem(
            topology=estimated,
            input_bytes=input_bytes,
            reduction_ratio=reduction,
            similarity=similarity,
            lag_seconds=self.config.lag_seconds,
            cross_similarity=cross,
            compute_bps=compute,
        )

    def _decide(
        self,
        workload: Workload,
        report: PreparationReport,
        sites: Optional[List[str]],
    ) -> PlacementDecision:
        """Solve the placement over ``sites`` (None = every site), check
        it, and record what the planner did in ``report``."""
        problem = self._placement_problem(workload, report, sites=sites)
        decision = self._plan(problem, workload)
        sanitizer = instrument.current().sanitizer
        if sanitizer.enabled:
            sanitizer.check_placement(
                problem, decision.reduce_fractions, decision.moves
            )
        report.lp_solve_seconds = decision.solve_seconds
        report.planner_iterations = decision.iterations
        report.estimated_shuffle_seconds = decision.estimated_shuffle_seconds
        report.reduce_fractions = dict(decision.reduce_fractions)
        return decision

    def _move(
        self,
        workload: Workload,
        moves: Dict[Tuple[str, str, str], float],
        reduce_fractions: Dict[str, float],
        retry: bool = True,
    ) -> MovementReport:
        """Move data over the WAN under the standing policy; ``retry``
        applies the chaos retry policy when one is configured."""
        plan = PlacementPlan(
            moves=moves, reduce_fractions=reduce_fractions, policy=self._policy
        )
        movement = execute_plan(
            workload.catalog,
            plan,
            workload.key_indices(),
            self.scheduler,
            lag_seconds=self.config.lag_seconds,
            seed=self.config.seed,
            retry_policy=(
                self.chaos.retry if retry and self.chaos is not None else None
            ),
        )
        sanitizer = instrument.current().sanitizer
        if sanitizer.enabled:
            sanitizer.check_movement(movement, self.config.lag_seconds)
        return movement

    def _plan(
        self, problem: PlacementProblem, workload: Workload
    ) -> PlacementDecision:
        strategy = self.profile.placement_strategy
        if strategy == "joint":
            return JointPlanner(backend=self.config.lp_backend).plan(problem)
        if strategy == "heuristic":
            query_counts = {
                dataset.dataset_id: len(workload.queries_for(dataset.dataset_id))
                for dataset in workload.catalog
            }
            return IridiumPlanner(backend=self.config.lp_backend).plan(
                problem, query_counts=query_counts
            )
        from repro.placement.baselines import CentralizedPlanner, InPlacePlanner

        if strategy == "centralized":
            return CentralizedPlanner().plan(problem)
        return InPlacePlanner().plan(problem)
