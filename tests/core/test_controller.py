"""Controller pipeline tests."""

import pytest

from repro.query.parser import parse_sql
from repro.query.spec import RecurringQuery
from repro.systems.base import SystemConfig
from repro.systems.registry import SCHEME_NAMES, make_system
from repro.wan.presets import ec2_ten_sites, uniform_sites
from repro.workloads import build_workload
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

SMALL = WorkloadSpec(records_per_site=20, record_bytes=10_000, num_datasets=2)
CONFIG = SystemConfig(lag_seconds=600.0, partition_records=8)


def small_topology():
    return uniform_sites(3, uplink="1MB/s", machines=1, executors_per_machine=2)


def make_workload(topology, flavour="aggregation", seed=5):
    return bigdata_workload(topology, seed=seed, spec=SMALL, flavour=flavour)


class TestPrepare:
    def test_iridium_builds_no_cubes_or_probes(self):
        topology = small_topology()
        controller = make_system("iridium", topology, CONFIG)
        report = controller.prepare(make_workload(topology))
        assert report.scheme == "iridium"
        assert report.cube_build_seconds == 0.0
        assert not report.probes
        assert not report.cross_similarity
        assert report.movement is not None

    def test_iridium_c_builds_cubes_but_no_probes(self):
        topology = small_topology()
        controller = make_system("iridium-c", topology, CONFIG)
        report = controller.prepare(make_workload(topology))
        assert report.cube_build_seconds > 0.0
        assert not report.probes

    def test_bohr_builds_probes_and_similarity(self):
        topology = small_topology()
        controller = make_system("bohr", topology, CONFIG)
        workload = make_workload(topology)
        report = controller.prepare(workload)
        assert report.probes  # at least one dataset probed
        assert report.cross_similarity
        assert report.intra_similarity
        assert report.probe_build_seconds >= 0.0
        assert report.similarity_check_seconds >= 0.0
        for similarity in report.cross_similarity.values():
            assert 0.0 <= similarity <= 1.0

    def test_probe_budget_respects_k(self):
        topology = small_topology()
        config = SystemConfig(lag_seconds=600.0, probe_k=10)
        controller = make_system("bohr-sim", topology, config)
        report = controller.prepare(make_workload(topology))
        total_records = sum(len(p.records) for p in report.probes.values())
        assert total_records <= 10

    def test_reduce_fractions_valid(self):
        topology = small_topology()
        controller = make_system("bohr", topology, CONFIG)
        report = controller.prepare(make_workload(topology))
        assert sum(report.reduce_fractions.values()) == pytest.approx(1.0)
        assert all(f >= -1e-9 for f in report.reduce_fractions.values())

    def test_movement_within_lag(self):
        topology = small_topology()
        controller = make_system("bohr", topology, CONFIG)
        report = controller.prepare(make_workload(topology))
        assert report.movement.within_lag
        assert report.movement.makespan_seconds <= CONFIG.lag_seconds * 1.01
        # Movement and shuffle share one (stateless) WAN scheduler.
        assert controller.scheduler is controller.engine.scheduler


class TestRunQuery:
    def test_query_executes_and_profiles(self):
        topology = small_topology()
        controller = make_system("bohr", topology, CONFIG)
        workload = make_workload(topology)
        controller.prepare(workload)
        query = workload.queries[0]
        executions_before = query.executions
        result = controller.run_query(workload, query)
        assert result.qct > 0.0
        assert query.executions == executions_before + 1

    def test_run_all_queries_limit(self):
        topology = small_topology()
        controller = make_system("iridium", topology, CONFIG)
        workload = make_workload(topology)
        controller.prepare(workload)
        results = controller.run_all_queries(workload, limit=3)
        assert len(results) == 3

    def test_rdd_overhead_only_for_rdd_schemes(self):
        topology = small_topology()

        def first_job(scheme, partition_records):
            config = SystemConfig(
                lag_seconds=600.0, partition_records=partition_records
            )
            workload = make_workload(topology)
            controller = make_system(scheme, topology, config)
            controller.prepare(workload)
            return controller.run_query(workload, workload.queries[0])

        # 2-record partitions: each site's one machine holds more
        # partitions than its 2 executors, so there is clustering to do.
        assert first_job("bohr-joint", 2).total_rdd_overhead_seconds == 0.0
        assert first_job("bohr-rdd", 2).total_rdd_overhead_seconds > 0.0
        # The converse: one partition per site forces every assignment,
        # and an RDD scheme pays (and reports) no similarity pass.
        forced = first_job("bohr-rdd", 64)
        assert sum(m.input_records for m in forced.per_site.values()) > 0
        assert forced.total_rdd_overhead_seconds == 0.0


class TestPreparedStateOnly:
    """A prepared controller's answer to a query depends on the prepared
    state and the query, not on which queries ran before it."""

    @pytest.mark.parametrize("kind", ["tpcds", "bigdata-aggregation"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_query_order_does_not_matter(self, scheme, kind):
        topology = ec2_ten_sites(base_uplink="0.05MB/s")
        config = SystemConfig(seed=11, partition_records=8)
        workload = build_workload(kind, topology, seed=7, scale=0.15)
        controller = make_system(scheme, topology, config)
        controller.prepare(workload)
        queries = list(workload.queries)
        forward = [controller.run_query(workload, query) for query in queries]
        backward = [
            controller.run_query(workload, query) for query in reversed(queries)
        ]
        assert forward == backward[::-1]

    def test_a_filtered_query_keeps_its_ratio(self):
        # The pushdown drops records before the combiner, so map output
        # over whole-shard input is not a per-record ratio: nothing may
        # read it back as R^a.
        topology = small_topology()
        controller = make_system("bohr", topology, CONFIG)
        workload = make_workload(topology)
        dataset = workload.dataset_ids[0]
        column = workload.schema(dataset).index("region")
        region = next(iter(workload.catalog.get(dataset).all_records())).values[column]
        spec = parse_sql(
            f"SELECT url, COUNT(url) FROM {dataset} "
            f"WHERE region = '{region}' GROUP BY url"
        )
        query = RecurringQuery(spec=spec)
        workload.queries.append(query)
        controller.prepare(workload)
        intermediate = []
        for _ in range(3):
            job = controller.run_query(workload, query)
            intermediate.append(job.total_intermediate_bytes)
            ratio = controller.compile(workload, spec).reduction_ratio
            assert ratio == spec.default_reduction_ratio()
        assert intermediate[0] > 0.0
        assert intermediate == [intermediate[0]] * 3


class TestStorageReport:
    def test_table6_shape(self):
        topology = small_topology()
        reports = {}
        for scheme in ("iridium", "iridium-c", "bohr"):
            workload = make_workload(topology)
            controller = make_system(scheme, topology, CONFIG)
            controller.prepare(workload)
            reports[scheme] = controller.mean_storage_report(workload)
        assert reports["iridium"].cube_bytes == 0
        assert reports["iridium-c"].cube_bytes > 0
        assert reports["iridium-c"].similarity_bytes == 0
        assert reports["bohr"].similarity_bytes > 0
        # Bohr stores the most per node; queries need less than Iridium.
        assert (
            reports["bohr"].per_node_total
            >= reports["iridium-c"].per_node_total
            > reports["iridium"].per_node_total
        )
        assert reports["bohr"].needed_by_queries < reports["iridium"].needed_by_queries


class TestSchemeOrdering:
    """The headline result: Bohr's components each help (Figures 6-11)."""

    def run_scheme(self, scheme, topology, seed=9):
        workload = bigdata_workload(
            topology,
            seed=seed,
            spec=WorkloadSpec(records_per_site=40, record_bytes=100_000,
                              num_datasets=2),
            flavour="aggregation",
        )
        controller = make_system(scheme, topology, CONFIG)
        controller.prepare(workload)
        results = controller.run_all_queries(workload, limit=4)
        qct = sum(r.qct for r in results) / len(results)
        intermediate = sum(r.total_intermediate_bytes for r in results)
        return qct, intermediate

    def test_bohr_beats_iridium(self):
        topology = ec2_ten_sites(base_uplink="1MB/s", machines=1,
                                 executors_per_machine=2)
        iridium_qct, iridium_intermediate = self.run_scheme("iridium", topology)
        bohr_qct, bohr_intermediate = self.run_scheme("bohr", topology)
        assert bohr_qct <= iridium_qct
        assert bohr_intermediate <= iridium_intermediate

    def test_similarity_reduces_intermediate_vs_iridium_c(self):
        topology = ec2_ten_sites(base_uplink="1MB/s", machines=1,
                                 executors_per_machine=2)
        _, iridium_c_intermediate = self.run_scheme("iridium-c", topology)
        _, bohr_sim_intermediate = self.run_scheme("bohr-sim", topology)
        assert bohr_sim_intermediate <= iridium_c_intermediate * 1.02
