"""Cross-module integration invariants.

These tests drive the full pipeline (workload -> cubes -> probes -> LP
-> movement -> engine) and assert system-level invariants that no single
module can guarantee alone.
"""

import pytest

from repro.core.runner import run_experiment
from repro.systems.base import SystemConfig
from repro.systems.registry import SCHEME_NAMES, make_system
from repro.wan.presets import ec2_ten_sites, uniform_sites
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

SPEC = WorkloadSpec(records_per_site=30, record_bytes=100_000, num_datasets=2)
CONFIG = SystemConfig(lag_seconds=6.0, partition_records=8)


def topology():
    return ec2_ten_sites(base_uplink="1MB/s", machines=1, executors_per_machine=2)


def make_workload(topo, seed=13):
    return bigdata_workload(topo, seed=seed, spec=SPEC, flavour="aggregation")


class TestConservation:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_records_never_lost(self, scheme):
        topo = topology()
        workload = make_workload(topo)
        total_before = sum(d.total_records for d in workload.catalog)
        bytes_before = sum(d.total_bytes for d in workload.catalog)
        controller = make_system(scheme, topo, CONFIG)
        controller.prepare(workload)
        controller.run_all_queries(workload, limit=3)
        assert sum(d.total_records for d in workload.catalog) == total_before
        assert sum(d.total_bytes for d in workload.catalog) == bytes_before

    @pytest.mark.parametrize("scheme", ("iridium", "bohr"))
    def test_query_results_invariant_under_placement(self, scheme):
        """Moving data must never change the query's answer."""
        from repro.query.pagerank import pagerank_scores_from_records

        topo = topology()
        workload = make_workload(topo)
        dataset = next(iter(workload.catalog))
        schema = workload.schema(dataset.dataset_id)
        before = pagerank_scores_from_records(dataset.all_records(), schema)
        controller = make_system(scheme, topo, CONFIG)
        controller.prepare(workload)
        after = pagerank_scores_from_records(dataset.all_records(), schema)
        assert set(before) == set(after)
        for url, score in before.items():
            # Movement reorders float summation; values must agree.
            assert after[url] == pytest.approx(score, rel=1e-9)


class TestDeterminism:
    def test_full_experiment_is_reproducible(self):
        topo = topology()

        def factory():
            return make_workload(topo)

        first = run_experiment("bohr-joint", factory, topo, CONFIG, query_limit=4)
        second = run_experiment("bohr-joint", factory, topo, CONFIG, query_limit=4)
        assert first.runs == second.runs
        assert first.mean_qct == second.mean_qct
        assert first.data_reduction_by_site() == second.data_reduction_by_site()
        assert first.prep.reduce_fractions == second.prep.reduce_fractions

    def test_bohr_deterministic_up_to_measured_overhead(self):
        # Full bohr, RDD clustering cost (Table 4) included: it is priced
        # from the work of the pass, not measured, so QCT and the overhead
        # term itself are exactly reproducible.
        topo = topology()

        def factory():
            return make_workload(topo)

        first = run_experiment("bohr", factory, topo, CONFIG, query_limit=4)
        second = run_experiment("bohr", factory, topo, CONFIG, query_limit=4)
        assert any(run.rdd_overhead_seconds > 0 for run in first.runs)
        assert first.runs == second.runs
        assert first.mean_qct == second.mean_qct
        assert first.data_reduction_by_site() == second.data_reduction_by_site()
        assert first.prep.reduce_fractions == second.prep.reduce_fractions


class TestMovementInvariants:
    @pytest.mark.parametrize("scheme", ("iridium", "bohr-sim", "bohr"))
    def test_movement_always_fits_lag(self, scheme):
        topo = topology()
        workload = make_workload(topo)
        controller = make_system(scheme, topo, CONFIG)
        report = controller.prepare(workload)
        assert report.movement.within_lag
        assert report.movement.makespan_seconds <= CONFIG.lag_seconds * 1.01

    def test_spark_never_moves(self):
        topo = topology()
        workload = make_workload(topo)
        controller = make_system("spark", topo, CONFIG)
        report = controller.prepare(workload)
        assert report.movement.total_moved_bytes == 0.0


class TestQualityAcrossSeeds:
    """The headline ordering is not a single-seed accident."""

    def test_bohr_beats_iridium_across_seeds(self):
        topo = topology()
        wins = 0
        seeds = (3, 17, 29)
        for seed in seeds:
            def factory(seed=seed):
                return make_workload(topo, seed=seed)

            iridium = run_experiment("iridium", factory, topo, CONFIG,
                                     query_limit=3)
            bohr = run_experiment("bohr", factory, topo, CONFIG, query_limit=3)
            if bohr.mean_qct <= iridium.mean_qct * 1.001:
                wins += 1
        assert wins == len(seeds)

    def test_cubes_always_help_reduction(self):
        topo = topology()
        for seed in (5, 23):
            def factory(seed=seed):
                return make_workload(topo, seed=seed)

            iridium = run_experiment("iridium", factory, topo, CONFIG,
                                     query_limit=3)
            iridium_c = run_experiment("iridium-c", factory, topo, CONFIG,
                                       query_limit=3)
            assert iridium_c.mean_data_reduction >= iridium.mean_data_reduction


class TestSmallTopologies:
    def test_two_sites_end_to_end(self):
        topo = uniform_sites(2, uplink="1MB/s", machines=1,
                             executors_per_machine=2)
        workload = bigdata_workload(
            topo, seed=7,
            spec=WorkloadSpec(records_per_site=10, record_bytes=10_000,
                              num_datasets=1),
            flavour="aggregation",
        )
        controller = make_system("bohr", topo, CONFIG)
        controller.prepare(workload)
        jobs = controller.run_all_queries(workload, limit=2)
        assert all(job.qct >= 0 for job in jobs)

    def test_single_dataset_single_query(self):
        topo = uniform_sites(3, uplink="1MB/s")
        workload = bigdata_workload(
            topo, seed=7,
            spec=WorkloadSpec(records_per_site=6, record_bytes=1_000,
                              num_datasets=1, queries_per_dataset=(1, 1)),
            flavour="scan",
        )
        controller = make_system("bohr", topo, CONFIG)
        controller.prepare(workload)
        [job] = controller.run_all_queries(workload, limit=1)
        assert job.qct >= 0
