"""Controller + runner behaviour under injected faults."""

import math

import pytest

from repro.chaos.profiles import build_schedule
from repro.chaos.runtime import ChaosConfig, RetryPolicy
from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.core.runner import run_experiment
from repro.errors import FaultError
from repro.obs import instrument
from repro.obs.sanitize import Sanitizer
from repro.placement.plan import MovementReport
from repro.systems.base import SystemConfig
from repro.systems.registry import make_system
from repro.wan.presets import uniform_sites
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

SMALL = WorkloadSpec(records_per_site=20, record_bytes=10_000, num_datasets=1)
CONFIG = SystemConfig(lag_seconds=600.0, partition_records=8)


def small_topology(sites=3):
    return uniform_sites(
        sites, uplink="1MB/s", machines=1, executors_per_machine=2
    )


def make_workload(topology, seed=5):
    return bigdata_workload(
        topology, seed=seed, spec=SMALL, flavour="aggregation"
    )


def outage_chaos(site, deadline=None):
    schedule = FaultSchedule(
        events=(FaultEvent("site-outage", site, 0.0, math.inf),),
        name="test-outage",
    )
    return ChaosConfig(
        faults=schedule, retry=RetryPolicy(), deadline_seconds=deadline
    )


class TestSiteOutage:
    def test_dead_site_sits_out_the_query(self):
        topology = small_topology()
        dead = topology.site_names[1]
        controller = make_system(
            "iridium", topology, CONFIG, chaos=outage_chaos(dead)
        )
        workload = make_workload(topology)
        controller.prepare(workload)
        job = controller.run_query(workload, workload.queries[0])
        assert job.per_site[dead].excluded
        assert job.per_site[dead].uploaded_bytes == 0.0
        assert job.per_site[dead].finish_time == 0.0
        survivors = [s for s in topology.site_names if s != dead]
        assert any(job.per_site[s].input_bytes > 0 for s in survivors)

    def test_chaos_run_passes_sanitizer(self):
        topology = small_topology()
        dead = topology.site_names[0]
        controller = make_system(
            "iridium", topology, CONFIG, chaos=outage_chaos(dead)
        )
        workload = make_workload(topology)
        with instrument.instrumented(sanitizer=Sanitizer(mode="raise")) as obs:
            controller.prepare(workload)
            controller.run_query(workload, workload.queries[0])
        assert obs.sanitizer.violations == []


class TestDegradedReplan:
    def test_fractions_move_off_the_dead_site(self):
        topology = small_topology()
        dead = topology.site_names[1]
        controller = make_system(
            "iridium", topology, CONFIG, chaos=outage_chaos(dead)
        )
        workload = make_workload(topology)
        controller.prepare(workload)
        controller.prepare_degraded(workload, [dead])
        assert controller.degraded_replans == 1
        assert controller._fractions is not None
        assert controller._fractions.get(dead, 0.0) == 0.0
        assert sum(controller._fractions.values()) == pytest.approx(1.0)

    def test_degraded_movement_is_sanitized(self, monkeypatch):
        topology = small_topology()
        dead = topology.site_names[1]
        controller = make_system(
            "iridium", topology, CONFIG, chaos=outage_chaos(dead)
        )
        workload = make_workload(topology)
        controller.prepare(workload)
        monkeypatch.setattr(
            "repro.core.controller.execute_plan",
            lambda *args, **kwargs: MovementReport(scale_factor=0.0),
        )
        with instrument.instrumented(sanitizer=Sanitizer(mode="collect")) as obs:
            controller.prepare_degraded(workload, [dead])
        assert any("movement-lag" in v for v in obs.sanitizer.violations)

    def test_single_survivor_takes_everything(self):
        topology = small_topology()
        alive, *dead = topology.site_names
        controller = make_system(
            "iridium", topology, CONFIG, chaos=outage_chaos(dead[0])
        )
        workload = make_workload(topology)
        controller.prepare(workload)
        report = controller.prepare_degraded(workload, dead)
        assert report.reduce_fractions == {alive: 1.0}

    def test_all_sites_dead_raises(self):
        topology = small_topology()
        controller = make_system("iridium", topology, CONFIG)
        workload = make_workload(topology)
        with pytest.raises(FaultError):
            controller.prepare_degraded(workload, topology.site_names)


class TestQueryOutcome:
    def test_benign_outcome_is_complete(self):
        topology = small_topology()
        controller = make_system("iridium", topology, CONFIG)
        workload = make_workload(topology)
        controller.prepare(workload)
        outcome = controller.run_query_outcome(workload, workload.queries[0])
        assert not outcome.aborted
        assert outcome.partial_fraction == 1.0
        assert outcome.lost_bytes == 0.0
        assert controller.last_outcome is outcome

    def test_deadline_overshoot_aborts_with_partial_results(self):
        topology = small_topology()
        dead = topology.site_names[2]
        # A deadline far below any realistic QCT forces an abort.
        chaos = outage_chaos(dead, deadline=1e-6)
        controller = make_system("iridium", topology, CONFIG, chaos=chaos)
        workload = make_workload(topology)
        controller.prepare(workload)
        outcome = controller.run_query_outcome(workload, workload.queries[0])
        assert outcome.aborted
        assert outcome.deadline_seconds == 1e-6
        assert 0.0 <= outcome.partial_fraction <= 1.0
        assert dead not in outcome.completed_sites
        assert set(outcome.completed_sites) <= set(topology.site_names)

    def test_generous_deadline_does_not_abort(self):
        topology = small_topology()
        chaos = outage_chaos(topology.site_names[2], deadline=1e9)
        controller = make_system("iridium", topology, CONFIG, chaos=chaos)
        workload = make_workload(topology)
        controller.prepare(workload)
        outcome = controller.run_query_outcome(workload, workload.queries[0])
        assert not outcome.aborted


class TestRunExperimentWithChaos:
    def test_chaos_accounting_surfaces(self):
        topology = small_topology()
        chaos = ChaosConfig(
            faults=build_schedule("stragglers", topology, seed=13)
        )
        result = run_experiment(
            "iridium",
            lambda: make_workload(topology),
            topology,
            CONFIG,
            query_limit=1,
            chaos=chaos,
        )
        assert result.chaos_profile == "stragglers"
        assert result.runs and result.baseline_runs

    def test_benign_experiment_has_no_chaos_fields(self):
        topology = small_topology()
        result = run_experiment(
            "iridium",
            lambda: make_workload(topology),
            topology,
            CONFIG,
            query_limit=1,
        )
        assert result.chaos_profile is None
        assert result.aborted_queries == 0
        assert result.total_lost_bytes == 0.0
