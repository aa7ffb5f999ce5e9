"""One reduce-task map per set of fractions, reused across jobs.

``MapReduceEngine.task_map`` hands the last map built for a task count
out again while its fractions hold, key→site memo included.  Held here
to what a fresh ``ReduceTaskMap.from_fractions`` deal gives: the same
tasks, the same routing key by key (across admissions, with a change of
fractions in between), and the same ``reduce-tasks`` events, reused or
not — a serve archive is the one a fresh map per admission writes.
"""

import pytest

from repro.engine.job import MapReduceEngine
from repro.engine.shuffle import ReduceTaskMap, key_to_task
from repro.errors import EngineError
from repro.obs import instrument
from repro.obs.telemetry import TelemetryBus, telemetry_digest
from repro.serve import ServeConfig, serve_workload
from repro.systems.base import SystemConfig
from repro.wan.presets import ec2_ten_sites, uniform_sites
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

A = {"site-0": 0.5, "site-1": 0.3, "site-2": 0.2}
B = {"site-0": 0.2, "site-1": 0.0, "site-2": 0.8}


def engine():
    return MapReduceEngine(uniform_sites(3))


def test_same_fractions_and_task_count_reuse_the_map():
    eng = engine()
    first = eng.task_map(A, 16)
    assert eng.task_map(dict(A), 16) is first
    fresh = ReduceTaskMap.from_fractions(A, 16)
    assert first.task_sites == fresh.task_sites
    assert first.dealt == fresh.dealt
    # Another task count or another order of the same fractions is a
    # deal of its own.
    assert eng.task_map(A, 8) is not first
    reordered = dict(reversed(list(A.items())))
    assert eng.task_map(reordered, 16).task_sites == ReduceTaskMap.from_fractions(
        reordered, 16
    ).task_sites


def test_a_change_of_fractions_deals_afresh_and_back():
    eng = engine()
    first = eng.task_map(A, 16)
    other = eng.task_map(B, 16)
    assert other.task_sites == ReduceTaskMap.from_fractions(B, 16).task_sites
    again = eng.task_map(A, 16)
    assert again.task_sites == first.task_sites


def test_routing_answers_key_by_key_across_admissions():
    eng = engine()
    batches = [
        [(f"k{i % 37}", i % 5) for i in range(120)],
        [(f"k{i % 53}", i % 3) for i in range(90)],
        [(f"k{i}",) for i in range(40)],
    ]
    # Admissions under A, then B, then A again: memo hits and misses mix.
    for fractions in (A, A, B, A, B):
        for keys in batches:
            task_map, _dead = eng.resolve_routing(fractions, 24)
            table = task_map.routing_table(keys)
            assert set(table) == set(keys)
            for key in keys:
                want = task_map.task_sites[key_to_task(key, 24)]
                assert table[key] == want == task_map.site_of_key(key)


def test_every_call_reports_its_deal():
    eng = engine()
    with instrument.instrumented() as obs:
        for _ in range(3):
            eng.task_map(A, 10)
    with instrument.instrumented() as fresh:
        for _ in range(3):
            ReduceTaskMap.from_fractions(A, 10)
    reported = [
        (event.kind, event.attrs) for event in obs.telemetry.events
    ]
    assert reported == [(event.kind, event.attrs) for event in fresh.telemetry.events]
    assert len(reported) == 3 * len(A)


def test_a_hostile_deal_is_never_kept():
    eng = engine()
    with pytest.raises(EngineError):
        eng.task_map({"site-0": float("nan"), "site-1": 1.0}, 8)
    with pytest.raises(EngineError):
        eng.task_map({"site-0": float("nan"), "site-1": 1.0}, 8)


SPEC = WorkloadSpec(records_per_site=30, record_bytes=100_000, num_datasets=2)
CONFIG = SystemConfig(lag_seconds=6.0, partition_records=8)


def served_events():
    topology = ec2_ten_sites(base_uplink="1MB/s", machines=1, executors_per_machine=2)

    def factory():
        return bigdata_workload(topology, seed=13, spec=SPEC, flavour="aggregation")

    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        report = serve_workload(
            "bohr", factory, topology, CONFIG,
            ServeConfig(seed=11, num_tenants=3, num_queries=12, cache_capacity=0),
        )
    return report, bus.events


def test_the_serve_archive_is_the_one_a_fresh_map_per_admission_writes(monkeypatch):
    handed_out = []
    task_map = MapReduceEngine.task_map

    def recorded(self, *args):
        handed_out.append(task_map(self, *args))
        return handed_out[-1]

    with monkeypatch.context() as patch:
        patch.setattr(MapReduceEngine, "task_map", recorded)
        report, events = served_events()
    # Admissions did share maps.
    assert len({id(reused) for reused in handed_out}) < len(handed_out)
    with monkeypatch.context() as patch:
        patch.setattr(
            MapReduceEngine,
            "task_map",
            lambda self, fractions, num_tasks: ReduceTaskMap.from_fractions(
                fractions, num_tasks
            ),
        )
        fresh_report, fresh_events = served_events()
    assert report.sim_digest() == fresh_report.sim_digest()

    def deals(stream):
        return [event.attrs for event in stream if event.kind == "reduce-tasks"]

    assert deals(events) == deals(fresh_events)
    assert len(deals(events)) >= report.executed
    assert telemetry_digest(events) == telemetry_digest(fresh_events)
