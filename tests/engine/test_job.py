"""End-to-end engine tests: map, combine, shuffle, reduce, QCT."""

import math

import pytest

from repro.engine.job import MapReduceEngine
from repro.engine.spec import MapReduceSpec
from repro.errors import EngineError
from repro.types import GeoDataset, Record, Schema
from repro.wan.presets import uniform_sites
from repro.wan.topology import Site, WanTopology


SCHEMA = Schema.of("url", "score", kinds={"score": "numeric"})


def dataset_with(shards):
    dataset = GeoDataset("logs", SCHEMA)
    for site, keys in shards.items():
        dataset.add_records(site, [Record((key, 1), size_bytes=1000) for key in keys])
    return dataset


def simple_topology():
    return WanTopology.from_sites(
        [
            Site("tokyo", uplink_bps=1000.0, downlink_bps=1000.0, compute_bps=1e12,
                 machines=1, executors_per_machine=2),
            Site("oregon", uplink_bps=5000.0, downlink_bps=5000.0, compute_bps=1e12,
                 machines=1, executors_per_machine=2),
        ]
    )


class TestSpec:
    def test_validation(self):
        with pytest.raises(EngineError):
            MapReduceSpec.of([], 0.5)
        with pytest.raises(EngineError):
            MapReduceSpec.of([0, 0], 0.5)
        with pytest.raises(EngineError):
            MapReduceSpec.of([0], 0.0)
        with pytest.raises(EngineError):
            MapReduceSpec.of([0], 0.5, num_reduce_tasks=0)

    def test_of(self):
        spec = MapReduceSpec.of([0], 0.5, 10)
        assert spec.key_indices == (0,)


class TestJobBasics:
    def test_empty_dataset(self):
        engine = MapReduceEngine(simple_topology())
        result = engine.run(dataset_with({}), MapReduceSpec.of([0], 1.0))
        assert result.qct == 0.0
        assert result.total_intermediate_bytes == 0.0

    def test_single_site_no_wan(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": ["a", "b", "c"]})
        result = engine.run(
            dataset, MapReduceSpec.of([0], 1.0), reduce_fractions={"tokyo": 1.0}
        )
        metrics = result.per_site["tokyo"]
        assert metrics.uploaded_bytes == 0.0
        assert metrics.local_shuffle_bytes == 3000.0
        assert result.qct > 0.0

    def test_intermediate_reflects_combining(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": ["a"] * 10})
        result = engine.run(dataset, MapReduceSpec.of([0], 1.0), cube_sorted=True)
        metrics = result.per_site["tokyo"]
        assert metrics.map_output_bytes == 10_000.0
        assert metrics.intermediate_bytes == 1000.0
        assert metrics.combine_savings == pytest.approx(0.9)

    def test_reduction_ratio_shrinks_intermediate(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": ["a", "b", "c", "d"]})
        full = engine.run(dataset, MapReduceSpec.of([0], 1.0))
        half = engine.run(dataset, MapReduceSpec.of([0], 0.5))
        assert half.total_intermediate_bytes == pytest.approx(
            full.total_intermediate_bytes / 2
        )

    def test_unknown_site_in_fractions(self):
        engine = MapReduceEngine(simple_topology())
        with pytest.raises(EngineError):
            engine.run(
                dataset_with({"tokyo": ["a"]}),
                MapReduceSpec.of([0], 1.0),
                reduce_fractions={"mars": 1.0},
            )

    def test_bad_partition_records(self):
        with pytest.raises(EngineError):
            MapReduceEngine(simple_topology(), partition_records=0)


class TestShuffleVolumes:
    def test_conservation(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with(
            {"tokyo": ["a", "b", "c", "d"], "oregon": ["e", "f", "g"]}
        )
        result = engine.run(dataset, MapReduceSpec.of([0], 1.0))
        total_moved = sum(
            m.uploaded_bytes + m.local_shuffle_bytes for m in result.per_site.values()
        )
        assert total_moved == pytest.approx(result.total_intermediate_bytes)
        uploaded = sum(m.uploaded_bytes for m in result.per_site.values())
        downloaded = sum(m.downloaded_bytes for m in result.per_site.values())
        assert uploaded == pytest.approx(downloaded)

    def test_all_tasks_at_one_site_uploads_everything_else(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": ["a", "b"], "oregon": ["c", "d"]})
        result = engine.run(
            dataset, MapReduceSpec.of([0], 1.0), reduce_fractions={"oregon": 1.0}
        )
        tokyo = result.per_site["tokyo"]
        assert tokyo.uploaded_bytes == tokyo.intermediate_bytes
        assert result.per_site["oregon"].uploaded_bytes == 0.0


class TestQct:
    def test_qct_dominated_by_slow_uplink(self):
        # All reduce tasks at oregon; tokyo must upload through 1000 B/s.
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": [f"k{i}" for i in range(10)]})
        result = engine.run(
            dataset, MapReduceSpec.of([0], 1.0), reduce_fractions={"oregon": 1.0}
        )
        expected_transfer = 10_000.0 / 1000.0
        assert result.qct == pytest.approx(expected_transfer, rel=0.01)

    def test_moving_tasks_to_data_reduces_qct(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": [f"k{i}" for i in range(10)]})
        remote = engine.run(
            dataset, MapReduceSpec.of([0], 1.0), reduce_fractions={"oregon": 1.0}
        )
        local = engine.run(
            dataset, MapReduceSpec.of([0], 1.0), reduce_fractions={"tokyo": 1.0}
        )
        assert local.qct < remote.qct

    def test_finish_times_cover_map_only_sites(self):
        engine = MapReduceEngine(simple_topology())
        dataset = dataset_with({"tokyo": ["a"]})
        result = engine.run(
            dataset, MapReduceSpec.of([0], 1.0), reduce_fractions={"oregon": 1.0}
        )
        assert result.per_site["tokyo"].finish_time >= 0.0
        assert result.qct >= result.per_site["oregon"].finish_time - 1e-12


class TestCubeSortingEffect:
    def test_cube_sorted_combines_at_least_as_well(self):
        # Duplicate keys scattered through arrival order: cube sorting
        # packs them into the same partitions/executors.
        topology = uniform_sites(1, uplink=1000.0, machines=2, executors_per_machine=4)
        engine = MapReduceEngine(topology, partition_records=4)
        keys = [f"k{i % 8}" for i in range(64)]  # every key appears 8x
        dataset = GeoDataset("logs", SCHEMA)
        dataset.add_records(
            "site-0", [Record((k, 1), size_bytes=100) for k in keys]
        )
        spec = MapReduceSpec.of([0], 1.0)
        raw = engine.run(dataset, spec, cube_sorted=False)
        sorted_run = engine.run(dataset, spec, cube_sorted=True)
        assert (
            sorted_run.total_intermediate_bytes <= raw.total_intermediate_bytes
        )
        # With 8 distinct keys and partitions of 4 in sorted order the
        # intermediate is exactly 8 x 2 halves... at most 2 partials/key.
        assert sorted_run.per_site["site-0"].intermediate_records <= 16


class TestRddSimilarityEffect:
    def test_similarity_assignment_reduces_intermediate(self):
        # One machine, 2 executors, 4 partitions: two "a-heavy", two
        # "b-heavy" but interleaved by arrival. Random round-robin mixes
        # them; similarity clustering pairs them and combines better.
        topology = uniform_sites(1, uplink=1000.0, machines=1, executors_per_machine=2)
        keys = (["a1", "a2"] * 8) + (["b1", "b2"] * 8)
        # Arrival order interleaves a-partitions and b-partitions.
        arrival = []
        for i in range(8):
            arrival.extend(["a1", "a2"])
            arrival.extend(["b1", "b2"])
        dataset = GeoDataset("logs", SCHEMA)
        dataset.add_records("site-0", [Record((k, 1), size_bytes=100) for k in arrival])
        spec = MapReduceSpec.of([0], 1.0)
        base = MapReduceEngine(topology, partition_records=4, rdd_similarity=False)
        aware = MapReduceEngine(topology, partition_records=4, rdd_similarity=True)
        base_result = base.run(dataset, spec)
        aware_result = aware.run(dataset, spec)
        assert (
            aware_result.total_intermediate_bytes
            <= base_result.total_intermediate_bytes
        )
        assert aware_result.total_rdd_overhead_seconds > 0.0
        assert base_result.total_rdd_overhead_seconds == 0.0

    def test_overhead_is_charged_to_the_map_stage(self):
        topology = uniform_sites(1, machines=1, executors_per_machine=2)
        dataset = GeoDataset("logs", SCHEMA)
        dataset.add_records(
            "site-0", [Record((f"k{i}", 1), size_bytes=100) for i in range(32)]
        )
        engine = MapReduceEngine(topology, partition_records=4, rdd_similarity=True)
        first, second = (
            engine.run(dataset, MapReduceSpec.of([0], 1.0)).per_site["site-0"]
            for _ in range(2)
        )
        assert first.rdd_overhead_seconds > 0.0
        assert first.map_finish == first.map_seconds + first.rdd_overhead_seconds
        assert second == first
