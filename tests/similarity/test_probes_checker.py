"""Probe construction and cross-site checking tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimilarityError
from repro.olap.dimension_cube import DimensionCubeSet, query_type_key
from repro.similarity.checker import SimilarityChecker, intra_site_similarity
from repro.similarity.probes import (
    Probe,
    ProbeBuilder,
    ProbeRecord,
    largest_remainder_allocation,
)
from repro.types import Record, Schema

SCHEMA = Schema.of("url", "region")


def cube_set_from(rows):
    return DimensionCubeSet.build([Record(row) for row in rows], SCHEMA)


def bottleneck_cubes():
    # url u1 dominates (cluster of 3), then u2 (2), then u3 (1).
    return cube_set_from(
        [
            ("u1", "asia"),
            ("u1", "asia"),
            ("u1", "eu"),
            ("u2", "asia"),
            ("u2", "asia"),
            ("u3", "us"),
        ]
    )


class TestLargestRemainder:
    def test_exact_split(self):
        shares = largest_remainder_allocation({"a": 0.2, "b": 0.8}, 30)
        assert shares == {"a": 6, "b": 24}

    def test_sums_to_total(self):
        shares = largest_remainder_allocation({"a": 1, "b": 1, "c": 1}, 10)
        assert sum(shares.values()) == 10

    def test_zero_weight_gets_zero(self):
        shares = largest_remainder_allocation({"a": 1.0, "b": 0.0}, 5)
        assert shares["b"] == 0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(SimilarityError):
            largest_remainder_allocation({"a": 0.0}, 5)

    @pytest.mark.parametrize("weights, message", [
        ({"x": float("nan"), "y": 1.0}, "weight of 'x' must be finite and >= 0, got nan"),
        ({"x": float("inf"), "y": 1.0}, "weight of 'x' must be finite and >= 0, got inf"),
        ({"x": -1.0, "y": 3.0}, "weight of 'x' must be finite and >= 0, got -1.0"),
        ({"x": 1e308, "y": 1.0}, "weights total 1e\\+308 is not finite over 8 units"),
        ({"x": 1e308, "y": 1e308}, "weights total inf is not finite over 8 units"),
    ])
    def test_rejects_hostile_weights(self, weights, message):
        with pytest.raises(SimilarityError, match=message):
            largest_remainder_allocation(weights, 8)

    def test_large_finite_weights_still_allocate(self):
        assert largest_remainder_allocation({"x": 1e307, "y": 1e307}, 8) == {
            "x": 4, "y": 4,
        }

    @given(
        weights=st.dictionaries(
            st.text(min_size=1, max_size=3),
            st.floats(min_value=0.01, max_value=100),
            min_size=1,
            max_size=6,
        ),
        total=st.integers(min_value=0, max_value=100),
    )
    def test_property_sums_to_total(self, weights, total):
        shares = largest_remainder_allocation(weights, total)
        assert sum(shares.values()) == total
        assert all(value >= 0 for value in shares.values())


class TestProbeBuilder:
    def test_paper_weight_example(self):
        # §4.2: 500 queries, one type has 100 -> weight 0.2 -> 6 of k=30.
        cubes = bottleneck_cubes()
        builder = ProbeBuilder(k=30)
        probe = builder.build(
            "logs",
            "tokyo",
            cubes,
            {("url",): 0.2, ("region",): 0.8},
        )
        url_records = probe.records_for(["url"])
        region_records = probe.records_for(["region"])
        # Cubes have only 3 url values / 3 regions, so shares are capped
        # by available cells; allocation itself was 6/24.
        assert len(url_records) <= 6
        assert len(region_records) <= 24
        assert probe.query_types == [("url",), ("region",)]

    @pytest.mark.parametrize("weight, message", [
        (float("nan"), "weight of 'url' must be finite and >= 0, got nan"),
        (-0.5, "weight of 'url' must be finite and >= 0, got -0.5"),
        (1e308, "weights total 1e\\+308 is not finite over 30 units"),
    ])
    def test_hostile_query_type_weights(self, weight, message):
        with pytest.raises(SimilarityError, match=message):
            ProbeBuilder(k=30).build(
                "logs", "tokyo", bottleneck_cubes(),
                {("url",): weight, ("region",): 1.0},
            )

    def test_top_k_by_cluster_size(self):
        cubes = bottleneck_cubes()
        probe = ProbeBuilder(k=2).build("logs", "tokyo", cubes, {("url",): 1.0})
        keys = [record.key for record in probe.records]
        assert keys == [("u1",), ("u2",)]
        assert probe.records[0].weight == 3

    def test_probe_size_bytes(self):
        cubes = bottleneck_cubes()
        probe = ProbeBuilder(k=3).build("logs", "tokyo", cubes, {("url",): 1.0})
        assert probe.size_bytes == len(probe.records) * 256

    def test_empty_cubes_rejected(self):
        empty = cube_set_from([])
        with pytest.raises(SimilarityError):
            ProbeBuilder(k=5).build("logs", "tokyo", empty, {("url",): 1.0})

    def test_no_query_types_rejected(self):
        with pytest.raises(SimilarityError):
            ProbeBuilder(k=5).build("logs", "tokyo", bottleneck_cubes(), {})

    def test_bad_k(self):
        with pytest.raises(SimilarityError):
            ProbeBuilder(k=0)

    def test_probe_record_weight_validation(self):
        with pytest.raises(SimilarityError):
            ProbeRecord(key=("a",), weight=0, query_type=("url",))

    def test_allocate_across_datasets_by_size(self):
        builder = ProbeBuilder(k=30)
        # Table 2 proportions: sizes 0.87, 4.32, 3.21, 0.57 GB.
        sizes = {"1": 870, "3": 4320, "7": 3210, "10": 570}
        allocation = builder.allocate_across_datasets(sizes)
        assert sum(allocation.values()) == 30
        assert allocation["3"] > allocation["7"] > allocation["1"] >= allocation["10"]
        assert allocation["3"] == pytest.approx(15, abs=1)

    def test_allocate_guarantees_minimum(self):
        builder = ProbeBuilder(k=10)
        allocation = builder.allocate_across_datasets({"big": 10**9, "tiny": 1})
        assert allocation["tiny"] >= 1

    def test_allocate_empty(self):
        assert ProbeBuilder().allocate_across_datasets({}) == {}


class TestSimilarityChecker:
    def test_full_match(self):
        cubes = bottleneck_cubes()
        probe = ProbeBuilder(k=3).build("logs", "tokyo", cubes, {("url",): 1.0})
        checker = SimilarityChecker()
        result = checker.check(probe, "oregon", bottleneck_cubes())
        assert result.similarity == 1.0
        assert result.per_query_type[("url",)] == 1.0
        assert result.elapsed_seconds >= 0.0

    def test_no_match(self):
        probe = ProbeBuilder(k=3).build(
            "logs", "tokyo", bottleneck_cubes(), {("url",): 1.0}
        )
        other = cube_set_from([("z1", "asia"), ("z2", "eu")])
        result = SimilarityChecker().check(probe, "oregon", other)
        assert result.similarity == 0.0

    def test_weighted_partial_match(self):
        probe = ProbeBuilder(k=3).build(
            "logs", "tokyo", bottleneck_cubes(), {("url",): 1.0}
        )
        # Target has u1 (weight 3) but not u2 (2) or u3 (1): 3/6.
        target = cube_set_from([("u1", "asia")])
        result = SimilarityChecker().check(probe, "oregon", target)
        assert result.similarity == pytest.approx(0.5)

    def test_check_against_sites_skips_origin(self):
        probe = ProbeBuilder(k=2).build(
            "logs", "tokyo", bottleneck_cubes(), {("url",): 1.0}
        )
        cubes_by_site = {"tokyo": bottleneck_cubes(), "oregon": bottleneck_cubes()}
        results = SimilarityChecker().check_against_sites(probe, cubes_by_site)
        assert set(results) == {"oregon"}

    def test_timing_accumulates(self):
        probe = ProbeBuilder(k=2).build(
            "logs", "tokyo", bottleneck_cubes(), {("url",): 1.0}
        )
        checker = SimilarityChecker()
        checker.check(probe, "a", bottleneck_cubes())
        checker.check(probe, "b", bottleneck_cubes())
        assert checker.total_checks == 2
        assert checker.mean_check_seconds >= 0.0
        assert len(checker.history) == 2

    def test_similarity_validation(self):
        with pytest.raises(SimilarityError):
            from repro.similarity.checker import SiteSimilarity

            SiteSimilarity("d", "a", "b", 1.5, {}, 0.0)


class TestIntraSiteSimilarity:
    def test_from_cube(self):
        cubes = bottleneck_cubes()
        cube = cubes.cube_for(["url"])
        # 6 records, 3 distinct urls -> 0.5.
        assert intra_site_similarity(cube) == pytest.approx(0.5)

    def test_empty_cube(self):
        from repro.olap.cube import OLAPCube

        assert intra_site_similarity(OLAPCube(dimensions=("k",))) == 0.0
