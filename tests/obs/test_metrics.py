"""Metrics registry: labeled series, histogram percentiles, sorted dumps."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("bytes", src="a", dst="b").inc(10)
        registry.counter("bytes", src="a", dst="b").inc(5)
        assert registry.counter("bytes", src="a", dst="b").value == 15

    def test_labels_partition_series(self):
        registry = MetricsRegistry()
        registry.counter("bytes", src="a").inc(1)
        registry.counter("bytes", src="b").inc(2)
        assert registry.counter("bytes", src="a").value == 1
        assert registry.counter("bytes", src="b").value == 2
        assert len(registry.series()) == 2

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("tasks", site="a").set(4)
        registry.gauge("tasks", site="a").set(7)
        assert registry.gauge("tasks", site="a").value == 7

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")


class TestHistogramPercentiles:
    def test_exact_percentiles_interpolate(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(90) == pytest.approx(90.1)
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)

    def test_single_sample(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        histogram.observe(3.0)
        for q in (0, 50, 99, 100):
            assert histogram.percentile(q) == 3.0

    def test_empty_histogram(self):
        histogram = MetricsRegistry().histogram("lat")
        assert histogram.percentile(50) == 0.0
        assert histogram.mean == 0.0

    def test_percentile_bounds_checked(self):
        histogram = MetricsRegistry().histogram("lat")
        with pytest.raises(ObservabilityError):
            histogram.percentile(101)

    def test_unsorted_observations(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in (9.0, 1.0, 5.0, 3.0, 7.0):
            histogram.observe(value)
        assert histogram.percentile(50) == 5.0


class TestSnapshot:
    def test_snapshot_shape(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("bytes", src="a").inc(10)
        registry.histogram("lat").observe(1.0)
        registry.histogram("lat").observe(3.0)
        snapshot = registry.snapshot()
        by_name = {record["name"]: record for record in snapshot}
        assert by_name["bytes"]["value"] == 10
        assert by_name["lat"]["count"] == 2
        assert by_name["lat"]["p50"] == 2.0
        path = tmp_path / "metrics.json"
        registry.to_json(str(path))
        assert json.loads(path.read_text()) == snapshot


class TestDeterministicDumps:
    """Regression: dumps must not depend on call-site kwargs order."""

    @staticmethod
    def _populate(registry, swap_kwargs):
        if swap_kwargs:
            registry.counter("bytes", dst="b", src="a").inc(5)
        else:
            registry.counter("bytes", src="a", dst="b").inc(5)
        registry.gauge("frac", site="x").set(0.5)
        registry.histogram("lat", stage="map").observe(1.0)

    def test_snapshot_identical_across_kwargs_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        self._populate(first, swap_kwargs=False)
        self._populate(second, swap_kwargs=True)
        assert json.dumps(first.snapshot()) == json.dumps(second.snapshot())

    def test_labels_stored_sorted(self):
        registry = MetricsRegistry()
        registry.counter("bytes", zeta="z", alpha="a").inc(1)
        (series,) = registry.series()
        assert list(series.labels) == ["alpha", "zeta"]

    def test_to_json_bytes_identical(self, tmp_path):
        paths = []
        for index, swap in enumerate((False, True)):
            registry = MetricsRegistry()
            self._populate(registry, swap_kwargs=swap)
            path = tmp_path / f"metrics{index}.json"
            registry.to_json(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_series_sorted_regardless_of_creation_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a_metric").inc()
        first.counter("z_metric").inc()
        second.counter("z_metric").inc()
        second.counter("a_metric").inc()
        assert [s.name for s in first.series()] == [
            s.name for s in second.series()
        ] == ["a_metric", "z_metric"]
