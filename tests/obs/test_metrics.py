"""The metrics fold of ``views.metrics_from_events``: labeled series,
exact histogram percentiles, sorted dumps."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.views import _count, _observe, _set, _snapshot
from repro.util.stats import percentile


def by_name(metrics):
    return {record["name"]: record for record in _snapshot(metrics)}


def histogram(*samples):
    metrics = {}
    for sample in samples:
        _observe(metrics, "lat", sample)
    return by_name(metrics)["lat"]


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        metrics = {}
        _count(metrics, "bytes", 10, src="a", dst="b")
        _count(metrics, "bytes", 5, src="a", dst="b")
        assert by_name(metrics)["bytes"]["value"] == 15

    def test_labels_partition_series(self):
        metrics = {}
        _count(metrics, "bytes", 1, src="a")
        _count(metrics, "bytes", 2, src="b")
        records = _snapshot(metrics)
        assert [(r["labels"], r["value"]) for r in records] == [
            ({"src": "a"}, 1), ({"src": "b"}, 2),
        ]

    def test_counter_rejects_decrease(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            _count({}, "c", -1)

    def test_gauge_last_write_wins(self):
        metrics = {}
        _set(metrics, "tasks", 4, site="a")
        _set(metrics, "tasks", 7, site="a")
        assert by_name(metrics)["tasks"]["value"] == 7

    def test_kind_conflict_raises(self):
        metrics = {}
        _count(metrics, "x")
        with pytest.raises(ObservabilityError, match="already registered"):
            _set(metrics, "x", 1.0)


class TestHistogramPercentiles:
    def test_exact_percentiles_interpolate(self):
        ordered = [float(value) for value in range(1, 101)]  # 1..100
        assert percentile(ordered, 0) == 1.0
        assert percentile(ordered, 100) == 100.0
        assert percentile(ordered, 50) == pytest.approx(50.5)
        assert percentile(ordered, 90) == pytest.approx(90.1)
        record = histogram(*ordered)
        assert record["count"] == 100
        assert record["mean"] == pytest.approx(50.5)
        assert record["p50"] == pytest.approx(50.5)

    def test_single_sample(self):
        for q in (0, 50, 99, 100):
            assert percentile([3.0], q) == 3.0
        assert histogram(3.0)["p99"] == 3.0

    def test_empty_histogram(self):
        assert percentile([], 50) == 0.0

    def test_percentile_bounds_checked(self):
        # Out-of-range ranks clamp to the extremes; a NaN rank raises.
        assert percentile([1.0, 2.0], 101) == 2.0
        assert percentile([1.0, 2.0], -1) == 1.0
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0], float("nan"))

    def test_unsorted_observations(self):
        record = histogram(9.0, 1.0, 5.0, 3.0, 7.0)
        assert record["p50"] == 5.0
        assert record["max"] == 9.0


class TestSnapshot:
    def test_snapshot_shape(self):
        metrics = {}
        _count(metrics, "bytes", 10, src="a")
        _observe(metrics, "lat", 1.0)
        _observe(metrics, "lat", 3.0)
        records = by_name(metrics)
        assert records["bytes"] == {
            "name": "bytes", "labels": {"src": "a"}, "type": "counter", "value": 10.0,
        }
        assert list(records["lat"]) == [
            "name", "labels", "type",
            "count", "sum", "mean", "p50", "p90", "p99", "max",
        ]
        assert records["lat"]["count"] == 2
        assert records["lat"]["p50"] == 2.0


class TestDeterministicDumps:
    """Regression: dumps must not depend on call-site kwargs order."""

    @staticmethod
    def _populate(swap_kwargs):
        metrics = {}
        if swap_kwargs:
            _count(metrics, "bytes", 5, dst="b", src="a")
        else:
            _count(metrics, "bytes", 5, src="a", dst="b")
        _set(metrics, "frac", 0.5, site="x")
        _observe(metrics, "lat", 1.0, stage="map")
        return _snapshot(metrics)

    def test_snapshot_identical_across_kwargs_order(self):
        assert json.dumps(self._populate(False)) == json.dumps(self._populate(True))

    def test_labels_stored_sorted(self):
        metrics = {}
        _count(metrics, "bytes", 1, zeta="z", alpha="a")
        (record,) = _snapshot(metrics)
        assert list(record["labels"]) == ["alpha", "zeta"]

    def test_to_json_bytes_identical(self, tmp_path):
        """``--metrics`` writes the records as sorted-key JSON."""
        from repro.cli import _write_metrics

        paths = []
        for index, swap in enumerate((False, True)):
            path = tmp_path / f"metrics{index}.json"
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    "repro.obs.views.metrics_from_events",
                    lambda events, swap=swap: self._populate(swap),
                )
                _write_metrics(str(path), [])
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text()) == self._populate(False)

    def test_series_sorted_regardless_of_creation_order(self):
        first, second = {}, {}
        _count(first, "a_metric")
        _count(first, "z_metric")
        _count(second, "z_metric")
        _count(second, "a_metric")
        assert [r["name"] for r in _snapshot(first)] == [
            r["name"] for r in _snapshot(second)
        ] == ["a_metric", "z_metric"]
