"""Statistics helper tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import RunningStats, mean, percentile, stdev


class TestMean:
    def test_basic(self):
        assert mean([1, 2, 3]) == 2.0

    def test_empty(self):
        assert mean([]) == 0.0

    def test_generator_input(self):
        assert mean(x for x in (2.0, 4.0)) == 3.0


class TestStdev:
    def test_constant(self):
        assert stdev([5, 5, 5]) == 0.0

    def test_known_value(self):
        assert math.isclose(stdev([2, 4, 4, 4, 5, 5, 7, 9]), 2.138089935299395)

    def test_single_value(self):
        assert stdev([42]) == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        data = [3, 1, 2]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 3

    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([7], 99) == 7

    def test_out_of_range_rank_clamps(self):
        data = [3, 1, 2]
        assert percentile(data, -10) == 1
        assert percentile(data, 250) == 3

    def test_nan_rank_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, 2.0], float("nan"))

    def test_unsorted_input_matches_sorted(self):
        assert percentile([9, 1, 5, 3], 50) == percentile([1, 3, 5, 9], 50)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_property_within_data_range(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)

    @given(
        st.lists(
            st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40
        ),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_property_monotone_in_rank(self, values, first, second):
        low, high = sorted((first, second))
        assert percentile(values, low) <= percentile(values, high)


class TestRunningStats:
    def test_matches_batch(self):
        values = [1.0, 2.0, 3.5, -4.0, 10.0]
        stats = RunningStats()
        stats.extend(values)
        assert math.isclose(stats.mean, mean(values))
        assert math.isclose(stats.stdev, stdev(values))
        assert stats.minimum == -4.0
        assert stats.maximum == 10.0
        assert stats.count == 5

    def test_empty_summary(self):
        assert RunningStats().summary() == [0, 0.0, 0.0, 0.0, 0.0]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_property_matches_batch(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert math.isclose(stats.mean, mean(values), rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(stats.stdev, stdev(values), rel_tol=1e-6, abs_tol=1e-6)

    def test_near_constant_stream_never_negative_variance(self):
        # Welford m2 can land a hair below zero here; stdev must not
        # raise on sqrt of a negative.
        stats = RunningStats()
        stats.extend([0.1] * 1000)
        assert stats.variance >= 0.0
        assert stats.stdev == 0.0

    def test_single_sample(self):
        stats = RunningStats()
        stats.add(3.25)
        assert stats.mean == 3.25
        assert stats.variance == 0.0
        assert stats.minimum == stats.maximum == 3.25
        assert stats.summary() == [1, 3.25, 0.0, 3.25, 3.25]
