"""The record generators against the code they replaced, and their two
draw helpers against the NumPy calls they stand in for.

``tests/workloads/reference_generators.py`` keeps the generators that
drew each categorical pick with ``rng.choice(n, p=p)`` and rounded with
``float(np.round(x, d))``.  The shipped ones must give the same records:
equal values of the same types (``3 == 3.0`` is not enough, and neither
is ``-0.0 == 0.0``), and equal sizes.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.facebook import _generate_trace_records
from repro.workloads.synthetic import (
    SyntheticDatasetConfig,
    generate_records,
    round_half_even,
    weighted_sampler,
    zipf_weights,
)
from repro.workloads.tpcds import _generate_sales
from tests.workloads.reference_generators import (
    reference_generate_records,
    reference_generate_sales,
    reference_generate_trace_records,
)


def fingerprint(records):
    """What a record is, down to value types and the sign of a zero."""
    return [
        (
            tuple((type(value), repr(value)) for value in record.values),
            type(record.size_bytes),
            record.size_bytes,
        )
        for record in records
    ]


regions_st = st.lists(
    st.sampled_from(["tokyo", "oregon", "virginia", "ireland", "sydney", "r/0"]),
    min_size=1,
    max_size=6,
)
counts_st = st.integers(min_value=0, max_value=120)
seeds_st = st.integers(min_value=0, max_value=2**32)
exponents_st = st.floats(min_value=0.0, max_value=4.0)
sizes_st = st.sampled_from([1, 100, 512 * 1024])


@settings(max_examples=120, deadline=None)
@given(
    regions=regions_st, count=counts_st, seed=seeds_st,
    exponent=exponents_st, record_bytes=sizes_st,
    num_items=st.integers(min_value=1, max_value=80),
)
def test_sales_equal_the_reference(regions, count, seed, exponent, record_bytes, num_items):
    args = ("store_sales_0", regions, count, record_bytes, seed)
    kwargs = dict(num_items=num_items, zipf_exponent=exponent)
    assert fingerprint(_generate_sales(*args, **kwargs)) == fingerprint(
        reference_generate_sales(*args, **kwargs)
    )


@settings(max_examples=120, deadline=None)
@given(
    regions=regions_st, count=counts_st, seed=seeds_st,
    exponent=exponents_st, record_bytes=sizes_st,
    num_keys=st.integers(min_value=1, max_value=80),
)
def test_trace_records_equal_the_reference(regions, count, seed, exponent, record_bytes, num_keys):
    args = ("fbtrace-0", regions, count, record_bytes, exponent, seed)
    assert fingerprint(_generate_trace_records(*args, num_keys=num_keys)) == fingerprint(
        reference_generate_trace_records(*args, num_keys=num_keys)
    )


@settings(max_examples=120, deadline=None)
@given(
    regions=regions_st, count=counts_st, seed=seeds_st,
    exponent=st.floats(min_value=0.05, max_value=4.0), record_bytes=sizes_st,
    locality=st.floats(min_value=0.0, max_value=1.0),
    local_keys=st.integers(min_value=0, max_value=5),
)
def test_log_records_equal_the_reference(regions, count, seed, exponent, record_bytes, locality, local_keys):
    config = SyntheticDatasetConfig(
        zipf_exponent=exponent, locality_bias=locality,
        local_keys_per_region=local_keys,
    )
    args = ("logs", regions, count, record_bytes, config, seed)
    assert fingerprint(generate_records(*args)) == fingerprint(
        reference_generate_records(*args)
    )


# ----------------------------------------------------------------------
# The frozen benchmark datasets
# ----------------------------------------------------------------------

#: (family, records per site, datasets, queries per dataset) of every
#: perfbench workload's dataset, and the digest of its records (taken
#: from the generators kept in ``reference_generators.py``).
PERFBENCH_DATASETS = {
    ("tpcds", 360, 3, 4): "a70ec592c2be4a43",
    ("facebook", 360, 3, 4): "937b499781a6a077",
    ("tpcds", 200, 8, 2): "5b15a97a209bc9e1",
    ("tpcds", 100, 6, 7): "b285aba9f52df920",
    ("tpcds", 400, 3, 4): "f9baec7e8320a33f",
}


def workload_digest(workload) -> str:
    """Every record of every shard, in catalog and site order, and each
    query's execution count."""
    digest = hashlib.sha256()
    for dataset in workload.catalog:
        for site in sorted(dataset.shards):
            digest.update(repr((dataset.dataset_id, site)).encode())
            digest.update(repr(fingerprint(dataset.shards[site])).encode())
    digest.update(repr([query.executions for query in workload.queries]).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("shape", sorted(PERFBENCH_DATASETS))
def test_perfbench_datasets_are_pinned(shape):
    from perfbench import inputs

    assert inputs.DATA_SEED == 15
    workload = inputs.build_dataset_workload(shape[0], inputs.topology(), *shape[1:])
    assert workload_digest(workload) == PERFBENCH_DATASETS[shape]


# ----------------------------------------------------------------------
# The two draw helpers
# ----------------------------------------------------------------------

ROUNDING_VALUES = [
    0.0, -0.0, 0.125, -0.125, 2.5, -2.5, 0.5, -0.5, 1.5, 2.675, -2.675,
    0.005, -0.005, 0.0049, -0.0049, 1.005, 0.045, 123.4565, -123.4565,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
    4503599627370495.5, 4503599627370496.0, 2.0**53 + 2, 1e16, -1e16,
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, 0.1 + 0.2, 499.995, 9.9995, 22026.465794806718,
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("decimals", range(5))
@pytest.mark.parametrize("value", ROUNDING_VALUES)
def test_round_half_even_is_numpy_round(value, decimals):
    expected = float(np.round(value, decimals))
    got = round_half_even(value, decimals)
    assert type(got) is float
    assert repr(got) == repr(expected)


def test_round_half_even_of_nan_is_nan():
    assert math.isnan(round_half_even(math.nan, 2))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=2000, deadline=None)
@given(
    value=st.one_of(
        st.floats(allow_nan=False),
        st.floats(min_value=-1000.0, max_value=1000.0),
        st.integers(min_value=-10**6, max_value=10**6).map(lambda n: n / 1000.0 + 0.0005),
        st.integers(min_value=-10**6, max_value=10**6).map(lambda n: n / 8.0),
    ),
    decimals=st.integers(min_value=0, max_value=4),
)
def test_round_half_even_property(value, decimals):
    assert repr(round_half_even(value, decimals)) == repr(float(np.round(value, decimals)))


def test_round_half_even_over_drawn_values():
    """10**5 values from the generators' own ranges, and small ones of
    both signs (where NumPy keeps the sign of a zero)."""
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.uniform(1.0, 500.0, 25_000), rng.uniform(0.0, 10.0, 25_000),
        rng.lognormal(10.0, 1.0, 25_000), rng.uniform(-0.01, 0.01, 25_000),
    ]).tolist()
    for decimals in range(5):
        expected = np.round(values, decimals).tolist()
        got = [round_half_even(value, decimals) for value in values]
        mismatched = [
            (value, a, b) for value, a, b in zip(values, got, expected)
            if repr(a) != repr(b)
        ]
        assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("size, exponent, seed", [
    (1, 1.0, 3), (2, 0.0, 4), (50, 1.1, 15), (60, 1.1, 16), (40, 1.2, 7), (7, 3.5, 99),
])
def test_sampler_draws_as_choice_draws(size, exponent, seed):
    p = zipf_weights(size, exponent)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    draw = weighted_sampler(ours, p)
    picks = [draw() for _ in range(100_000)]
    assert picks == [int(numpys.choice(size, p=p)) for _ in range(100_000)]
    assert all(type(pick) is int for pick in picks[:10])
    # Both generators are left at the same point of the stream.
    assert ours.random() == numpys.random()


def test_sampler_with_zero_weights_never_picks_them():
    p = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    ours, numpys = np.random.default_rng(1), np.random.default_rng(1)
    draw = weighted_sampler(ours, p)
    picks = [draw() for _ in range(20_000)]
    assert picks == [int(numpys.choice(5, p=p)) for _ in range(20_000)]
    assert set(picks) == {1, 3}


class _FixedDraws:
    """A stand-in generator whose ``random()`` answers given values."""

    def __init__(self, values):
        self.random = iter(values).__next__


def test_sampler_breaks_cdf_ties_to_the_right():
    """A draw equal to a cdf bound goes past it, as ``choice``'s
    ``searchsorted(side="right")`` does, so a zero weight is never
    picked even at the bound (no seeded stream lands there to show it)."""
    p = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    draws = [0.0, 0.25, 0.5, 0.75, 0.9999999999999999]
    draw = weighted_sampler(_FixedDraws(draws), p)
    cdf = p.cumsum() / p.cumsum()[-1]
    expected = [int(cdf.searchsorted(u, side="right")) for u in draws]
    assert [draw() for _ in draws] == expected == [1, 1, 3, 3, 3]


@pytest.mark.parametrize("p, message", [
    ([0.5, math.nan, 0.5], "NaN"),
    ([0.5, -0.25, 0.75], ">= 0"),
    ([0.5, 0.25], "not 1"),
    ([0.5, 0.6], "not 1"),
    ([math.inf, 0.0], "not 1"),
    ([math.inf, -math.inf], "NaN"),
    ([], "non-empty"),
    ([[0.5, 0.5]], "1-d"),
])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sampler_rejects_bad_probabilities(p, message):
    with pytest.raises(WorkloadError, match=message):
        weighted_sampler(np.random.default_rng(0), p)


def test_sampler_accepts_what_choice_tolerates():
    """``choice`` lets the sum miss 1 by sqrt(eps); so does the sampler."""
    p = [0.5, 0.5 + 1e-9]
    ours, numpys = np.random.default_rng(2), np.random.default_rng(2)
    draw = weighted_sampler(ours, p)
    assert [draw() for _ in range(1000)] == [
        int(numpys.choice(2, p=p)) for _ in range(1000)
    ]
    with pytest.raises(ValueError):
        numpys.choice(2, p=[0.5, 0.5 + 1e-6])
    with pytest.raises(WorkloadError):
        weighted_sampler(ours, [0.5, 0.5 + 1e-6])


def test_check_costs_no_draw():
    """Building a sampler reads nothing from the stream."""
    rng, fresh = np.random.default_rng(9), np.random.default_rng(9)
    weighted_sampler(rng, zipf_weights(10, 1.0))
    assert rng.random() == fresh.random()
