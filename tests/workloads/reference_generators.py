"""The three record generators as they were before their draws skipped
NumPy's per-call cost.

Kept verbatim as the oracle for the shipped generators:
:func:`reference_generate_sales` is ``tpcds._generate_sales``,
:func:`reference_generate_trace_records` is
``facebook._generate_trace_records`` and :func:`reference_generate_records`
is ``synthetic.generate_records``.  Each record's categorical pick goes
through ``rng.choice(n, p=p)`` and each rounded measure through
``float(np.round(x, d))``; the shipped code draws the pick from the cdf
``choice`` builds and rounds half to even in Python, in the same order
on the same stream.  ``tests/workloads/test_generator_parity.py`` holds
their records (values, value types, sizes) to these.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.types import Record
from repro.util.rng import derive_rng
from repro.workloads.synthetic import SyntheticDatasetConfig, zipf_weights


def reference_generate_sales(
    dataset_id: str,
    regions: List[str],
    count: int,
    record_bytes: int,
    seed: int,
    num_items: int = 60,
    stores_per_region: int = 3,
    num_days: int = 30,
    zipf_exponent: float = 1.1,
) -> List[Record]:
    rng = derive_rng(seed, "tpcds", dataset_id)
    items = [f"item-{index}" for index in range(num_items)]
    item_p = zipf_weights(num_items, zipf_exponent)
    days = [f"2018-05-{day:02d}" for day in range(1, num_days + 1)]
    records: List[Record] = []
    region_choices = rng.integers(0, len(regions), size=count)
    for position in range(count):
        region = regions[int(region_choices[position])]
        store = f"{region}/store-{int(rng.integers(0, stores_per_region))}"
        records.append(
            Record(
                values=(
                    items[int(rng.choice(num_items, p=item_p))],
                    store,
                    days[int(rng.integers(0, num_days))],
                    region,
                    int(rng.integers(1, 10)),
                    float(np.round(rng.uniform(1.0, 500.0), 2)),
                ),
                size_bytes=record_bytes,
            )
        )
    return records


def reference_generate_trace_records(
    dataset_id: str,
    regions: List[str],
    count: int,
    record_bytes: int,
    zipf_exponent: float,
    seed: int,
    num_keys: int = 50,
    num_users: int = 20,
    num_days: int = 45,
) -> List[Record]:
    rng = derive_rng(seed, "fbtrace", dataset_id)
    keys = [f"{dataset_id}/job-{index}" for index in range(num_keys)]
    key_p = zipf_weights(num_keys, zipf_exponent)
    days = [f"2010-10-{day:02d}" if day <= 31 else f"2010-11-{day - 31:02d}"
            for day in range(1, num_days + 1)]
    records: List[Record] = []
    region_choices = rng.integers(0, len(regions), size=count)
    for position in range(count):
        records.append(
            Record(
                values=(
                    keys[int(rng.choice(num_keys, p=key_p))],
                    f"user-{int(rng.integers(0, num_users))}",
                    days[int(rng.integers(0, num_days))],
                    regions[int(region_choices[position])],
                    float(np.round(rng.lognormal(10.0, 1.0), 0)),
                ),
                size_bytes=record_bytes,
            )
        )
    return records


def reference_generate_records(
    dataset_id: str,
    regions: Sequence[str],
    count: int,
    record_bytes: int = 1024 * 1024,
    config: Optional[SyntheticDatasetConfig] = None,
    seed: int = 7,
) -> List[Record]:
    """Generate ``count`` log records spread over ``regions``.

    Each record's home region is uniform over ``regions``; its URL comes
    from the region's local key block with probability ``locality_bias``,
    otherwise from the global Zipf-popular block.  Scores, dates and
    agents are drawn independently.
    """
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if not regions:
        raise WorkloadError("need at least one region")
    config = config or SyntheticDatasetConfig()
    rng = derive_rng(seed, "synthetic", dataset_id)

    popular = [f"{dataset_id}/hot-{index}" for index in range(config.num_popular_keys)]
    popular_p = zipf_weights(config.num_popular_keys, config.zipf_exponent)
    local_keys = {
        region: [
            f"{dataset_id}/{region}/local-{index}"
            for index in range(config.local_keys_per_region)
        ]
        for region in regions
    }
    days = [f"2018-06-{day:02d}" for day in range(1, config.num_days + 1)]
    agents = [f"agent-{index}" for index in range(config.num_agents)]

    records: List[Record] = []
    home_regions = rng.integers(0, len(regions), size=count)
    use_local = rng.random(count) < config.locality_bias
    for position in range(count):
        region = regions[int(home_regions[position])]
        region_local = local_keys[region]
        if use_local[position] and region_local:
            url = region_local[int(rng.integers(0, len(region_local)))]
        else:
            url = popular[int(rng.choice(config.num_popular_keys, p=popular_p))]
        record = Record(
            values=(
                url,
                float(np.round(rng.uniform(0.0, 10.0), 3)),
                days[int(rng.integers(0, len(days)))],
                region,
                agents[int(rng.integers(0, len(agents)))],
            ),
            size_bytes=record_bytes,
        )
        records.append(record)
    return records
