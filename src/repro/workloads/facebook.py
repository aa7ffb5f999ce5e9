"""Facebook-trace-shaped workload (§8.1).

The paper replays 1.5 months of Hadoop traces from a 3000-machine
Facebook cluster.  We reproduce the statistics that matter to placement:
many datasets with heavy-tailed (lognormal) sizes, Zipf-skewed keys, and
a small number of aggregation-style query types per dataset.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.query.parser import parse_sql
from repro.query.spec import RecurringQuery
from repro.types import DatasetCatalog, Record, Schema
from repro.util.rng import derive_rng
from repro.wan.topology import WanTopology
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.placement_init import (
    InitialPlacement,
    assign_records,
    region_names_for,
)
from repro.workloads.synthetic import (
    round_half_even,
    weighted_sampler,
    zipf_weights,
)


def trace_schema() -> Schema:
    return Schema.of(
        "key", "user", "date", "region", "bytes_read",
        kinds={"bytes_read": "numeric"},
    )


def facebook_workload(
    topology: WanTopology,
    placement: InitialPlacement = InitialPlacement.RANDOM,
    seed: int = 7,
    scale: float = 1.0,
    spec: Optional[WorkloadSpec] = None,
    size_sigma: float = 0.8,
) -> Workload:
    """Build the trace-shaped workload.

    Dataset sizes are lognormal around the mean (heavy tail: a few big
    datasets dominate, like production traces); keys are Zipf within each
    dataset.
    """
    if scale <= 0:
        raise WorkloadError("scale must be > 0")
    spec = spec or WorkloadSpec(num_datasets=6)
    schema = trace_schema()
    regions = region_names_for(topology)
    rng = derive_rng(seed, "facebook-workload")

    catalog = DatasetCatalog()
    workload = Workload(name="facebook", catalog=catalog)
    mean_records = max(
        1, int(spec.records_per_site * len(topology) * scale / spec.num_datasets)
    )
    raw_sizes = rng.lognormal(mean=0.0, sigma=size_sigma, size=spec.num_datasets)
    sizes = np.maximum(
        1, (raw_sizes / raw_sizes.mean() * mean_records).astype(int)
    )

    for index in range(spec.num_datasets):
        dataset_id = f"fbtrace-{index}"
        records = _generate_trace_records(
            dataset_id,
            regions,
            count=int(sizes[index]),
            record_bytes=spec.record_bytes,
            zipf_exponent=spec.zipf_exponent,
            seed=seed + index,
        )
        dataset = assign_records(
            dataset_id, schema, records, topology, placement, seed=seed + index
        )
        catalog.add(dataset)
        workload.schemas[dataset_id] = schema

        sql_queries = [
            f"SELECT key, SUM(bytes_read) FROM {dataset_id} GROUP BY key",
            f"SELECT user, COUNT(key) FROM {dataset_id} GROUP BY user",
            f"SELECT date, SUM(bytes_read) FROM {dataset_id} GROUP BY date",
        ]
        low, high = spec.queries_per_dataset
        num_queries = int(rng.integers(low, high + 1))
        for position in range(num_queries):
            query = RecurringQuery(
                spec=parse_sql(sql_queries[position % len(sql_queries)])
            )
            query.executions = int(rng.integers(1, 50))
            workload.queries.append(query)
    return workload


def _generate_trace_records(
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
    draw_key = weighted_sampler(rng, zipf_weights(num_keys, zipf_exponent))
    days = [f"2010-10-{day:02d}" if day <= 31 else f"2010-11-{day - 31:02d}"
            for day in range(1, num_days + 1)]
    records: List[Record] = []
    region_choices = rng.integers(0, len(regions), size=count).tolist()
    for position in range(count):
        records.append(
            Record(
                values=(
                    keys[draw_key()],
                    f"user-{int(rng.integers(0, num_users))}",
                    days[int(rng.integers(0, num_days))],
                    regions[region_choices[position]],
                    round_half_even(rng.lognormal(10.0, 1.0), 0),
                ),
                size_bytes=record_bytes,
            )
        )
    return records
