"""TPC-DS-like retail workload (§8.1, [6]).

A star-schema fact table (store_sales) whose business model is a retail
product supplier: items follow a global Zipf popularity, stores are
regional, dates span a sales period.  Queries are the OLAP SQL kind —
revenue by item, by store, by (store, date).
"""

from __future__ import annotations

from typing import List, Optional

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


def sales_schema() -> Schema:
    return Schema.of(
        "item", "store", "date", "region", "quantity", "revenue",
        kinds={"quantity": "numeric", "revenue": "numeric"},
    )


def _generate_sales(
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
    draw_item = weighted_sampler(rng, zipf_weights(num_items, zipf_exponent))
    days = [f"2018-05-{day:02d}" for day in range(1, num_days + 1)]
    records: List[Record] = []
    region_choices = rng.integers(0, len(regions), size=count).tolist()
    for position in range(count):
        region = regions[region_choices[position]]
        store = f"{region}/store-{int(rng.integers(0, stores_per_region))}"
        records.append(
            Record(
                values=(
                    items[draw_item()],
                    store,
                    days[int(rng.integers(0, num_days))],
                    region,
                    int(rng.integers(1, 10)),
                    # rng.uniform(1.0, 500.0)'s own formula, without its
                    # per-call cost: same floats, same stream position.
                    round_half_even(1.0 + 499.0 * rng.random(), 2),
                ),
                size_bytes=record_bytes,
            )
        )
    return records


def tpcds_workload(
    topology: WanTopology,
    placement: InitialPlacement = InitialPlacement.RANDOM,
    seed: int = 7,
    scale: float = 1.0,
    spec: Optional[WorkloadSpec] = None,
) -> Workload:
    """Build the TPC-DS-like workload."""
    if scale <= 0:
        raise WorkloadError("scale must be > 0")
    spec = spec or WorkloadSpec()
    schema = sales_schema()
    regions = region_names_for(topology)
    rng = derive_rng(seed, "tpcds-workload")

    catalog = DatasetCatalog()
    workload = Workload(name="tpcds", catalog=catalog)
    total_records = max(1, int(spec.records_per_site * len(topology) * scale))
    for index in range(spec.num_datasets):
        dataset_id = f"store_sales_{index}"
        records = _generate_sales(
            dataset_id,
            regions,
            count=total_records // spec.num_datasets,
            record_bytes=spec.record_bytes,
            seed=seed + index,
        )
        dataset = assign_records(
            dataset_id, schema, records, topology, placement, seed=seed + index
        )
        catalog.add(dataset)
        workload.schemas[dataset_id] = schema

        sql_queries = [
            f"SELECT item, SUM(revenue) FROM {dataset_id} GROUP BY item",
            f"SELECT store, SUM(revenue) FROM {dataset_id} GROUP BY store",
            f"SELECT store, date, SUM(quantity) FROM {dataset_id} GROUP BY store, date",
            f"SELECT region, AVG(revenue) FROM {dataset_id} GROUP BY region",
        ]
        low, high = spec.queries_per_dataset
        num_queries = int(rng.integers(low, high + 1))
        for position in range(num_queries):
            query = RecurringQuery(spec=parse_sql(sql_queries[position % len(sql_queries)]))
            query.executions = int(rng.integers(1, 50))
            workload.queries.append(query)
    return workload
