"""Seeded, benchmark-owned input generators.

Everything a workload feeds the program is made here: the topology, the
workload specs and datasets, dynamic feeds, the chaos schedule and the
arrival streams.  The same seed gives the same inputs; the program only
ever sees generated inputs.

As in TPC-style benchmarks the *dataset* is the benchmark's own and is
frozen (generated from :data:`DATA_SEED`), while ``--seed`` drives
everything that happens to it: arrival instants, tenant and query picks,
which sites fail and when, and the schemes' own randomness (DIMSUM
sampling, k-means starts, which records a move selects).  Measured on
this repository, redrawing the dataset moves mean QCT by tens of percent
and flips the Bohr/Iridium-C ordering on about a third of seeds — a
benchmark whose numbers jump like that between seeds cannot resolve a
10% change.  Counts (records per site, datasets, queries per dataset,
arrivals) are fixed per workload, so the amount of work is too.

The planner's inputs (topology, dataset, query history) are deliberately
not perturbed: with non-nominal bandwidths or redrawn query histories
about one Bohr ``prepare`` in thirty raises ``PlacementError: could not
fit data movement into lag window`` — a robustness bug for a later
issue, and no operation of a benchmark workload may fail.

Arrival streams are generated here rather than by
``repro.serve.loadgen.LoadGenerator`` so a later fix to the built-in
generator cannot move this benchmark's traffic; they are injected through
the scheduler's public ``loadgen`` attribute (anything with
``generate(count)``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import SystemConfig, ec2_ten_sites, initial_workload_from_feeds
from repro.chaos.runtime import ChaosConfig
from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.serve import Arrival
from repro.types import DatasetCatalog, GeoDataset
from repro.wan.topology import WanTopology
from repro.workloads import (
    DynamicDataFeed,
    InitialPlacement,
    Workload,
    WorkloadSpec,
    facebook_workload,
    tpcds_workload,
)

#: Seed of the frozen datasets.  Re-baseline the benchmark if it changes.
DATA_SEED = 15
RECORD_BYTES = 512 * 1024
#: The site ``dynamic-chaos`` takes down: a mid-tier region.
OUTAGE_SITE = "virginia"
TENANT_WEIGHTS = (2.0, 1.0, 1.0, 1.0)
TENANT_ZIPF_S = 1.1

# Independent random streams derived from the one seed.
_STREAM_ARRIVALS = 1
_STREAM_DEAD_SITES = 2
_STREAM_OUTAGE = 3
_STREAM_QUERIES = 4


def topology() -> WanTopology:
    """The paper's ten-region EC2 topology at bench scale."""
    return ec2_ten_sites(base_uplink="2MB/s")


def system_config(seed: int, **overrides) -> SystemConfig:
    """Scheme configuration shared by every workload.

    RDD-similarity overhead is wall-measured inside the program; charging
    it into QCT would make the sim clock depend on the host, so it is
    off — the sim metrics must be exact for a seed.
    """
    settings = dict(
        lag_seconds=8.0,
        partition_records=8,
        probe_k=30,
        seed=seed,
        charge_rdd_overhead=False,
    )
    settings.update(overrides)
    return SystemConfig(**settings)


def build_dataset_workload(
    family: str,
    topo: WanTopology,
    records_per_site: int,
    num_datasets: int,
    queries_per_dataset: int,
) -> Workload:
    """One workload family's frozen dataset, random initial placement.

    ``queries_per_dataset`` is pinned (the generators otherwise draw it
    uniformly from 2..10), so the query count does not move with the seed.
    """
    spec = WorkloadSpec(
        records_per_site=records_per_site,
        record_bytes=RECORD_BYTES,
        num_datasets=num_datasets,
        queries_per_dataset=(queries_per_dataset, queries_per_dataset),
        locality_bias=0.5,
    )
    # Looked up at call time, so the layer tracer's wrappers are seen.
    generate = {"tpcds": tpcds_workload, "facebook": facebook_workload}[family]
    return generate(topo, placement=InitialPlacement.RANDOM, seed=DATA_SEED, spec=spec)


def clone_workload(workload: Workload) -> Workload:
    """An independent copy: own shard lists, own query counters.

    Schemes move records between shards and bump each query's execution
    count, so every arm of a comparison needs a copy of its own; records
    themselves are immutable and shared.  Equal to generating again,
    at a fraction of the set-up time.
    """
    catalog = DatasetCatalog()
    for dataset in workload.catalog:
        catalog.add(GeoDataset(
            dataset.dataset_id,
            dataset.schema,
            {site: list(records) for site, records in dataset.shards.items()},
        ))
    return Workload(
        name=workload.name,
        catalog=catalog,
        queries=[dataclasses.replace(query) for query in workload.queries],
        schemas=dict(workload.schemas),
    )


def split_into_feeds(
    template: Workload, initial_fraction: float, num_batches: int
) -> "tuple[Workload, Dict[str, DynamicDataFeed]]":
    """A workload at its initial slice plus one batch feed per dataset."""
    feeds = {
        dataset.dataset_id: DynamicDataFeed.split(
            dataset, initial_fraction=initial_fraction, num_batches=num_batches
        )
        for dataset in template.catalog
    }
    return initial_workload_from_feeds(template, feeds), feeds


def outage_chaos(seed: int, deadline_seconds: float) -> ChaosConfig:
    """One permanent outage of :data:`OUTAGE_SITE`, seeded start, with a
    per-query deadline.

    The start is drawn from 3..7 sim seconds: inside the first query
    cycle (so ``run_dynamic`` replans degraded after the first query) and
    inside every later query's shuffle (every query restarts the fault
    clock at zero), so parking, stall timeouts and lost bytes are
    exercised in every instance.  ``build_schedule("site-outage")``
    draws site and start so that the outage sometimes precedes and
    sometimes follows the shuffle, which moves mean QCT fourfold from
    seed to seed; which site fails alone moves it by half.
    """
    rng = np.random.default_rng([seed, _STREAM_OUTAGE])
    event = FaultEvent(
        kind="site-outage",
        site=OUTAGE_SITE,
        start=float(rng.uniform(3.0, 7.0)),
        end=math.inf,
    )
    schedule = FaultSchedule(events=(event,), name="site-outage", seed=seed)
    return ChaosConfig(faults=schedule, deadline_seconds=deadline_seconds)


def fired_queries(seed: int, stream: int, total: int) -> List[int]:
    """Which recurring queries fire in one instance, in firing order.

    Five in six of a workload's ``total`` queries, as indices; every arm
    of a comparison runs the same ones.  The plan is always made for the
    whole query population — only what then runs is drawn.
    """
    rng = np.random.default_rng([seed, _STREAM_QUERIES, stream])
    return [int(index) for index in rng.permutation(total)[: total * 5 // 6]]


def dead_sites(topo: WanTopology, seed: int, count: int) -> List[str]:
    """``count`` distinct sites to fail, in failure order."""
    rng = np.random.default_rng([seed, _STREAM_DEAD_SITES])
    names = topo.site_names
    picked = rng.choice(len(names), size=count, replace=False)
    return [names[int(index)] for index in picked]


def tenant_names() -> List[str]:
    """Names as ``ServeConfig.tenant_list`` assigns them."""
    return [f"tenant-{index:02d}" for index in range(len(TENANT_WEIGHTS))]


def _zipf_pmf(size: int, exponent: float) -> np.ndarray:
    raw = np.arange(1, size + 1, dtype=float) ** -exponent
    return raw / raw.sum()


def arrival_stream(
    seed: int,
    stream: int,
    count: int,
    rate: float,
    tenants: Sequence[str],
    num_queries: int,
    query_zipf_s: Optional[float] = None,
) -> List[Arrival]:
    """An open-loop arrival stream: Poisson gaps at ``rate`` per sim
    second, Zipf tenant picks, and uniform (or Zipf) query picks.

    ``stream`` separates the streams of one workload (its fixed rates).
    """
    rng = np.random.default_rng([seed, _STREAM_ARRIVALS, stream])
    gaps = rng.exponential(scale=1.0 / rate, size=count)
    tenant_picks = rng.choice(
        len(tenants), size=count, p=_zipf_pmf(len(tenants), TENANT_ZIPF_S)
    )
    if query_zipf_s is None:
        query_picks = rng.integers(0, num_queries, size=count)
    else:
        # Popularity rank is shuffled so "hot" is not always query 0.
        ranks = rng.permutation(num_queries)
        query_picks = ranks[
            rng.choice(num_queries, size=count, p=_zipf_pmf(num_queries, query_zipf_s))
        ]
    times = np.cumsum(gaps)
    return [
        Arrival(
            index=index,
            time=float(times[index]),
            tenant=tenants[int(tenant_picks[index])],
            query_index=int(query_picks[index]),
        )
        for index in range(count)
    ]


class FixedArrivals:
    """Stands in for the scheduler's load generator."""

    def __init__(self, arrivals: Sequence[Arrival]) -> None:
        self.arrivals = list(arrivals)

    def generate(self, count: int) -> List[Arrival]:
        if count != len(self.arrivals):
            raise ValueError(
                f"scheduler asked for {count} arrivals, stream has "
                f"{len(self.arrivals)}"
            )
        return list(self.arrivals)
