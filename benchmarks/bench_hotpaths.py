"""Hot-path microbenchmarks: combine, shuffle routing, MinHash, DIMSUM,
and the WAN session's per-advance cost.

The table/figure benches wrap these paths in WAN simulation, LP solves
and workload generation, so even large hot-path speedups dilute to
modest end-to-end ratios (Amdahl).  These cases drive each hot path
directly at batch scale: the measured region is >=80% inside the path
under test, so before/after ratios reflect that path itself.  Sim
metrics are pure functions of the outputs and gate bit-identity across
any rewrite of it.

Input datasets are deterministic fixtures keyed by the harness seed and
cached across timed repetitions on purpose (they are the workload, not
the system under test); the reset hook clearing experiment caches does
not apply here.
"""

import time
from functools import lru_cache

from common import bench_seed, register_bench
from repro.engine.combiner import combine
from repro.engine.shuffle import ReduceTaskMap
from repro.similarity.dimsum import DimsumConfig, dimsum_similarity_matrix
from repro.similarity.minhash import MinHasher
from repro.types import Record
from repro.util.rng import derive_rng
from repro.wan.presets import ec2_ten_sites
from repro.wan.transfer import Transfer, TransferScheduler, WanSession


@lru_cache(maxsize=4)
def _combine_records(seed):
    """80k two-field records over ~2k skewed compound keys."""
    rng = derive_rng(seed, "hotpaths", "combine")
    urls = [f"url-{value}" for value in rng.zipf(1.8, size=80_000) % 2000]
    regions = [f"region-{int(value)}" for value in rng.integers(0, 8, size=80_000)]
    sizes = rng.uniform(1.0, 100_000.0, size=80_000)
    return [
        Record((url, region), size_bytes=float(size))
        for url, region, size in zip(urls, regions, sizes)
    ]


@lru_cache(maxsize=4)
def _routing_keys(seed):
    """50k distinct compound keys."""
    rng = derive_rng(seed, "hotpaths", "routing")
    salts = rng.integers(0, 1 << 30, size=50_000)
    return [(f"url-{index}", int(salt)) for index, salt in enumerate(salts)]


@lru_cache(maxsize=4)
def _minhash_sets(seed):
    """400 item sets of ~80 keys with heavy cross-set overlap."""
    rng = derive_rng(seed, "hotpaths", "minhash")
    sets = []
    for index in range(400):
        base = (index // 8) * 300
        offset = int(rng.integers(0, 50))
        sets.append(tuple(f"key-{base + offset + step}" for step in range(80)))
    return sets


@lru_cache(maxsize=4)
def _dimsum_partitions(seed):
    """40 partitions of 200 keys in groups of 5 similar partitions."""
    rng = derive_rng(seed, "hotpaths", "dimsum")
    partitions = []
    for index in range(40):
        base = (index // 5) * 400
        offset = int(rng.integers(0, 60))
        partitions.append(frozenset(range(base + offset, base + offset + 200)))
    return tuple(partitions)


def _session_queries(seed):
    """2 000 query-shaped submissions, one per sim second: every site
    ships three 1-5 MB shuffle partitions, so each query is 30 flows
    that drain (slowest uplink: 20 MB/s) before the next one arrives.
    Built per call, outside the timed region: the case runs it once."""
    rng = derive_rng(seed, "hotpaths", "wan-session")
    names = ec2_ten_sites().site_names
    queries = []
    for index in range(2000):
        sizes = rng.uniform(1.0e6, 5.0e6, size=3 * len(names))
        queries.append(
            tuple(
                Transfer(
                    src,
                    names[(position + hop) % len(names)],
                    float(sizes[3 * position + hop - 1]),
                    start_time=float(index),
                    tag=f"q{index}",
                )
                for position, src in enumerate(names)
                for hop in (1, 2, 3)
            )
        )
    return queries


@register_bench(
    "hotpath-combine",
    suites=("hotpaths",),
    description="Map-side combine over 80k skewed records",
)
def bench_hotpath_combine():
    records = _combine_records(bench_seed())
    # Wall-clock on purpose: the combine call is the system under test.
    started = time.perf_counter()  # lint: allow[R001]
    output = combine(records, key_indices=[0, 1], reduction_ratio=0.5)
    elapsed = time.perf_counter() - started  # lint: allow[R001]
    sim = {
        "combine.num_records": float(output.num_records),
        "combine.map_output_bytes": output.map_output_bytes,
        "combine.total_bytes": output.total_bytes,
        "combine.max_merged": float(
            max(record.merged_count for record in output.records.values())
        ),
    }
    return {"sim": sim, "wall": {"combine_seconds": elapsed}}


@register_bench(
    "hotpath-shuffle-route",
    suites=("hotpaths",),
    description="Key->task->site routing for 50k distinct keys",
)
def bench_hotpath_shuffle_route():
    keys = _routing_keys(bench_seed())
    fractions = {f"site-{index}": 1.0 for index in range(10)}
    task_map = ReduceTaskMap.from_fractions(fractions, num_tasks=64)
    started = time.perf_counter()  # lint: allow[R001]
    table = task_map.routing_table(keys)
    elapsed = time.perf_counter() - started  # lint: allow[R001]
    per_site = {}
    for site in table.values():
        per_site[site] = per_site.get(site, 0) + 1
    sim = {
        "route.distinct_keys": float(len(table)),
        "route.max_site_share": max(per_site.values()) / len(table),
        "route.sites_used": float(len(per_site)),
    }
    return {"sim": sim, "wall": {"route_seconds": elapsed}}


@register_bench(
    "hotpath-minhash",
    suites=("hotpaths",),
    description="MinHash signatures for 400 sets x 80 items (batched path)",
)
def bench_hotpath_minhash():
    sets = _minhash_sets(bench_seed())
    hasher = MinHasher(num_hashes=64, seed=bench_seed())
    started = time.perf_counter()  # lint: allow[R001]
    signatures = hasher.signatures(sets)
    elapsed = time.perf_counter() - started  # lint: allow[R001]
    # Sums of uint32 slots stay far below 2^53, so the float is exact.
    sim = {
        "minhash.first_slot_sum": float(
            sum(signature.values[0] for signature in signatures)
        ),
        "minhash.neighbor_estimate": signatures[0].estimate_jaccard(signatures[1]),
        "minhash.far_estimate": signatures[0].estimate_jaccard(signatures[-1]),
    }
    return {"sim": sim, "wall": {"minhash_seconds": elapsed}}


@register_bench(
    "hotpath-dimsum",
    suites=("hotpaths",),
    description="DIMSUM similarity matrix over 40 partitions (estimate path)",
)
def bench_hotpath_dimsum():
    partitions = _dimsum_partitions(bench_seed())
    config = DimsumConfig(
        gamma=8.0, num_hashes=128, seed=bench_seed(), exact_below=0
    )
    started = time.perf_counter()  # lint: allow[R001]
    matrix, stats = dimsum_similarity_matrix(list(partitions), config)
    elapsed = time.perf_counter() - started  # lint: allow[R001]
    sim = {
        "dimsum.matrix_sum": float(matrix.sum()),
        "dimsum.pairs_examined": float(stats.pairs_examined),
        "dimsum.pairs_skipped": float(stats.pairs_skipped),
    }
    return {"sim": sim, "wall": {"dimsum_seconds": elapsed}}


@register_bench(
    "hotpath-wan-session",
    suites=("hotpaths",),
    description="2000 query-shaped submits into one WanSession, driven like serve",
)
def bench_hotpath_wan_session():
    queries = _session_queries(bench_seed())
    session = WanSession(TransferScheduler(ec2_ten_sites()))
    started = time.perf_counter()  # lint: allow[R001]
    for index, transfers in enumerate(queries):
        session.submit(transfers)
        # As the serve loop drives it: one call per completion round up
        # to the next arrival, so the per-call cost is what is measured.
        while session.advance(limit=index + 1.0):
            pass
    elapsed = time.perf_counter() - started  # lint: allow[R001]
    results = session.all_results()
    sim = {
        "wan_session.last_finish": max(r.finish_time for r in results),
        "wan_session.flows": float(len(results)),
    }
    return {"sim": sim, "wall": {"session_seconds": elapsed}}
