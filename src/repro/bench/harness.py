"""The benchmark harness: run a suite of cases, emit a report.

Each case is executed ``warmup + repeat`` times with every registered
cache-reset hook invoked first, so repetitions measure the cold path and
the wall-clock median/stdev mean something.  Simulation-clock metrics
must come out bit-identical across repetitions — the harness asserts
this, piggybacking a determinism check on every benchmark run — and are
recorded once; wall metrics are recorded as the median across measured
repetitions.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.bench import registry
from repro.bench.discover import discover
from repro.bench.schema import build_report
from repro.errors import BenchError
from repro.util.stats import percentile, stdev

#: The curated subsets `repro bench --suite` accepts.
SUITES = ("smoke", "figures", "tables", "ablations", "serve", "hotpaths", "full")

ProgressFn = Callable[[str], None]


def run_case(
    case: registry.BenchCase, warmup: int, repeat: int
) -> Dict[str, Any]:
    """Execute one case; return its report entry."""
    if repeat < 1:
        raise BenchError("repeat must be >= 1")
    samples: List[float] = []
    sim_metrics: Optional[Dict[str, float]] = None
    wall_samples: Dict[str, List[float]] = {}
    for repetition in range(warmup + repeat):
        registry.reset_caches()
        # Wall-clock by design: the harness times benchmark cases.
        started = time.perf_counter()  # lint: allow[R001]
        metrics = case.collect()
        elapsed = time.perf_counter() - started  # lint: allow[R001]
        if repetition < warmup:
            continue
        samples.append(elapsed)
        if sim_metrics is None:
            sim_metrics = metrics["sim"]
        elif metrics["sim"] != sim_metrics:
            changed = sorted(
                key
                for key in set(sim_metrics) | set(metrics["sim"])
                if sim_metrics.get(key) != metrics["sim"].get(key)
            )
            raise BenchError(
                f"case {case.name!r} is nondeterministic: sim metrics "
                f"{changed} differ across same-seed repetitions"
            )
        for key, value in metrics["wall"].items():
            wall_samples.setdefault(key, []).append(value)
    return {
        "module": case.module,
        "suites": sorted(case.suites),
        "description": case.description,
        "sim": sim_metrics or {},
        "wall": {
            key: percentile(values, 50.0)
            for key, values in sorted(wall_samples.items())
        },
        "duration_seconds": {
            "median": percentile(samples, 50.0),
            "stdev": stdev(samples),
            "samples": samples,
        },
    }


def run_suite(
    suite: str = "smoke",
    seed: Optional[int] = None,
    warmup: int = 0,
    repeat: int = 1,
    benchmarks_dir: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, Any]:
    """Discover, filter, run, and package one suite into a report dict."""
    if suite not in SUITES:
        raise BenchError(
            f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}"
        )
    discover(benchmarks_dir)
    cases = registry.cases_for(suite)
    effective_seed = seed if seed is not None else registry.bench_seed()
    registry.set_bench_seed(effective_seed)
    benchmarks: Dict[str, Dict[str, Any]] = {}
    try:
        for index, case in enumerate(cases, start=1):
            if progress is not None:
                progress(
                    f"[{index}/{len(cases)}] {case.name} "
                    f"({case.module or 'inline'})"
                )
            benchmarks[case.name] = run_case(case, warmup, repeat)
    finally:
        registry.set_bench_seed(None)
    return build_report(
        benchmarks,
        suite=suite,
        seed=effective_seed,
        warmup=warmup,
        repeat=repeat,
    )
