"""CLI plumbing for ``repro bench``.

::

    repro bench --suite smoke --out BENCH_smoke.json
    repro bench --suite smoke --compare BENCH_smoke.json
    repro bench --suite full --out BENCH_new.json --compare BENCH_7.json
    repro bench --list

``--compare`` runs the suite, diffs its simulation-clock metrics against
the baseline report, and exits nonzero on any regression (see
:mod:`repro.bench.compare`); wall readings are recorded, never gated.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.errors import BenchError


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.bench.harness import SUITES

    parser.add_argument(
        "--suite",
        choices=SUITES,
        default="smoke",
        help="curated subset to run (default: smoke)",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the BENCH_<n>.json report here"
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="diff this run against a baseline report; exit 1 on regression",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="pin the harness seed (default: REPRO_BENCH_SEED or 11)",
    )
    parser.add_argument(
        "--warmup", type=int, default=0,
        help="unmeasured repetitions per case (default: 0)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="measured repetitions per case (default: 1)",
    )
    parser.add_argument(
        "--benchmarks-dir", metavar="DIR", default=None,
        help="directory holding bench_*.py (default: ./benchmarks)",
    )
    parser.add_argument(
        "--sim-tol", type=float, default=1e-9,
        help="relative tolerance for sim-clock metrics (default: 1e-9)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="list the suite's cases without running them",
    )


def run_bench(args: argparse.Namespace) -> int:
    """Execute ``repro bench``; returns the process exit code."""
    from repro.bench.discover import discover
    from repro.bench.harness import run_suite
    from repro.bench.registry import cases_for
    from repro.bench.schema import load_report, save_report

    if args.list_cases:
        discover(args.benchmarks_dir)
        for case in cases_for(args.suite):
            suites = ",".join(case.suites) or "-"
            print(f"{case.name:32s} [{suites}] {case.module}")
        return 0

    # Before the suite runs: a bad baseline path fails now, not minutes later.
    baseline = load_report(args.compare) if args.compare else None
    report = run_suite(
        suite=args.suite,
        seed=args.seed,
        warmup=args.warmup,
        repeat=args.repeat,
        benchmarks_dir=args.benchmarks_dir,
        progress=lambda line: print(f"bench {line}"),
    )
    total = sum(
        entry["duration_seconds"]["median"]
        for entry in report["benchmarks"].values()
    )
    print(
        f"bench suite {args.suite!r}: {len(report['benchmarks'])} cases, "
        f"median wall total {total:.2f}s, seed {report['seed']}"
    )
    if args.out:
        save_report(report, args.out)
        print(f"report written to {args.out}")

    if baseline is not None:
        from repro.bench.compare import compare_reports

        comparison = compare_reports(baseline, report, sim_rel_tol=args.sim_tol)
        print()
        print(comparison.render())
        if not comparison.ok:
            return 1
    return 0


def main(argv: Optional[list] = None) -> int:
    """Standalone entry point (``python -m repro.bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Continuous benchmarking harness for the Bohr "
        "reproduction (suites, BENCH_<n>.json reports, regression gates).",
    )
    add_bench_arguments(parser)
    try:
        return run_bench(parser.parse_args(argv))
    except BenchError as error:
        print(f"bench error: {error}")
        return 2
