"""Command-line interface.

::

    python -m repro schemes
    python -m repro topology [--base-uplink 2MB/s]
    python -m repro run --scheme bohr --workload tpcds [options]
    python -m repro compare --workload bigdata-aggregation \
        --schemes iridium,iridium-c,bohr [options]
    python -m repro inspect tele.jsonl [--chrome trace.json]

``run`` executes one scheme on one workload (with the vanilla in-place
baseline for the data-reduction metric) and prints the QCT and per-site
reduction; ``compare`` does the same for several schemes side by side.
Results can be saved to JSON with ``--json`` and reloaded by
:mod:`repro.core.persistence`.

``run`` and ``compare`` take ``--metrics FILE`` (metrics snapshot JSON)
and ``--sanitize`` (runtime invariant sanitizer: bytes conservation,
sim-clock monotonicity, LP feasibility — non-zero exit on violation);
``inspect`` reads a ``--telemetry`` archive (spans and metrics are views
of that one event stream), prints its per-stage latency breakdown and
the critical-path components of every query's completion time, and can
convert it to the Chrome ``chrome://tracing`` / Perfetto trace-event
format, chaos fault windows included; ``lint`` runs
the project's simulation-aware static analysis (per-file rules R001–R008,
the whole-program shared-state pass R010 with ``--static``) and the two-run
``--determinism`` smoke.  ``--chaos PROFILE`` (with
``--chaos-seed``) injects a deterministic fault schedule — degraded and
blacked-out links, site outages, stragglers, lost task waves — and runs
the scheme on the failure-aware runtime (retries with exponential
backoff, degraded replanning, partial results)::

    python -m repro lint src/repro benchmarks
    python -m repro lint --determinism
    python -m repro run --scheme bohr --sanitize
    python -m repro run --scheme bohr --chaos flaky-wan --sanitize

``bench`` is the continuous-benchmarking harness: it discovers the
``benchmarks/bench_*.py`` suite (or a curated ``--suite
smoke|figures|tables|ablations`` subset), runs every registered case
with a pinned seed, and writes a versioned ``BENCH_<n>.json``;
``--compare BASELINE.json`` re-runs the suite and gates on per-metric
tolerance bands on the simulated metrics (wall readings stay in the
file, ungated).  ``inspect`` prints the critical-path components of
every query's completion time (:mod:`repro.obs.critpath`) from a saved
``--telemetry`` archive; wall-clock profiles come from ``perfbench
--trace`` or ``python -m cProfile``::

    python -m repro bench --suite smoke --out BENCH_smoke.json
    python -m repro bench --suite smoke --compare BENCH_smoke.json
    python -m repro run --scheme bohr --telemetry tele.jsonl
    python -m repro inspect tele.jsonl

``--telemetry FILE`` (on ``run`` and ``compare``) records the streaming
runtime event bus — flow/link/stage/fault/plan events on the simulated
clock — as versioned JSONL (schema in DESIGN.md); ``report`` renders a
recorded stream as a static self-contained HTML dashboard (per-link
utilization heatmap with fault overlays, stage Gantt, estimator-error
curve, cumulative delivered vs. abandoned bytes); ``top`` drives a
dynamic-dataset sweep with a live terminal view over the same bus::

    python -m repro run --scheme bohr --chaos havoc --telemetry tele.jsonl
    python -m repro report tele.jsonl --out report.html
    python -m repro top --scheme bohr --queries 12
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.chaos.profiles import CHAOS_PROFILES
from repro.core.report import render_qct_table, render_reduction_table
from repro.core.runner import ExperimentResult, run_experiment
from repro.errors import ReproError
from repro.obs.critpath import analyze_critical_paths, render_components
from repro.systems.base import SystemConfig
from repro.systems.registry import SCHEME_NAMES
from repro.util.units import format_bytes, format_seconds
from repro.wan.presets import ec2_ten_sites

WORKLOAD_CHOICES = (
    "bigdata-scan",
    "bigdata-udf",
    "bigdata-aggregation",
    "bigdata",
    "tpcds",
    "facebook",
    "images",
)


def _add_input_arguments(
    cmd: argparse.ArgumentParser, scheme: bool = True, describe: bool = False
) -> None:
    """The system-under-test flags ``run``/``compare``/``top``/``serve`` share."""
    if scheme:
        cmd.add_argument("--scheme", default="bohr", choices=SCHEME_NAMES)
    cmd.add_argument("--workload", default="bigdata-aggregation",
                     choices=WORKLOAD_CHOICES)
    cmd.add_argument("--placement", default="random",
                     choices=("random", "locality"))
    cmd.add_argument("--base-uplink", default="2MB/s")
    cmd.add_argument("--lag", type=float, default=8.0,
                     help="query lag window T in seconds" if describe else None)
    cmd.add_argument("--probe-k", type=int, default=30)


def _add_seed_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--seed", type=int, default=11)
    cmd.add_argument("--scale", type=float, default=1.0)


def _add_chaos_arguments(
    cmd: argparse.ArgumentParser, describe: bool = False
) -> None:
    cmd.add_argument("--chaos", metavar="PROFILE", default=None,
                     choices=CHAOS_PROFILES,
                     help="inject a deterministic fault schedule "
                     f"({', '.join(CHAOS_PROFILES)}) and run the "
                     "scheme on the failure-aware runtime" if describe else None)
    cmd.add_argument("--chaos-seed", type=int, default=13,
                     help="seed deriving the fault schedule "
                     "(same seed => identical faults)" if describe else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bohr (CoNEXT 2018) reproduction: geo-distributed "
        "analytics with similarity-aware placement.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("schemes", help="list the available schemes")

    topology_cmd = commands.add_parser(
        "topology", help="print the ten-region EC2 topology"
    )
    topology_cmd.add_argument("--base-uplink", default="2MB/s")

    for name, needs_schemes in (("run", False), ("compare", True)):
        cmd = commands.add_parser(
            name,
            help="execute one scheme" if name == "run" else "compare schemes",
        )
        if needs_schemes:
            cmd.add_argument(
                "--schemes",
                default="iridium,iridium-c,bohr",
                help="comma-separated scheme names",
            )
        _add_input_arguments(cmd, scheme=not needs_schemes, describe=True)
        cmd.add_argument("--queries", type=int, default=6,
                         help="queries to execute per scheme")
        _add_seed_arguments(cmd)
        cmd.add_argument("--json", metavar="PATH",
                         help="also write results to a JSON file")
        cmd.add_argument("--metrics", metavar="FILE",
                         help="write a metrics snapshot as JSON")
        cmd.add_argument("--telemetry", metavar="FILE",
                         help="record the streaming runtime event bus "
                         "as versioned JSONL (render with 'repro report')")
        cmd.add_argument("--sanitize", action="store_true",
                         help="check simulation invariants (bytes "
                         "conservation, clock monotonicity, LP "
                         "feasibility) during the run; exit 1 on any "
                         "violation")
        _add_chaos_arguments(cmd, describe=True)

    inspect_cmd = commands.add_parser(
        "inspect", help="per-stage latency breakdown of a saved trace"
    )
    inspect_cmd.add_argument("archive", metavar="ARCHIVE",
                             help="telemetry archive written by --telemetry")
    inspect_cmd.add_argument("--chrome", metavar="FILE",
                             help="also convert the archive to Chrome "
                             "trace-event format")

    report_cmd = commands.add_parser(
        "report",
        help="render a recorded telemetry stream as a static HTML dashboard",
    )
    report_cmd.add_argument("telemetry_file", metavar="TELEMETRY",
                            help="JSONL stream written by --telemetry")
    report_cmd.add_argument("--out", metavar="FILE", default="report.html",
                            help="output HTML path (default: report.html)")
    report_cmd.add_argument("--title", default="repro telemetry report")

    top_cmd = commands.add_parser(
        "top",
        help="dynamic-dataset sweep with a live terminal telemetry view",
    )
    _add_input_arguments(top_cmd)
    top_cmd.add_argument("--queries", type=int, default=12,
                         help="queries to execute in the sweep")
    top_cmd.add_argument("--replan-every", type=int, default=5)
    top_cmd.add_argument("--batches", type=int, default=15,
                         help="dynamic batches per dataset feed")
    top_cmd.add_argument("--initial-fraction", type=float, default=0.25)
    top_cmd.add_argument("--interval", type=float, default=20.0,
                         help="seconds between batch arrivals")
    _add_seed_arguments(top_cmd)
    _add_chaos_arguments(top_cmd)
    top_cmd.add_argument("--refresh", type=int, default=500,
                         help="repaint every N telemetry events")
    top_cmd.add_argument("--telemetry", metavar="FILE",
                         help="also record the stream as JSONL")

    serve_cmd = commands.add_parser(
        "serve",
        help="concurrent multi-tenant serving: Zipf load over one shared "
        "sim clock with WFQ fairness, admission control, and a cube cache",
    )
    _add_input_arguments(serve_cmd)
    _add_seed_arguments(serve_cmd)
    serve_cmd.add_argument("--tenants", type=int, default=4,
                           help="tenant population size")
    serve_cmd.add_argument("--weights", default="",
                           help="comma-separated tenant weights, cycled "
                           "over tenants (default: all 1.0)")
    serve_cmd.add_argument("--queries", type=int, default=40,
                           help="arrivals to offer")
    serve_cmd.add_argument("--rate", type=float, default=2.0,
                           help="aggregate arrivals per sim-second "
                           "(open loop)")
    serve_cmd.add_argument("--zipf", type=float, default=1.1,
                           help="tenant-popularity Zipf exponent")
    serve_cmd.add_argument("--max-inflight", type=int, default=8,
                           help="global concurrent-query ceiling")
    serve_cmd.add_argument("--max-inflight-per-tenant", type=int, default=4)
    serve_cmd.add_argument("--queue-depth", type=int, default=16,
                           help="per-tenant queue depth; arrivals beyond "
                           "are shed")
    serve_cmd.add_argument("--cache-size", type=int, default=32,
                           help="cube-cache capacity in entries (0 "
                           "disables the cache)")
    serve_cmd.add_argument("--cache-serve-seconds", type=float, default=0.05,
                           help="fixed sim cost of a cache-served answer")
    serve_cmd.add_argument("--map-slots", type=int, default=None,
                           help="per-site concurrent map-stage slots "
                           "(default: the site's executor count)")
    serve_cmd.add_argument("--hist", metavar="FILE",
                           help="write the latency histogram as JSON")
    serve_cmd.add_argument("--json", metavar="PATH",
                           help="write the full serve report as JSON")
    serve_cmd.add_argument("--telemetry", metavar="FILE",
                           help="record the streaming event bus (serve/"
                           "cache kinds included) as versioned JSONL")
    serve_cmd.add_argument("--slo", metavar="TENANT=TARGET",
                           action="append", default=[],
                           help="per-tenant QCT target in sim seconds "
                           "(repeatable; 'default=SECONDS' covers every "
                           "tenant not named).  Enables the critical-"
                           "path analyzer and the per-tenant SLO/"
                           "attainment table")
    serve_cmd.add_argument("--slo-goal", type=float, default=0.95,
                           help="attainment goal in (0, 1) shared by "
                           "every --slo target (default: 0.95)")
    serve_cmd.add_argument("--slo-window", type=float, default=5.0,
                           help="burn-rate window length in sim seconds "
                           "(default: 5.0)")
    serve_cmd.add_argument("--slo-report", metavar="FILE",
                           help="write the critical-path / blame / SLO "
                           "analysis as JSON (implies the analyzer even "
                           "without --slo)")
    serve_cmd.add_argument("--sanitize", action="store_true",
                           help="arm the invariant sanitizer during the "
                           "run and the critical-path conservation check "
                           "during analysis; exit 1 on any violation")

    from repro.bench.cli import add_bench_arguments

    bench_cmd = commands.add_parser(
        "bench",
        help="continuous-benchmarking harness: run suites, emit "
        "BENCH_<n>.json, gate on regressions",
    )
    add_bench_arguments(bench_cmd)

    from repro.lint.cli import add_lint_arguments

    lint_cmd = commands.add_parser(
        "lint",
        help="simulation-aware static analysis (R001-R008, --static "
        "adds whole-program R010) + determinism smoke",
    )
    add_lint_arguments(lint_cmd)
    return parser


def _build_inputs(args: argparse.Namespace):
    """``(topology, config, chaos, workload factory)`` from the shared flags."""
    from repro.workloads import build_workload

    topology = ec2_ten_sites(base_uplink=args.base_uplink)
    config = SystemConfig(
        lag_seconds=args.lag, probe_k=args.probe_k, seed=args.seed,
        partition_records=8,
    )
    chaos = None
    if getattr(args, "chaos", None):
        from repro.chaos.profiles import build_schedule
        from repro.chaos.runtime import ChaosConfig

        chaos = ChaosConfig(
            faults=build_schedule(args.chaos, topology, seed=args.chaos_seed)
        )

    def factory():
        return build_workload(
            args.workload, topology, placement=args.placement,
            seed=args.seed, scale=args.scale,
        )

    return topology, config, chaos, factory


def _observed(args: argparse.Namespace, record: bool):
    """The instrumentation context the flags ask for: a live bus when an
    output needs the event stream, the collecting sanitizer under
    ``--sanitize``, the no-op twins otherwise."""
    from repro.obs import instrument
    from repro.obs.telemetry import NULL_TELEMETRY, TelemetryBus

    sanitizer = None
    if getattr(args, "sanitize", False):
        from repro.obs.sanitize import Sanitizer

        sanitizer = Sanitizer(mode="collect")
    return instrument.instrumented(
        telemetry=TelemetryBus() if record else NULL_TELEMETRY,
        sanitizer=sanitizer,
    )


def _finish_observed(args: argparse.Namespace, obs) -> int:
    """Write the ``--telemetry`` archive, print the sanitizer's verdict;
    returns the exit code."""
    if args.telemetry:
        from repro.obs.telemetry import write_jsonl

        write_jsonl(obs.telemetry, args.telemetry)
        print(
            f"telemetry written to {args.telemetry} "
            f"({len(obs.telemetry.events)} events)"
        )
    if obs.sanitizer.enabled:
        print()
        print(obs.sanitizer.summary())
        if obs.sanitizer.violations:
            return 1
    return 0


def run_scheme(scheme: str, args: argparse.Namespace) -> ExperimentResult:
    """One scheme's experiment, as ``repro run`` runs it from ``args``."""
    topology, config, chaos, factory = _build_inputs(args)
    return run_experiment(scheme, factory, topology, config,
                          query_limit=args.queries, chaos=chaos)


def _print_result(result: ExperimentResult) -> None:
    prep = result.prep
    print(
        f"{result.system} on {result.workload}: "
        f"mean QCT {format_seconds(result.mean_qct)} "
        f"(vanilla in-place: {format_seconds(result.baseline_mean_qct)}), "
        f"moved {format_bytes(prep.moved_bytes)}, "
        f"LP {prep.lp_solve_seconds * 1000:.1f} ms, "
        f"{len(prep.probes)} probes"
    )
    if result.chaos_profile is not None:
        print(
            f"  chaos [{result.chaos_profile}]: "
            f"{result.total_retries} retries, "
            f"lost {format_bytes(result.total_lost_bytes)}, "
            f"{result.aborted_queries} aborted queries"
        )


def _wants_observability(args: argparse.Namespace) -> bool:
    return bool(args.metrics or args.telemetry)


def _write_metrics(path: str, events) -> None:
    """``--metrics``: the series view of the stream, as JSON."""
    import json

    from repro.obs.views import metrics_from_events

    records = metrics_from_events(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics written to {path} ({len(records)} series)")


def _run_top(args: argparse.Namespace) -> int:
    from repro import make_system
    from repro.core.dynamic import initial_workload_from_feeds, run_dynamic
    from repro.obs.top import TelemetryTop
    from repro.workloads.dynamic import DynamicDataFeed

    topology, config, chaos, factory = _build_inputs(args)
    template = factory()
    feeds = {
        dataset.dataset_id: DynamicDataFeed.split(
            dataset,
            initial_fraction=args.initial_fraction,
            num_batches=args.batches,
            interval_seconds=args.interval,
        )
        for dataset in template.catalog
    }
    workload = initial_workload_from_feeds(template, feeds)
    view = TelemetryTop(refresh_events=args.refresh)
    with _observed(args, record=True) as obs:
        view.attach(obs.telemetry)
        # Built inside the slot so controller-construction events (the
        # chaos fault windows) reach the bus.
        controller = make_system(args.scheme, topology, config, chaos=chaos)
        result = run_dynamic(
            controller, workload, feeds,
            num_queries=args.queries, replan_every=args.replan_every,
        )
    view.close()
    print(
        f"\n{args.scheme} dynamic sweep on {args.workload}: "
        f"{len(result.qcts)} queries, mean QCT "
        f"{format_seconds(result.mean_qct)}, {result.replans} replans, "
        f"{result.batches_applied} batches, "
        f"{result.fault_replans} fault replans, "
        f"{result.aborted_queries} aborted"
    )
    return _finish_observed(args, obs)


def _run_serve(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slo import SloTracker, parse_slo_targets
    from repro.serve import ServeConfig, serve_workload

    topology, config, _chaos, factory = _build_inputs(args)
    weights = tuple(
        float(part) for part in args.weights.split(",") if part.strip()
    )
    serve_config = ServeConfig(
        seed=args.seed,
        num_tenants=args.tenants,
        num_queries=args.queries,
        arrival_rate=args.rate,
        zipf_s=args.zipf,
        max_inflight=args.max_inflight,
        max_inflight_per_tenant=args.max_inflight_per_tenant,
        queue_depth=args.queue_depth,
        cache_capacity=args.cache_size,
        cache_serve_seconds=args.cache_serve_seconds,
        map_slots_per_site=args.map_slots,
        tenant_weights=weights,
    )
    tracker = None
    if args.slo:
        # Built before the run so a bad target or window fails at once.
        tenants = [tenant.name for tenant in serve_config.tenant_list()]
        tracker = SloTracker(
            parse_slo_targets(args.slo, tenants, goal=args.slo_goal),
            window_seconds=args.slo_window,
        )
    analyze = bool(args.slo or args.slo_report)
    crit = slo_report = None
    with _observed(args, record=bool(args.telemetry or analyze)) as obs:
        report = serve_workload(
            args.scheme, factory, topology, config, serve_config
        )
        if analyze:
            crit, slo_report = _analyze_serve(tracker, report, obs.telemetry)

    print(
        f"{report.scheme} serving {args.workload}: "
        f"{len(report.queries)} arrivals from {args.tenants} tenants "
        f"(Zipf s={args.zipf}, rate {args.rate}/s, seed {args.seed})"
    )
    print(
        f"  completed {len(report.completed)} "
        f"({report.executed} executed, "
        f"{report.cache_hits} cache-served), shed {report.shed}"
    )
    print(
        f"  QCT p50 {format_seconds(report.p50_qct)}  "
        f"p99 {format_seconds(report.p99_qct)}  "
        f"mean {format_seconds(report.mean_qct)}  "
        f"makespan {format_seconds(report.makespan)}"
    )
    print(
        f"  cache: {report.cache_hits} hits / {report.cache_misses} misses "
        f"({100.0 * report.cache_hit_rate:.1f}%), "
        f"{report.cache_evictions} evictions"
    )
    print(f"  fairness (Jain, weight-normalized): {report.fairness:.4f}")
    print()
    print(f"  {'tenant':12s} {'weight':>6s} {'offered':>8s} {'executed':>9s} "
          f"{'cached':>7s} {'shed':>5s} {'mean QCT':>12s}")
    for tenant in report.tenants:
        print(
            f"  {tenant.name:12s} {tenant.weight:6.1f} {tenant.offered:8d} "
            f"{tenant.executed:9d} {tenant.cached:7d} {tenant.shed:5d} "
            f"{format_seconds(tenant.mean_qct):>12s}"
        )
    print()
    print(f"  sim digest: {report.sim_digest()}")
    if crit is not None:
        _print_serve_analysis(crit, slo_report)
    if args.slo_report:
        with open(args.slo_report, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "critpath": crit.to_dict(),
                    "slo": slo_report.to_dict() if slo_report else None,
                },
                handle,
                indent=2,
            )
        print(f"SLO/blame report written to {args.slo_report}")
    if args.hist:
        with open(args.hist, "w", encoding="utf-8") as handle:
            json.dump(report.latency_histogram(), handle, indent=2)
        print(f"latency histogram written to {args.hist}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"serve report written to {args.json}")
    return _finish_observed(args, obs)


def _analyze_serve(tracker, report, bus):
    """Run the critical-path analyzer + SLO tracker over a serve run.

    The derived ``slo-*`` / ``slo-blame`` events are appended to the bus
    (in deterministic order) before the archive is written, so
    ``--telemetry`` files, ``repro report`` panels and ``repro top``
    all see the same stream.
    """
    from repro.obs.critpath import emit_blame

    crit = analyze_critical_paths(bus.events)
    slo_report = None
    if tracker is not None:
        tracker.observe_events(bus.events)
        slo_report = tracker.finalize(report.makespan)
        tracker.emit_events(bus, slo_report)
    emit_blame(crit, bus)
    return crit, slo_report


def _print_serve_analysis(crit, slo_report) -> None:
    totals = crit.component_totals()
    print()
    print(
        "  critical path (all queries): "
        f"queue {format_seconds(totals['queue_wait'])}  "
        f"slot {format_seconds(totals['slot_wait'])}  "
        f"map {format_seconds(totals['map_seconds'])}  "
        f"wan {format_seconds(totals['wan_serial'])}"
        f"+{format_seconds(totals['wan_contention'])} contended  "
        f"reduce {format_seconds(totals['reduce_seconds'])}  "
        f"cache {format_seconds(totals['cached_seconds'])}"
    )
    print(f"  conservation: max residual {crit.max_residual():.3e} s")
    if crit.blame:
        print("  blame (victim <- top culprits, contention seconds):")
        for victim in sorted(crit.blame):
            culprits = crit.blame[victim]
            ranked = sorted(
                culprits.items(), key=lambda item: (-item[1], item[0])
            )[:3]
            cells = ", ".join(
                f"{culprit} {seconds:.2f}s" for culprit, seconds in ranked
            )
            print(f"    {victim:12s} <- {cells}")
    if slo_report is not None:
        print()
        print(
            f"  {'tenant':12s} {'target':>8s} {'done':>5s} {'viol':>5s} "
            f"{'attain':>7s} {'goal':>5s} {'met':>4s} {'p50':>9s} "
            f"{'p99':>9s} {'burn':>6s}"
        )
        for row in slo_report.rows:
            print(
                f"  {row.tenant:12s} {row.target_seconds:8.2f} "
                f"{row.completed:5d} {row.violations:5d} "
                f"{row.attainment * 100:6.1f}% {row.goal * 100:4.0f}% "
                f"{'yes' if row.met else 'NO':>4s} "
                f"{format_seconds(row.p50):>9s} {format_seconds(row.p99):>9s} "
                f"{row.max_burn:5.1f}x"
            )
        print(f"  slo digest: {slo_report.digest()}")
    print(f"  critpath digest: {crit.digest()}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a :class:`ReproError` is printed as one line, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "schemes":
        from repro.systems.registry import profile_for

        for name in SCHEME_NAMES:
            profile = profile_for(name)
            flags = []
            if profile.uses_cubes:
                flags.append("cubes")
            if profile.uses_similarity:
                flags.append("similarity")
            flags.append(profile.placement_strategy)
            if profile.rdd_similarity:
                flags.append("rdd")
            print(f"{name:12s} {' + '.join(flags)}")
        return 0

    if args.command == "topology":
        print(ec2_ten_sites(base_uplink=args.base_uplink).describe())
        return 0

    if args.command == "inspect":
        from repro.obs.export import export_chrome
        from repro.obs.inspect import render_inspection
        from repro.obs.telemetry import load_jsonl
        from repro.obs.views import spans_from_events

        _header, events = load_jsonl(args.archive)
        print(render_inspection(spans_from_events(events), source=args.archive))
        print()
        print(render_components(analyze_critical_paths(events)))
        if args.chrome:
            export_chrome(events, args.chrome)
            print(f"\nChrome trace written to {args.chrome}")
        return 0

    if args.command == "bench":
        from repro.bench.cli import run_bench

        return run_bench(args)

    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)

    if args.command == "report":
        from repro.obs.report_html import write_report
        from repro.obs.telemetry import load_jsonl as load_telemetry

        header, events = load_telemetry(args.telemetry_file)
        write_report(
            events, args.out, title=args.title, source=args.telemetry_file
        )
        print(
            f"report written to {args.out} "
            f"({len(events)} events, schema v{header['version']})"
        )
        return 0

    if args.command == "top":
        return _run_top(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "run":
        schemes = [args.scheme]
    else:  # compare
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]

    with _observed(args, record=_wants_observability(args)) as obs:
        results = [run_scheme(scheme, args) for scheme in schemes]
        events = obs.telemetry.events
        if args.sanitize:
            # Inside the slot, so --sanitize checks critpath-conservation.
            analyze_critical_paths(events)

    for result in results:
        _print_result(result)
    print()
    if args.command == "compare":
        print(render_qct_table(results, title="Mean QCT (seconds)"))
        print()
    print(render_reduction_table(results,
                                 title="Data reduction vs in-place (%)"))
    if args.json:
        from repro.core.persistence import save_results

        save_results(results, args.json)
        print(f"\nresults written to {args.json}")
    if _wants_observability(args):
        print()
    if args.metrics:
        _write_metrics(args.metrics, events)
    return _finish_observed(args, obs)


if __name__ == "__main__":
    sys.exit(main())
