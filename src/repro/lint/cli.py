"""CLI plumbing shared by ``repro lint`` and ``python -m repro.lint``.

Both entry points run the exact same code path CI does, so a local
``make lint`` (or ``python -m repro.lint src/repro benchmarks``)
reproduces CI verdicts bit-for-bit.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence

from repro.errors import LintError


def _run_static(args: argparse.Namespace, findings: "List") -> "List":
    """Build the project model, run R010 under ``--static``, write
    ``shared_state.json``; returns the combined finding list.

    Parse failures are not double-reported: the per-file runner already
    emitted R000 for every file in ``args.paths``.
    """
    from repro.lint.graph import ProjectGraph
    from repro.lint.passes import shared_state_pass, write_shared_state

    roots = [path for path in args.paths if os.path.isdir(path)]
    if not roots:
        raise LintError(
            "--static needs directory PATH arguments "
            "(e.g. src/repro benchmarks)"
        )
    static_findings, inventory = shared_state_pass(ProjectGraph.build(roots))
    if args.static:
        findings = sorted(findings + static_findings)
    if args.shared_state:
        baseline = None
        if args.baseline and os.path.isfile(args.baseline):
            from repro.lint.baseline import Baseline

            baseline = Baseline.load(args.baseline, strict=False)
        count = write_shared_state(inventory, args.shared_state,
                                   baseline=baseline)
        print(
            f"shared-state inventory written to {args.shared_state} "
            f"({count} entries)"
        )
    return findings


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (e.g. src/repro benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all; "
        "R010 implies --static)",
    )
    parser.add_argument(
        "--static",
        action="store_true",
        help="also run the whole-program pass R010 (shared-mutable-state "
        "inventory)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="committed findings baseline (lint-baseline.json): fail "
        "only on findings not in it; every entry needs a justification",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="regenerate the baseline from current findings (keeps "
        "existing justifications; new entries get a TODO marker)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="write all findings as SARIF 2.1.0 (baseline-accepted "
        "findings carry suppressions)",
    )
    parser.add_argument(
        "--shared-state",
        metavar="FILE",
        help="write the R010 shared-mutable-state inventory as JSON "
        "(the serving-layer isolation TODO list)",
    )
    parser.add_argument(
        "--determinism",
        action="store_true",
        help="also run the two-run same-seed trace-digest determinism smoke",
    )
    parser.add_argument(
        "--scheme",
        default="bohr",
        help="scheme for the determinism smoke (default: bohr)",
    )
    parser.add_argument(
        "--workload",
        default="bigdata-aggregation",
        help="workload for the determinism smoke",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="seed for the determinism smoke"
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=2,
        help="queries per run in the determinism smoke (default: 2)",
    )
    parser.add_argument(
        "--chaos",
        metavar="PROFILE",
        default=None,
        help="run the determinism smoke under an injected fault "
        "schedule (a repro.chaos profile name)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=13,
        help="seed deriving the smoke's fault schedule (default: 13)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint pass (and optional determinism smoke); 0 if clean."""
    from repro.lint.registry import STATIC_RULE_IDS
    from repro.lint.report import render_json, render_text
    from repro.lint.runner import lint_paths

    if not args.paths and not args.determinism:
        raise LintError("nothing to do: give PATH arguments or --determinism")

    select: Optional[List[str]] = None
    if args.select:
        select = [token.strip() for token in args.select.split(",") if token.strip()]

    file_select = select
    if select is not None:
        file_select = [
            rule_id for rule_id in select
            if rule_id.upper() not in STATIC_RULE_IDS
        ]
        if len(file_select) < len(select):
            args.static = True

    exit_code = 0
    if args.paths:
        findings, files_checked = lint_paths(args.paths, select=file_select)
        if args.static or args.write_baseline or args.shared_state:
            findings = _run_static(args, findings)
        if args.baseline and not args.write_baseline:
            from repro.lint.baseline import Baseline

            baseline = Baseline.load(args.baseline)
            diff = baseline.check(findings)
            gated = diff.new
        else:
            baseline = None
            diff = None
            gated = findings
        renderer = render_json if args.format == "json" else render_text
        print(renderer(gated, files_checked))
        if diff is not None and args.format != "json":
            print(diff.render())
        if args.sarif:
            from repro.lint.sarif import write_sarif

            write_sarif(findings, args.sarif, baseline=baseline)
            print(f"SARIF report written to {args.sarif}")
        if args.write_baseline:
            from repro.lint.baseline import Baseline, write_baseline

            previous = None
            if os.path.isfile(args.write_baseline):
                previous = Baseline.load(args.write_baseline, strict=False)
            count = write_baseline(findings, args.write_baseline,
                                   previous=previous)
            print(f"baseline written to {args.write_baseline} "
                  f"({count} entries)")
        elif gated:
            exit_code = 1

    if args.determinism:
        from repro.lint.determinism import run_determinism_check

        report = run_determinism_check(
            scheme=args.scheme,
            workload=args.workload,
            seed=args.seed,
            queries=args.queries,
            chaos_profile=args.chaos,
            chaos_seed=args.chaos_seed,
        )
        if args.paths:
            print()
        print(report.render())
        if not report.deterministic:
            exit_code = 1
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Simulation-aware static analysis + determinism smoke "
        "for the Bohr reproduction (per-file rules R001-R008, "
        "whole-program pass R010; see DESIGN.md).",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
