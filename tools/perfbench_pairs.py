#!/usr/bin/env python3
"""Alternating base/change pairs of one perfbench workload, as one command.

    python3 tools/perfbench_pairs.py --workload serve-contended --pairs 10 --base HEAD~1

The ROADMAP protocol for a wall-clock claim: the base ref is unpacked
into a temporary directory (``git archive``: the committed files in a
new directory, which is what the PR driver measures, and nothing to
unregister afterwards), the command of ``BENCHMARK.json`` is run with
``--workload W --seed S --trace 0`` alternately there and in this
checkout — the side that goes first alternates too — and every run, both
sides' medians and quartiles and, for ``wall_s``, ``setup_s`` and
``peak_rss_mib``, the wins out of the pairs are printed.
Next to each run's scaled ``wall_s`` go the raw seconds and the spin-loop
calibration reading (``calib_s``) that scaled them, read from the
``perfbench/out/<W>.result.json`` the run leaves in its tree: a scaled
reading that rose while the raw one fell is the calibration, not the code.
``setup_s`` is shown split too: ``import_s`` (the import probe) and
``setup_median_s`` (the median of the workload's own set-up).

Exit status is non-zero when any run reports ``"correct": false`` or
``failed > 0``, or when a ``sim_*`` metric differs between the two trees:
a wall-clock comparison between runs that did different simulated work
is not a comparison.  Standard library only; edits nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``raw_wall_s``, ``calib_s``, ``import_s`` and ``setup_median_s`` are not
#: in the result line; ``run_once`` adds them from the tree's
#: ``perfbench/out/<W>.result.json``.
WALL_METRICS = (
    "wall_s", "raw_wall_s", "calib_s", "setup_s", "import_s", "setup_median_s",
    "peak_rss_mib",
)
#: The end-to-end host metrics of ``BENCHMARK.json`` (lower is better):
#: each gets a wins/losses/median-delta line.
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mib")


def unpack(ref: str, into: str) -> None:
    """The committed files of ``ref``, unpacked under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def run_once(tree: str, workload: str, seed: int) -> Dict:
    """One benchmark run in ``tree``; its JSON result line, parsed."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    # Each tree imports its own src/: an inherited PYTHONPATH must not
    # point both sides at one copy of the program.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"no JSON result line from {tree} (exit {done.returncode})")
    result["exit"] = done.returncode
    # The unscaled unit seconds and the calibration reading that scaled them.
    detail_path = os.path.join(tree, "perfbench", "out", f"{workload}.result.json")
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    result["metrics"]["raw_wall_s"] = {"value": detail["wall_s"]["raw"]}
    result["metrics"]["calib_s"] = {"value": detail["calib_s"]}
    # setup_s is the import probe plus the median set-up.
    result["metrics"]["import_s"] = {"value": detail["setup_s"]["import_s"]}
    result["metrics"]["setup_median_s"] = {"value": detail["setup_s"]["median"]}
    return result


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.4f}  quartiles {q1:.4f}..{q3:.4f}  (n={len(values)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="serve-contended")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1", help="git ref to compare against")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    base_tree = tempfile.mkdtemp(prefix="perfbench-base-")
    trees = {"base": base_tree, "change": ROOT}
    runs: Dict[str, List[Dict]] = {"base": [], "change": []}
    problems: List[str] = []
    try:
        unpack(args.base, base_tree)
        print(f"{args.workload} seed {args.seed}: base {args.base} vs {ROOT}")
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed)
                runs[side].append(result)
                if result["exit"] or not result["correct"] or result["failed"]:
                    problems.append(
                        f"pair {pair + 1} {side}: exit {result['exit']}, correct "
                        f"{result['correct']}, failed {result['failed']}"
                    )
            base, change = (runs[side][-1]["metrics"] for side in ("base", "change"))
            print(f"pair {pair + 1:2d} ({order[0]} first)  " + "  ".join(
                f"{name} {base[name]['value']:.4f} -> {change[name]['value']:.4f}"
                for name in WALL_METRICS
            ), flush=True)
            for name in sorted(set(base) | set(change)):
                if name.startswith("sim_") and base.get(name) != change.get(name):
                    problems.append(
                        f"pair {pair + 1}: {name} differs, base {base.get(name)} "
                        f"vs change {change.get(name)}"
                    )
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    for name in WALL_METRICS:
        print(name)
        for side in ("base", "change"):
            values = [run["metrics"][name]["value"] for run in runs[side]]
            print(f"  {side:6s} {spread(values)}")
    for name in HOST_METRICS:
        sides = [
            [run["metrics"][name]["value"] for run in runs[side]]
            for side in ("base", "change")
        ]
        wins = sum(1 for base, change in zip(*sides) if change < base)
        losses = sum(1 for base, change in zip(*sides) if change > base)
        medians = [statistics.median(values) for values in sides]
        print(
            f"{name}: change lower in {wins}/{args.pairs} pairs, higher in {losses}; "
            f"median {medians[0]:.4f} -> {medians[1]:.4f} "
            f"({(medians[1] / medians[0] - 1.0) * 100.0:+.1f}%)"
        )
    sims = sorted(name for name in runs["base"][0]["metrics"] if name.startswith("sim_"))
    print(f"sim metrics compared in every pair: {', '.join(sims)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
