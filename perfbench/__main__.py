"""Run the whole suite: every workload, one worker process after another.

    PYTHONPATH=src python -m perfbench --seed 11 [--trace] [--workload NAME]
    PYTHONPATH=src python -m perfbench --self-check
    PYTHONPATH=src python -m perfbench --quick          # smoke only

Each workload runs in its own ``perfbench/run.py`` process, never two at
once (the reference box has two cores and the workers are
single-threaded).  Every metric is printed by name with its unit, and
``perfbench/out/results.json`` keeps the lot with a machine fingerprint.
Exit code 0 means every workload's output checks passed (and, with
``--self-check``, that two sets of runs agreed within the bounds).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from perfbench import OUT_DIR, PACKAGE_DIR, ROOT_DIR
from perfbench.run import load_spec

#: The held-out seed: never used while tuning; ``--self-check`` runs it.
HELD_OUT_SEED = 23
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mib")


def fingerprint(seed: int) -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
    }


def run_worker(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One worker process; returns its result line plus its detail file."""
    command = [
        sys.executable, os.path.join(PACKAGE_DIR, "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--quick", str(int(quick)),
    ]
    process = subprocess.run(command, cwd=ROOT_DIR, capture_output=True, text=True)
    lines = process.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if process.returncode not in (0, 1) or not lines:
        sys.stderr.write(process.stderr)
        raise SystemExit(f"worker for {name} died with code {process.returncode}")
    result = json.loads(lines[-1])
    kind = "trace" if trace else "result"
    with open(os.path.join(OUT_DIR, f"{name}.{kind}.json"), encoding="utf-8") as handle:
        result["detail"] = json.load(handle)
    return result


def run_set(names, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Every named workload once (twice with ``trace``), sequentially."""
    results = {}
    for name in names:
        results[name] = {"end_to_end": run_worker(name, seed, seconds, False, quick)}
        if trace:
            results[name]["per_layer"] = run_worker(name, seed, seconds, True, quick)
    return results


def print_table(spec: dict, results: dict) -> None:
    names = list(results)
    print()
    print(f"{'end-to-end metric':24s} {'unit':9s}" + "".join(f"{n:>17s}" for n in names))
    for metric in spec["end_to_end"]:
        cells = "".join(
            f"{results[n]['end_to_end']['metrics'][metric['name']]['value']:17.6g}"
            for n in names
        )
        print(f"{metric['name']:24s} {metric['unit']:9s}{cells}")
    counts = "".join(
        f"{results[n]['end_to_end']['failed']:>8d}/{results[n]['end_to_end']['attempted']:<8d}"
        for n in names
    )
    print(f"{'failed/attempted':24s} {'count':9s}{counts}")
    samples = "".join(
        f"{results[n]['end_to_end']['detail']['wall_s']['n']:17d}" for n in names
    )
    print(f"{'wall samples':24s} {'count':9s}{samples}")


def all_correct(results: dict) -> bool:
    return all(
        part["correct"] for result in results.values() for part in result.values()
    )


def disagreements(spec: dict, first: dict, second: dict) -> list:
    """Where the second of two sets of runs of the same code is worse
    than the first by more than the benchmark's own bound (host, the
    driver's rule) or differs at all (sim)."""
    problems = []
    for name in first:
        a = first[name]["end_to_end"]["metrics"]
        b = second[name]["end_to_end"]["metrics"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            x, y = a[key]["value"], b[key]["value"]
            if key in HOST_METRICS:  # all lower-is-better
                if y > x * (1.0 + metric["bound"]):
                    problems.append(
                        f"{name} {key}: {y:.6g} is more than "
                        f"{metric['bound']:.0%} worse than {x:.6g}"
                    )
            elif x != y:
                problems.append(f"{name} {key}: sim value moved, {x!r} vs {y!r}")
    return problems


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload with the layer tracer")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition, shrunken sizes: smoke only, never claims")
    parser.add_argument("--self-check", action="store_true",
                        help="two full sets back to back must agree within bounds")
    args = parser.parse_args(argv)
    chosen = args.workload or names
    os.makedirs(OUT_DIR, exist_ok=True)

    results = run_set(chosen, args.seed, args.seconds, args.trace, args.quick)
    print_table(spec, results)
    report = {"fingerprint": fingerprint(args.seed), "workloads": results}
    ok = all_correct(results)

    if args.self_check:
        second = run_set(chosen, args.seed, args.seconds, False, args.quick)
        print_table(spec, second)
        held_out = run_set(chosen, HELD_OUT_SEED, args.seconds, False, args.quick)
        print_table(spec, held_out)
        problems = disagreements(spec, results, second)
        for problem in problems:
            print(f"SELF-CHECK: {problem}")
        report.update(second_set=second, held_out=held_out, disagreements=problems)
        ok = ok and not problems and all_correct(second) and all_correct(held_out)
        print(f"self-check: {'two sets agree' if not problems else 'DISAGREE'}; "
              f"held-out seed {HELD_OUT_SEED} "
              f"{'passes' if all_correct(held_out) else 'FAILS'} its checks")

    path = os.path.join(OUT_DIR, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nresults written to {os.path.relpath(path, ROOT_DIR)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
