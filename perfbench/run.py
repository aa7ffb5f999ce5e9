"""Run one workload and print one JSON result line (the benchmark command).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is a JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every ``end_to_end`` metric of ``BENCHMARK.json``, with ``--trace 1``
every ``per_layer`` metric.  The lines before it name each metric with
its unit and spread, and ``perfbench/out/`` receives the full detail.
Exit code 0 means every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perfbench import OUT_DIR, ROOT_DIR, ensure_repro_importable  # noqa: E402

# Set before numpy loads, and inherited by the import probes: the BLAS
# pool otherwise starts a thread per core, and on a shared two-core box a
# second thread measures the host's scheduler, not the program.
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"


def load_spec() -> dict:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


_IMPORT_PROBE = (
    "import time; from perfbench.speed import Speedometer; meter = Speedometer(); "
    "began = time.perf_counter(); import perfbench.harness; "
    "print(meter.scaled(time.perf_counter() - began))"
)


def import_seconds(samples: int = 3) -> float:
    """Median seconds, at reference speed, to import everything a worker
    needs.

    An import can be timed once per interpreter, so each sample is a
    throw-away interpreter; the first also warms the page cache and the
    bytecode, and the median forgets it.  In a checkout without the
    program the probes fail and this process's own import, next, reports
    why.
    """
    seconds = []
    for _ in range(samples):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT_DIR,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT_DIR, "src")},
            capture_output=True,
            text=True,
            check=False,
        )
        if probe.returncode == 0:
            seconds.append(float(probe.stdout))
    return statistics.median(seconds) if seconds else 0.0


def _named(values: dict, declared: list, kind: str) -> dict:
    """``values`` keyed and united exactly as ``BENCHMARK.json`` declares."""
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise SystemExit(
            f"{kind} metrics out of step with BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(names))}, "
            f"unmeasured {sorted(set(names) - set(values))}"
        )
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", type=int, choices=(0, 1), default=0,
        help="one repetition at shrunken sizes: smoke runs only, never claims",
    )
    args = parser.parse_args(argv)

    ensure_repro_importable()
    imports = import_seconds(1 if args.quick else 3)
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, quick=bool(args.quick))
    result = run_workload(
        workload, args.seconds, bool(args.trace), imports, quick=bool(args.quick)
    )
    if args.trace:
        metrics = _named(result.per_layer, spec["per_layer"], "per-layer")
    else:
        metrics = _named(result.end_to_end, spec["end_to_end"], "end-to-end")

    detail = result.detail
    print(
        f"{workload.name} seed {args.seed}: {detail['wall_s']['n']} repetitions "
        f"over {detail['instances_pooled']} instances, "
        f"timed unit median {detail['wall_s']['median']:.4f} s "
        f"(min {detail['wall_s']['min']:.4f}, quartiles "
        f"{detail['wall_s']['q1']:.4f}..{detail['wall_s']['q3']:.4f}); "
        f"tail read at p{detail['tail_percentile']:g} of "
        f"{detail['qct_samples']} QCT samples"
    )
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    for failure in result.failures:
        print(f"  FAILED: {failure}")

    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "trace" if args.trace else "result"
    detail["metrics"] = metrics
    with open(
        os.path.join(OUT_DIR, f"{workload.name}.{kind}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(detail, handle, indent=2, sort_keys=True)

    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
