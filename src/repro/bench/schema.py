"""The versioned ``BENCH_<n>.json`` report format.

One report is one harness invocation: environment provenance (git SHA,
python, platform), the harness knobs (suite, seed, warmup, repeat), and
one entry per benchmark case::

    {
      "schema_version": 1,
      "git_sha": "...", "python": "3.12.1", "platform": "Linux-...",
      "suite": "full", "seed": 11, "warmup": 0, "repeat": 3,
      "created": "2026-08-06T12:00:00Z",
      "benchmarks": {
        "fig06-qct-random": {
          "module": "bench_fig06_qct_random",
          "suites": ["figures", "smoke"],
          "sim": {"qct.bohr.tpcds": 2.8531682},
          "wall": {"lp_seconds.tpcds": 0.0123},
          "duration_seconds": {"median": 4.1, "stdev": 0.2,
                               "samples": [4.1, 4.3, 3.9]}
        }
      }
    }

``sim`` metrics are simulation-clock quantities — identical across runs
at the same seed; ``wall`` metrics and ``duration_seconds`` are host
timings.  The schema is documented in DESIGN.md and enforced by
:func:`validate_report`; comparing reports across schema versions is a
hard error so a silent format drift can never masquerade as a perf
verdict.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import time
from typing import Any, Dict, Optional

from repro.errors import BenchError

SCHEMA_VERSION = 1

_REQUIRED_TOP = ("schema_version", "suite", "seed", "benchmarks")
_REQUIRED_CASE = ("sim", "wall", "duration_seconds")


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment_info() -> Dict[str, str]:
    """Provenance fields stamped into every report."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def build_report(
    benchmarks: Dict[str, Dict[str, Any]],
    suite: str,
    seed: int,
    warmup: int,
    repeat: int,
) -> Dict[str, Any]:
    """Assemble a schema-versioned report document."""
    report: Dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    report.update(environment_info())
    # Wall-clock by design: report provenance timestamp, not simulation.
    report["created"] = time.strftime(  # lint: allow[R001]
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
    )
    report["suite"] = suite
    report["seed"] = seed
    report["warmup"] = warmup
    report["repeat"] = repeat
    report["benchmarks"] = benchmarks
    validate_report(report)
    return report


def validate_report(report: Dict[str, Any], source: str = "report") -> None:
    """Structural validation; raises :class:`BenchError` with the defect."""
    if not isinstance(report, dict):
        raise BenchError(f"{source}: not a JSON object")
    for key in _REQUIRED_TOP:
        if key not in report:
            raise BenchError(f"{source}: missing required field {key!r}")
    version = report["schema_version"]
    if not isinstance(version, int):
        raise BenchError(
            f"{source}: schema_version must be an integer, got {version!r}"
        )
    benchmarks = report["benchmarks"]
    if not isinstance(benchmarks, dict):
        raise BenchError(f"{source}: 'benchmarks' must be an object")
    for name, entry in benchmarks.items():
        if not isinstance(entry, dict):
            raise BenchError(f"{source}: benchmark {name!r} is not an object")
        for key in _REQUIRED_CASE:
            if key not in entry:
                raise BenchError(
                    f"{source}: benchmark {name!r} missing field {key!r}"
                )
        for kind in ("sim", "wall"):
            group = entry[kind]
            if not isinstance(group, dict):
                raise BenchError(
                    f"{source}: benchmark {name!r} group {kind!r} is not "
                    "an object"
                )
            for metric, value in group.items():
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise BenchError(
                        f"{source}: benchmark {name!r} metric "
                        f"{kind}.{metric} is not numeric: {value!r}"
                    )
                if isinstance(value, float) and not math.isfinite(value):
                    raise BenchError(
                        f"{source}: benchmark {name!r} metric "
                        f"{kind}.{metric} is not finite: {value!r}"
                    )
        duration = entry["duration_seconds"]
        if not isinstance(duration, dict) or "median" not in duration:
            raise BenchError(
                f"{source}: benchmark {name!r} duration_seconds must be an "
                "object with at least a 'median'"
            )


def check_same_schema(
    baseline: Dict[str, Any], candidate: Dict[str, Any]
) -> None:
    """Refuse to compare reports across schema versions."""
    base_version = baseline.get("schema_version")
    cand_version = candidate.get("schema_version")
    if base_version != cand_version or cand_version != SCHEMA_VERSION:
        raise BenchError(
            f"schema version mismatch: baseline v{base_version}, candidate "
            f"v{cand_version}, this tool reads v{SCHEMA_VERSION} — "
            "regenerate the older report before comparing"
        )


def save_report(report: Dict[str, Any], path: str) -> None:
    """Write a validated report as stable, diff-friendly JSON."""
    validate_report(report, source=path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load and validate a report written by :func:`save_report`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as error:
        raise BenchError(f"cannot read {path}: {error}") from None
    except UnicodeDecodeError as error:
        raise BenchError(f"{path}: invalid UTF-8 ({error})") from None
    except json.JSONDecodeError as error:
        raise BenchError(f"{path}: invalid JSON ({error})") from None
    validate_report(report, source=path)
    return report
