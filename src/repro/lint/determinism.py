"""Two-run same-seed determinism smoke (``repro lint --determinism``).

Runs the same experiment twice with identical seeds, each under a fresh
telemetry bus, and compares a digest of the reported numbers and a
digest of the telemetry event stream
(:func:`repro.obs.telemetry.telemetry_digest`).  Wall-clock fields (span
wall stamps, the measured offline-prep costs) legitimately differ between
runs and are excluded; everything else — span structure, sim-clock
intervals, byte counts, similarities, placement fractions — must be
byte-identical, or the simulator has nondeterministic state (the WANify
failure mode: a silently drifting simulator corrupts every
seed-controlled comparison).  Both runs are ``repro run``: the flags are
parsed by the CLI's own parser and run by the CLI's own
:func:`repro.cli.run_scheme`, so no configuration is retyped here.

The first run executes in this interpreter, the second in a fresh one
(``python -m repro.lint.determinism``) under a different
``PYTHONHASHSEED``: set and dict-key iteration order that leaks into a
result, and state one run leaves behind for the next, both show up as a
digest mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import LintError

#: Significant digits kept when digesting floats; identical computations
#: produce bit-identical floats, so this only guards repr formatting.
_FLOAT_DIGITS = 12


def _canonical(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.{_FLOAT_DIGITS}e}"
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(
            value.items(), key=lambda pair: str(pair[0])
        )}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def result_digest(results: Iterable) -> str:
    """SHA-256 over the reported numbers of ``ExperimentResult`` objects."""
    payload: List[object] = []
    for result in results:
        payload.append(
            [
                result.system,
                result.workload,
                _canonical(result.mean_qct),
                _canonical(result.baseline_mean_qct),
                _canonical(result.prep.moved_bytes),
                _canonical(dict(result.prep.reduce_fractions)),
                _canonical(result.intermediate_by_site()),
                [_canonical(run.wan_bytes) for run in result.runs],
            ]
        )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of the two-run comparison."""

    deterministic: bool
    result_digests: Tuple[str, str]
    #: SHA-256 of the telemetry event streams (wall attrs excluded).
    telemetry_digests: Tuple[str, str]
    telemetry_events: int
    scheme: str
    workload: str
    seed: int
    #: PYTHONHASHSEED of the two runs ("random" when unset).
    hash_seeds: Tuple[str, str]

    def render(self) -> str:
        verdict = "DETERMINISTIC" if self.deterministic else "NON-DETERMINISTIC"
        lines = [
            f"{verdict}: {self.scheme} on {self.workload} "
            f"(seed {self.seed}, {self.telemetry_events} telemetry events/run)",
            f"  result digests:    {self.result_digests[0][:16]}… vs "
            f"{self.result_digests[1][:16]}…",
            f"  telemetry digests: {self.telemetry_digests[0][:16]}… vs "
            f"{self.telemetry_digests[1][:16]}…",
            f"  PYTHONHASHSEED:    {self.hash_seeds[0]} (this interpreter) vs "
            f"{self.hash_seeds[1]} (fresh interpreter)",
        ]
        return "\n".join(lines)


def second_hash_seed(current: Optional[str]) -> str:
    """A ``PYTHONHASHSEED`` other than ``current``, this process's setting."""
    if current is not None and current.isdigit():
        return str((int(current) + 1) % 2**32)
    return "0"  # this process hashes under a random seed


def run_digests(argv: List[str]) -> Tuple[str, str, int]:
    """``repro run`` with ``argv`` in this interpreter: (result digest,
    telemetry digest, event count)."""
    from repro.cli import build_parser, run_scheme
    from repro.obs import instrument
    from repro.obs.telemetry import TelemetryBus, telemetry_digest

    args = build_parser().parse_args(argv)
    bus = TelemetryBus()
    with instrument.instrumented(telemetry=bus):
        result = run_scheme(args.scheme, args)
    return result_digest([result]), telemetry_digest(bus), len(bus.events)


def fresh_interpreter_digests(
    argv: List[str], hash_seed: str
) -> Tuple[str, str, int]:
    """:func:`run_digests` in a new interpreter under ``hash_seed``."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([src, path]) if path else src,
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro.lint.determinism", *argv],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise LintError(
            f"determinism second run exited {done.returncode}: "
            + (done.stderr.strip().splitlines() or ["no output"])[-1]
        )
    result, telemetry, events = json.loads(done.stdout.splitlines()[-1])
    return result, telemetry, events


def run_determinism_check(
    scheme: str = "bohr",
    workload: str = "bigdata-aggregation",
    placement: str = "random",
    seed: int = 11,
    queries: int = 2,
    scale: float = 1.0,
    base_uplink: str = "2MB/s",
    chaos_profile: "str | None" = None,
    chaos_seed: int = 13,
) -> DeterminismReport:
    """Execute ``repro run`` twice and compare sim-content digests.

    With ``chaos_profile`` both runs execute under the same injected
    fault schedule: faults, retries, and degraded replanning must be
    exactly as deterministic as the benign simulator.
    """
    argv = [
        "run", "--scheme", scheme, "--workload", workload,
        "--placement", placement, "--seed", str(seed),
        "--queries", str(queries), "--scale", str(scale),
        "--base-uplink", base_uplink,
    ]
    if chaos_profile is not None:
        argv += ["--chaos", chaos_profile, "--chaos-seed", str(chaos_seed)]
    first_seed = os.environ.get("PYTHONHASHSEED")
    second_seed = second_hash_seed(first_seed)
    result_a, tele_a, events_a = run_digests(argv)
    result_b, tele_b, _events_b = fresh_interpreter_digests(argv, second_seed)
    return DeterminismReport(
        deterministic=result_a == result_b and tele_a == tele_b,
        result_digests=(result_a, result_b),
        telemetry_digests=(tele_a, tele_b),
        telemetry_events=events_a,
        scheme=scheme,
        workload=workload,
        seed=seed,
        hash_seeds=(first_seed or "random", second_seed),
    )


if __name__ == "__main__":
    # The second run's entry point: its digests, as the last stdout line.
    print(json.dumps(run_digests(sys.argv[1:])))  # lint: allow[R008]
