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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Tuple

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

    def render(self) -> str:
        verdict = "DETERMINISTIC" if self.deterministic else "NON-DETERMINISTIC"
        lines = [
            f"{verdict}: {self.scheme} on {self.workload} "
            f"(seed {self.seed}, {self.telemetry_events} telemetry events/run)",
            f"  result digests:    {self.result_digests[0][:16]}… vs "
            f"{self.result_digests[1][:16]}…",
            f"  telemetry digests: {self.telemetry_digests[0][:16]}… vs "
            f"{self.telemetry_digests[1][:16]}…",
        ]
        return "\n".join(lines)


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
    from repro.cli import build_parser, run_scheme
    from repro.obs import instrument
    from repro.obs.telemetry import TelemetryBus, telemetry_digest

    argv = [
        "run", "--scheme", scheme, "--workload", workload,
        "--placement", placement, "--seed", str(seed),
        "--queries", str(queries), "--scale", str(scale),
        "--base-uplink", base_uplink,
    ]
    if chaos_profile is not None:
        argv += ["--chaos", chaos_profile, "--chaos-seed", str(chaos_seed)]
    args = build_parser().parse_args(argv)
    digests: List[Tuple[str, str, int]] = []
    for _ in range(2):
        bus = TelemetryBus()
        with instrument.instrumented(telemetry=bus):
            result = run_scheme(scheme, args)
        digests.append(
            (result_digest([result]), telemetry_digest(bus), len(bus.events))
        )

    (result_a, tele_a, events_a), (result_b, tele_b, _events_b) = digests
    return DeterminismReport(
        deterministic=result_a == result_b and tele_a == tele_b,
        result_digests=(result_a, result_b),
        telemetry_digests=(tele_a, tele_b),
        telemetry_events=events_a,
        scheme=scheme,
        workload=workload,
        seed=seed,
    )
