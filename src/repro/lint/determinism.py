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
seed-controlled comparison).

``charge_rdd_overhead`` is forced off for the check: the paper's RDD
overhead is a *measured wall time* charged to QCT, so with it on, QCT is
wall-coupled by design and two runs differ in the last decimals.
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
    """Execute the experiment twice and compare sim-content digests.

    With ``chaos_profile`` both runs execute under the same injected
    fault schedule: faults, retries, and degraded replanning must be
    exactly as deterministic as the benign simulator.
    """
    from repro.core.runner import run_experiment
    from repro.obs import instrument
    from repro.obs.telemetry import TelemetryBus, telemetry_digest
    from repro.systems.base import SystemConfig
    from repro.wan.presets import ec2_ten_sites
    from repro.workloads import build_workload

    digests: List[Tuple[str, str, int]] = []
    for _ in range(2):
        topology = ec2_ten_sites(base_uplink=base_uplink)
        config = SystemConfig(
            lag_seconds=8.0,
            seed=seed,
            partition_records=8,
            charge_rdd_overhead=False,  # wall-measured; excluded by design
        )
        chaos = None
        if chaos_profile is not None:
            from repro.chaos.profiles import build_schedule
            from repro.chaos.runtime import ChaosConfig

            chaos = ChaosConfig(
                faults=build_schedule(chaos_profile, topology, seed=chaos_seed)
            )

        def factory():
            return build_workload(
                workload, topology, placement=placement, seed=seed, scale=scale
            )

        bus = TelemetryBus()
        with instrument.instrumented(telemetry=bus):
            result = run_experiment(
                scheme, factory, topology, config, query_limit=queries,
                chaos=chaos,
            )
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
