"""The perf-regression engine: diff two ``BENCH_<n>.json`` reports.

Every metric is lower-is-better by convention.  Only the ``sim`` group
is compared: it comes off the simulated clock and is deterministic for a
pinned seed — the default band is 1e-9 relative (bit-identical up to
float printing), so *any* real change in QCT / bytes shuffled trips the
gate.  A report's ``wall`` group and ``duration_seconds`` are host
timings recorded at ``repeat=1``: they stay in the file as information
and are never gated (``perfbench/`` is the wall-clock benchmark).

A case present in the baseline (and tagged with the compared suite) but
missing from the candidate is a gate failure too: silently dropping a
benchmark must not read as "no regressions".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.schema import check_same_schema
from repro.util.tabulate import format_table

#: (status, fails_gate) — ordering matters for report sorting.
_STATUS_ORDER = ("regressed", "missing", "new", "improved", "ok")


@dataclass
class MetricDelta:
    """One metric's baseline→candidate movement."""

    case: str
    metric: str
    baseline: float
    candidate: float
    status: str  # "ok" | "improved" | "regressed" | "missing" | "new"

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else float("inf")
        return 100.0 * (self.candidate - self.baseline) / self.baseline


@dataclass
class CompareReport:
    """The full diff between a baseline and a candidate run."""

    baseline_sha: str
    candidate_sha: str
    suite: str
    deltas: List[MetricDelta] = field(default_factory=list)
    missing_cases: List[str] = field(default_factory=list)
    new_cases: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "regressed"]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_cases

    def render(self) -> str:
        """Human-readable verdict table (regressions first)."""
        lines: List[str] = []
        interesting = [
            delta for delta in self.deltas if delta.status != "ok"
        ]
        interesting.sort(
            key=lambda d: (_STATUS_ORDER.index(d.status), d.case, d.metric)
        )
        header = (
            f"bench compare [{self.suite}]: baseline "
            f"{self.baseline_sha[:12]} -> candidate {self.candidate_sha[:12]}"
        )
        lines.append(header)
        if interesting:
            rows = [
                [
                    delta.status.upper(),
                    delta.case,
                    f"sim.{delta.metric}",
                    f"{delta.baseline:.6g}",
                    f"{delta.candidate:.6g}",
                    f"{delta.delta_pct:+.2f}%",
                ]
                for delta in interesting
            ]
            lines.append(
                format_table(
                    rows,
                    headers=("status", "case", "metric", "baseline",
                             "candidate", "delta"),
                )
            )
        for case in self.missing_cases:
            lines.append(
                f"MISSING  {case}: present in baseline but absent from the "
                "candidate run"
            )
        for case in self.new_cases:
            lines.append(f"NEW      {case}: no baseline yet (not gated)")
        checked = len(self.deltas)
        lines.append(
            f"{checked} metrics checked: {len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved, "
            f"{len(self.missing_cases)} missing cases"
        )
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _classify(baseline: float, candidate: float, rel_tol: float) -> str:
    bound = abs(baseline) * rel_tol
    if candidate > baseline + bound:
        return "regressed"
    if candidate < baseline - bound:
        return "improved"
    return "ok"


def compare_reports(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    sim_rel_tol: float = 1e-9,
) -> CompareReport:
    """Diff the ``sim`` groups of two loaded reports.

    The comparison domain is every baseline case tagged with the
    candidate's suite (all baseline cases when the baseline itself was a
    narrower run), so a smoke candidate can gate against a committed
    full-suite baseline without flagging the unrun cases as missing.
    """
    check_same_schema(baseline, candidate)
    suite = str(candidate.get("suite", "full"))
    report = CompareReport(
        baseline_sha=str(baseline.get("git_sha", "unknown")),
        candidate_sha=str(candidate.get("git_sha", "unknown")),
        suite=suite,
    )
    base_cases: Dict[str, Any] = baseline["benchmarks"]
    cand_cases: Dict[str, Any] = candidate["benchmarks"]

    def in_domain(name: str) -> bool:
        if suite == "full":
            return True
        suites = base_cases[name].get("suites", [])
        return suite in suites or not suites

    for name in sorted(base_cases):
        if not in_domain(name):
            continue
        if name not in cand_cases:
            report.missing_cases.append(name)
            continue
        cand_sim = dict(cand_cases[name].get("sim", {}))
        for metric, value in sorted(base_cases[name].get("sim", {}).items()):
            base_value = float(value)
            if metric not in cand_sim:
                report.deltas.append(
                    MetricDelta(name, metric, base_value, float("nan"), "missing")
                )
                report.missing_cases.append(f"{name}:sim.{metric}")
                continue
            cand_value = float(cand_sim.pop(metric))
            status = _classify(base_value, cand_value, sim_rel_tol)
            report.deltas.append(
                MetricDelta(name, metric, base_value, cand_value, status)
            )
        for metric, value in sorted(cand_sim.items()):
            report.deltas.append(
                MetricDelta(name, metric, float("nan"), float(value), "new")
            )
    report.new_cases.extend(
        name for name in sorted(cand_cases) if name not in base_cases
    )
    return report
