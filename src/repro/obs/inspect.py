"""Stage-level latency breakdown of a saved telemetry archive.

``python -m repro inspect ARCHIVE`` derives the spans from a
``--telemetry`` archive's events and tabulates them per stage, then
prints the critical-path components of every query.  (Which share of a
QCT each stage *caused* is the critical-path analyzer's question —
:mod:`repro.obs.critpath` — not this table's.)  The table's report has
three parts:

* a per-stage table (probe, lp, map, shuffle, reduce, ...) with span
  counts and total wall/simulated seconds — ``wall s`` is where the
  offline stages (cube, probe, placement, movement) show their cost;
* per-query coverage — the fraction of each query's reported QCT that
  is covered by the union of its descendants' simulated intervals (the
  acceptance bar is ≥ 95%: if spans cover less, a phase is untraced);
* the experiment roots, so multi-scheme traces stay attributable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.obs.span import Span, children_index, descendants
from repro.util.tabulate import format_table


def _union_length(intervals: List[Tuple[float, float]], horizon: float) -> float:
    """Total length of the union of intervals clipped to [0, horizon]."""
    clipped = sorted(
        (max(0.0, start), min(horizon, end))
        for start, end in intervals
        if min(horizon, end) > max(0.0, start)
    )
    covered = 0.0
    cursor = 0.0
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def query_coverage(spans: Sequence[Span]) -> List[Dict[str, float]]:
    """Per-query-span QCT coverage by descendant simulated intervals."""
    index = children_index(spans)
    rows: List[Dict[str, float]] = []
    for span in spans:
        if span.stage != "query":
            continue
        qct = float(span.attrs.get("qct", span.sim_duration or 0.0))
        if qct <= 0:
            continue
        intervals = [
            (descendant.sim_start, descendant.sim_end)
            for descendant in descendants(span, index)
            if descendant.is_simulated
        ]
        covered = _union_length(intervals, qct)
        rows.append(
            {
                "span_id": span.span_id,
                "qct": qct,
                "covered": covered,
                "coverage": covered / qct,
            }
        )
    return rows


def overall_coverage(spans: Sequence[Span]) -> float:
    """QCT-weighted mean coverage across all query spans (1.0 if none)."""
    rows = query_coverage(spans)
    total_qct = sum(row["qct"] for row in rows)
    if total_qct <= 0:
        return 1.0
    return sum(row["covered"] for row in rows) / total_qct


def stage_breakdown(spans: Sequence[Span]) -> List[List[object]]:
    """Rows: stage, span count, wall seconds, simulated seconds, max.

    Wall/sim totals skip spans whose parent carries the same stage, so a
    wrapper span and its same-stage children are not double counted.
    """
    stage_of: Dict[int, str] = {
        span.span_id: (span.stage or span.name) for span in spans
    }
    by_stage: Dict[str, List[Span]] = {}
    for span in spans:
        by_stage.setdefault(span.stage or span.name, []).append(span)
    rows: List[List[object]] = []
    for stage in sorted(by_stage):
        members = by_stage[stage]
        top_level = [
            span
            for span in members
            if stage_of.get(span.parent_id) != (span.stage or span.name)
        ]
        wall = sum(span.wall_duration for span in top_level)
        sim = sum(span.sim_duration for span in top_level)
        durations = [span.duration for span in members]
        rows.append(
            [
                stage,
                len(members),
                f"{wall:.4f}",
                f"{sim:.4f}",
                f"{max(durations):.4f}" if durations else "0",
            ]
        )
    rows.sort(key=lambda row: -float(row[3]))
    return rows


def render_inspection(spans: Sequence[Span], source: str = "archive") -> str:
    """The span part of the ``inspect`` report for one loaded archive."""
    if not spans:
        return f"{source}: no spans"
    lines: List[str] = []
    experiments = [span for span in spans if span.stage == "experiment"]
    for experiment in experiments:
        label = ", ".join(
            f"{key}={value}" for key, value in sorted(experiment.attrs.items())
        )
        lines.append(f"experiment {experiment.name} ({label})")
    if experiments:
        lines.append("")
    lines.append(
        format_table(
            stage_breakdown(spans),
            headers=("stage", "spans", "wall s", "sim s", "max s"),
            title=f"per-stage latency breakdown ({len(spans)} spans)",
        )
    )
    rows = query_coverage(spans)
    if rows:
        lines.append("")
        worst = min(row["coverage"] for row in rows)
        lines.append(
            f"QCT span coverage: {100.0 * overall_coverage(spans):.1f}% "
            f"over {len(rows)} queries (worst query "
            f"{100.0 * worst:.1f}%)"
        )
    return "\n".join(lines)
