"""The two-clock profiler: QCT breakdown + wall-clock hotspots.

**Simulation clock** — :func:`qct_breakdown` answers "what share of the
query completion time went to each stage" from the span tree alone, so
it works identically on a live bus's span view and on a saved ``--trace``
or ``--telemetry`` file (``repro inspect --breakdown``).  Every instant
of a query's ``[0, qct]`` window is attributed to exactly *one* stage by
a downstream-wins sweep: where phases overlap (map at a straggler site
while shuffles are already in flight), the most-downstream active stage
claims the instant, because upstream work off the critical path cannot
delay completion once a later phase is running.  Instants covered by no
simulated span are ``unattributed``.  Shares therefore sum to exactly
100% of the total QCT by construction.

The breakdown always reports the paper's six canonical stages — map,
combine, shuffle-WAN, reduce, LP-solve, probe-check — plus any other
sim stages found.  Two caveats are visible rather than hidden: the
engine's cost model folds combining into map compute (combine's QCT
share is structurally 0%; its effect shows as bytes removed), and
LP-solve/probe-check run on the *wall* clock in the offline lag window,
outside QCT — their wall costs are reported alongside.

**Wall clock** — :class:`WallProfiler` wraps :mod:`cProfile` and
renders a hotspot table plus a collapsed-stack text export (Brendan
Gregg's ``folded`` format: ``frame;frame;frame count``), renderable as
a flamegraph with ``flamegraph.pl`` or speedscope.  Stacks are
reconstructed from the profile's caller graph with cumulative time
apportioned down call edges (the ``flameprof`` approach), since cProfile
records edges, not full stacks.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.span import Span, children_index, descendants
from repro.util.tabulate import format_table

#: Canonical display order; also the attribution precedence (later =
#: more downstream = wins overlapping instants).
STAGE_ORDER = ("map", "combine", "shuffle-wan", "reduce")

#: Raw trace stage -> canonical stage name.
_STAGE_ALIASES = {
    "shuffle": "shuffle-wan",
    "wan": "shuffle-wan",
    "placement": "lp-solve",
    "probe": "probe-check",
}

#: Offline-prep stages (wall clock, outside QCT), display order.
_OFFLINE_STAGES = ("cube", "probe-check", "lp-solve", "movement")

UNATTRIBUTED = "unattributed"


def canonical_stage(stage: str) -> str:
    return _STAGE_ALIASES.get(stage, stage)


@dataclass
class QueryBreakdown:
    """One query span's attributed [0, qct] window."""

    span_id: int
    name: str
    scheme: str
    qct: float
    #: stage -> attributed simulated seconds (includes UNATTRIBUTED).
    seconds: Dict[str, float] = field(default_factory=dict)

    def percentages(self) -> Dict[str, float]:
        if self.qct <= 0:
            return {stage: 0.0 for stage in self.seconds}
        return {
            stage: 100.0 * value / self.qct
            for stage, value in self.seconds.items()
        }


@dataclass
class QctBreakdown:
    """The full sim-clock attribution for one trace."""

    queries: List[QueryBreakdown] = field(default_factory=list)
    #: site -> stage -> active seconds inside query windows.
    per_site: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: offline stage -> top-level wall seconds (outside QCT).
    offline_wall: Dict[str, float] = field(default_factory=dict)
    #: bytes the combiner removed (map_output - intermediate), summed.
    combine_saved_bytes: float = 0.0

    @property
    def total_qct(self) -> float:
        return sum(query.qct for query in self.queries)

    def stage_seconds(self) -> Dict[str, float]:
        """Attributed seconds per stage, summed over queries."""
        totals: Dict[str, float] = {}
        for query in self.queries:
            for stage, value in query.seconds.items():
                totals[stage] = totals.get(stage, 0.0) + value
        return totals

    def stage_percentages(self) -> Dict[str, float]:
        """Share of total QCT per stage; sums to 100 by construction."""
        total = self.total_qct
        if total <= 0:
            return {}
        return {
            stage: 100.0 * value / total
            for stage, value in self.stage_seconds().items()
        }


def _stage_precedence(stage: str) -> int:
    try:
        return STAGE_ORDER.index(stage)
    except ValueError:
        return -1  # unknown sim stages lose ties against canonical ones


def _attribute_window(
    intervals: Sequence[Tuple[str, float, float]], horizon: float
) -> Dict[str, float]:
    """Partition [0, horizon] among stages, downstream-wins.

    ``intervals`` are (stage, start, end) on the simulated clock; the
    result maps every stage (plus UNATTRIBUTED) to seconds such that the
    values sum to ``horizon`` exactly (modulo float addition).
    """
    clipped = [
        (stage, max(0.0, start), min(horizon, end))
        for stage, start, end in intervals
        if min(horizon, end) > max(0.0, start)
    ]
    boundaries = sorted(
        {0.0, horizon}
        | {start for _, start, _ in clipped}
        | {end for _, _, end in clipped}
    )
    attributed: Dict[str, float] = {}
    for left, right in zip(boundaries, boundaries[1:]):
        if right <= left:
            continue
        midpoint = 0.5 * (left + right)
        winner: Optional[str] = None
        rank = -2
        for stage, start, end in clipped:
            if start <= midpoint < end:
                stage_rank = _stage_precedence(stage)
                if stage_rank > rank or (
                    stage_rank == rank and winner is not None and stage < winner
                ):
                    winner, rank = stage, stage_rank
        key = winner if winner is not None else UNATTRIBUTED
        attributed[key] = attributed.get(key, 0.0) + (right - left)
    return attributed


def qct_breakdown(spans: Sequence[Span]) -> QctBreakdown:
    """Attribute every query's QCT across stages; see module docstring."""
    index = children_index(spans)
    breakdown = QctBreakdown()
    stage_of: Dict[int, str] = {
        span.span_id: canonical_stage(span.stage or span.name)
        for span in spans
    }
    for span in spans:
        stage = stage_of[span.span_id]
        if stage == "query":
            qct = float(span.attrs.get("qct", span.sim_duration or 0.0))
            query = QueryBreakdown(
                span_id=span.span_id,
                name=span.name,
                scheme=str(span.attrs.get("scheme", "")),
                qct=qct,
            )
            if qct > 0:
                intervals = []
                for descendant in descendants(span, index):
                    if not descendant.is_simulated:
                        continue
                    descendant_stage = stage_of[descendant.span_id]
                    if descendant_stage == "query":
                        continue
                    intervals.append(
                        (
                            descendant_stage,
                            float(descendant.sim_start),
                            float(descendant.sim_end),
                        )
                    )
                    site = descendant.attrs.get("site")
                    if site is not None:
                        site_stages = breakdown.per_site.setdefault(
                            str(site), {}
                        )
                        length = min(qct, descendant.sim_end) - max(
                            0.0, descendant.sim_start
                        )
                        if length > 0:
                            site_stages[descendant_stage] = (
                                site_stages.get(descendant_stage, 0.0) + length
                            )
                query.seconds = _attribute_window(intervals, qct)
            breakdown.queries.append(query)
        elif stage in _OFFLINE_STAGES:
            # Top-level wall cost only: skip children sharing the stage.
            parent_stage = stage_of.get(span.parent_id)  # type: ignore[arg-type]
            if parent_stage != stage:
                breakdown.offline_wall[stage] = (
                    breakdown.offline_wall.get(stage, 0.0)
                    + span.wall_duration
                )
        if stage == "map":
            produced = float(span.attrs.get("map_output_bytes", 0.0))
            kept = float(span.attrs.get("intermediate_bytes", 0.0))
            if produced > kept:
                breakdown.combine_saved_bytes += produced - kept
    return breakdown


def render_breakdown(breakdown: QctBreakdown) -> str:
    """The ``--breakdown`` / ``--profile`` report text."""
    if not breakdown.queries:
        return "no query spans in trace — nothing to attribute"
    lines: List[str] = []
    totals = breakdown.stage_seconds()
    percentages = breakdown.stage_percentages()
    stages = list(STAGE_ORDER)
    for stage in sorted(totals):
        if stage not in stages and stage != UNATTRIBUTED:
            stages.append(stage)
    if UNATTRIBUTED in totals:
        stages.append(UNATTRIBUTED)
    rows = []
    for stage in stages:
        seconds = totals.get(stage, 0.0)
        note = ""
        if stage == "combine":
            note = (
                f"folded into map; saved "
                f"{breakdown.combine_saved_bytes / 1e6:.1f} MB"
                if breakdown.combine_saved_bytes
                else "folded into map compute"
            )
        rows.append(
            [stage, f"{seconds:.4f}", f"{percentages.get(stage, 0.0):.2f}",
             note]
        )
    lines.append(
        format_table(
            rows,
            headers=("stage", "sim s", "% QCT", "note"),
            title=(
                f"QCT breakdown: {len(breakdown.queries)} queries, "
                f"total QCT {breakdown.total_qct:.4f}s "
                "(downstream-wins attribution)"
            ),
        )
    )
    if breakdown.per_site:
        lines.append("")
        site_rows = []
        for site in sorted(breakdown.per_site):
            site_stages = breakdown.per_site[site]
            site_rows.append(
                [site]
                + [f"{site_stages.get(stage, 0.0):.4f}"
                   for stage in ("map", "shuffle-wan", "reduce")]
            )
        lines.append(
            format_table(
                site_rows,
                headers=("site", "map s", "shuffle s", "reduce s"),
                title="per-site active seconds inside query windows",
            )
        )
    if breakdown.offline_wall:
        lines.append("")
        offline_rows = [
            [stage, f"{breakdown.offline_wall[stage]:.4f}"]
            for stage in _OFFLINE_STAGES
            if stage in breakdown.offline_wall
        ]
        lines.append(
            format_table(
                offline_rows,
                headers=("offline stage", "wall s"),
                title="offline preparation (lag window, outside QCT)",
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# wall-clock hotspot profiler
# ----------------------------------------------------------------------

_FuncKey = Tuple[str, int, str]


def _frame_label(func: _FuncKey) -> str:
    filename, lineno, name = func
    if filename == "~":
        return name.strip("<>")
    return f"{PurePath(filename).name}:{name}"


class WallProfiler:
    """Opt-in cProfile wrapper behind ``--profile``.

    ``start``/``stop`` bracket the region; afterwards the profile can be
    rendered as a top-N hotspot table or exported as collapsed stacks.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._running = False
        self._stats: Optional[Dict] = None

    def start(self) -> None:
        if self._running:
            raise ObservabilityError("profiler already running")
        self._running = True
        self._profile.enable()

    def stop(self) -> None:
        if not self._running:
            raise ObservabilityError("profiler is not running")
        self._profile.disable()
        self._running = False

    def __enter__(self) -> "WallProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _raw_stats(self) -> Dict:
        if self._running:
            raise ObservabilityError("stop() the profiler before reading it")
        if self._stats is None:
            self._stats = pstats.Stats(self._profile).stats  # type: ignore[attr-defined]
        return self._stats

    def hotspots(self, limit: int = 15) -> List[List[object]]:
        """Top functions by cumulative time: [calls, self s, cum s, where]."""
        rows = []
        for func, (cc, nc, tt, ct, _callers) in self._raw_stats().items():
            rows.append([nc, tt, ct, _frame_label(func)])
        rows.sort(key=lambda row: (-row[2], row[3]))
        return [
            [row[0], f"{row[1]:.4f}", f"{row[2]:.4f}", row[3]]
            for row in rows[:limit]
        ]

    def render_hotspots(self, limit: int = 15) -> str:
        return format_table(
            self.hotspots(limit),
            headers=("calls", "self s", "cum s", "function"),
            title=f"wall-clock hotspots (top {limit} by cumulative time)",
        )

    def collapsed_stacks(
        self,
        min_microseconds: int = 50,
        max_depth: int = 48,
        max_frames: int = 200_000,
    ) -> List[str]:
        """Folded flamegraph lines reconstructed from the caller graph.

        cProfile keeps per-edge cumulative/self times, not whole stacks;
        each function's self time is apportioned to caller paths in
        proportion to the cumulative time flowing down each incoming
        edge (cycles are cut by skipping frames already on the path).
        """
        stats = self._raw_stats()
        #: func -> list of (child, edge_ct, edge_tt) call edges.
        children: Dict[_FuncKey, List[Tuple[_FuncKey, float, float]]] = {}
        roots: List[_FuncKey] = []
        for func, (cc, nc, tt, ct, callers) in stats.items():
            if not callers:
                roots.append(func)
            for caller, caller_stats in callers.items():
                edge_ct = caller_stats[3]
                edge_tt = caller_stats[2]
                children.setdefault(caller, []).append((func, edge_ct, edge_tt))
        lines: Dict[str, int] = {}
        budget = [max_frames]  # wide call DAGs multiply paths; cap the walk

        def emit(path: Tuple[str, ...], microseconds: float) -> None:
            count = int(round(microseconds))
            if count >= min_microseconds:
                key = ";".join(path)
                lines[key] = lines.get(key, 0) + count

        def walk(
            func: _FuncKey,
            path: Tuple[str, ...],
            on_path: frozenset,
            scale: float,
        ) -> None:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            label = _frame_label(func)
            here = path + (label,)
            cc, nc, tt, ct, _callers = stats[func]
            emit(here, tt * scale * 1e6)
            if len(here) >= max_depth:
                return
            for child, edge_ct, _edge_tt in sorted(
                children.get(func, []), key=lambda item: _frame_label(item[0])
            ):
                if child in on_path:
                    continue
                child_total_ct = stats[child][3]
                if child_total_ct <= 0 or edge_ct <= 0:
                    continue
                # Prune paths whose whole subtree is below the emission
                # threshold: the scaled time flowing down this edge bounds
                # everything beneath it.
                if edge_ct * scale * 1e6 < min_microseconds:
                    continue
                walk(
                    child,
                    here,
                    on_path | {child},
                    scale * (edge_ct / child_total_ct),
                )

        for root in sorted(roots, key=_frame_label):
            walk(root, (), frozenset({root}), 1.0)
        return [
            f"{stack} {count}" for stack, count in sorted(lines.items())
        ]

    def write_collapsed(self, path: str) -> int:
        """Write the folded-stack file; returns the number of lines."""
        stack_lines = self.collapsed_stacks()
        with open(path, "w", encoding="utf-8") as handle:
            for line in stack_lines:
                handle.write(line)
                handle.write("\n")
        return len(stack_lines)
