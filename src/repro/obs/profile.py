"""The wall-clock half of ``--profile``: cProfile hotspots.

The simulated-clock half — where each query's completion time went — is
:func:`repro.obs.critpath.analyze_critical_paths`, the one QCT
attribution (rendered by :func:`repro.obs.critpath.render_components`).

:class:`WallProfiler` wraps :mod:`cProfile` and renders a hotspot table
plus a collapsed-stack text export (Brendan Gregg's ``folded`` format:
``frame;frame;frame count``), renderable as a flamegraph with
``flamegraph.pl`` or speedscope.  Stacks are reconstructed from the
profile's caller graph with cumulative time apportioned down call edges
(the ``flameprof`` approach), since cProfile records edges, not full
stacks.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import PurePath
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.util.tabulate import format_table

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
