"""Spans: one named interval on the wall clock, the simulated clock, or both.

The repository runs a *simulation*: a query's map/shuffle/reduce phases
occupy simulated seconds (what the paper's figures report), while the
offline machinery — cube building, probe construction, LP solving — costs
real wall-clock seconds (what Tables 3 and 5 report).  A span therefore
carries two independent intervals:

* ``wall_start``/``wall_end`` — seconds of real time since the bus's
  epoch, measured with ``time.perf_counter``;
* ``sim_start``/``sim_end`` — seconds on the simulated clock, taken from
  the engine/WAN simulator; ``None`` for spans that only exist in real
  time.

Spans form a tree via ``parent_id``; the root spans of an export have
``parent_id is None``.  Nothing records spans directly: they are a view
of the telemetry stream (:func:`repro.obs.views.spans_from_events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ObservabilityError


@dataclass
class Span:
    """One node of the trace tree."""

    span_id: int
    name: str
    stage: str = ""
    parent_id: Optional[int] = None
    wall_start: float = 0.0
    wall_end: Optional[float] = None
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.wall_end is not None and self.wall_end < self.wall_start:
            raise ObservabilityError(
                f"span {self.name!r}: wall_end {self.wall_end} precedes "
                f"wall_start {self.wall_start}"
            )
        if (
            self.sim_start is not None
            and self.sim_end is not None
            and self.sim_end < self.sim_start
        ):
            raise ObservabilityError(
                f"span {self.name!r}: sim_end {self.sim_end} precedes "
                f"sim_start {self.sim_start}"
            )

    @property
    def wall_duration(self) -> float:
        """Elapsed wall seconds; 0.0 while the span is still open."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> float:
        """Elapsed simulated seconds; 0.0 without a simulated interval."""
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start

    @property
    def duration(self) -> float:
        """The span's natural duration: simulated if present, else wall."""
        if self.sim_start is not None and self.sim_end is not None:
            return self.sim_duration
        return self.wall_duration

    @property
    def is_simulated(self) -> bool:
        return self.sim_start is not None and self.sim_end is not None


def children_index(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    """Spans grouped by ``parent_id`` (``None`` holds the roots)."""
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    return index


def descendants(
    span: Span, index: Dict[Optional[int], List[Span]]
) -> List[Span]:
    """Every span below ``span`` in the tree ``index`` describes."""
    out: List[Span] = []
    frontier = [span]
    while frontier:
        node = frontier.pop()
        for child in index.get(node.span_id, []):
            out.append(child)
            frontier.append(child)
    return out
