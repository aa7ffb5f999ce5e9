"""Dimensions and hierarchies.

A cube dimension corresponds to one dataset attribute.  Hierarchical
dimensions (day → month → year, city → country → region) support roll-up:
each level maps finer values to coarser ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import CubeError
from repro.types import Value

#: Maps a finer value to its parent value one level up.
LevelMapping = Callable[[Value], Value]


@dataclass
class Hierarchy:
    """An ordered list of named levels, finest first.

    ``mappings[i]`` maps values at level ``i`` to values at level ``i+1``;
    there is one fewer mapping than there are levels.
    """

    levels: List[str]
    mappings: List[LevelMapping] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise CubeError("hierarchy needs at least one level")
        if len(self.mappings) != len(self.levels) - 1:
            raise CubeError(
                f"hierarchy with {len(self.levels)} levels needs "
                f"{len(self.levels) - 1} mappings, got {len(self.mappings)}"
            )

    def level_index(self, level: str) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise CubeError(f"unknown hierarchy level {level!r}") from None

    def map_to(self, value: Value, from_level: str, to_level: str) -> Value:
        """Map a value from a finer level to a coarser one."""
        start = self.level_index(from_level)
        end = self.level_index(to_level)
        if end < start:
            raise CubeError(
                f"cannot map downwards from {from_level!r} to {to_level!r}; "
                "drill-down needs the base cube"
            )
        current = value
        for mapping in self.mappings[start:end]:
            current = mapping(current)
        return current


@dataclass(frozen=True)
class Dimension:
    """One cube dimension, optionally hierarchical."""

    name: str
    hierarchy: Optional[Hierarchy] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CubeError("dimension name must be non-empty")


def date_hierarchy() -> Hierarchy:
    """A ready-made day → month → year hierarchy for ``YYYY-MM-DD`` strings."""

    def day_to_month(value: Value) -> Value:
        return str(value)[:7]

    def month_to_year(value: Value) -> Value:
        return str(value)[:4]

    return Hierarchy(
        levels=["day", "month", "year"],
        mappings=[day_to_month, month_to_year],
    )


def region_hierarchy(country_of: Dict[str, str]) -> Hierarchy:
    """A city → country hierarchy backed by an explicit mapping table."""

    def city_to_country(value: Value) -> Value:
        key = str(value)
        if key not in country_of:
            raise CubeError(f"city {key!r} missing from region mapping")
        return country_of[key]

    return Hierarchy(levels=["city", "country"], mappings=[city_to_country])
