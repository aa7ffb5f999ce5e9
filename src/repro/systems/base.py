"""System capability profiles and shared configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


#: How a scheme decides data movement and reduce-task placement.
#: "joint"       — Bohr's alternating joint LP (§5);
#: "heuristic"   — Iridium's greedy drain + task LP [27];
#: "centralized" — §1's strawman: ship everything to one hub site;
#: "none"        — vanilla in-place Spark: no movement, uniform tasks.
PLACEMENT_STRATEGIES = ("joint", "heuristic", "centralized", "none")


@dataclass(frozen=True)
class SystemProfile:
    """What a scheme is allowed to use (one row of §8.1's scheme list)."""

    name: str
    uses_cubes: bool
    uses_similarity: bool
    placement_strategy: str
    rdd_similarity: bool

    def __post_init__(self) -> None:
        if self.placement_strategy not in PLACEMENT_STRATEGIES:
            raise ConfigurationError(
                f"{self.name}: unknown placement strategy "
                f"{self.placement_strategy!r}; expected {PLACEMENT_STRATEGIES}"
            )
        if self.uses_similarity and not self.uses_cubes:
            raise ConfigurationError(
                f"{self.name}: similarity checking requires OLAP cubes"
            )
        if self.placement_strategy == "joint" and not self.uses_similarity:
            raise ConfigurationError(
                f"{self.name}: the joint LP is similarity-aware by definition"
            )

    @property
    def joint_placement(self) -> bool:
        return self.placement_strategy == "joint"


@dataclass(frozen=True)
class SystemConfig:
    """Tunables shared by all schemes."""

    lag_seconds: float = 120.0  # T: window between recurring queries
    probe_k: int = 30  # records per probe (§8.2 default)
    partition_records: int = 16
    num_reduce_tasks: int = 100
    lp_backend: str = "auto"
    dimsum_gamma: float = 4.0
    seed: int = 7
    #: Ignored: the RDD clustering cost is always charged to the map
    #: stage, priced from the work the pass did.  Kept as a keyword so
    #: callers that still pass it (the frozen perfbench inputs) run.
    charge_rdd_overhead: bool = True
    #: Feed per-site reduce-compute rates into the task LP (§5's
    #: compute-constraint extension; off by default like the paper).
    consider_compute: bool = False

    def __post_init__(self) -> None:
        if self.lag_seconds <= 0:
            raise ConfigurationError("lag_seconds must be > 0")
        if self.probe_k < 1:
            raise ConfigurationError("probe_k must be >= 1")
        if self.partition_records < 1:
            raise ConfigurationError("partition_records must be >= 1")
        if self.num_reduce_tasks < 1:
            raise ConfigurationError("num_reduce_tasks must be >= 1")
        if self.dimsum_gamma <= 0:
            raise ConfigurationError("dimsum_gamma must be > 0")
