"""Sites and WAN topology.

Following §5 of the paper, the links between each site and the Internet
backbone are the only bottleneck: a site is described by one uplink and one
downlink bandwidth rather than a full mesh of pairwise links.  Compute and
storage are assumed abundant, but we still carry a compute rate per site so
the engine can model (small) map/reduce processing time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

from repro.errors import TopologyError
from repro.util.units import format_rate, parse_rate


@dataclass(frozen=True)
class Site:
    """One data center.

    Parameters
    ----------
    name:
        Unique site identifier, e.g. ``"tokyo"``.
    uplink_bps / downlink_bps:
        Bandwidth between this site and the Internet backbone, in bytes
        per second (accepts ``"100MB/s"`` style strings at construction
        through :meth:`Site.create`).
    compute_bps:
        Rate at which one executor processes records, in bytes/second.
    machines / executors_per_machine:
        Cluster shape inside the site, used by the engine and by runtime
        RDD-similarity clustering (§6).
    """

    name: str
    uplink_bps: float
    downlink_bps: float
    compute_bps: float = 4.0e9
    machines: int = 2
    executors_per_machine: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("site name must be non-empty")
        for label, value in (
            ("uplink_bps", self.uplink_bps),
            ("downlink_bps", self.downlink_bps),
            ("compute_bps", self.compute_bps),
        ):
            if not 0.0 < value < math.inf:  # also False for NaN
                raise TopologyError(
                    f"{label} of site {self.name!r} must be finite and > 0, "
                    f"got {value}"
                )
        if self.machines < 1 or self.executors_per_machine < 1:
            raise TopologyError(f"site {self.name!r} needs >= 1 machine and executor")

    @classmethod
    def create(
        cls,
        name: str,
        uplink: "str | float",
        downlink: "str | float",
        compute: "str | float" = 4.0e9,
        machines: int = 2,
        executors_per_machine: int = 4,
    ) -> "Site":
        """Build a site from human-readable rates (``"100MB/s"``)."""
        return cls(
            name=name,
            uplink_bps=parse_rate(uplink),
            downlink_bps=parse_rate(downlink),
            compute_bps=parse_rate(compute),
            machines=machines,
            executors_per_machine=executors_per_machine,
        )

    @property
    def executors(self) -> int:
        """Total executor slots in the site."""
        return self.machines * self.executors_per_machine

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: up={format_rate(self.uplink_bps)} "
            f"down={format_rate(self.downlink_bps)} "
            f"machines={self.machines}x{self.executors_per_machine}"
        )


@dataclass
class WanTopology:
    """A set of sites connected through the Internet backbone."""

    sites: Dict[str, Site] = field(default_factory=dict)

    @classmethod
    def from_sites(cls, sites: "List[Site]") -> "WanTopology":
        """Build a topology, rejecting duplicate site names."""
        topology = cls()
        for site in sites:
            topology.add_site(site)
        return topology

    def add_site(self, site: Site) -> None:
        if site.name in self.sites:
            raise TopologyError(f"duplicate site {site.name!r}")
        self.sites[site.name] = site

    def site(self, name: str) -> Site:
        try:
            return self.sites[name]
        except KeyError:
            raise TopologyError(f"unknown site {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.sites

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites.values())

    @property
    def site_names(self) -> List[str]:
        """Site names in insertion order (stable across runs)."""
        return list(self.sites.keys())

    def uplink(self, name: str) -> float:
        return self.site(name).uplink_bps

    def downlink(self, name: str) -> float:
        return self.site(name).downlink_bps

    def uplinks(self) -> Dict[str, float]:
        return {name: site.uplink_bps for name, site in self.sites.items()}

    def downlinks(self) -> Dict[str, float]:
        return {name: site.downlink_bps for name, site in self.sites.items()}

    def bottleneck_site(self, data_bytes: Optional[Mapping[str, float]] = None) -> str:
        """Identify the bottleneck site.

        Without data sizes this is the site with the slowest uplink.  With
        per-site input sizes it is the site with the largest upload time
        ``data / uplink`` — matching the paper's notion of a bottleneck DC
        (low uplink bandwidth *and* large dataset, §1).
        """
        if not self.sites:
            raise TopologyError("topology has no sites")
        if data_bytes is None:
            return min(self.sites.values(), key=lambda site: site.uplink_bps).name
        unknown = set(data_bytes) - set(self.sites)
        if unknown:
            raise TopologyError(f"data sizes reference unknown sites {sorted(unknown)}")
        return max(
            self.sites.values(),
            key=lambda site: data_bytes.get(site.name, 0.0) / site.uplink_bps,
        ).name

    def validate(self) -> None:
        """Check the topology is usable for placement (>= 2 sites)."""
        if len(self.sites) < 2:
            raise TopologyError("geo-distributed analytics needs >= 2 sites")

    def describe(self) -> str:
        """Multi-line human-readable summary of all sites."""
        return "\n".join(site.describe() for site in self.sites.values())
