"""Initial placement of generated records onto sites (§8.1).

"The workloads are assigned in two ways: (1) uniformly at random; (2) in
a locality aware fashion by clustering the input data based on
attributes like date, region, etc. to the same sites to reflect the
inherent data locality from the data procurement process."
"""

from __future__ import annotations

import enum
from typing import List, Sequence

from repro.errors import WorkloadError
from repro.types import GeoDataset, Record, Schema
from repro.util.rng import derive_rng
from repro.wan.topology import WanTopology


class InitialPlacement(str, enum.Enum):
    """How the global record pool is dealt to sites."""

    RANDOM = "random"
    LOCALITY = "locality"


def assign_records(
    dataset_id: str,
    schema: Schema,
    records: Sequence[Record],
    topology: WanTopology,
    placement: InitialPlacement = InitialPlacement.RANDOM,
    locality_attribute: str = "region",
    seed: int = 7,
) -> GeoDataset:
    """Build a :class:`GeoDataset` by assigning records to sites.

    Random: uniform over sites.  Locality: all records sharing the
    locality attribute's value land on the same (hashed) site.
    """
    sites = topology.site_names
    if not sites:
        raise WorkloadError("topology has no sites")
    dataset = GeoDataset(dataset_id, schema)
    for site in sites:
        dataset.shards.setdefault(site, [])
    if not records:
        return dataset
    if placement is InitialPlacement.RANDOM:
        rng = derive_rng(seed, "placement", dataset_id)
        choices = rng.integers(0, len(sites), size=len(records))
        for record, choice in zip(records, choices):
            dataset.add_records(sites[int(choice)], [record])
        return dataset

    attribute_index = schema.index(locality_attribute)
    # Deal distinct locality values to sites round-robin (sorted order):
    # every value's records land on one site, and sites stay balanced —
    # hashing values directly would collide and leave sites empty.
    values = sorted({str(record.values[attribute_index]) for record in records})
    site_of_value = {
        value: sites[index % len(sites)] for index, value in enumerate(values)
    }
    for record in records:
        site = site_of_value[str(record.values[attribute_index])]
        dataset.add_records(site, [record])
    return dataset


def region_names_for(topology: WanTopology, per_site: int = 1) -> List[str]:
    """Synthetic region labels derived from site names.

    With ``per_site == 1`` locality-aware placement concentrates each
    region on (roughly) one site; more regions per site soften locality.
    """
    if per_site < 1:
        raise WorkloadError("per_site must be >= 1")
    names: List[str] = []
    for site in topology.site_names:
        for index in range(per_site):
            names.append(f"{site}-r{index}" if per_site > 1 else site)
    return names
