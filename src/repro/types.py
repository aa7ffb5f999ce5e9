"""Core data model shared by every subsystem.

Geo-distributed datasets are collections of structured records sharded
across sites.  A record's *key* for a given query is the tuple of values
of the query's group-by attributes; combiners merge records with equal
keys, which is where all of Bohr's intermediate-data reduction comes from.

Records carry an explicit serialized size so the WAN simulator can work in
bytes while the engine works record-by-record.  Experiments typically use
records that each *represent* a slab of raw data (e.g. 1 MB per record) so
that a 40 GB/site deployment stays tractable in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SchemaError

#: A single attribute value inside a record.
Value = Union[str, int, float]

#: A record key for some query: values of the query's group-by attributes.
Key = Tuple[Value, ...]


@dataclass(frozen=True)
class Attribute:
    """One column of a dataset schema."""

    name: str
    kind: str = "categorical"  # "categorical" | "numeric" | "text"

    _KINDS = ("categorical", "numeric", "text")

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind not in self._KINDS:
            raise SchemaError(
                f"attribute {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {self._KINDS}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered set of attributes describing one dataset."""

    attributes: Tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        if not names:
            raise SchemaError("schema must have at least one attribute")

    @classmethod
    def of(cls, *names: str, kinds: Optional[Mapping[str, str]] = None) -> "Schema":
        """Shorthand constructor: ``Schema.of("url", "score")``."""
        kinds = kinds or {}
        return cls(
            tuple(Attribute(name, kinds.get(name, "categorical")) for name in names)
        )

    @property
    def names(self) -> List[str]:
        return [attribute.name for attribute in self.attributes]

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: str) -> bool:
        return any(attribute.name == name for attribute in self.attributes)

    def index(self, name: str) -> int:
        """Position of an attribute; raises :class:`SchemaError` if absent."""
        for position, attribute in enumerate(self.attributes):
            if attribute.name == name:
                return position
        raise SchemaError(f"schema has no attribute {name!r}; has {self.names}")

    def indices(self, names: Sequence[str]) -> List[int]:
        return [self.index(name) for name in names]

    def validate_record(self, record: "Record") -> None:
        if len(record.values) != len(self.attributes):
            raise SchemaError(
                f"record has {len(record.values)} values, schema expects "
                f"{len(self.attributes)}"
            )


@dataclass(frozen=True)
class Record:
    """One structured record.

    ``size_bytes`` is the serialized size this record stands for; the
    engine and WAN simulator sum these to get transfer volumes.
    """

    values: Key
    size_bytes: int = 100

    def __post_init__(self) -> None:
        # Written so a nan fails it too: every comparison with nan is False.
        if not 0 < self.size_bytes < math.inf:
            raise SchemaError(
                f"record size_bytes must be finite and > 0, got {self.size_bytes!r}"
            )

    def key(self, indices: Sequence[int]) -> Key:
        """Project the record onto the given attribute positions."""
        return tuple(self.values[index] for index in indices)

    def value_of(self, schema: Schema, name: str) -> Value:
        return self.values[schema.index(name)]


def project_keys(records: Iterable[Record], indices: Sequence[int]) -> List[Key]:
    """``[record.key(indices) for record in records]`` in one batch pass.

    ``itemgetter`` builds the same tuples without a generator per record;
    with a single index it returns a bare value, hence the 1-tuple branch.
    """
    if not indices:
        return [() for _ in records]
    if len(indices) == 1:
        index = indices[0]
        return [(record.values[index],) for record in records]
    getter = itemgetter(*indices)
    return [getter(record.values) for record in records]


def records_bytes(records: Iterable[Record]) -> int:
    """Total serialized size of an iterable of records."""
    return sum(record.size_bytes for record in records)


@dataclass
class GeoDataset:
    """A dataset sharded across sites.

    ``shards`` maps site name to the list of records currently stored
    there.  Shards are mutable: the placement executor moves records
    between sites, and dynamic workloads append new batches (§8.6).
    """

    dataset_id: str
    schema: Schema
    shards: Dict[str, List[Record]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.dataset_id:
            raise SchemaError("dataset_id must be non-empty")

    @property
    def sites(self) -> List[str]:
        return list(self.shards.keys())

    def shard(self, site: str) -> List[Record]:
        """Records at ``site`` (empty list if the site holds nothing)."""
        return self.shards.get(site, [])

    def add_records(self, site: str, records: Iterable[Record]) -> None:
        batch = list(records)
        for record in batch:
            self.schema.validate_record(record)
        self.shards.setdefault(site, []).extend(batch)

    def move_records(self, src: str, dst: str, records: List[Record]) -> None:
        """Relocate specific record objects from one shard to another.

        The records must currently live in the source shard; identity (not
        equality) is used so duplicate-valued records move correctly.
        """
        source = self.shards.get(src, [])
        moving = {id(record) for record in records}
        if len(moving) != len(records):
            raise SchemaError("duplicate record objects in move request")
        remaining = [record for record in source if id(record) not in moving]
        if len(source) - len(remaining) != len(records):
            raise SchemaError(
                f"some records to move from {src!r} are not stored there"
            )
        self.shards[src] = remaining
        self.shards.setdefault(dst, []).extend(records)

    def bytes_at(self, site: str) -> int:
        return records_bytes(self.shard(site))

    def bytes_by_site(self) -> Dict[str, int]:
        return {site: records_bytes(records) for site, records in self.shards.items()}

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_at(site) for site in self.shards)

    @property
    def total_records(self) -> int:
        return sum(len(records) for records in self.shards.values())

    def all_records(self) -> List[Record]:
        merged: List[Record] = []
        for records in self.shards.values():
            merged.extend(records)
        return merged


@dataclass
class DatasetCatalog:
    """All datasets known to the controller, by id."""

    datasets: Dict[str, GeoDataset] = field(default_factory=dict)

    def add(self, dataset: GeoDataset) -> None:
        if dataset.dataset_id in self.datasets:
            raise SchemaError(f"duplicate dataset {dataset.dataset_id!r}")
        self.datasets[dataset.dataset_id] = dataset

    def get(self, dataset_id: str) -> GeoDataset:
        try:
            return self.datasets[dataset_id]
        except KeyError:
            raise SchemaError(f"unknown dataset {dataset_id!r}") from None

    def __iter__(self):
        return iter(self.datasets.values())

    def __len__(self) -> int:
        return len(self.datasets)

    def __contains__(self, dataset_id: str) -> bool:
        return dataset_id in self.datasets
