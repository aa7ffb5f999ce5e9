"""Cube-serving result cache: slice/dice reuse across tenants.

Keys are canonical query identities (:func:`repro.serve.spec.
canonical_query_key`), so the cache is shared across tenants by design —
the whole point of serving from cubes is that tenant B's dashboard
refresh of the slice tenant A just computed costs nothing.  Bounded LRU;
every lookup and eviction lands on the telemetry bus as
``cache-hit`` / ``cache-miss`` / ``cache-evict`` events.

All state is instance-level (no module globals): a serving scheduler owns
its cache, and interleaved queries mutate nothing shared beyond it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ServeError
from repro.obs import instrument
from repro.serve.spec import render_key


@dataclass
class CacheEntry:
    """One materialized answer and what producing it cost."""

    key: Tuple
    produced_at: float  # sim time the producing query finished
    service_seconds: float  # that query's execution time (admit -> finish)
    wan_bytes: float
    hits: int = 0


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class CubeCache:
    """Bounded LRU over canonical query keys."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ServeError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def lookup(self, key: Tuple, now: float) -> Optional[CacheEntry]:
        """Return the entry for ``key`` (refreshing recency) or None."""
        telemetry = instrument.current().telemetry
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if telemetry.enabled:
                telemetry.emit(
                    "cache-miss", t=now, dataset=key[0], key=render_key(key)
                )
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.stats.hits += 1
        if telemetry.enabled:
            telemetry.emit(
                "cache-hit",
                t=now,
                dataset=key[0],
                key=render_key(key),
                age_seconds=now - entry.produced_at,
                saved_seconds=entry.service_seconds,
            )
        return entry

    def insert(
        self,
        key: Tuple,
        now: float,
        service_seconds: float,
        wan_bytes: float,
    ) -> None:
        """Materialize an answer; evicts LRU entries past capacity."""
        if self.capacity == 0:
            return
        telemetry = instrument.current().telemetry
        self._entries[key] = CacheEntry(
            key=key,
            produced_at=now,
            service_seconds=service_seconds,
            wan_bytes=wan_bytes,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if telemetry.enabled:
                telemetry.emit(
                    "cache-evict",
                    t=now,
                    dataset=evicted_key[0],
                    key=render_key(evicted_key),
                    hits=evicted.hits,
                )

    def invalidate_dataset(self, dataset_id: str, now: float) -> int:
        """Drop every slice of ``dataset_id`` (new data batch landed)."""
        stale = [key for key in self._entries if key[0] == dataset_id]
        telemetry = instrument.current().telemetry
        for key in stale:
            entry = self._entries.pop(key)
            self.stats.invalidations += 1
            if telemetry.enabled:
                telemetry.emit(
                    "cache-evict",
                    t=now,
                    dataset=dataset_id,
                    key=render_key(key),
                    hits=entry.hits,
                    invalidated=True,
                )
        return len(stale)
