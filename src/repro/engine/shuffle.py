"""Shuffle plumbing: reduce-task placement and key routing.

Reduce tasks are dealt to sites according to the task-placement fractions
:math:`r_i` (Table 1); every intermediate key hashes to one task, hence
one destination site.  The all-to-all shuffle of §5 falls out: site i
uploads the share of its combined output whose tasks live elsewhere and
downloads its own share from every other site.

Routing is batched: :meth:`ReduceTaskMap.routing_table` hashes each
distinct key once (process-wide cached blake2b digests, one vectorized
modulo) and memoizes the key→site answer on the instance, so the
per-key :func:`key_to_task` / :meth:`ReduceTaskMap.site_of_key` calls in
shuffle planning collapse to dict lookups.  ``task_sites`` is immutable
by convention — the memo and the per-site count cache assume it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.errors import EngineError
from repro.obs import instrument
from repro.similarity.probes import largest_remainder_allocation
from repro.types import Key


@lru_cache(maxsize=1 << 18)
def _key_digest(text: str) -> int:
    """64-bit blake2b digest of a key's repr, cached process-wide.

    The digest is a pure function of the repr, so one cache serves every
    task map and every query — repeated routing of the same keys (the
    common case across replans and query batches) costs a dict lookup.
    """
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def key_to_task(key: Key, num_tasks: int) -> int:
    """Stable hash of a key onto a reduce task id."""
    if num_tasks < 1:
        raise EngineError("num_tasks must be >= 1")
    return _key_digest(repr(key)) % num_tasks


def keys_to_tasks(keys: List[Key], num_tasks: int) -> np.ndarray:
    """Batched :func:`key_to_task`: one hash pass, one vectorized modulo.

    Returns an ``intp`` array of task ids aligned with ``keys``; each
    entry equals ``key_to_task(key, num_tasks)`` exactly (cached blake2b
    8-byte little-endian digests gathered into one uint64 vector).
    """
    if num_tasks < 1:
        raise EngineError("num_tasks must be >= 1")
    if not keys:
        return np.empty(0, dtype=np.intp)
    digests = np.fromiter(
        map(_key_digest, map(repr, keys)), dtype=np.uint64, count=len(keys)
    )
    return (digests % np.uint64(num_tasks)).astype(np.intp)


@dataclass
class ReduceTaskMap:
    """Assignment of reduce tasks to sites.

    ``task_sites`` is treated as immutable after construction; the
    per-site count cache and the key→site memo rely on that, and so does
    the engine, which hands one map to every job dealt the same
    fractions.  ``dealt``: tasks per site with a positive fraction.
    """

    task_sites: List[str]
    dealt: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _site_counts: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    _site_memo: Dict[Key, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_fractions(
        cls, fractions: Mapping[str, float], num_tasks: int
    ) -> "ReduceTaskMap":
        """Deal ``num_tasks`` tasks to sites proportionally to fractions.

        Fractions must be finite and non-negative, at least one positive,
        and their total times ``num_tasks`` finite.  Counts use
        largest-remainder so they sum exactly to ``num_tasks``.
        Tasks are interleaved across sites (not blocked) so consecutive
        task ids spread load, mirroring how Spark interleaves partitions.
        """
        if num_tasks < 1:
            raise EngineError("num_tasks must be >= 1")
        for site, frac in fractions.items():
            # A chained range rejects NaN (every comparison is False).
            if not -math.inf < frac < math.inf:
                raise EngineError(
                    f"reduce fraction of site {site!r} must be finite, got {frac}"
                )
        positive = {site: frac for site, frac in fractions.items() if frac > 0}
        if not positive:
            raise EngineError("at least one site needs a positive reduce fraction")
        if any(frac < 0 for frac in fractions.values()):
            raise EngineError("reduce fractions must be >= 0")
        total = sum(positive.values())
        if not total * num_tasks < math.inf:
            raise EngineError(
                f"reduce fractions total {total} is not finite over "
                f"{num_tasks} tasks"
            )
        counts = largest_remainder_allocation(positive, num_tasks)
        # Interleave: repeatedly deal one task to each site that still has quota.
        remaining = dict(counts)
        order = [site for site in fractions if counts.get(site, 0) > 0]
        task_sites: List[str] = []
        while len(task_sites) < num_tasks:
            progressed = False
            for site in order:
                if remaining.get(site, 0) > 0:
                    task_sites.append(site)
                    remaining[site] -= 1
                    progressed = True
            if not progressed:
                raise EngineError("task dealing stalled (internal error)")
        task_map = cls(task_sites=task_sites[:num_tasks], dealt=counts)
        task_map.emit_dealt()
        return task_map

    def emit_dealt(self) -> None:
        """One ``reduce-tasks`` event per site of the deal, by site name."""
        telemetry = instrument.current().telemetry
        if telemetry.enabled:
            for site in sorted(self.dealt):
                telemetry.emit("reduce-tasks", site=site, tasks=self.dealt[site])

    @property
    def num_tasks(self) -> int:
        return len(self.task_sites)

    def site_of(self, task: int) -> str:
        if not 0 <= task < len(self.task_sites):
            raise EngineError(f"task {task} out of range [0, {len(self.task_sites)})")
        return self.task_sites[task]

    def site_of_key(self, key: Key) -> str:
        site = self._site_memo.get(key)
        if site is None:
            site = self.site_of(key_to_task(key, self.num_tasks))
            self._site_memo[key] = site
        return site

    def routing_table(self, keys: Iterable[Key]) -> Dict[Key, str]:
        """Batched key→site routing for every distinct key in ``keys``.

        Keys already memoized are answered from the memo; the rest go
        through one batched hash pass (:func:`keys_to_tasks`).  The
        returned dict maps each distinct input key to its destination
        site, identical to per-key :meth:`site_of_key` answers.
        """
        memo = self._site_memo
        table: Dict[Key, str] = {}
        if memo:
            fresh: List[Key] = []
            seen_fresh = set()
            for key in keys:
                site = memo.get(key)
                if site is not None:
                    table[key] = site
                elif key not in seen_fresh:
                    seen_fresh.add(key)
                    fresh.append(key)
        else:
            # Fresh map: nothing can be memoized, dedupe in one C pass.
            fresh = list(dict.fromkeys(keys))
        if fresh:
            tasks = keys_to_tasks(fresh, self.num_tasks)
            routed = dict(
                zip(fresh, map(self.task_sites.__getitem__, tasks.tolist()))
            )
            memo.update(routed)
            table.update(routed)
        return table

    def tasks_per_site(self) -> Dict[str, int]:
        if self._site_counts is None:
            counts: Dict[str, int] = {}
            for site in self.task_sites:
                counts[site] = counts.get(site, 0) + 1
            self._site_counts = counts
        return dict(self._site_counts)

    def fraction_at(self, site: str) -> float:
        if self._site_counts is None:
            self.tasks_per_site()
        assert self._site_counts is not None
        return self._site_counts.get(site, 0) / self.num_tasks
