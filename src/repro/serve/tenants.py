"""Weighted fair queueing and admission control across serve tenants.

Stride scheduling: each admission charges the picked tenant
``1 / weight`` of virtual time, so over any backlogged interval tenants
are admitted in proportion to their weights.  A tenant waking from idle
starts at the scheduler's current virtual time (not its stale pass), so
idleness banks no credit — the classic WFQ wake-up rule.

Admission control is two caps plus shedding: a global in-flight ceiling,
a per-tenant in-flight ceiling, and a per-tenant queue depth beyond
which new arrivals are shed (rejected outright) instead of queued.

All state is instance-level; nothing here touches module globals, so
schedulers for different serving runs never interfere.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Sequence, Tuple

from repro.errors import ServeError


@dataclass
class Tenant:
    """One tenant's identity, weight, queue, and running counters."""

    name: str
    weight: float = 1.0
    queue: Deque = field(default_factory=deque)
    pass_value: float = 0.0
    inflight: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ServeError(
                f"tenant {self.name!r} needs weight > 0, got {self.weight}"
            )


class TenantScheduler:
    """WFQ admission over a fixed tenant population."""

    def __init__(
        self,
        tenants: Sequence[Tenant],
        max_inflight: int = 8,
        max_inflight_per_tenant: int = 4,
        queue_depth: int = 16,
    ) -> None:
        if not tenants:
            raise ServeError("need at least one tenant")
        if max_inflight < 1 or max_inflight_per_tenant < 1:
            raise ServeError("in-flight caps must be >= 1")
        if queue_depth < 0:
            raise ServeError("queue_depth must be >= 0")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate tenant names: {names}")
        self.tenants: "OrderedDict[str, Tenant]" = OrderedDict(
            (tenant.name, tenant) for tenant in tenants
        )
        self.max_inflight = max_inflight
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.queue_depth = queue_depth
        self.inflight = 0
        self._virtual = 0.0

    def __getitem__(self, name: str) -> Tenant:
        return self.tenants[name]

    @property
    def queued(self) -> int:
        return sum(len(tenant.queue) for tenant in self.tenants.values())

    def enqueue(self, name: str, item) -> bool:
        """Queue ``item`` for ``name``; False means shed (queue full)."""
        tenant = self.tenants[name]
        if len(tenant.queue) >= self.queue_depth:
            tenant.shed += 1
            return False
        if not tenant.queue and tenant.inflight == 0:
            # Wake-up rule: no credit for time spent idle.
            tenant.pass_value = max(tenant.pass_value, self._virtual)
        tenant.queue.append(item)
        return True

    def next_admission(self) -> Optional[Tuple[Tenant, object]]:
        """Pop the next admissible item under WFQ, or None if capped."""
        if self.inflight >= self.max_inflight:
            return None
        candidates = [
            tenant
            for tenant in self.tenants.values()
            if tenant.queue and tenant.inflight < self.max_inflight_per_tenant
        ]
        if not candidates:
            return None
        tenant = min(candidates, key=lambda t: (t.pass_value, t.name))
        item = tenant.queue.popleft()
        self._virtual = tenant.pass_value
        tenant.pass_value += 1.0 / tenant.weight
        tenant.inflight += 1
        tenant.admitted += 1
        self.inflight += 1
        return tenant, item

    def release(self, name: str) -> None:
        """A query from ``name`` finished; free its in-flight slot."""
        tenant = self.tenants[name]
        if tenant.inflight < 1:
            raise ServeError(f"release without admission for tenant {name!r}")
        tenant.inflight -= 1
        tenant.completed += 1
        self.inflight -= 1
