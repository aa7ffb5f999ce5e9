"""Per-tenant SLO tracking over serve latency streams.

The serving layer's per-tenant latency is summarized three ways, all
deterministic (two same-seed runs produce bit-identical digests):

* **exact quantiles**: the tracker keeps every completed query's QCT
  (it re-emits each one as an ``slo-sample`` anyway), and each tenant's
  p50/p99 is :func:`repro.util.stats.percentile` of its samples — the
  one quantile definition shared with the ``repro serve`` summary line
  and ``--metrics`` histograms, so all three print the same number;
* an **SLO target** per tenant (:class:`SloSpec`: a latency target plus
  an attainment goal) turns each QCT into an ok/violation sample;
* **rolling burn-rate windows**: sim time is cut into fixed windows and
  each window's violation rate is expressed as a multiple of the error
  budget (``1 - goal``) — burn rate > 1 means the tenant is burning
  budget faster than the SLO allows.

The tracker replays ``serve-finish`` events (or any deterministic
sample feed) and emits the schema-v3 ``slo-sample`` / ``slo-window`` /
``slo-status`` kinds onto a telemetry bus, so archives, ``repro
report`` panels, and ``repro top`` all see the same stream.  Like every
``repro.obs`` module it is a pure observer (R011): it never mutates
engine/wan/serve state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.telemetry import TelemetryEvent
from repro.util.stats import percentile

#: Default attainment goal when a target comes without one.
DEFAULT_GOAL = 0.95
#: Default burn-rate window length (sim seconds).
DEFAULT_WINDOW_SECONDS = 5.0


def _canonical(value: float) -> str:
    return format(float(value), ".12e")


@dataclass(frozen=True)
class SloSpec:
    """One tenant's objective: a latency target plus an attainment goal."""

    tenant: str
    target_seconds: float
    goal: float = DEFAULT_GOAL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target_seconds) and self.target_seconds > 0.0):
            raise ObservabilityError(
                f"{self.tenant}: SLO target_seconds must be finite and "
                f"positive, got {self.target_seconds}"
            )
        if not 0.0 < self.goal < 1.0:
            raise ObservabilityError(
                f"{self.tenant}: attainment goal must be in (0, 1), "
                f"got {self.goal} (an error budget of zero makes burn "
                "rate undefined)"
            )


def parse_slo_targets(
    items: Sequence[str],
    tenants: Sequence[str],
    goal: float = DEFAULT_GOAL,
) -> List[SloSpec]:
    """Parse ``TENANT=TARGET`` pairs (the ``repro serve --slo`` syntax).

    ``default=TARGET`` applies to every tenant not named explicitly;
    explicit pairs win.  Unknown tenant names are an error so a typo'd
    ``--slo`` fails loudly instead of silently tracking nothing.
    """
    default: Optional[float] = None
    explicit: Dict[str, float] = {}
    for item in items:
        name, separator, raw = item.partition("=")
        if not separator or not name or not raw:
            raise ObservabilityError(
                f"bad SLO target {item!r}: expected TENANT=SECONDS"
            )
        try:
            target = float(raw)
        except ValueError:
            raise ObservabilityError(
                f"bad SLO target {item!r}: {raw!r} is not a number"
            ) from None
        if name == "default":
            default = target
        elif name in tenants:
            explicit[name] = target
        else:
            raise ObservabilityError(
                f"bad SLO target {item!r}: unknown tenant {name!r} "
                f"(tenants: {', '.join(tenants)})"
            )
    specs = []
    for tenant in sorted(tenants):
        target = explicit.get(tenant, default)
        if target is not None:
            specs.append(SloSpec(tenant=tenant, target_seconds=target, goal=goal))
    return specs


@dataclass
class TenantSlo:
    """One tenant's final SLO standing."""

    tenant: str
    target_seconds: float
    goal: float
    completed: int = 0
    violations: int = 0
    p50: float = 0.0
    p99: float = 0.0
    max_burn: float = 0.0

    @property
    def attainment(self) -> float:
        if not self.completed:
            return 1.0
        return (self.completed - self.violations) / self.completed

    @property
    def met(self) -> bool:
        return self.attainment >= self.goal

    def to_dict(self) -> Dict:
        return {
            "tenant": self.tenant,
            "target_seconds": self.target_seconds,
            "goal": self.goal,
            "completed": self.completed,
            "violations": self.violations,
            "attainment": self.attainment,
            "met": self.met,
            "p50": self.p50,
            "p99": self.p99,
            "max_burn": self.max_burn,
        }


@dataclass
class SloReport:
    """Per-tenant SLO standings plus the rolling burn-rate windows."""

    window_seconds: float
    rows: List[TenantSlo] = field(default_factory=list)
    #: (tenant, window index) -> [total, violations], window-aligned.
    windows: Dict[Tuple[str, int], List[int]] = field(default_factory=dict)
    makespan: float = 0.0

    def burn_rate(self, tenant: str, window: int) -> float:
        spec_row = next(row for row in self.rows if row.tenant == tenant)
        total, violations = self.windows[(tenant, window)]
        if not total:
            return 0.0
        return (violations / total) / (1.0 - spec_row.goal)

    def digest(self) -> str:
        digest = hashlib.sha256()
        for row in self.rows:
            digest.update(
                "|".join(
                    [
                        row.tenant,
                        _canonical(row.target_seconds),
                        _canonical(row.goal),
                        str(row.completed),
                        str(row.violations),
                        _canonical(row.attainment),
                        _canonical(row.p50),
                        _canonical(row.p99),
                        _canonical(row.max_burn),
                    ]
                ).encode()
            )
            digest.update(b"\n")
        for tenant, window in sorted(self.windows):
            total, violations = self.windows[(tenant, window)]
            digest.update(
                f"window|{tenant}|{window}|{total}|{violations}\n".encode()
            )
        return digest.hexdigest()

    def to_dict(self) -> Dict:
        return {
            "window_seconds": self.window_seconds,
            "makespan": self.makespan,
            "tenants": [row.to_dict() for row in self.rows],
            "windows": [
                {
                    "tenant": tenant,
                    "window": window,
                    "start": window * self.window_seconds,
                    "end": (window + 1) * self.window_seconds,
                    "total": counts[0],
                    "violations": counts[1],
                    "burn_rate": self.burn_rate(tenant, window),
                }
                for (tenant, window), counts in sorted(self.windows.items())
            ],
            "digest": self.digest(),
        }


class SloTracker:
    """Folds completed-query latencies into per-tenant SLO standings.

    Feed observations in a deterministic order (stream order of
    ``serve-finish`` events, or ``(finish, index)``-sorted report rows)
    and the emitted ``slo-*`` events are bit-identical across same-seed
    runs.  Tenants without a spec are ignored — SLOs are opt-in per
    tenant.  Every observation is kept; :meth:`finalize` reads counts,
    quantiles and burn windows from that one list.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ) -> None:
        if not (math.isfinite(window_seconds) and window_seconds > 0.0):
            raise ObservabilityError(
                f"SLO burn window_seconds must be finite and positive, "
                f"got {window_seconds}"
            )
        names = [spec.tenant for spec in specs]
        if len(set(names)) != len(names):
            raise ObservabilityError(f"duplicate SLO specs for {sorted(names)}")
        self.specs: Dict[str, SloSpec] = {
            spec.tenant: spec for spec in sorted(specs, key=lambda s: s.tenant)
        }
        self.window_seconds = window_seconds
        #: (t, query, tenant, qct, ok) in observation order.
        self._samples: List[Tuple[float, int, str, float, bool]] = []

    def observe(self, tenant: str, finish: float, qct: float, query: int = -1) -> None:
        """Keep one completed query; no-op for tenants without a spec."""
        if not (math.isfinite(qct) and math.isfinite(finish)):
            raise ObservabilityError(
                f"{tenant}: SLO sample qct and finish must be finite, "
                f"got qct={qct}, finish={finish}"
            )
        spec = self.specs.get(tenant)
        if spec is None:
            return
        self._samples.append(
            (finish, query, tenant, qct, qct <= spec.target_seconds)
        )

    def observe_events(self, events: Sequence[TelemetryEvent]) -> int:
        """Replay ``serve-finish`` events in stream order; returns count."""
        observed = 0
        for event in events:
            if event.kind != "serve-finish":
                continue
            attrs = event.attrs
            self.observe(
                str(attrs.get("tenant", "")),
                float(event.t or 0.0),
                float(attrs.get("qct", 0.0)),
                query=int(attrs.get("query", -1)),
            )
            observed += 1
        return observed

    def finalize(self, makespan: float = 0.0) -> SloReport:
        qcts: Dict[str, List[float]] = {tenant: [] for tenant in self.specs}
        violations = dict.fromkeys(self.specs, 0)
        windows: Dict[Tuple[str, int], List[int]] = {}
        for finish, _query, tenant, qct, ok in self._samples:
            qcts[tenant].append(qct)
            counts = windows.setdefault(
                (tenant, int(finish // self.window_seconds)), [0, 0]
            )
            counts[0] += 1
            if not ok:
                violations[tenant] += 1
                counts[1] += 1
        report = SloReport(
            window_seconds=self.window_seconds,
            windows=windows,
            makespan=makespan,
        )
        for tenant, spec in self.specs.items():
            row = TenantSlo(
                tenant=tenant,
                target_seconds=spec.target_seconds,
                goal=spec.goal,
                completed=len(qcts[tenant]),
                violations=violations[tenant],
                p50=percentile(qcts[tenant], 50.0),
                p99=percentile(qcts[tenant], 99.0),
            )
            report.rows.append(row)  # burn_rate reads the row's goal
            row.max_burn = max(
                (
                    report.burn_rate(tenant, window)
                    for name, window in windows
                    if name == tenant
                ),
                default=0.0,
            )
        return report

    def emit_events(self, bus, report: SloReport) -> int:
        """Append the ``slo-*`` stream for this run to ``bus``.

        Order: every ``slo-sample`` in observation order, then
        ``slo-window`` rows sorted by (tenant, window), then one
        ``slo-status`` per tenant — all deterministic.
        """
        emitted = 0
        for finish, query, tenant, qct, ok in self._samples:
            bus.emit(
                "slo-sample",
                t=finish,
                tenant=tenant,
                query=query,
                qct=qct,
                ok=ok,
                target_seconds=self.specs[tenant].target_seconds,
            )
            emitted += 1
        for (tenant, window), counts in sorted(report.windows.items()):
            bus.emit(
                "slo-window",
                t=(window + 1) * self.window_seconds,
                tenant=tenant,
                window=window,
                window_seconds=self.window_seconds,
                total=counts[0],
                violations=counts[1],
                burn_rate=report.burn_rate(tenant, window),
            )
            emitted += 1
        for row in report.rows:
            bus.emit("slo-status", t=report.makespan, **row.to_dict())
            emitted += 1
        return emitted
