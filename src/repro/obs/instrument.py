"""The process-wide instrumentation slot: one recorder, one checker.

Every instrumented call site does::

    from repro.obs import instrument
    ...
    telemetry = instrument.current().telemetry
    with telemetry.span("lp-solve", stage="placement") as span:
        ...
        span.set(backend="scipy")
    if telemetry.enabled:
        telemetry.emit("plan", scheme="bohr", moved_bytes=...)

The slot has two members: ``telemetry`` (the event bus — the only
recorder; spans and metric snapshots are views of its stream, see
:mod:`repro.obs.views`) and ``sanitizer`` (the runtime invariant
checker).  By default :func:`current` returns
:data:`NULL_INSTRUMENTATION`, whose members are the no-op twins — a
disabled call site costs a function call and a couple of attribute
lookups.  Enable collection for a region with :func:`instrumented`::

    with instrument.instrumented() as obs:
        run_experiment(...)
    write_jsonl(obs.telemetry, "tele.jsonl")  # what `repro inspect` reads

The slot is deliberately process-global rather than threaded through
every constructor: the engine, solver, WAN simulator and similarity
checker are called from many entry points (CLI, benchmarks, tests) and
instrumentation must not reshape those APIs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.obs.null_sanitizer import NULL_SANITIZER, AnySanitizer
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetryBus, TelemetryBus


@dataclass
class Instrumentation:
    """The telemetry/sanitizer pair handed to call sites."""

    telemetry: Union[TelemetryBus, NullTelemetryBus] = NULL_TELEMETRY
    sanitizer: AnySanitizer = NULL_SANITIZER

    @property
    def enabled(self) -> bool:
        return self.telemetry.enabled or self.sanitizer.enabled


NULL_INSTRUMENTATION = Instrumentation()

_current: Instrumentation = NULL_INSTRUMENTATION


def current() -> Instrumentation:
    """The active instrumentation (the no-op pair unless installed)."""
    return _current


def install(instrumentation: Optional[Instrumentation] = None) -> Instrumentation:
    """Install (or reset to no-op with ``None``) the active instrumentation."""
    global _current
    _current = instrumentation or NULL_INSTRUMENTATION
    return _current


@contextmanager
def instrumented(
    sanitizer: Optional[AnySanitizer] = None,
    telemetry: Optional[Union[TelemetryBus, NullTelemetryBus]] = None,
) -> Iterator[Instrumentation]:
    """Activate live collection for a region, restoring the prior slot.

    With no ``telemetry`` a fresh :class:`TelemetryBus` is created (the
    sanitizer stays off unless given); pass explicit instances (or the
    null twins) to share or suppress either member.
    """
    instrumentation = Instrumentation(
        telemetry=telemetry if telemetry is not None else TelemetryBus(),
        sanitizer=sanitizer if sanitizer is not None else NULL_SANITIZER,
    )
    previous = current()
    install(instrumentation)
    try:
        yield instrumentation
    finally:
        install(previous)
