"""The no-op sanitizer the instrumentation slot holds by default.

It lives apart from :mod:`repro.obs.sanitize` so that a run without
``--sanitize`` never loads the checker: :mod:`repro.obs.instrument`
imports this module, and only the CLI's ``--sanitize`` path (and code
that builds a :class:`~repro.obs.sanitize.Sanitizer` itself) imports
the real one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sanitize import Sanitizer


class NullSanitizer:
    """No-op twin: every check is a cheap early return."""

    enabled = False
    violations: Tuple[str, ...] = ()  # always empty; shared on purpose
    checks_run = 0

    def check_job(self, result) -> None:
        return None

    def check_clock(self, previous: float, now: float, where: str = "wan") -> None:
        return None

    def check_placement(self, problem, reduce_fractions, moves) -> None:
        return None

    def check_movement(self, movement, lag_seconds: float) -> None:
        return None

    def check_retry_outcome(self, outcome, policy) -> None:
        return None

    def check_critical_path(self, path) -> None:
        return None


NULL_SANITIZER = NullSanitizer()

#: What the slot's ``sanitizer`` member holds.
AnySanitizer = Union["Sanitizer", NullSanitizer]
