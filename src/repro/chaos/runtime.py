"""The failure-aware runtime: retries, backoff, and chaos configuration.

The chaos layer (:mod:`repro.chaos.schedule`) decides *what breaks*;
this module decides *how the system survives it*:

* :class:`RetryPolicy` — exponential backoff with a stall timeout and a
  bounded attempt budget, the knobs every production data mover exposes;
* :func:`simulate_with_retries` — drives a
  :class:`~repro.wan.transfer.TransferScheduler` until every transfer
  either delivered or exhausted its attempts, re-submitting failed
  transfers after backoff (a retry re-sends the transfer's full byte
  count: attempts are all-or-nothing, like a connection reset);
* :class:`ChaosConfig` — the bundle (schedule + retry policy + query
  deadline) a :class:`~repro.core.controller.Controller` runs under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.chaos.schedule import FaultSchedule
from repro.errors import ConfigurationError
from repro.obs import instrument
from repro.wan.transfer import Transfer, TransferResult, TransferScheduler


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for WAN transfers."""

    max_attempts: int = 4
    base_backoff_seconds: float = 0.5
    backoff_multiplier: float = 2.0
    #: A flow parked at zero capacity for this long fails its attempt.
    stall_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_backoff_seconds < 0:
            raise ConfigurationError("base_backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if self.stall_timeout_seconds <= 0:
            raise ConfigurationError("stall_timeout_seconds must be > 0")

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before re-submitting after the ``attempt``-th failure."""
        if attempt < 1:
            raise ConfigurationError("attempt is 1-based")
        return self.base_backoff_seconds * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a controller needs to run under injected faults."""

    faults: FaultSchedule
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Queries whose QCT overshoots this are aborted with partial results.
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline_seconds must be > 0")


@dataclass
class RetryOutcome:
    """Final state of a batch of transfers after the retry loop."""

    #: Final result per input transfer, in input order (the last attempt).
    results: List[TransferResult] = field(default_factory=list)
    #: Total re-submissions across all transfers.
    retries: int = 0
    #: Transfers that exhausted the attempt budget (their last failure).
    abandoned: List[TransferResult] = field(default_factory=list)

    @property
    def requested_bytes(self) -> float:
        return sum(result.transfer.num_bytes for result in self.results)

    @property
    def delivered_bytes(self) -> float:
        return sum(result.delivered_bytes for result in self.results)

    @property
    def abandoned_bytes(self) -> float:
        return sum(result.transfer.num_bytes for result in self.abandoned)

    @property
    def makespan_seconds(self) -> float:
        if not self.results:
            return 0.0
        return max(result.finish_time for result in self.results)


def simulate_with_retries(
    scheduler: TransferScheduler,
    transfers: Sequence[Transfer],
    policy: RetryPolicy,
) -> RetryOutcome:
    """Simulate transfers, re-submitting failed attempts with backoff.

    The scheduler must have a finite stall timeout (normally the
    policy's) for failures to surface; each retry round re-simulates the
    still-failing transfers together so they contend with each other,
    starting after their per-transfer backoff delay.
    """
    obs = instrument.current()
    telemetry = obs.telemetry
    outcome = RetryOutcome()
    with telemetry.span(
        "retry-transfers", stage="chaos", transfers=len(transfers)
    ):
        final: List[Optional[TransferResult]] = [None] * len(transfers)
        attempts = [1] * len(transfers)
        live = list(range(len(transfers)))
        submitted = list(transfers)
        while live:
            results = scheduler.simulate([submitted[index] for index in live])
            next_live: List[int] = []
            for index, result in zip(live, results):
                stamped = TransferResult(
                    transfer=transfers[index],
                    finish_time=result.finish_time,
                    failed=result.failed,
                    attempts=attempts[index],
                )
                final[index] = stamped
                if not result.failed:
                    continue
                if attempts[index] >= policy.max_attempts:
                    outcome.abandoned.append(stamped)
                    if telemetry.enabled:
                        telemetry.emit(
                            "abandon",
                            t=result.finish_time,
                            src=transfers[index].src,
                            dst=transfers[index].dst,
                            num_bytes=transfers[index].num_bytes,
                            attempts=attempts[index],
                        )
                    continue
                delay = policy.backoff_seconds(attempts[index])
                original = transfers[index]
                if telemetry.enabled:
                    telemetry.emit(
                        "retry",
                        t=result.finish_time,
                        src=original.src,
                        dst=original.dst,
                        num_bytes=original.num_bytes,
                        attempt=attempts[index],
                        backoff_seconds=delay,
                        resume_at=result.finish_time + delay,
                    )
                submitted[index] = Transfer(
                    src=original.src,
                    dst=original.dst,
                    num_bytes=original.num_bytes,
                    start_time=result.finish_time + delay,
                    tag=original.tag,
                )
                attempts[index] += 1
                outcome.retries += 1
                next_live.append(index)
            live = next_live
        outcome.results = [result for result in final if result is not None]
    if obs.sanitizer.enabled:
        obs.sanitizer.check_retry_outcome(outcome, policy)
    return outcome
