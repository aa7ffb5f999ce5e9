"""Runtime invariant sanitizer (the ``--sanitize`` mode).

Production simulators ship with sanitizers the way native code ships
with ASan: cheap assertions on conservation laws that are *always* true
when the simulator is healthy, checked at the existing
:mod:`repro.obs.instrument` hook points.  The invariants:

* **bytes conservation** — per job, the combiner never creates bytes
  (``intermediate <= map_output``), a site never ships more than it
  combined (``uploaded + local <= intermediate``), and WAN bytes are
  conserved end-to-end (``Σ uploaded == Σ downloaded``);
* **sim-clock monotonicity** — the WAN progressive-filling loop's clock
  never runs backwards, and every transfer finishes at or after its
  (latency-adjusted) start;
* **LP feasibility** — placement fractions lie in [0, 1] and sum to 1,
  move budgets are non-negative and never exceed what the source site
  holds;
* **movement fit** — executed data movement lands inside the lag window
  whenever the plan claims it did;
* **fault accounting** (chaos runs only) — bytes lost to abandoned
  transfers match the failed transfers' payloads, outage-excluded sites
  did no work, and the retry loop conserves bytes (delivered + abandoned
  == requested) within the policy's attempt budget;
* **critical-path conservation** (serve analysis) — a reconstructed
  query path's components (queue wait, slot wait, map, WAN serial +
  contention, reduce, cache) are non-negative and sum to the query's
  QCT within 1e-9.

A disabled call site costs one attribute check (``sanitizer.enabled``
on :class:`repro.obs.null_sanitizer.NullSanitizer`, the no-op twin the slot
holds by default, so this module loads only under ``--sanitize``),
mirroring the telemetry bus's no-op twin.  In ``collect`` mode (the CLI
default) violations accumulate for a summary report; in ``raise`` mode
(the test default) the first violation raises
:class:`~repro.errors.InvariantViolation` at the offending call site.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from repro.errors import InvariantViolation

#: Absolute slack for byte comparisons (float accumulation noise).
_ABS_TOL_BYTES = 1e-3
#: Relative slack for all comparisons.
_REL_TOL = 1e-6
#: Absolute slack for clock comparisons (progressive-filling epsilon).
_ABS_TOL_SECONDS = 1e-9


class Sanitizer:
    """Collects (or raises on) simulation invariant violations."""

    enabled = True

    def __init__(self, mode: str = "collect") -> None:
        if mode not in ("collect", "raise"):
            raise InvariantViolation(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.violations: List[str] = []
        self.checks_run = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _fail(self, invariant: str, message: str) -> None:
        record = f"[{invariant}] {message}"
        self.violations.append(record)
        if self.mode == "raise":
            raise InvariantViolation(record)

    def _check(self, invariant: str, condition: bool, message: str) -> None:
        self.checks_run += 1
        if not condition:
            self._fail(invariant, message)

    @staticmethod
    def _le(left: float, right: float, abs_tol: float) -> bool:
        return left <= right + abs_tol + _REL_TOL * max(abs(left), abs(right))

    @staticmethod
    def _eq(left: float, right: float, abs_tol: float) -> bool:
        return math.isclose(left, right, rel_tol=_REL_TOL, abs_tol=abs_tol)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_job(self, result) -> None:
        """Bytes conservation + clock sanity across map→combine→shuffle→reduce."""
        total_up = 0.0
        total_down = 0.0
        max_finish = 0.0
        for site, metrics in result.per_site.items():
            self._check(
                "combine-conservation",
                self._le(
                    metrics.intermediate_bytes,
                    metrics.map_output_bytes,
                    _ABS_TOL_BYTES,
                ),
                f"{site}: combiner output {metrics.intermediate_bytes:.3f} B "
                f"exceeds map output {metrics.map_output_bytes:.3f} B",
            )
            shipped = metrics.uploaded_bytes + metrics.local_shuffle_bytes
            self._check(
                "shuffle-conservation",
                self._le(shipped, metrics.intermediate_bytes, _ABS_TOL_BYTES),
                f"{site}: shuffled {shipped:.3f} B out of only "
                f"{metrics.intermediate_bytes:.3f} B of intermediate data",
            )
            self._check(
                "sim-clock",
                min(
                    metrics.map_seconds,
                    metrics.map_finish,
                    metrics.reduce_seconds,
                    metrics.finish_time,
                )
                >= 0.0,
                f"{site}: negative phase time "
                f"(map={metrics.map_seconds}, finish={metrics.finish_time})",
            )
            self._check(
                "sim-clock",
                self._le(metrics.map_finish, metrics.finish_time, _ABS_TOL_SECONDS)
                or metrics.finish_time == 0.0,  # lint: allow[R004] — exact 0.0 sentinel for "no reduce phase ran"
                f"{site}: finish {metrics.finish_time} before map end "
                f"{metrics.map_finish}",
            )
            total_up += metrics.uploaded_bytes
            total_down += metrics.downloaded_bytes
            max_finish = max(max_finish, metrics.finish_time)
        self._check(
            "wan-conservation",
            self._eq(total_up, total_down, _ABS_TOL_BYTES),
            f"uploaded {total_up:.3f} B but downloaded {total_down:.3f} B",
        )
        self._check(
            "qct-bound",
            self._eq(result.qct, max_finish, _ABS_TOL_SECONDS),
            f"qct {result.qct} is not the latest site finish {max_finish}",
        )
        for transfer_result in result.transfers:
            self._check(
                "sim-clock",
                self._le(
                    transfer_result.transfer.start_time,
                    transfer_result.finish_time,
                    _ABS_TOL_SECONDS,
                ),
                f"transfer {transfer_result.transfer.src}->"
                f"{transfer_result.transfer.dst} finished at "
                f"{transfer_result.finish_time} before its start "
                f"{transfer_result.transfer.start_time}",
            )
        # Chaos invariants, only exercised when faults actually bit (so
        # benign runs keep an identical check count and summary).
        failed = [
            t for t in result.transfers if getattr(t, "failed", False)
        ]
        total_lost = sum(
            getattr(metrics, "lost_bytes", 0.0)
            for metrics in result.per_site.values()
        )
        if failed or total_lost:
            self._check(
                "fault-accounting",
                self._eq(
                    total_lost,
                    sum(t.transfer.num_bytes for t in failed),
                    _ABS_TOL_BYTES,
                ),
                f"lost {total_lost:.3f} B but failed transfers carried "
                f"{sum(t.transfer.num_bytes for t in failed):.3f} B",
            )
        for site, metrics in result.per_site.items():
            if not getattr(metrics, "excluded", False):
                continue
            idle = (
                metrics.uploaded_bytes,
                metrics.downloaded_bytes,
                metrics.map_seconds,
                metrics.finish_time,
            )
            self._check(
                "fault-exclusion",
                all(value == 0.0 for value in idle),  # lint: allow[R004] — exact 0.0 contract for a site that sat out
                f"{site}: excluded by outage but still did work "
                f"(up={metrics.uploaded_bytes}, down={metrics.downloaded_bytes})",
            )

    def check_clock(self, previous: float, now: float, where: str = "wan") -> None:
        """The progressive-filling loop's clock must never run backwards."""
        self._check(
            "sim-clock",
            now + _ABS_TOL_SECONDS >= previous,
            f"{where}: clock moved backwards {previous} -> {now}",
        )

    def check_placement(self, problem, reduce_fractions, moves) -> None:
        """LP solution feasibility: fractions in [0,1] summing to 1; move
        budgets non-negative and within the source site's holdings."""
        total = 0.0
        for site, fraction in reduce_fractions.items():
            self._check(
                "lp-feasibility",
                -_REL_TOL <= fraction <= 1.0 + _REL_TOL,
                f"reduce fraction r[{site}] = {fraction} outside [0, 1]",
            )
            total += fraction
        self._check(
            "lp-feasibility",
            self._eq(total, 1.0, 1e-6),
            f"reduce fractions sum to {total}, expected 1",
        )
        outflow: dict = {}
        for (dataset, src, dst), budget in moves.items():
            self._check(
                "lp-feasibility",
                budget >= -_ABS_TOL_BYTES,
                f"negative move budget x[{dataset}][{src}->{dst}] = {budget}",
            )
            self._check(
                "lp-feasibility",
                src != dst,
                f"self-move x[{dataset}][{src}->{src}] = {budget}",
            )
            outflow[(dataset, src)] = outflow.get((dataset, src), 0.0) + budget
        for (dataset, src), moved in outflow.items():
            held = problem.I(dataset, src)
            self._check(
                "lp-capacity",
                self._le(moved, held, _ABS_TOL_BYTES),
                f"{dataset}: {src} moves out {moved:.3f} B but holds only "
                f"{held:.3f} B",
            )

    def check_movement(self, movement, lag_seconds: float) -> None:
        """Executed movement respects the lag window it claims to fit."""
        if movement is None:
            return
        self._check(
            "movement-lag",
            0.0 < movement.scale_factor <= 1.0 + _REL_TOL,
            f"movement scale factor {movement.scale_factor} outside (0, 1]",
        )
        if movement.within_lag:
            self._check(
                "movement-lag",
                self._le(movement.makespan_seconds, lag_seconds * 1.0001, 0.0),
                f"movement claims to fit the lag but took "
                f"{movement.makespan_seconds}s > T={lag_seconds}s",
            )
        for (dataset, src, dst), moved in movement.moved_bytes.items():
            self._check(
                "movement-lag",
                moved >= 0.0,
                f"negative moved bytes for {dataset} {src}->{dst}: {moved}",
            )

    def check_retry_outcome(self, outcome, policy) -> None:
        """Retry-loop conservation: every requested byte is either
        delivered or accounted as abandoned, attempts respect the policy
        budget, and the clock never runs backwards across backoffs."""
        self._check(
            "retry-conservation",
            self._eq(
                outcome.delivered_bytes + outcome.abandoned_bytes,
                outcome.requested_bytes,
                _ABS_TOL_BYTES,
            ),
            f"delivered {outcome.delivered_bytes:.3f} B + abandoned "
            f"{outcome.abandoned_bytes:.3f} B != requested "
            f"{outcome.requested_bytes:.3f} B",
        )
        expected_retries = sum(
            result.attempts - 1 for result in outcome.results
        )
        self._check(
            "retry-conservation",
            outcome.retries == expected_retries,
            f"retry counter {outcome.retries} != extra attempts "
            f"{expected_retries}",
        )
        failed_count = sum(1 for result in outcome.results if result.failed)
        self._check(
            "retry-conservation",
            len(outcome.abandoned) == failed_count,
            f"{failed_count} failed results but {len(outcome.abandoned)} "
            f"recorded as abandoned",
        )
        for result in outcome.results:
            label = f"{result.transfer.src}->{result.transfer.dst}"
            self._check(
                "retry-budget",
                1 <= result.attempts <= policy.max_attempts,
                f"transfer {label} used {result.attempts} attempts with a "
                f"budget of {policy.max_attempts}",
            )
            if result.failed:
                self._check(
                    "retry-budget",
                    result.attempts == policy.max_attempts,
                    f"transfer {label} abandoned after {result.attempts} "
                    f"attempts with budget {policy.max_attempts} left unspent",
                )
            self._check(
                "sim-clock",
                self._le(
                    result.transfer.start_time,
                    result.finish_time,
                    _ABS_TOL_SECONDS,
                ),
                f"transfer {label} finished at {result.finish_time} before "
                f"its original submission {result.transfer.start_time}",
            )

    def check_critical_path(self, path) -> None:
        """A reconstructed serve-query path conserves its QCT.

        Every component is an interval between two event timestamps, so
        the decomposition must telescope: non-negative components whose
        sum matches the reported QCT within the sim-clock tolerance.
        """
        for name, value in zip(
            (
                "queue_wait",
                "slot_wait",
                "map_seconds",
                "wan_serial",
                "wan_contention",
                "reduce_seconds",
                "cached_seconds",
            ),
            path.components,
        ):
            self._check(
                "critpath-conservation",
                value >= -_ABS_TOL_SECONDS,
                f"q{path.index}: negative path component {name}={value}",
            )
        self._check(
            "critpath-conservation",
            abs(path.total - path.qct) <= _ABS_TOL_SECONDS,
            f"q{path.index}: components sum to {path.total} but "
            f"qct is {path.qct} (residual {path.total - path.qct:+.3e})",
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        status = "OK" if not self.violations else "FAILED"
        lines = [
            f"sanitizer {status}: {self.checks_run} invariant checks, "
            f"{len(self.violations)} violations"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


def iter_violations(sanitizers: Iterable[Sanitizer]) -> List[str]:
    """Flatten violations across sanitizers (multi-run helpers/tests)."""
    collected: List[str] = []
    for sanitizer in sanitizers:
        collected.extend(sanitizer.violations)
    return collected
