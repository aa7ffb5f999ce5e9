"""Benchmark case registry and the harness-owned seed.

A *case* is one named measurement: a callable returning the metrics of
one figure/table/ablation reproduction, split by clock::

    @register_bench("fig06-qct-random", suites=("figures", "smoke"))
    def case():
        result = run_scheme("bohr", "tpcds")
        return {
            "sim": {"qct.bohr.tpcds": result.mean_qct},
            "wall": {"lp_seconds.tpcds": result.prep.lp_solve_seconds},
        }

``sim`` metrics live on the simulated clock — deterministic for a pinned
seed, gated with a tight tolerance.  ``wall`` metrics are host-machine
timings — gated loosely.  All metrics are lower-is-better by convention
(record ``wan_bytes``, not "reduction %").

The harness owns the seed: scripts call :func:`bench_seed` instead of
hard-coding constants (lint rule R007 enforces this for ``benchmarks/``),
so ``repro bench --seed N`` re-runs the whole suite under a different
randomness universe.  ``REPRO_BENCH_SEED`` overrides the default for
plain ``pytest benchmarks`` runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import BenchError

#: Metrics returned by a case: {"sim": {...}, "wall": {...}}.
CaseMetrics = Mapping[str, Mapping[str, float]]
CaseFn = Callable[[], CaseMetrics]

#: The seed every benchmark derives from unless the harness overrides it.
DEFAULT_SEED = 11

_METRIC_KINDS = ("sim", "wall")

_active_seed: Optional[int] = None


def bench_seed() -> int:
    """The harness-pinned seed (``REPRO_BENCH_SEED`` or 11 by default)."""
    if _active_seed is not None:
        return _active_seed
    env = os.environ.get("REPRO_BENCH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BenchError(
                f"REPRO_BENCH_SEED={env!r} is not an integer"
            ) from None
    return DEFAULT_SEED


def set_bench_seed(seed: Optional[int]) -> None:
    """Pin (or with ``None`` unpin) the seed benchmarks derive from."""
    global _active_seed
    _active_seed = None if seed is None else int(seed)


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark measurement."""

    name: str
    fn: CaseFn
    suites: Tuple[str, ...]
    module: str = ""
    description: str = ""

    def collect(self) -> Dict[str, Dict[str, float]]:
        """Run the case and validate/normalize its metrics."""
        raw = self.fn()
        if not isinstance(raw, Mapping):
            raise BenchError(
                f"case {self.name!r} returned {type(raw).__name__}, "
                "expected a mapping with 'sim'/'wall' metric groups"
            )
        unknown = set(raw) - set(_METRIC_KINDS)
        if unknown:
            raise BenchError(
                f"case {self.name!r} returned unknown metric groups "
                f"{sorted(unknown)}; allowed: {_METRIC_KINDS}"
            )
        metrics: Dict[str, Dict[str, float]] = {}
        for kind in _METRIC_KINDS:
            group = raw.get(kind, {})
            metrics[kind] = {}
            for key, value in group.items():
                try:
                    metrics[kind][str(key)] = float(value)
                except (TypeError, ValueError):
                    raise BenchError(
                        f"case {self.name!r} metric {kind}.{key} is not "
                        f"numeric: {value!r}"
                    ) from None
        if not metrics["sim"] and not metrics["wall"]:
            raise BenchError(f"case {self.name!r} returned no metrics")
        return metrics


_CASES: Dict[str, BenchCase] = {}
_RESET_HOOKS: List[Callable[[], None]] = []


def register_bench(
    name: str,
    suites: Tuple[str, ...] = (),
    description: str = "",
) -> Callable[[CaseFn], CaseFn]:
    """Decorator registering one benchmark case under ``name``."""

    def decorate(fn: CaseFn) -> CaseFn:
        if name in _CASES:
            raise BenchError(f"duplicate benchmark case {name!r}")
        _CASES[name] = BenchCase(
            name=name,
            fn=fn,
            suites=tuple(suites),
            module=getattr(fn, "__module__", ""),
            description=description or (fn.__doc__ or "").strip(),
        )
        return fn

    return decorate


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Register a cache-clearing hook the harness calls before each
    timed repetition, so every case is measured cold."""
    if hook not in _RESET_HOOKS:
        _RESET_HOOKS.append(hook)


def reset_caches() -> None:
    """Invoke every registered reset hook."""
    for hook in _RESET_HOOKS:
        hook()


def all_cases() -> List[BenchCase]:
    """Every registered case, name-sorted (registration-order agnostic)."""
    return [_CASES[name] for name in sorted(_CASES)]


def cases_for(suite: str) -> List[BenchCase]:
    """Cases belonging to ``suite`` (``full`` selects everything)."""
    if suite == "full":
        return all_cases()
    selected = [case for case in all_cases() if suite in case.suites]
    if not selected:
        raise BenchError(
            f"suite {suite!r} selected no cases; known suites: "
            f"{sorted({name for case in all_cases() for name in case.suites})}"
        )
    return selected


def clear_registry() -> None:
    """Drop all registered cases and hooks (test isolation only)."""
    _CASES.clear()
    _RESET_HOOKS.clear()
