"""Named chaos profiles: seed → deterministic :class:`FaultSchedule`.

A profile is a recipe for drawing fault windows over a topology from a
derived RNG stream (:func:`repro.util.rng.derive_rng`), so the same
``(profile, seed, topology)`` triple always yields the identical
schedule — the property the CI determinism check pins.

Profiles (roughly ordered by hostility):

``flaky-wan``
    Every site suffers a couple of bandwidth-collapse windows
    (multiplier 0.1–0.5) and one site a short blackout — the everyday
    WAN weather WANify measures.
``blackout``
    One site's links go completely dark for a mid-run window.
``site-outage``
    One site goes fully dark (links + runtime-visible death), which
    exercises degraded re-planning.
``stragglers``
    A third of the sites run 2–4× slower executors.
``lossy-tasks``
    A third of the sites lose one or two map-task waves to failures.
``havoc``
    All of the above at once.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.errors import FaultError
from repro.util.rng import derive_rng
from repro.wan.topology import WanTopology

#: All built-in profile names (CLI ``--chaos`` choices).
CHAOS_PROFILES = (
    "flaky-wan",
    "blackout",
    "site-outage",
    "stragglers",
    "lossy-tasks",
    "havoc",
)

#: Default simulated horizon the fault windows are drawn over; chosen to
#: cover both the movement lag window and the query shuffles that follow.
DEFAULT_HORIZON_SECONDS = 120.0


def build_schedule(
    profile: str,
    topology: WanTopology,
    seed: int = 13,
    horizon_seconds: float = DEFAULT_HORIZON_SECONDS,
) -> FaultSchedule:
    """Materialize a named profile over ``topology``."""
    if profile not in CHAOS_PROFILES:
        raise FaultError(
            f"unknown chaos profile {profile!r}; expected one of {CHAOS_PROFILES}"
        )
    if horizon_seconds <= 0:
        raise FaultError("horizon_seconds must be > 0")
    sites = topology.site_names
    if not sites:
        raise FaultError("topology has no sites to fault")
    builders = {
        "flaky-wan": _flaky_wan,
        "blackout": _blackout,
        "site-outage": _site_outage,
        "stragglers": _stragglers,
        "lossy-tasks": _lossy_tasks,
        "havoc": _havoc,
    }
    events = builders[profile](sites, seed, horizon_seconds)
    return FaultSchedule(events=tuple(events), name=profile, seed=seed)


# ----------------------------------------------------------------------
# recipe internals — every random draw goes through a labelled stream so
# adding a recipe never perturbs another recipe's schedule.
# ----------------------------------------------------------------------


def _window(rng, horizon: float, min_len: float, max_len: float) -> Tuple[float, float]:
    # Starts are biased into the first ~15% of the horizon: every query's
    # WAN simulation restarts its clock at 0 and typically finishes well
    # before the horizon, so late windows would never intersect anything.
    length = float(rng.uniform(min_len, max_len))
    cap = max(min(horizon - length, horizon * 0.15), 1e-3)
    start = float(rng.uniform(0.0, cap))
    return start, start + length


def _flaky_wan(sites, seed: int, horizon: float) -> List[FaultEvent]:
    events: List[FaultEvent] = []
    for site in sites:
        rng = derive_rng(seed, "chaos", "flaky-wan", site)
        for _ in range(int(rng.integers(1, 3))):
            start, end = _window(rng, horizon, horizon * 0.05, horizon * 0.2)
            events.append(
                FaultEvent(
                    kind="link-degrade",
                    site=site,
                    start=start,
                    end=end,
                    severity=float(rng.uniform(0.1, 0.5)),
                )
            )
    rng = derive_rng(seed, "chaos", "flaky-wan", "blackout-pick")
    victim = sites[int(rng.integers(0, len(sites)))]
    start, end = _window(rng, horizon, horizon * 0.02, horizon * 0.08)
    events.append(
        FaultEvent(kind="link-blackout", site=victim, start=start, end=end)
    )
    return events


def _blackout(sites, seed: int, horizon: float) -> List[FaultEvent]:
    rng = derive_rng(seed, "chaos", "blackout")
    victim = sites[int(rng.integers(0, len(sites)))]
    start, end = _window(rng, horizon, horizon * 0.15, horizon * 0.35)
    return [FaultEvent(kind="link-blackout", site=victim, start=start, end=end)]


def _site_outage(sites, seed: int, horizon: float) -> List[FaultEvent]:
    rng = derive_rng(seed, "chaos", "site-outage")
    victim = sites[int(rng.integers(0, len(sites)))]
    start = float(rng.uniform(0.0, horizon * 0.3))
    return [
        FaultEvent(kind="site-outage", site=victim, start=start, end=math.inf)
    ]


def _faulted_subset(sites, rng, fraction: float = 1.0 / 3.0) -> List[str]:
    count = max(1, int(round(len(sites) * fraction)))
    picked = rng.choice(len(sites), size=count, replace=False)
    return [sites[index] for index in sorted(int(i) for i in picked)]


def _stragglers(sites, seed: int, horizon: float) -> List[FaultEvent]:
    rng = derive_rng(seed, "chaos", "stragglers")
    return [
        FaultEvent(
            kind="straggler",
            site=site,
            start=0.0,
            end=horizon,
            severity=float(rng.uniform(2.0, 4.0)),
        )
        for site in _faulted_subset(sites, rng)
    ]


def _lossy_tasks(sites, seed: int, horizon: float) -> List[FaultEvent]:
    rng = derive_rng(seed, "chaos", "lossy-tasks")
    return [
        FaultEvent(
            kind="task-failure",
            site=site,
            start=0.0,
            end=horizon,
            severity=float(rng.integers(1, 3)),
        )
        for site in _faulted_subset(sites, rng)
    ]


def _havoc(sites, seed: int, horizon: float) -> List[FaultEvent]:
    events = _flaky_wan(sites, seed, horizon)
    events.extend(_stragglers(sites, seed, horizon))
    events.extend(_lossy_tasks(sites, seed, horizon))
    # One transfer-stall window on the flakiest-drawn site.
    rng = derive_rng(seed, "chaos", "havoc", "stall")
    victim = sites[int(rng.integers(0, len(sites)))]
    start, end = _window(rng, horizon, horizon * 0.02, horizon * 0.06)
    events.append(
        FaultEvent(kind="transfer-stall", site=victim, start=start, end=end)
    )
    return events
