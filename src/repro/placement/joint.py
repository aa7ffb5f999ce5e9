"""Bohr's joint data and task placement (§5).

Alternates the two exact LPs of :mod:`repro.placement.lp` until the
shuffle-time bound t stops improving.  Each alternation step can only
lower (or keep) t, so the loop terminates; in practice two or three
rounds suffice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.placement.lp import (
    DataLp,
    Moves,
    shuffle_bytes_after_moves,
    solve_task_lp,
)
from repro.placement.model import PlacementProblem

#: Most alternation rounds from one start.
MAX_ROUNDS = 8
#: Smallest drop in t that counts as an improvement.
TOLERANCE = 1e-6


@dataclass
class PlacementDecision:
    """Outcome of a planning run (joint or heuristic)."""

    moves: Moves
    reduce_fractions: Dict[str, float]
    estimated_shuffle_seconds: float
    solve_seconds: float
    iterations: int = 1
    planner: str = ""
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def total_moved_bytes(self) -> float:
        return sum(self.moves.values())


class JointPlanner:
    """Similarity-aware joint data + task placement via alternating LPs."""

    def __init__(
        self,
        backend: str = "auto",
        heuristic_warm_start: bool = True,
    ) -> None:
        self.backend = backend
        # Alternation can stall in local optima of the bilinear objective;
        # seeding one start from the greedy heuristic's solution makes the
        # joint plan's LP objective t dominate the heuristic's by
        # construction.  Not its QCT: t is an estimate, and across seeds
        # it orders Bohr and Iridium-C as the simulator does only about
        # half the time (ROADMAP, the headline-claim item).
        self.heuristic_warm_start = heuristic_warm_start

    def plan(self, problem: PlacementProblem) -> PlacementDecision:
        """Multi-start alternating optimization.

        Alternation can stall at a fixed point of the bilinear objective
        (with r at the in-place optimum, no movement looks profitable even
        when jointly relocating data *and* tasks would win).  We therefore
        alternate from several task-placement starts — the in-place
        optimum, uniform, and one-hot at the best-connected sites — and
        keep the best (moves, fractions) pair found.
        """
        # Baseline candidate: no movement, optimal in-place task placement.
        in_place = shuffle_bytes_after_moves(problem, {})
        seed_fractions, best_t, seed_solution = solve_task_lp(
            in_place, problem, backend=self.backend
        )
        best_moves: Moves = {}
        best_fractions = dict(seed_fractions)
        solve_seconds = seed_solution.solve_seconds
        total_rounds = 0

        starts = self._starting_fractions(problem, seed_fractions)
        if self.heuristic_warm_start:
            from repro.placement.iridium import IridiumPlanner

            heuristic = IridiumPlanner(backend=self.backend).plan(problem)
            solve_seconds += heuristic.solve_seconds
            # The heuristic priced its moves similarity-blind; re-price
            # them under this problem's similarity model.
            volumes = shuffle_bytes_after_moves(problem, heuristic.moves)
            fractions_h, t_h, solution_h = solve_task_lp(
                volumes, problem, backend=self.backend
            )
            solve_seconds += solution_h.solve_seconds
            if t_h < best_t - TOLERANCE:
                best_t = t_h
                best_moves = heuristic.moves
                best_fractions = dict(fractions_h)
            starts.append(dict(fractions_h))

        data_lp = DataLp(problem)  # rows (3), (4) are all a round changes
        for start in starts:
            fractions = dict(start)
            previous_t = float("inf")
            for _ in range(MAX_ROUNDS):
                total_rounds += 1
                moves, _, data_solution = data_lp.solve(
                    fractions, backend=self.backend
                )
                solve_seconds += data_solution.solve_seconds
                volumes = shuffle_bytes_after_moves(problem, moves)
                fractions, t, task_solution = solve_task_lp(
                    volumes, problem, backend=self.backend
                )
                solve_seconds += task_solution.solve_seconds
                if t < best_t - TOLERANCE:
                    best_t = t
                    best_moves = moves
                    best_fractions = dict(fractions)
                if t >= previous_t - TOLERANCE:
                    break
                previous_t = t
        return PlacementDecision(
            moves=best_moves,
            reduce_fractions=best_fractions,
            estimated_shuffle_seconds=best_t,
            solve_seconds=solve_seconds,
            iterations=total_rounds,
            planner="joint-lp",
        )

    @staticmethod
    def _starting_fractions(
        problem: PlacementProblem, seed_fractions: Dict[str, float]
    ) -> "list[Dict[str, float]]":
        sites = problem.site_names
        uniform = {site: 1.0 / len(sites) for site in sites}
        starts = [dict(seed_fractions), uniform]
        # One-hot starts at the two best-connected sites: they pull both
        # data and tasks toward plentiful bandwidth.
        ranked = sorted(
            sites,
            key=lambda site: -min(problem.U(site), problem.D(site)),
        )
        for site in ranked[:2]:
            starts.append({name: (1.0 if name == site else 0.0) for name in sites})
        return starts
