"""The Iridium baseline [27]: separate task and data placement.

Iridium (a) solves task placement as an LP given the current data
layout, and (b) greedily moves chunks of "high-value" datasets out of the
bottleneck site, one dataset at a time, re-evaluating that LP's optimum
after each chunk — in contrast to Bohr's joint LP over all datasets at
once.

Two deliberate limitations, straight from §4.3:

- datasets move *sequentially* by heuristic value (query count times the
  data held at the bottleneck), not concurrently and optimally;
- the planner is similarity agnostic: it prices shuffle volume as
  :math:`I_i R^a` with no :math:`(1 - S)` factor and it does not care
  *which* records move.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.placement.joint import PlacementDecision
from repro.placement.lp import (
    Moves,
    shuffle_bytes_after_moves,
    solve_task_lp,
    task_lp_optimum,
)
from repro.placement.model import PlacementProblem

#: Share of a dataset's bottleneck bytes one greedy step moves.
CHUNK_FRACTION = 0.1
#: Greedy steps per dataset.
MAX_STEPS_PER_DATASET = 20
#: Chunks that leave t unchanged are kept for up to this many consecutive
#: steps: with tied bottlenecks, draining one site only pays off once its
#: twin has been drained too.
STALL_LIMIT = 3


class IridiumPlanner:
    """Greedy bottleneck-draining data placement + task-placement LP."""

    def __init__(self, backend: str = "auto") -> None:
        self.backend = backend

    def plan(
        self,
        problem: PlacementProblem,
        query_counts: Optional[Mapping[str, int]] = None,
    ) -> PlacementDecision:
        """Plan movements and task placement, similarity-blind."""
        query_counts = query_counts or {}
        blind = self._similarity_blind(problem)
        sites = blind.site_names

        moves: Moves = {}
        remaining = {
            (a, i): blind.I(a, i) for a in blind.dataset_ids for i in sites
        }
        up_budget = {i: blind.lag_seconds * blind.U(i) for i in sites}
        down_budget = {i: blind.lag_seconds * blind.D(i) for i in sites}
        # Shuffle volumes of ``moves`` as they stand, None once a revert or
        # roll-back has changed them: a committed chunk's price has already
        # computed what the next step's bottleneck reads.
        volumes: Optional[Dict[str, float]] = None

        def current_t() -> float:
            """t after the moves so far: the task LP's optimum, unsolved —
            only the final plan's fractions are read."""
            nonlocal volumes
            volumes = shuffle_bytes_after_moves(blind, moves)
            return task_lp_optimum(volumes, blind)

        # High-value first: more queries and more bottleneck data first.
        bottleneck = blind.bottleneck_site()
        ordered = sorted(
            blind.dataset_ids,
            key=lambda a: -(query_counts.get(a, 1) * blind.I(a, bottleneck)),
        )
        best_t = current_t()
        for dataset in ordered:
            stalled = 0
            committed_since_improvement: list = []
            for _ in range(MAX_STEPS_PER_DATASET):
                if volumes is None:
                    volumes = shuffle_bytes_after_moves(blind, moves)
                source = self._bottleneck(blind, volumes)
                available = remaining[(dataset, source)]
                if available <= 0:
                    break
                chunk = min(
                    available,
                    CHUNK_FRACTION * max(blind.I(dataset, source), available),
                    up_budget[source],
                )
                if chunk <= 1e-9:  # nothing meaningful left to move
                    break
                destination = self._best_destination(
                    blind, source, chunk, down_budget
                )
                if destination is None:
                    break
                key = (dataset, source, destination)
                moves[key] = moves.get(key, 0.0) + chunk
                candidate_t = current_t()
                # Ties are relative to t: an LP's t carries rounding that
                # grows with it (1.5e-9 on a t of 2.5e3 s has been seen).
                if candidate_t > best_t + 1e-9 * max(1.0, best_t):
                    # Strictly worse: revert and stop this dataset.
                    moves[key] -= chunk
                    if moves[key] <= 1e-9:
                        del moves[key]
                    volumes = None
                    break
                remaining[(dataset, source)] -= chunk
                up_budget[source] -= chunk
                down_budget[destination] -= chunk
                if candidate_t < best_t - 1e-9 * max(1.0, best_t):
                    best_t = candidate_t
                    stalled = 0
                    committed_since_improvement = []
                else:
                    stalled += 1
                    committed_since_improvement.append((key, chunk, source, destination))
                    if stalled >= STALL_LIMIT:
                        # The speculative chunks never paid off: roll back.
                        for spec_key, spec_chunk, src, dst in committed_since_improvement:
                            residual = moves.get(spec_key, 0.0) - spec_chunk
                            if residual <= 1e-9:
                                moves.pop(spec_key, None)
                            else:
                                moves[spec_key] = residual
                            remaining[(dataset, src)] += spec_chunk
                            up_budget[src] += spec_chunk
                            down_budget[dst] += spec_chunk
                        volumes = None
                        break

        if volumes is None:
            volumes = shuffle_bytes_after_moves(blind, moves)
        fractions, t, solution = solve_task_lp(volumes, blind, backend=self.backend)
        return PlacementDecision(
            moves=moves,
            reduce_fractions=fractions,
            estimated_shuffle_seconds=t,
            solve_seconds=solution.solve_seconds,
            planner="iridium",
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _similarity_blind(problem: PlacementProblem) -> PlacementProblem:
        """A copy of the problem with all similarity knowledge removed."""
        return PlacementProblem(
            topology=problem.topology,
            input_bytes=problem.input_bytes,
            reduction_ratio=problem.reduction_ratio,
            similarity={},
            lag_seconds=problem.lag_seconds,
            mobility={},
            cross_similarity={},
            compute_bps=dict(problem.compute_bps),
        )

    @staticmethod
    def _bottleneck(problem: PlacementProblem, volumes: Mapping[str, float]) -> str:
        return max(
            problem.site_names, key=lambda site: volumes[site] / problem.U(site)
        )

    def _best_destination(
        self,
        problem: PlacementProblem,
        source: str,
        chunk: float,
        down_budget: Mapping[str, float],
    ) -> Optional[str]:
        """Site with the most spare uplink headroom that can absorb it."""
        candidates = [
            site
            for site in problem.site_names
            if site != source and down_budget[site] >= chunk
        ]
        if not candidates:
            return None
        return max(candidates, key=problem.U)
