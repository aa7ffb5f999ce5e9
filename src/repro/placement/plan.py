"""Executing a placement decision against real shards.

The LP decides *how many* bytes move between sites; this module decides
*which records* those bytes are — the heart of Bohr's contribution:

- ``MovementPolicy.SIMILARITY`` — move whole key-clusters whose keys
  already exist at the destination first (they are absorbed by the
  destination's combiner, Figure 1c), largest clusters first;
- ``MovementPolicy.RANDOM`` — similarity-agnostic random records, as all
  prior work does (Figure 1b).

Movement is simulated over the WAN; if the bandwidth estimates were
optimistic and the plan overshoots the lag window T, budgets are scaled
down and re-selected so movement always finishes within the lag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.runtime import RetryPolicy
from repro.placement.lp import Moves
from repro.types import DatasetCatalog, Key, Record, records_bytes
from repro.util.rng import derive_rng
from repro.wan.transfer import Transfer, TransferResult, TransferScheduler


class MovementPolicy(str, enum.Enum):
    """How records are picked to satisfy a byte budget."""

    SIMILARITY = "similarity"
    RANDOM = "random"


@dataclass
class PlacementPlan:
    """A decision bound to record-selection policy."""

    moves: Moves
    reduce_fractions: Dict[str, float]
    policy: MovementPolicy = MovementPolicy.SIMILARITY


@dataclass
class MovementReport:
    """What actually moved, and whether it fit in the lag window."""

    moved_bytes: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    moved_records: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    makespan_seconds: float = 0.0
    within_lag: bool = True
    scale_factor: float = 1.0
    transfers: List[TransferResult] = field(default_factory=list)
    #: Chaos accounting: transfer re-submissions and bytes whose moves
    #: were rolled back because the transfer exhausted its retry budget
    #: (those records stay at their source site).
    retries: int = 0
    abandoned_bytes: float = 0.0

    @property
    def total_moved_bytes(self) -> float:
        return sum(self.moved_bytes.values())

    @property
    def total_moved_records(self) -> int:
        return sum(self.moved_records.values())


def select_records(
    records: Sequence[Record],
    budget_bytes: float,
    key_indices: Sequence[int],
    policy: MovementPolicy,
    destination_keys: Set[Key],
    rng,
) -> List[Record]:
    """Pick records worth up to ``budget_bytes`` from a shard.

    Similarity policy moves whole clusters, destination-present keys
    first (largest first), so the source sheds entire keys and the
    destination absorbs them.  Random policy is the prior-work baseline.
    """
    if budget_bytes <= 0:
        return []
    if policy is MovementPolicy.RANDOM:
        order = list(rng.permutation(len(records)))
        chosen: List[Record] = []
        used = 0.0
        for index in order:
            record = records[index]
            if used + record.size_bytes > budget_bytes and chosen:
                break
            chosen.append(record)
            used += record.size_bytes
            if used >= budget_bytes:
                break
        return chosen

    clusters: Dict[Key, List[Record]] = {}
    for record in records:
        clusters.setdefault(record.key(key_indices), []).append(record)
    ordered = sorted(
        clusters.items(),
        key=lambda item: (
            0 if item[0] in destination_keys else 1,
            -records_bytes(item[1]),
            str(item[0]),
        ),
    )
    chosen = []
    used = 0.0
    for _key, members in ordered:
        for record in members:
            if used + record.size_bytes > budget_bytes and chosen:
                return chosen
            chosen.append(record)
            used += record.size_bytes
            if used >= budget_bytes:
                return chosen
    return chosen


def execute_plan(
    catalog: DatasetCatalog,
    plan: PlacementPlan,
    key_indices: Mapping[str, Sequence[int]],
    scheduler: TransferScheduler,
    lag_seconds: float,
    seed: int = 7,
    max_rescale_rounds: int = 3,
    retry_policy: "Optional[RetryPolicy]" = None,
) -> MovementReport:
    """Move records across shards per the plan, within the lag window.

    Mutates the catalog's datasets.  Selection happens against the
    pre-move shards, then a WAN simulation verifies the movement fits in
    ``lag_seconds``; on overshoot all budgets shrink proportionally and
    selection reruns (bounded retries), after which the moves are applied.

    With ``retry_policy`` (the failure-aware runtime), transfers run
    through :func:`repro.chaos.runtime.simulate_with_retries`: failed
    attempts back off and re-send, transfers that exhaust the budget are
    *rolled back* (their records stay at the source), and a movement
    that cannot fit the lag window even after rescaling proceeds with
    ``within_lag=False`` instead of raising — under injected faults an
    overshoot is an expected outcome to report, not a planner bug.
    """
    if lag_seconds <= 0:
        raise PlacementError("lag_seconds must be > 0")
    rng = derive_rng(seed, "plan-executor")

    scale = 1.0
    report = MovementReport()
    for round_index in range(max_rescale_rounds):
        selection = _select_all(catalog, plan, key_indices, scale, rng)
        transfers = [
            Transfer(src=src, dst=dst, num_bytes=_bytes_of(records), tag=dataset)
            for (dataset, src, dst), records in selection.items()
            if records
        ]
        outcome = None
        results: List[TransferResult] = []
        if retry_policy is not None and transfers:
            from repro.chaos.runtime import simulate_with_retries

            outcome = simulate_with_retries(scheduler, transfers, retry_policy)
            results = outcome.results
        elif transfers:
            results = scheduler.simulate(transfers)
        makespan = max((result.finish_time for result in results), default=0.0)
        last_round = round_index == max_rescale_rounds - 1
        fits = makespan <= lag_seconds * 1.0001
        if fits or not transfers or (retry_policy is not None and last_round):
            if outcome is not None:
                failed_moves = {
                    (result.transfer.tag, result.transfer.src, result.transfer.dst)
                    for result in results
                    if result.failed
                }
                retries = outcome.retries
                abandoned_bytes = outcome.abandoned_bytes
            else:
                failed_moves = set()
                retries = 0
                abandoned_bytes = 0.0
            report = MovementReport(
                makespan_seconds=makespan,
                within_lag=fits,
                scale_factor=scale,
                transfers=results,
                retries=retries,
                abandoned_bytes=abandoned_bytes,
            )
            for (dataset, src, dst), records in selection.items():
                if not records or (dataset, src, dst) in failed_moves:
                    continue
                catalog.get(dataset).move_records(src, dst, records)
                report.moved_bytes[(dataset, src, dst)] = _bytes_of(records)
                report.moved_records[(dataset, src, dst)] = len(records)
            return report
        scale *= lag_seconds / makespan
    raise PlacementError(
        f"could not fit data movement into lag window of {lag_seconds}s "
        f"after {max_rescale_rounds} rescaling rounds"
    )


def _select_all(
    catalog: DatasetCatalog,
    plan: PlacementPlan,
    key_indices: Mapping[str, Sequence[int]],
    scale: float,
    rng,
) -> Dict[Tuple[str, str, str], List[Record]]:
    selection: Dict[Tuple[str, str, str], List[Record]] = {}
    # Track records already claimed per (dataset, src) so overlapping
    # moves from one source never pick the same record twice.
    claimed: Dict[Tuple[str, str], Set[int]] = {}
    for (dataset_id, src, dst), budget in sorted(plan.moves.items()):
        dataset = catalog.get(dataset_id)
        indices = list(key_indices.get(dataset_id, ()))
        if not indices:
            raise PlacementError(f"no key indices registered for {dataset_id!r}")
        taken = claimed.setdefault((dataset_id, src), set())
        available = [
            record for record in dataset.shard(src) if id(record) not in taken
        ]
        destination_keys = {
            record.key(indices) for record in dataset.shard(dst)
        }
        records = select_records(
            available,
            budget * scale,
            indices,
            plan.policy,
            destination_keys,
            rng,
        )
        taken.update(id(record) for record in records)
        selection[(dataset_id, src, dst)] = records
    return selection


def _bytes_of(records: Sequence[Record]) -> float:
    return float(records_bytes(records))
