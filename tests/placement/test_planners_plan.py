"""Joint planner, Iridium planner, and plan executor tests."""

import pytest

from repro.errors import PlacementError
from repro.placement.iridium import IridiumPlanner
from repro.placement.joint import MAX_ROUNDS, JointPlanner
from repro.placement.model import PlacementProblem
from repro.placement.plan import (
    MovementPolicy,
    PlacementPlan,
    execute_plan,
    select_records,
)
from repro.types import DatasetCatalog, GeoDataset, Record, Schema
from repro.util.rng import derive_rng
from repro.wan.topology import Site, WanTopology
from repro.wan.transfer import TransferScheduler

SCHEMA = Schema.of("url", "score", kinds={"score": "numeric"})


def make_problem(similarity=None, lag=100.0):
    topology = WanTopology.from_sites(
        [
            Site("slow", uplink_bps=10.0, downlink_bps=10.0),
            Site("fast", uplink_bps=100.0, downlink_bps=100.0),
        ]
    )
    return PlacementProblem(
        topology=topology,
        input_bytes={"d": {"slow": 1000.0, "fast": 100.0}},
        reduction_ratio={"d": 1.0},
        similarity=similarity or {},
        lag_seconds=lag,
    )


def contended_problem(similarity=None, lag=500.0):
    """Two heavy slow sites competing for reduce tasks + one fast site.

    With one heavy site, parking reduce tasks at the data is optimal and
    no movement helps; with two, the reduce fractions compete and moving
    data toward the fast site genuinely lowers the shuffle time — the
    regime Iridium and Bohr are designed for.
    """
    topology = WanTopology.from_sites(
        [
            Site("slow1", uplink_bps=10.0, downlink_bps=10.0),
            Site("slow2", uplink_bps=10.0, downlink_bps=10.0),
            Site("fast", uplink_bps=1000.0, downlink_bps=1000.0),
        ]
    )
    return PlacementProblem(
        topology=topology,
        input_bytes={"d": {"slow1": 1000.0, "slow2": 1000.0, "fast": 100.0}},
        reduction_ratio={"d": 1.0},
        similarity=similarity or {},
        lag_seconds=lag,
    )


class TestJointPlanner:
    def test_never_worse_than_in_place(self):
        problem = make_problem()
        decision = JointPlanner().plan(problem)
        from repro.placement.lp import solve_task_lp

        _, t_inplace, _ = solve_task_lp({"slow": 1000.0, "fast": 100.0}, problem)
        assert decision.estimated_shuffle_seconds <= t_inplace + 1e-9
        assert decision.planner == "joint-lp"
        assert decision.solve_seconds > 0

    def test_moves_data_under_contention(self):
        problem = contended_problem()
        decision = JointPlanner().plan(problem)
        from repro.placement.lp import solve_task_lp, shuffle_bytes_after_moves

        _, t_inplace, _ = solve_task_lp(
            shuffle_bytes_after_moves(problem, {}), problem
        )
        assert decision.total_moved_bytes > 0
        assert decision.estimated_shuffle_seconds < t_inplace - 1e-6

    def test_fractions_sum_to_one(self):
        decision = JointPlanner().plan(make_problem())
        assert sum(decision.reduce_fractions.values()) == pytest.approx(1.0)

    def test_converges_quickly(self):
        # Total alternation rounds are bounded by MAX_ROUNDS per start
        # (in-place seed, uniform, two one-hot, heuristic warm start).
        decision = JointPlanner().plan(make_problem())
        assert decision.iterations <= MAX_ROUNDS * 5

    def test_dominates_heuristic_by_construction(self):
        from repro.placement.iridium import IridiumPlanner

        for problem in (make_problem(), contended_problem()):
            heuristic = IridiumPlanner().plan(problem)
            joint = JointPlanner(heuristic_warm_start=True).plan(problem)
            assert (
                joint.estimated_shuffle_seconds
                <= heuristic.estimated_shuffle_seconds + 1e-6
            )

    def test_similarity_shifts_value(self):
        # When the receiving site combines well, moving there is better.
        blind = JointPlanner().plan(make_problem())
        aware = JointPlanner().plan(
            make_problem(similarity={"d": {"slow": 0.1, "fast": 0.8}})
        )
        assert (
            aware.estimated_shuffle_seconds <= blind.estimated_shuffle_seconds + 1e-9
        )


class TestIridiumPlanner:
    def test_moves_out_of_bottleneck_under_contention(self):
        decision = IridiumPlanner().plan(contended_problem())
        assert decision.planner == "iridium"
        moved_from_slow = sum(
            volume
            for (d, src, dst), volume in decision.moves.items()
            if src.startswith("slow")
        )
        assert moved_from_slow > 0

    def test_keeps_data_when_movement_cannot_help(self):
        # Single heavy site: parking reduce tasks at the data is optimal,
        # so greedy chunks never improve t and nothing moves.
        decision = IridiumPlanner().plan(make_problem())
        assert decision.total_moved_bytes == 0.0

    def test_similarity_is_ignored(self):
        # Identical decisions with and without similarity info.
        blind = IridiumPlanner().plan(make_problem())
        aware = IridiumPlanner().plan(
            make_problem(similarity={"d": {"slow": 0.5, "fast": 0.5}})
        )
        assert blind.moves == aware.moves

    def test_joint_at_least_as_good_as_iridium(self):
        for problem in (make_problem(), contended_problem()):
            iridium = IridiumPlanner().plan(problem)
            joint = JointPlanner().plan(problem)
            assert (
                joint.estimated_shuffle_seconds
                <= iridium.estimated_shuffle_seconds + 1e-6
            )

    def test_query_counts_order_datasets(self):
        topology = make_problem().topology
        problem = PlacementProblem(
            topology=topology,
            input_bytes={
                "hot": {"slow": 500.0, "fast": 0.0},
                "cold": {"slow": 500.0, "fast": 0.0},
            },
            reduction_ratio={"hot": 1.0, "cold": 1.0},
            similarity={},
            lag_seconds=100.0,
        )
        decision = IridiumPlanner().plan(problem, query_counts={"hot": 10, "cold": 1})
        hot_moved = sum(
            v for (d, s, t), v in decision.moves.items() if d == "hot"
        )
        cold_moved = sum(
            v for (d, s, t), v in decision.moves.items() if d == "cold"
        )
        assert hot_moved >= cold_moved


def make_catalog(slow_keys, fast_keys):
    catalog = DatasetCatalog()
    dataset = GeoDataset("d", SCHEMA)
    dataset.add_records("slow", [Record((k, 1), size_bytes=10) for k in slow_keys])
    dataset.add_records("fast", [Record((k, 1), size_bytes=10) for k in fast_keys])
    catalog.add(dataset)
    return catalog


class TestSelectRecords:
    def test_similarity_prefers_destination_keys(self):
        records = [Record((k, 1), size_bytes=10) for k in ["x", "y", "a", "a"]]
        rng = derive_rng(1, "test")
        chosen = select_records(
            records, 20.0, [0], MovementPolicy.SIMILARITY, {("a",)}, rng
        )
        assert all(record.values[0] == "a" for record in chosen)

    def test_similarity_moves_whole_clusters_largest_first(self):
        records = [Record((k, 1), size_bytes=10) for k in ["a", "b", "b", "b"]]
        rng = derive_rng(1, "test")
        chosen = select_records(
            records, 30.0, [0], MovementPolicy.SIMILARITY, set(), rng
        )
        assert [record.values[0] for record in chosen] == ["b", "b", "b"]

    def test_random_respects_budget(self):
        records = [Record((str(i), 1), size_bytes=10) for i in range(20)]
        rng = derive_rng(2, "test")
        chosen = select_records(records, 55.0, [0], MovementPolicy.RANDOM, set(), rng)
        assert sum(record.size_bytes for record in chosen) <= 60
        assert len(chosen) >= 5

    def test_zero_budget(self):
        rng = derive_rng(1, "t")
        assert select_records([Record(("a", 1))], 0.0, [0], MovementPolicy.RANDOM, set(), rng) == []


class TestExecutePlan:
    def make_scheduler(self):
        topology = make_problem().topology
        return TransferScheduler(topology)

    def test_moves_applied(self):
        catalog = make_catalog(["a"] * 10, ["a"] * 2)
        plan = PlacementPlan(
            moves={("d", "slow", "fast"): 50.0},
            reduce_fractions={"slow": 0.5, "fast": 0.5},
            policy=MovementPolicy.SIMILARITY,
        )
        report = execute_plan(
            catalog, plan, {"d": [0]}, self.make_scheduler(), lag_seconds=100.0
        )
        assert report.total_moved_bytes == 50.0
        assert report.total_moved_records == 5
        assert report.within_lag
        dataset = catalog.get("d")
        assert len(dataset.shard("slow")) == 5
        assert len(dataset.shard("fast")) == 7

    def test_lag_overshoot_rescales(self):
        catalog = make_catalog(["a"] * 100, [])
        plan = PlacementPlan(
            moves={("d", "slow", "fast"): 1000.0},
            reduce_fractions={"slow": 1.0},
        )
        # Uplink 10 B/s, lag 10s -> at most ~100 bytes can move.
        report = execute_plan(
            catalog, plan, {"d": [0]}, self.make_scheduler(), lag_seconds=10.0
        )
        assert report.within_lag
        assert report.scale_factor < 1.0
        assert report.total_moved_bytes <= 110.0

    def test_missing_key_indices(self):
        catalog = make_catalog(["a"], [])
        plan = PlacementPlan(moves={("d", "slow", "fast"): 10.0}, reduce_fractions={})
        with pytest.raises(PlacementError):
            execute_plan(catalog, plan, {}, self.make_scheduler(), lag_seconds=10.0)

    def test_bad_lag(self):
        catalog = make_catalog(["a"], [])
        plan = PlacementPlan(moves={}, reduce_fractions={})
        with pytest.raises(PlacementError):
            execute_plan(catalog, plan, {"d": [0]}, self.make_scheduler(), lag_seconds=0.0)

    def test_empty_moves(self):
        catalog = make_catalog(["a"], [])
        plan = PlacementPlan(moves={}, reduce_fractions={})
        report = execute_plan(
            catalog, plan, {"d": [0]}, self.make_scheduler(), lag_seconds=10.0
        )
        assert report.total_moved_bytes == 0.0
        assert report.makespan_seconds == 0.0

    def test_overlapping_moves_never_double_claim(self):
        catalog = make_catalog(["a"] * 4, [])
        # Two moves from the same source, combined demand > available.
        topology = WanTopology.from_sites(
            [Site("slow", 1e6, 1e6), Site("fast", 1e6, 1e6), Site("third", 1e6, 1e6)]
        )
        plan = PlacementPlan(
            moves={("d", "slow", "fast"): 30.0, ("d", "slow", "third"): 30.0},
            reduce_fractions={},
        )
        report = execute_plan(
            catalog, plan, {"d": [0]}, TransferScheduler(topology), lag_seconds=100.0
        )
        assert report.total_moved_records <= 4
        assert len(catalog.get("d").shard("slow")) + report.total_moved_records == 4
