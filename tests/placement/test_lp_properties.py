"""Property-based tests over random placement problems.

Hypothesis generates random topologies/datasets; the LPs must always
return feasible, constraint-satisfying, and mutually consistent
solutions.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.placement.baselines import InPlacePlanner, evaluate_shuffle_time
from repro.placement.joint import JointPlanner
from repro.placement.lp import (
    shuffle_bytes_after_moves,
    solve_data_lp,
    solve_task_lp,
)
from repro.placement.model import PlacementProblem
from repro.wan.topology import Site, WanTopology


@st.composite
def placement_problems(draw):
    num_sites = draw(st.integers(min_value=2, max_value=4))
    num_datasets = draw(st.integers(min_value=1, max_value=3))
    sites = [
        Site(
            name=f"s{i}",
            uplink_bps=draw(st.floats(min_value=1.0, max_value=1000.0)),
            downlink_bps=draw(st.floats(min_value=1.0, max_value=1000.0)),
        )
        for i in range(num_sites)
    ]
    topology = WanTopology.from_sites(sites)
    input_bytes = {
        f"d{a}": {
            f"s{i}": draw(st.floats(min_value=0.0, max_value=10_000.0))
            for i in range(num_sites)
        }
        for a in range(num_datasets)
    }
    reduction = {
        f"d{a}": draw(st.floats(min_value=0.05, max_value=1.0))
        for a in range(num_datasets)
    }
    similarity = {
        f"d{a}": {
            f"s{i}": draw(st.floats(min_value=0.0, max_value=0.95))
            for i in range(num_sites)
        }
        for a in range(num_datasets)
    }
    lag = draw(st.floats(min_value=1.0, max_value=100.0))
    return PlacementProblem(
        topology=topology,
        input_bytes=input_bytes,
        reduction_ratio=reduction,
        similarity=similarity,
        lag_seconds=lag,
    )


#: Volumes of 1e-5..1e-4 bytes: HiGHS's ``t`` lands 8e-8 s off the
#: evaluated shuffle time, inside its feasibility tolerance.
TINY_VOLUMES = PlacementProblem(
    topology=WanTopology.from_sites([
        Site(name="s0", uplink_bps=5.0, downlink_bps=1000.0),
        Site(name="s1", uplink_bps=1000.0, downlink_bps=1.0),
    ]),
    input_bytes={"d0": {"s0": 1e-4, "s1": 2e-5}},
    reduction_ratio={"d0": 1.0},
    similarity={"d0": {"s0": 0.0, "s1": 0.0}},
    lag_seconds=1.0,
)


class TestTaskLpProperties:
    @settings(max_examples=25, deadline=None)
    @given(problem=placement_problems())
    def test_fractions_form_distribution(self, problem):
        volumes = {s: problem.total_input_at(s) for s in problem.site_names}
        fractions, t, _ = solve_task_lp(volumes, problem)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(value >= -1e-9 for value in fractions.values())
        assert t >= -1e-9

    @settings(max_examples=25, deadline=None)
    @given(problem=placement_problems())
    @example(problem=TINY_VOLUMES)
    def test_t_matches_evaluation_at_optimum(self, problem):
        volumes = {s: problem.total_input_at(s) for s in problem.site_names}
        fractions, t, _ = solve_task_lp(volumes, problem)
        # Build a problem whose in-place volumes equal `volumes` exactly
        # (R=1, S=0) so evaluate_shuffle_time sees the same f_i.
        flat = PlacementProblem(
            topology=problem.topology,
            input_bytes={"d": dict(volumes)},
            reduction_ratio={"d": 1.0},
            similarity={},
            lag_seconds=problem.lag_seconds,
        )
        # abs: HiGHS's documented primal feasibility tolerance (1e-7), the
        # slack its optimum may leave in a constraint row.
        assert evaluate_shuffle_time(flat, {}, fractions) == pytest.approx(
            t, rel=1e-6, abs=1e-7
        )


class TestDataLpProperties:
    @settings(max_examples=20, deadline=None)
    @given(problem=placement_problems())
    def test_moves_respect_budgets_and_holdings(self, problem):
        fractions = {s: 1.0 / len(problem.site_names) for s in problem.site_names}
        moves, t, _ = solve_data_lp(problem, fractions)
        assert t >= -1e-9
        for site in problem.site_names:
            out_bytes = sum(
                v for (a, src, dst), v in moves.items() if src == site
            )
            in_bytes = sum(
                v for (a, src, dst), v in moves.items() if dst == site
            )
            assert out_bytes <= problem.lag_seconds * problem.U(site) + 1e-6
            assert in_bytes <= problem.lag_seconds * problem.D(site) + 1e-6
            for a in problem.dataset_ids:
                moved = sum(
                    v for (d, src, dst), v in moves.items()
                    if d == a and src == site
                )
                assert moved <= problem.I(a, site) + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(problem=placement_problems())
    def test_shuffle_volumes_never_negative(self, problem):
        fractions = {s: 1.0 / len(problem.site_names) for s in problem.site_names}
        moves, _, _ = solve_data_lp(problem, fractions)
        volumes = shuffle_bytes_after_moves(problem, moves)
        for site, volume in volumes.items():
            assert volume >= -1e-6


class TestJointProperties:
    @settings(max_examples=10, deadline=None)
    @given(problem=placement_problems())
    def test_joint_dominates_in_place(self, problem):
        in_place = InPlacePlanner().plan(problem)
        joint = JointPlanner().plan(problem)
        assert (
            joint.estimated_shuffle_seconds
            <= in_place.estimated_shuffle_seconds + 1e-6
        )

    @settings(max_examples=10, deadline=None)
    @given(problem=placement_problems())
    def test_joint_fractions_valid(self, problem):
        decision = JointPlanner().plan(problem)
        assert sum(decision.reduce_fractions.values()) == pytest.approx(1.0)
        assert all(v >= -1e-9 for v in decision.reduce_fractions.values())
