"""Warm-started simplex: basis crash, fallback, and the degraded-replan
wiring through solver → task LP → joint planner → controller.

A warm start is a solver-level hint only: it may skip phase 1 when the
incumbent basis is still feasible, but it must never change the optimum
or (at the planner level) which alternation starts are explored.
"""

import numpy as np
import pytest

from repro.placement.joint import JointPlanner
from repro.placement.lp import solve_task_lp
from repro.placement.model import PlacementProblem
from repro.placement.simplex import simplex_solve
from repro.placement.solver import LinearProgram, solve_lp
from repro.systems.base import SystemConfig
from repro.systems.registry import make_system
from repro.wan.presets import uniform_sites
from repro.wan.topology import Site, WanTopology
from repro.workloads.base import WorkloadSpec
from repro.workloads.bigdata import bigdata_workload

# min x + 2y s.t. x + y = 1: the equality row forces an artificial
# variable, so a cold solve must run phase 1.
EQ_C = np.array([1.0, 2.0])
EQ_A = np.array([[1.0, 1.0]])
EQ_B = np.array([1.0])


def three_site_problem():
    topology = WanTopology.from_sites(
        [
            Site("a", uplink_bps=10.0, downlink_bps=10.0),
            Site("b", uplink_bps=100.0, downlink_bps=100.0),
            Site("c", uplink_bps=50.0, downlink_bps=50.0),
        ]
    )
    return PlacementProblem(
        topology=topology,
        input_bytes={"d": {"a": 1000.0, "b": 100.0, "c": 400.0}},
        reduction_ratio={"d": 1.0},
        similarity={"d": {"a": 0.2, "b": 0.0, "c": 0.1}},
        lag_seconds=100.0,
    )


class TestSimplexWarmStart:
    def test_warm_basis_skips_phase_one_same_optimum(self):
        cold = simplex_solve(c=EQ_C, a_eq=EQ_A, b_eq=EQ_B)
        assert cold.ok and not cold.warm_started
        assert cold.basis_columns
        warm = simplex_solve(
            c=EQ_C, a_eq=EQ_A, b_eq=EQ_B, warm_columns=cold.basis_columns
        )
        assert warm.ok and warm.warm_started
        assert warm.objective == cold.objective  # lint: allow[R004]
        assert np.array_equal(warm.x, cold.x)
        # Phase 1 was skipped: the warm solve needs no more pivots than
        # the cold one spent in phase 2 alone.
        assert warm.iterations <= cold.iterations

    def test_unusable_hint_falls_back_to_cold_path(self):
        cold = simplex_solve(c=EQ_C, a_eq=EQ_A, b_eq=EQ_B)
        for junk in ([999], [-3], []):
            warm = simplex_solve(
                c=EQ_C, a_eq=EQ_A, b_eq=EQ_B, warm_columns=junk
            )
            assert warm.ok
            assert warm.objective == cold.objective  # lint: allow[R004]
            assert np.array_equal(warm.x, cold.x)

    def test_inequality_only_problem_accepts_warm_hint(self):
        kwargs = dict(
            c=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            b_ub=np.array([4.0, 3.0, 2.0]),
        )
        cold = simplex_solve(**kwargs)
        warm = simplex_solve(**kwargs, warm_columns=cold.basis_columns)
        assert warm.ok
        assert warm.objective == pytest.approx(cold.objective)


class TestSolveLpWarmNames:
    def program(self):
        return LinearProgram(
            c=EQ_C, a_eq=EQ_A, b_eq=EQ_B, variable_names=["x", "y"]
        )

    def test_simplex_backend_round_trips_basis_names(self):
        cold = solve_lp(self.program(), backend="simplex")
        assert cold.basis_names and not cold.warm_started
        warm = solve_lp(
            self.program(), backend="simplex", warm_names=cold.basis_names
        )
        assert warm.warm_started
        assert np.array_equal(warm.x, cold.x)

    def test_unknown_names_ignored(self):
        warm = solve_lp(
            self.program(),
            backend="simplex",
            warm_names=["no-such-var", "also-missing"],
        )
        assert warm.objective == pytest.approx(1.0)

    def test_scipy_backend_treats_hint_as_noop(self):
        pytest.importorskip("scipy")
        cold = solve_lp(self.program(), backend="scipy")
        warm = solve_lp(
            self.program(), backend="scipy", warm_names=["x", "y"]
        )
        assert not warm.warm_started
        assert np.array_equal(warm.x, cold.x)
        # The scipy backend reports the solution support as basis_names.
        assert set(cold.basis_names) <= {"x", "y"}


class TestTaskLpWarmStart:
    def test_warm_names_do_not_move_the_optimum(self):
        problem = three_site_problem()
        volumes = {"a": 800.0, "b": 100.0, "c": 300.0}
        fractions, t, solution = solve_task_lp(
            volumes, problem, backend="simplex"
        )
        warm_fractions, warm_t, warm_solution = solve_task_lp(
            volumes,
            problem,
            backend="simplex",
            warm_names=solution.basis_names,
        )
        # Warm and cold may pivot in different orders, so agreement is
        # to optimum (not bit-for-bit) — benches use the scipy backend,
        # where the hint is a no-op and nothing changes at all.
        assert warm_solution.warm_started
        assert warm_t == pytest.approx(t)
        for site in fractions:
            assert warm_fractions[site] == pytest.approx(fractions[site])

    def test_joint_planner_decision_identical_with_warm_hint(self):
        problem = three_site_problem()
        planner = JointPlanner(backend="simplex")
        baseline = planner.plan(problem)
        assert baseline.task_basis
        warmed = planner.plan(problem, warm_task_basis=baseline.task_basis)
        assert warmed.estimated_shuffle_seconds == pytest.approx(
            baseline.estimated_shuffle_seconds
        )
        for site, fraction in baseline.reduce_fractions.items():
            assert warmed.reduce_fractions[site] == pytest.approx(fraction)
        assert set(warmed.moves) == set(baseline.moves)


class TestControllerDegradedWarmStart:
    def test_degraded_replan_restricts_and_reseeds_basis(self):
        topology = uniform_sites(
            3, uplink="1MB/s", machines=1, executors_per_machine=2
        )
        config = SystemConfig(
            lag_seconds=600.0, partition_records=8, lp_backend="simplex"
        )
        controller = make_system("bohr", topology, config)
        workload = bigdata_workload(
            topology,
            seed=5,
            spec=WorkloadSpec(
                records_per_site=20, record_bytes=10_000, num_datasets=1
            ),
            flavour="aggregation",
        )
        controller.prepare(workload)
        incumbent = list(controller._task_basis)
        assert incumbent  # joint strategy records the winning basis
        dead = topology.site_names[0]
        controller.prepare_degraded(workload, [dead])
        assert f"r[{dead}]" not in controller._task_basis
        survivors = set(topology.site_names) - {dead}
        fractions = controller.reduce_fractions
        assert set(fractions) <= survivors
        assert sum(fractions.values()) == pytest.approx(1.0)
