"""Simplex and solver front-end tests, cross-checked against scipy."""

import re
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError, SolverError
from repro.placement.lp import solve_task_lp, task_lp_optimum
from repro.placement.model import PlacementProblem
from repro.placement.simplex import simplex_solve
from repro.placement.solver import (
    _BINDING,
    _FEASIBILITY_TOL,
    LinearProgram,
    _highs_core,
    _tolerance_violation,
    solve_lp,
)
from repro.wan.topology import Site, WanTopology


class TestSimplexBasics:
    def test_simple_max_flow_style(self):
        # min -x - y s.t. x + y <= 4, x <= 3, y <= 2  -> optimum -4.
        result = simplex_solve(
            c=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            b_ub=np.array([4.0, 3.0, 2.0]),
        )
        assert result.ok
        assert result.objective == pytest.approx(-4.0)

    def test_equality_constraint(self):
        # min x + 2y s.t. x + y = 1 -> x=1, y=0.
        result = simplex_solve(
            c=np.array([1.0, 2.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
        )
        assert result.ok
        assert result.objective == pytest.approx(1.0)
        assert result.x[0] == pytest.approx(1.0)

    def test_infeasible(self):
        # x <= -1 with x >= 0 is infeasible.
        result = simplex_solve(
            c=np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([-1.0]),
        )
        assert result.status == "infeasible"

    def test_unbounded(self):
        # min -x with no upper bound.
        result = simplex_solve(
            c=np.array([-1.0]),
            a_ub=np.array([[-1.0]]),
            b_ub=np.array([0.0]),
        )
        assert result.status == "unbounded"

    def test_no_constraints_nonneg_objective(self):
        result = simplex_solve(c=np.array([1.0, 0.0]))
        assert result.ok
        assert result.objective == 0.0

    def test_no_constraints_unbounded(self):
        result = simplex_solve(c=np.array([-1.0]))
        assert result.status == "unbounded"

    def test_degenerate_redundant_rows(self):
        # Same constraint twice.
        result = simplex_solve(
            c=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 1.0]),
        )
        assert result.ok
        assert result.objective == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(SolverError):
            simplex_solve(
                c=np.array([1.0]),
                a_ub=np.array([[1.0, 2.0]]),
                b_ub=np.array([1.0]),
            )

    @pytest.mark.parametrize(
        "lp, named",
        [
            # Each used to come back "optimal": x = 0, objective nan,
            # x = [inf, 0], and nan behind a numpy RuntimeWarning.
            (dict(c=[1.0], a_ub=[[1.0]], b_ub=[np.nan]), "b_ub[0] is nan"),
            (dict(c=[np.nan, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]), "c[0] is nan"),
            (dict(c=[-1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[np.inf]), "b_ub[0] is inf"),
            (dict(c=[1.0], a_eq=[[np.inf]], b_eq=[1.0]), "a_eq[0, 0] is inf"),
        ],
    )
    def test_non_finite_input_is_named(self, lp, named):
        with pytest.raises(SolverError) as raised:
            simplex_solve(**{key: np.array(value) for key, value in lp.items()})
        assert str(raised.value) == f"LP input must be finite: {named}"


class TestSimplexAgainstScipy:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_feasible_lps_match(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        c = rng.uniform(-1, 1, size=n)
        a_ub = rng.uniform(0, 1, size=(m, n))  # nonneg rows + positive b
        b_ub = rng.uniform(1, 5, size=m)  # -> x=0 always feasible, bounded
        ours = simplex_solve(c, a_ub=a_ub, b_ub=b_ub)
        theirs = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        if theirs.status == 3:  # unbounded
            assert ours.status == "unbounded"
        else:
            assert theirs.success
            assert ours.ok
            assert ours.objective == pytest.approx(theirs.fun, rel=1e-6, abs=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_with_equalities_match(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        c = rng.uniform(0, 1, size=n)  # nonneg cost -> bounded below
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        a_ub = rng.uniform(0, 1, size=(2, n))
        b_ub = rng.uniform(1, 3, size=2)
        ours = simplex_solve(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        theirs = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
            method="highs",
        )
        if theirs.success:
            assert ours.ok
            assert ours.objective == pytest.approx(theirs.fun, rel=1e-6, abs=1e-8)
        else:
            assert not ours.ok


def two_site_task_lp(downlinks, volumes):
    """Two sites, uplinks 1.0, reduce compute 1.0 B/s at each."""
    topology = WanTopology.from_sites(
        [Site(f"s{i}", 1.0, down) for i, down in enumerate(downlinks)]
    )
    problem = PlacementProblem(
        topology=topology, input_bytes={"d0": {}}, reduction_ratio={"d0": 1.0},
        similarity={}, lag_seconds=1.0, compute_bps={"s0": 1.0, "s1": 1.0},
    )
    return dict(zip(topology.site_names, volumes)), problem


class TestBadlyScaledTaskLps:
    """The simplex's absolute pivot and feasibility tolerances on rows whose
    coefficients span 1e0-1e9: two deterministic failures, found by the
    task-LP property.  HiGHS and the closed form agree on both optima."""

    @pytest.mark.xfail(strict=True, raises=PlacementError, reason="the simplex returns all-zero fractions")
    def test_volumes_three_decades_apart(self):
        volumes, problem = two_site_task_lp((1.0, 615.0), (783913.0, 999217362.0))
        closed = task_lp_optimum(volumes, problem)
        assert solve_task_lp(volumes, problem, backend="scipy")[1] == pytest.approx(5.000006375e8, rel=1e-12)
        assert solve_task_lp(volumes, problem, backend="simplex")[1] == pytest.approx(closed, rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=SolverError, reason="the simplex calls a feasible task LP infeasible")
    def test_one_site_holds_every_byte(self):
        volumes, problem = two_site_task_lp((1.0, 1.0), (0.0, 1e9))
        closed = task_lp_optimum(volumes, problem)
        assert solve_task_lp(volumes, problem, backend="scipy")[1] == pytest.approx(5e8, rel=1e-12)
        assert solve_task_lp(volumes, problem, backend="simplex")[1] == pytest.approx(closed, rel=1e-9)


class TestSolverFrontend:
    def make_program(self):
        return LinearProgram(
            c=np.array([1.0, 0.0]),
            a_ub=np.array([[-1.0, 0.0]]),
            b_ub=np.array([-2.0]),
            variable_names=["t", "x"],
        )

    def test_scipy_backend(self):
        solution = solve_lp(self.make_program(), backend="scipy")
        assert solution.backend == "scipy"
        assert solution.objective == pytest.approx(2.0)
        assert solution.solve_seconds >= 0.0

    def test_simplex_backend(self):
        solution = solve_lp(self.make_program(), backend="simplex")
        assert solution.backend == "simplex"
        assert solution.objective == pytest.approx(2.0)

    def test_auto_backend(self):
        assert solve_lp(self.make_program()).backend == "scipy"

    def test_value_of(self):
        program = self.make_program()
        solution = solve_lp(program)
        assert solution.value_of(program, "t") == pytest.approx(2.0)
        with pytest.raises(SolverError):
            solution.value_of(program, "nope")

    def test_unknown_backend(self):
        with pytest.raises(SolverError):
            solve_lp(self.make_program(), backend="quantum")

    def test_infeasible_raises(self):
        failing = [  # program, HiGHS model status, simplex status
            (
                LinearProgram(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([-5.0])),
                "Infeasible", "infeasible",
            ),
            (
                LinearProgram(c=np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([0.0])),
                "Unbounded", "unbounded",
            ),
            (  # x + y = 1 and x + y = 2
                LinearProgram(
                    c=np.array([1.0, 1.0]),
                    a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                    b_eq=np.array([1.0, 2.0]),
                ),
                "Infeasible", "infeasible",
            ),
        ]
        for program, status, simplex_status in failing:
            for backend in ("scipy", "auto"):
                with pytest.raises(SolverError, match=f"HiGHS found no optimum: model status {status}$"):
                    solve_lp(program, backend=backend)
            with pytest.raises(SolverError, match=f"simplex failed: {simplex_status}$"):
                solve_lp(program, backend="simplex")

    def test_optimum_outside_the_tolerance_raises_naming_the_bound(self):
        # A negative tolerance rejects the true optimum t = 2, x = 0.
        with mock.patch("repro.placement.solver._FEASIBILITY_TOL", -1.0):
            with pytest.raises(SolverError, match=r"feasibility check: x\[1\] = 0.0 breaks x >= 0"):
                solve_lp(self.make_program(), backend="scipy")

    def test_names_length_mismatch(self):
        with pytest.raises(SolverError):
            LinearProgram(c=np.array([1.0]), variable_names=["a", "b"])


class TestToleranceViolation:
    """linprog's ``_check_result`` test on a HiGHS optimum, by itself."""

    tol = _FEASIBILITY_TOL

    def violation(self, x, slack=(), num_ub=0, objective=0.0):
        return _tolerance_violation(np.array(x, dtype=float), objective, np.array(slack, dtype=float), num_ub)

    def test_within_the_tolerance_is_no_violation(self):
        assert self.tol == pytest.approx(3.1623e-4, rel=1e-4)
        edge = -self.tol
        assert self.violation([0.0, edge], slack=[edge, 5.0, -edge, edge], num_ub=2) is None

    def test_x_below_zero(self):
        beyond = float(np.nextafter(-self.tol, -np.inf))
        assert self.violation([1.0, beyond]) == f"x[1] = {beyond!r} breaks x >= 0"

    def test_negative_inequality_slack(self):
        assert self.violation([0.0], slack=[0.0, -0.01, 3.0], num_ub=2) == (
            "inequality row 1 has slack -0.01"
        )

    def test_equality_residual_either_sign(self):
        assert self.violation([0.0], slack=[-5.0, 0.0, 0.01], num_ub=0) == (
            "equality row 0 has residual -5.0"
        )
        assert self.violation([0.0], slack=[5.0, 0.0, 0.01], num_ub=1) == (
            "equality row 1 has residual 0.01"
        )

    def test_nan_anywhere_fails(self):
        assert self.violation([np.nan]) == "x[0] = nan breaks x >= 0"
        assert self.violation([0.0], slack=[np.nan], num_ub=1) == "inequality row 0 has slack nan"
        assert self.violation([0.0], slack=[np.nan]) == "equality row 0 has residual nan"
        assert self.violation([0.0], objective=np.nan) == "the objective is nan"


class TestScipyFloor:
    program = LinearProgram(c=np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0]))

    def test_scipy_without_the_highs_binding_fails_every_backend(self):
        import scipy

        with mock.patch.dict(sys.modules, {"scipy.optimize._highspy._core": None}):
            for backend in ("auto", "scipy", "simplex"):
                with pytest.raises(
                    SolverError,
                    match=rf"^scipy {re.escape(scipy.__version__)} has no .*needs scipy>=1\.15$",
                ):
                    solve_lp(self.program, backend=backend)

    @staticmethod
    def scipy_tree(tmp_path, monkeypatch):
        """An empty ``optimize/_highspy`` under a temporary ``scipy.__path__``,
        with no binding registered: ``_highs_core`` must look for the file."""
        import scipy

        directory = tmp_path / "optimize" / "_highspy"
        directory.mkdir(parents=True)
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        monkeypatch.delitem(sys.modules, _BINDING, raising=False)
        return scipy.__version__, directory

    def test_a_scipy_tree_without_the_binding_file_needs_1_15(self, tmp_path, monkeypatch):
        version, _directory = self.scipy_tree(tmp_path, monkeypatch)
        with pytest.raises(
            SolverError,
            match=rf"^scipy {re.escape(version)} has no {re.escape(_BINDING)}: "
            r"LP solving needs scipy>=1\.15$",
        ):
            solve_lp(self.program, backend="scipy")
        assert _BINDING not in sys.modules

    def test_a_binding_that_fails_to_load_is_named_and_left_unregistered(
        self, tmp_path, monkeypatch
    ):
        installed = _highs_core().__file__
        version, directory = self.scipy_tree(tmp_path, monkeypatch)
        truncated = directory / ("_core" + EXTENSION_SUFFIXES[0])
        # Cut inside the ELF program headers, which the loader rejects; a
        # cut past them can map pages beyond the end of file and fault.
        with open(installed, "rb") as handle:
            truncated.write_bytes(handle.read(512))
        for backend in ("auto", "scipy", "simplex"):
            with pytest.raises(
                SolverError,
                match=rf"^cannot load {re.escape(str(truncated))} "
                rf"\(scipy {re.escape(version)}\): .+",
            ) as raised:
                solve_lp(self.program, backend=backend)
            assert isinstance(raised.value.__cause__, ImportError)
            assert _BINDING not in sys.modules

    def test_only_a_missing_scipy_sends_auto_to_the_simplex(self):
        with mock.patch.dict(sys.modules, {"scipy": None}):
            assert solve_lp(self.program, backend="auto").backend == "simplex"
            assert solve_lp(self.program, backend="simplex").objective == pytest.approx(2.0)
            with pytest.raises(SolverError, match="^scipy is not installed$"):
                solve_lp(self.program, backend="scipy")
