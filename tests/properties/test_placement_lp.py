"""The placement LP code against the code it replaced.

``solve_data_lp`` assembles its matrix by index arithmetic, the simplex
pivots with one masked rank-1 update and the scipy backend calls HiGHS
directly; ``tests/placement/reference_lp.py`` keeps the row-by-row
assembly, the scalar-loop simplex and the ``linprog`` call they replaced.
The properties: the same program, tableau, basis, solution and plan, bit
for bit — and, separately, that the two LP backends agree on
placement-shaped LPs.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.optimize._highspy._core as highs_core
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.placement import simplex
from repro.placement.iridium import IridiumPlanner
from repro.placement.joint import JointPlanner
from repro.placement.lp import solve_data_lp
from repro.placement.model import PlacementProblem
from repro.placement.simplex import simplex_solve
from repro.placement.solver import LinearProgram, LpSolution, solve_lp
from repro.systems.base import SystemConfig
from repro.systems.registry import make_system
from repro.wan.presets import uniform_sites
from repro.wan.topology import Site, WanTopology
from repro.workloads.base import WorkloadSpec
from repro.workloads.tpcds import tpcds_workload
from tests.placement.reference_lp import (
    reference_data_program,
    reference_iterate,
    reference_scipy_solve,
    reference_simplex_solve,
    reference_solve_data_lp,
)

# ----------------------------------------------------------------- problems

bandwidths = st.floats(min_value=1.0, max_value=1000.0)
volumes = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=10_000.0),
)
similarities = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.95))
#: Caps on both sides of "is this pair capped": exactly 1.0 adds no row.
caps = st.one_of(st.sampled_from([0.0, 0.999, 1.0]), st.floats(min_value=0.0, max_value=1.0))
fraction_values = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def sparse(draw, keys, values):
    """A dict over a drawn subset of ``keys``, in a drawn order."""
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    return {key: draw(values) for key in chosen}


@st.composite
def placement_problems(draw, max_sites=6, max_datasets=4):
    sites = [f"s{i}" for i in range(draw(st.integers(2, max_sites)))]
    datasets = [f"d{a}" for a in range(draw(st.integers(1, max_datasets)))]
    pairs = [(i, j) for i in sites for j in sites]  # self pairs are legal, and ignored
    return PlacementProblem(
        topology=WanTopology.from_sites(
            [Site(name, draw(bandwidths), draw(bandwidths)) for name in sites]
        ),
        # Sites with no data, datasets with no similarity entry at all.
        input_bytes={a: draw(sparse(sites, volumes)) for a in datasets},
        reduction_ratio={a: draw(st.floats(min_value=0.05, max_value=1.0)) for a in datasets},
        similarity=draw(sparse(datasets, sparse(sites, similarities))),
        lag_seconds=draw(st.floats(min_value=1.0, max_value=100.0)),
        mobility=draw(sparse(datasets, sparse(pairs, caps))),
        cross_similarity=draw(sparse(datasets, sparse(pairs, caps))),
    )


@st.composite
def problems_with_fractions(draw):
    problem = draw(placement_problems())
    return problem, draw(sparse(problem.site_names, fraction_values))


def assembled_program(problem, fractions) -> LinearProgram:
    """The program ``solve_data_lp`` hands to ``solve_lp``."""
    seen = []

    def capture(program, backend="auto"):
        seen.append(program)
        return LpSolution(np.zeros(program.num_variables), 0.0, 0.0, backend)

    with mock.patch("repro.placement.lp.solve_lp", capture):
        assert solve_data_lp(problem, fractions) == ({}, 0.0, mock.ANY)
    (program,) = seen
    return program


@settings(max_examples=200, deadline=None)
@given(problems_with_fractions())
def test_data_lp_is_the_row_by_row_assembly(case):
    problem, fractions = case
    ours = assembled_program(problem, fractions)
    expected = reference_data_program(problem, fractions)
    assert ours.variable_names == expected.variable_names
    assert ours.c.tobytes() == expected.c.tobytes()
    assert ours.a_ub.shape == expected.a_ub.shape
    assert ours.a_ub.tobytes() == expected.a_ub.tobytes()  # signed zeros included
    assert ours.b_ub.tobytes() == expected.b_ub.tobytes()
    assert ours.a_eq is None and ours.b_eq is None


# ------------------------------------------------------------------ simplex

#: Small integers (mostly) so ratios tie, rows repeat and bases degenerate;
#: some floats so rounding is exercised too.
coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def linear_programs(draw):
    """``simplex_solve`` keyword arguments: any status, any shape."""
    num_vars = draw(st.integers(1, 5))
    row = st.lists(coefficients, min_size=num_vars, max_size=num_vars)
    # Half the programs hold at a drawn point (often tightly: degenerate
    # vertices), so feasible ones are not the rare case; the rest take any
    # right-hand side and are mostly infeasible.
    point = np.array(draw(st.lists(st.integers(0, 3), min_size=num_vars, max_size=num_vars)), dtype=float)
    anchored = draw(st.booleans())

    def block(max_rows, slacks):
        rows = draw(st.lists(row, max_size=max_rows))
        if anchored:
            rhs = [float(np.dot(values, point)) + draw(slacks) for values in rows]
        else:
            rhs = [draw(coefficients) for _ in rows]
        for index in draw(st.lists(st.integers(0, max(0, len(rows) - 1)), max_size=2)):
            if rows:  # a redundant (repeated) row, same right-hand side
                rows.append(rows[index])
                rhs.append(rhs[index])
        if not rows:
            return None, None
        return np.array(rows), np.array(rhs)

    a_ub, b_ub = block(5, st.sampled_from([0.0, 0.0, 1.0, 2.5]))
    a_eq, b_eq = block(2, st.just(0.0))
    total = num_vars + (0 if a_ub is None else len(a_ub))
    return dict(
        c=np.array(draw(row)),
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        # Hints include slack columns, repeats and out-of-range indices.
        warm_columns=draw(
            st.none() | st.lists(st.integers(min_value=-1, max_value=total + 1), max_size=4)
        ),
    )


def outcome(call, *args, **kwargs):
    """What a call did: its result, or the error it raised."""
    try:
        return call(*args, **kwargs)
    except (ReproError, ValueError) as error:
        return type(error), str(error)


def result_fields(result):
    if isinstance(result, tuple):
        return result
    return (
        result.status, result.iterations, result.basis_columns,
        result.warm_started, result.x.tobytes(), result.objective,
    )


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_simplex_is_the_scalar_loop_simplex(program):
    def solve_both():
        ours = outcome(simplex_solve, max_iterations=200, **program)
        expected = outcome(reference_simplex_solve, max_iterations=200, **program)
        assert result_fields(ours) == result_fields(expected)
        return ours

    with np.errstate(all="ignore"):
        first = solve_both()
        if getattr(first, "ok", False):  # and again, warm, from its own final basis
            program["warm_columns"] = first.basis_columns
            solve_both()


@st.composite
def uncanonical_tableaus(draw):
    """``_iterate`` arguments whose basis block is *not* the identity."""
    num_rows = draw(st.integers(1, 4))
    num_columns = num_rows + draw(st.integers(0, 3))
    tableau = np.array(
        draw(
            st.lists(
                st.lists(coefficients, min_size=num_columns, max_size=num_columns),
                min_size=num_rows, max_size=num_rows,
            )
        )
    )
    basis = draw(st.permutations(range(num_columns)))[:num_rows]
    style = draw(st.sampled_from(["arbitrary", "dominant", "unit-diagonal", "permuted"]))
    if style == "dominant":  # nonsingular and well conditioned
        tableau[range(num_rows), basis] += 40.0
    elif style == "unit-diagonal":  # 1.0 where the skip looks first, clutter beside it
        tableau[range(num_rows), basis] = 1.0
    elif style == "permuted":  # an identity block the basis names in the wrong row order
        tableau[:, basis] = np.eye(num_rows)[draw(st.permutations(range(num_rows)))]
    b = np.array([draw(coefficients) for _ in range(num_rows)])
    c = np.array([draw(coefficients) for _ in range(num_columns)])
    return tableau, b, c, list(basis)


@settings(max_examples=300, deadline=None)
@given(uncanonical_tableaus())
def test_iterate_canonicalizes_an_arbitrary_basis_like_the_scalar_loop(case):
    def run(iterate):
        tableau, b, c, basis = case[0].copy(), case[1].copy(), case[2], list(case[3])
        with np.errstate(all="ignore"):
            status = outcome(iterate, tableau, b, c, basis, 50)
        return status, tableau.tobytes(), b.tobytes(), basis

    assert run(simplex._iterate) == run(reference_iterate)


# ------------------------------------------------------------ whole planner


def decision_fields(decision, backend):
    if isinstance(decision, tuple):
        # HiGHS and linprog word a failure differently; the simplex paths do not.
        return decision if backend == "simplex" else decision[0]
    return (
        list(decision.moves.items()),  # keys in order
        decision.reduce_fractions,
        decision.estimated_shuffle_seconds,
        decision.iterations,
        decision.task_basis,
    )


def linprog_highs_solve(core, program):
    """``reference_scipy_solve`` in the place of ``solver._highs_solve``."""
    return reference_scipy_solve(program)


def assert_plan_is_the_reference_plan(planner, backend, problem):
    ours = outcome(planner.plan, problem)
    with mock.patch("repro.placement.joint.solve_data_lp", reference_solve_data_lp), \
            mock.patch("repro.placement.solver.simplex_solve", reference_simplex_solve), \
            mock.patch("repro.placement.solver._highs_solve", linprog_highs_solve):
        expected = outcome(planner.plan, problem)
    assert decision_fields(ours, backend) == decision_fields(expected, backend)


@pytest.mark.parametrize("backend", ["scipy", "simplex", "auto"])
@settings(max_examples=20, deadline=None)
@given(problem=placement_problems(max_sites=4, max_datasets=3))
def test_joint_plan_is_the_plan_of_the_reference_functions(backend, problem):
    assert_plan_is_the_reference_plan(JointPlanner(backend=backend), backend, problem)


@pytest.mark.parametrize("backend", ["scipy", "simplex", "auto"])
@settings(max_examples=20, deadline=None)
@given(problem=placement_problems(max_sites=4, max_datasets=3))
def test_iridium_plan_is_the_plan_of_the_reference_functions(backend, problem):
    assert_plan_is_the_reference_plan(IridiumPlanner(backend=backend), backend, problem)


# ------------------------------------------------------ HiGHS ≡ linprog


#: Signed zeros beside the small integers: CSC must drop ``-0.0`` as
#: ``scipy.sparse`` does.
highs_coefficients = st.one_of(st.just(-0.0), coefficients)


@st.composite
def highs_programs(draw):
    """Any LP ``solve_lp`` accepts: optimal, infeasible or unbounded.

    ``a_ub`` only, ``a_eq`` only, both or neither; blocks with zero rows,
    all-zero rows and columns, repeated rows, and no variables at all.
    """
    num_vars = draw(st.integers(0, 6))
    point = np.array(draw(st.lists(st.integers(0, 3), min_size=num_vars, max_size=num_vars)), dtype=float)
    anchored = draw(st.booleans())
    dead_column = draw(st.none() | st.integers(0, max(0, num_vars - 1)))

    def block(max_rows, slacks):
        shape = draw(st.sampled_from(["absent", "empty", "rows"]))
        if shape == "absent":
            return None, None
        count = 0 if shape == "empty" else draw(st.integers(1, max_rows))
        rows = np.array(
            [[draw(highs_coefficients) for _ in range(num_vars)] for _ in range(count)]
        ).reshape(count, num_vars)
        if count and draw(st.booleans()):
            rows[draw(st.integers(0, count - 1))] = 0.0  # an all-zero row
        if dead_column is not None and num_vars:
            rows[:, dead_column] = 0.0
        if anchored:
            rhs = rows @ point + np.array([draw(slacks) for _ in range(count)])
        else:
            rhs = np.array([draw(coefficients) for _ in range(count)])
        repeats = draw(st.lists(st.integers(0, max(0, count - 1)), max_size=2)) if count else []
        return np.vstack([rows, rows[repeats]]), np.concatenate([rhs, rhs[repeats]])

    a_ub, b_ub = block(6, st.sampled_from([0.0, 0.0, 1.0, 2.5]))
    a_eq, b_eq = block(3, st.just(0.0))
    return LinearProgram(
        c=np.array([draw(highs_coefficients) for _ in range(num_vars)]),
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
    )


def solve_fields(result):
    """``x`` bytes and objective, or that the solve raised."""
    if isinstance(result, LpSolution):
        result = result.x, result.objective
    if isinstance(result[0], type):
        return "raised"
    return result[0].tobytes(), result[1]


@settings(max_examples=400, deadline=None)
@given(highs_programs())
def test_scipy_backend_is_the_linprog_call(program):
    ours = outcome(solve_lp, program, backend="scipy")
    expected = outcome(reference_scipy_solve, program)
    assert solve_fields(ours) == solve_fields(expected)


class RecordingHighs:
    """A ``_Highs`` that keeps the model it is handed and does not solve it."""

    def __init__(self, highs):
        self._highs = highs
        self.model = None

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, lp):
        matrix = lp.a_matrix_
        floats = [lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
                  matrix.value_]
        self.model = (
            lp.num_col_, lp.num_row_, matrix.num_col_, matrix.num_row_, matrix.format_,
            list(matrix.start_), list(matrix.index_), lp.sense_, lp.offset_,
            list(lp.integrality_), [np.array(values, dtype=float).tobytes() for values in floats],
        )
        return self._highs.passModel(lp)

    def run(self):
        return highs_core.HighsStatus.kOk

    def handover(self):
        """The model, and every option value, as ``run`` would have seen them."""
        options = self._highs.getOptions()
        values = {name: getattr(options, name) for name in dir(options) if name[0] != "_"}
        return self.model, {name: value for name, value in values.items() if not callable(value)}


def handed_to_highs(solve, program):
    """What each ``_Highs`` one solve creates is given: model and options."""
    created = []
    real = highs_core._Highs

    def recording():
        created.append(RecordingHighs(real()))
        return created[-1]

    with mock.patch.object(highs_core, "_Highs", recording):
        outcome(solve, program)
    return [highs.handover() for highs in created]


@settings(max_examples=200, deadline=None)
@given(highs_programs().filter(lambda program: program.num_variables > 0))
def test_highs_is_handed_the_model_and_options_linprog_hands_it(program):
    """Bit-identity at the source: one fresh ``_Highs`` per solve, given the
    same CSC arrays, bounds and full option set as ``linprog`` gives its own
    (``run`` is stubbed: the comparison is of the inputs, not the answer)."""
    ours = handed_to_highs(lambda p: solve_lp(p, backend="scipy"), program)
    assert len(ours) == 1
    assert ours == handed_to_highs(reference_scipy_solve, program)


def test_planner_traffic_is_the_linprog_traffic():
    """Every ``auto`` LP of a bohr/tpcds prepare and two degraded replans."""
    topology = uniform_sites(5, uplink="2MB/s", machines=1, executors_per_machine=2)
    workload = tpcds_workload(
        topology, seed=3,
        spec=WorkloadSpec(records_per_site=30, record_bytes=2_000, num_datasets=3),
    )
    config = SystemConfig(lag_seconds=8.0, partition_records=8)
    controller = make_system("bohr", topology, config)
    solved = []

    def spy(program, backend="auto", warm_names=None):
        solution = solve_lp(program, backend=backend, warm_names=warm_names)
        solved.append((program, backend, solution))
        return solution

    with mock.patch("repro.placement.lp.solve_lp", spy):
        controller.prepare(workload)
        controller.prepare_degraded(workload, topology.site_names[:1])
        controller.prepare_degraded(workload, topology.site_names[:2])
    assert {backend for _, backend, _ in solved} == {"auto"}
    assert len(solved) > 20
    for program, _, solution in solved:
        x, objective = reference_scipy_solve(program)
        assert solution.x.tobytes() == x.tobytes()
        assert solution.objective == objective  # lint: allow[R004]


# --------------------------------------------------------- scipy ≡ simplex


@st.composite
def placement_shaped_lps(draw):
    """Feasible, bounded LPs shaped like the placement ones.

    Minimize one ``t`` column under ``-t + a.x <= b`` rows of mixed sign,
    box rows that bound x, and optionally ``sum x = 1``.  ``x = x0, t``
    large is feasible by construction (``b`` is set from a drawn point);
    ``t >= a.x - b`` with x boxed keeps it bounded below.
    """
    num_x = draw(st.integers(1, 5))
    weights = st.floats(min_value=-5.0, max_value=5.0)
    point = np.array([draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(num_x)])
    equality = draw(st.booleans())
    if equality:
        point = point / point.sum() if point.sum() > 0 else np.full(num_x, 1.0 / num_x)
    rows, rhs = [], []
    for _ in range(draw(st.integers(1, 6))):
        a = np.array([draw(weights) for _ in range(num_x)])
        slack = draw(st.floats(min_value=0.0, max_value=3.0))
        rows.append(np.concatenate([[-1.0], a]))
        rhs.append(float(a @ point) - 10.0 + slack)  # holds at (t=10, point)
    for index in range(num_x):  # x_k <= 2: every row's t is bounded below
        box = np.zeros(1 + num_x)
        box[1 + index] = 1.0
        rows.append(box)
        rhs.append(2.0)
    objective = np.zeros(1 + num_x)
    objective[0] = 1.0
    return LinearProgram(
        c=objective,
        a_ub=np.vstack(rows),
        b_ub=np.array(rhs),
        a_eq=np.concatenate([[0.0], np.ones(num_x)])[None, :] if equality else None,
        b_eq=np.array([1.0]) if equality else None,
    )


def max_violation(program, x):
    worst = max(0.0, float(np.max(program.a_ub @ x - program.b_ub)), float(np.max(-x)))
    if program.a_eq is not None:
        worst = max(worst, float(np.max(np.abs(program.a_eq @ x - program.b_eq))))
    return worst


@settings(max_examples=150, deadline=None)
@given(placement_shaped_lps())
def test_scipy_and_simplex_agree_on_placement_shaped_lps(program):
    ours = solve_lp(program, backend="simplex")
    theirs = solve_lp(program, backend="scipy")
    assert ours.objective == pytest.approx(theirs.objective, rel=1e-6, abs=1e-6)
    scale = 1.0 + float(np.max(np.abs(program.b_ub)))
    for solution in (ours, theirs):
        assert max_violation(program, solution.x) <= 1e-7 * scale
