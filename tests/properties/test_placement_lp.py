"""The whole-array placement LPs against the scalar code they replaced.

``solve_data_lp`` assembles its matrix by index arithmetic and the simplex
pivots with one masked rank-1 update; ``tests/placement/reference_lp.py``
keeps the row-by-row assembly and the scalar-loop simplex they replaced.
The properties: the same program, tableau, basis and plan, bit for bit —
and, separately, that the two LP backends agree on placement-shaped LPs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.placement import simplex
from repro.placement.joint import JointPlanner
from repro.placement.lp import solve_data_lp
from repro.placement.model import PlacementProblem
from repro.placement.simplex import simplex_solve
from repro.placement.solver import LinearProgram, LpSolution, solve_lp
from repro.wan.topology import Site, WanTopology
from tests.placement.reference_lp import (
    reference_data_program,
    reference_iterate,
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


def decision_fields(decision):
    if isinstance(decision, tuple):
        return decision
    return (
        list(decision.moves.items()),  # keys in order
        decision.reduce_fractions,
        decision.estimated_shuffle_seconds,
        decision.iterations,
        decision.task_basis,
    )


@pytest.mark.parametrize("backend", ["scipy", "simplex"])
@settings(max_examples=20, deadline=None)
@given(problem=placement_problems(max_sites=4, max_datasets=3))
def test_joint_plan_is_the_plan_of_the_reference_functions(backend, problem):
    planner = JointPlanner(backend=backend)
    ours = outcome(planner.plan, problem)
    with mock.patch("repro.placement.joint.solve_data_lp", reference_solve_data_lp), \
            mock.patch("repro.placement.solver.simplex_solve", reference_simplex_solve):
        expected = outcome(planner.plan, problem)
    assert decision_fields(ours) == decision_fields(expected)


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
