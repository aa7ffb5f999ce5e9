"""The placement LP code against the code it replaced.

``DataLp`` assembles its matrix by index arithmetic from a per-plan
template, ``solve_task_lp`` without a row loop, the simplex pivots with
one masked rank-1 update, the scipy backend calls HiGHS directly and
Iridium's greedy prices its candidate chunks in closed form;
``tests/placement/reference_lp.py`` keeps the row-by-row assemblies, the
scalar-loop simplex, the ``linprog`` call and the LP-priced greedy they
replaced.  The properties: the same program, tableau, basis, solution and
plan, bit for bit; the closed form is the task LP's t to rounding — and,
separately, that the two LP backends agree on placement-shaped LPs.
"""

import sys
from unittest import mock

import numpy as np
import pytest
import scipy.optimize._highspy._core as highs_core
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.placement import simplex
from repro.placement.iridium import IridiumPlanner
from repro.placement.joint import JointPlanner
from repro.placement.lp import (
    DataLp,
    shuffle_bytes_after_moves,
    solve_data_lp,
    solve_task_lp,
    task_lp_optimum,
)
from repro.placement.model import PlacementProblem
from repro.placement.simplex import simplex_solve
from repro.placement.solver import LinearProgram, LpSolution, solve_lp
from repro.systems.base import SystemConfig
from repro.systems.registry import make_system
from repro.wan.presets import ec2_ten_sites, uniform_sites
from repro.wan.topology import Site, WanTopology
from repro.workloads.base import WorkloadSpec
from repro.workloads.tpcds import tpcds_workload
from tests.placement.reference_lp import (
    ReferenceDataLp,
    reference_data_program,
    reference_iridium_plan,
    reference_iterate,
    reference_scipy_solve,
    reference_shuffle_bytes_after_moves,
    reference_simplex_solve,
    reference_solve_task_lp,
    reference_task_program,
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
def placement_problems(draw, max_sites=6, max_datasets=4, compute=False):
    """``compute`` draws reduce-compute rates for some sites (none, often)."""
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
        compute_bps=draw(sparse(sites, bandwidths)) if compute else {},
    )


@st.composite
def problems_with_fractions(draw):
    problem = draw(placement_problems())
    return problem, draw(sparse(problem.site_names, fraction_values))


def assembled_program(solve, *args) -> LinearProgram:
    """The program ``solve(*args)`` hands to ``solve_lp``."""
    seen = []

    def capture(program, backend="auto"):
        seen.append(program)
        x = np.zeros(program.num_variables)
        x[1:] = 1.0  # task LP fractions that normalize; data LP moves that count
        return LpSolution(x, 0.0, 0.0, backend)

    with mock.patch("repro.placement.lp.solve_lp", capture):
        solve(*args)
    (program,) = seen
    return program


def assert_same_program(ours, expected):
    assert ours.variable_names == expected.variable_names
    assert ours.c.tobytes() == expected.c.tobytes()
    for block in ("a_ub", "b_ub", "a_eq", "b_eq"):
        mine, theirs = getattr(ours, block), getattr(expected, block)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()  # signed zeros included


@settings(max_examples=200, deadline=None)
@given(problems_with_fractions())
def test_data_lp_is_the_row_by_row_assembly(case):
    problem, fractions = case
    ours = assembled_program(solve_data_lp, problem, fractions)
    assert_same_program(ours, reference_data_program(problem, fractions))
    assert ours.a_eq is None and ours.b_eq is None


@st.composite
def problems_with_fraction_sequences(draw):
    """A problem and the r of several alternation rounds: drawn, uniform
    and one-hot (whose (3) or (4) coefficients at most sites are zeros)."""
    problem = draw(placement_problems())
    sites = problem.site_names
    one_hot = st.sampled_from(sites).map(
        lambda chosen: {site: float(site == chosen) for site in sites}
    )
    uniform = st.just({site: 1.0 / len(sites) for site in sites})
    rounds = st.one_of(sparse(sites, fraction_values), one_hot, uniform)
    return problem, draw(st.lists(rounds, min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(problems_with_fraction_sequences())
def test_one_data_lp_template_is_a_fresh_assembly_every_round(case):
    """Programs from one ``DataLp`` stay as assembled: each round's rows
    (3), (4) are written on a copy, never on an earlier round's program."""
    problem, rounds = case
    template = DataLp(problem)
    programs = [template.program(fractions) for fractions in rounds]
    for fractions, program in zip(rounds, programs):
        assert_same_program(program, reference_data_program(problem, fractions))


@st.composite
def task_lp_cases(draw):
    """Task LPs with compute rows on some sites or none, and volumes F on
    every site, some (missing ones are zero), one, or none at all."""
    problem = draw(placement_problems(max_datasets=1, compute=draw(st.booleans())))
    sites = problem.site_names
    magnitudes = st.one_of(
        volumes, st.floats(min_value=0.0, max_value=1e9), st.sampled_from([0.0, 1.0])
    )
    shape = draw(st.sampled_from(["sparse", "every", "one", "none"]))
    if shape == "every":
        return problem, {site: draw(magnitudes) for site in sites}
    if shape == "one":
        return problem, {draw(st.sampled_from(sites)): draw(magnitudes)}
    if shape == "none":
        return problem, {site: 0.0 for site in draw(st.lists(st.sampled_from(sites)))}
    return problem, draw(sparse(sites, magnitudes))


@settings(max_examples=200, deadline=None)
@given(task_lp_cases())
def test_task_lp_is_the_row_loop(case):
    problem, volumes_by_site = case
    assert_same_program(
        assembled_program(solve_task_lp, volumes_by_site, problem),
        reference_task_program(volumes_by_site, problem),
    )


def task_rows(volumes_by_site, problem):
    """Per site ``(a_i, h_i)``: r_i >= 1 - t/a_i and r_i <= t/h_i."""
    sites = problem.site_names
    volume = [volumes_by_site.get(site, 0.0) for site in sites]
    total = sum(volume)
    rows = {}
    for position, site in enumerate(sites):
        inbound = sum(value for other, value in enumerate(volume) if other != position)
        fill = inbound / problem.D(site)
        if site in problem.compute_bps and total > 0:
            fill = max(fill, total / problem.compute_bps[site])
        rows[site] = (volume[position] / problem.U(site), fill)
    return rows


def placement_cost(fractions, rows):
    """The task LP's t at these fractions: its largest row."""
    return max(max((1.0 - fractions[site]) * a, fractions[site] * h) for site, (a, h) in rows.items())


def fractions_at(t, rows):
    """Fractions that meet t, when t is feasible: each site's lower end
    ``max(0, 1 - t/a_i)``, then the rest of 1 up to each upper end ``t/h_i``."""
    fractions = {site: max(0.0, 1.0 - t / a) if a > 0 else 0.0 for site, (a, h) in rows.items()}
    rest = 1.0 - sum(fractions.values())
    for site, (a, h) in rows.items():
        share = min(rest, (t / h if h > 0 else float("inf")) - fractions[site])
        fractions[site] += max(0.0, share)
        rest -= max(0.0, share)
    return fractions


@pytest.mark.parametrize("backend", ["scipy", "simplex"])
@settings(max_examples=300, deadline=None)
@given(case=task_lp_cases())
def test_closed_form_optimum_is_the_task_lp_t(backend, case):
    """Exact on both sides: fractions that meet the closed-form t exist,
    and the LP's own fractions cost no less — to the rounding of
    ``1 - t/a_i`` near 1, times a_i or h_i.  HiGHS reports that t to
    rounding (it drops matrix entries below 1e-9, hence ``abs``).  The
    simplex's t is not held to it: on volumes spanning many decades it
    lands above (next test) or, within its pivot tolerance, below it."""
    problem, volumes_by_site = case
    closed = task_lp_optimum(volumes_by_site, problem)
    fractions, t, _ = solve_task_lp(volumes_by_site, problem, backend=backend)
    rows = task_rows(volumes_by_site, problem)
    rounding = 1e-12 * closed + 1e-15 * max(a + h for a, h in rows.values())
    rounding += sys.float_info.min  # below the normal range nothing is relative
    met = fractions_at(closed, rows)
    assert sum(met.values()) == pytest.approx(1.0, rel=1e-12)
    assert placement_cost(met, rows) <= closed + rounding
    assert closed <= placement_cost(fractions, rows) + rounding
    if backend == "scipy":
        assert closed == pytest.approx(t, rel=1e-12, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="the simplex stops 2.8e-4 above this task LP's optimum")
def test_the_simplex_reaches_the_task_lp_optimum():
    """Found by the property above: on volumes spanning six decades the
    simplex backend's task LP stops at t = 793364.2 where HiGHS and the
    closed form reach 793143.9 (a 2.8e-4 gap, beyond its 1e-6 agreement
    with HiGHS on placement-shaped LPs).  Iridium's greedy now prices in
    closed form on both backends; the simplex still solves every other
    LP under ``backend="simplex"``."""
    topology = WanTopology.from_sites(
        [Site(f"s{i}", 1.0, 2.0 if i == 4 else 1.0) for i in range(6)]
    )
    problem = PlacementProblem(
        topology=topology, input_bytes={"d0": {}}, reduction_ratio={"d0": 1.0},
        similarity={}, lag_seconds=1.0,
    )
    volumes_by_site = {"s3": 54.0, "s4": 808354.0, "s5": 42005943.0}
    closed = task_lp_optimum(volumes_by_site, problem)
    assert solve_task_lp(volumes_by_site, problem, backend="scipy")[1] == pytest.approx(closed, rel=1e-12)
    assert solve_task_lp(volumes_by_site, problem, backend="simplex")[1] == pytest.approx(closed, rel=1e-9)


@st.composite
def problems_with_moves(draw):
    """Moves in a drawn order, naming unknown datasets and self pairs too."""
    problem = draw(placement_problems())
    keys = [
        (a, i, j)
        for a in problem.dataset_ids + ["stray"]
        for i in problem.site_names
        for j in problem.site_names
    ]
    return problem, draw(sparse(keys, volumes))


@settings(max_examples=200, deadline=None)
@given(problems_with_moves())
def test_shuffle_volumes_are_the_per_site_sums(case):
    problem, moves = case
    ours = shuffle_bytes_after_moves(problem, moves)
    expected = reference_shuffle_bytes_after_moves(problem, moves)
    assert list(ours) == list(expected)
    assert np.array(list(ours.values())).tobytes() == np.array(list(expected.values())).tobytes()


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
    return dict(c=np.array(draw(row)), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


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
        result.x.tobytes(), result.objective,
    )


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_simplex_is_the_scalar_loop_simplex(program):
    with np.errstate(all="ignore"):
        ours = outcome(simplex_solve, max_iterations=200, **program)
        expected = outcome(reference_simplex_solve, max_iterations=200, **program)
    assert result_fields(ours) == result_fields(expected)


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


@pytest.fixture(scope="module")
def full_size_programs():
    """The two LP shapes of perfbench's ``prepare-replan``: ten EC2 sites and
    eight datasets give a 120 x 721 data LP (16 of its rows negated, so
    phase 1 runs) and a 20 x 11 task LP with its one equality.  The data LP
    is taken at the task LP's fractions, as the joint planner alternates
    (solved by the scalar loop: neither program depends on the code under
    test)."""
    topology = ec2_ten_sites(base_uplink="2MB/s")
    sites = topology.site_names
    rng = np.random.default_rng(11)
    datasets = [f"d{a}" for a in range(8)]
    problem = PlacementProblem(
        topology=topology,
        input_bytes={
            d: {s: float(rng.integers(0, 200) * 512 * 1024) for s in sites}
            for d in datasets
        },
        reduction_ratio={d: 0.55 for d in datasets},
        similarity={d: {s: float(rng.uniform(0.0, 0.6)) for s in sites} for d in datasets},
        lag_seconds=8.0,
    )
    handed = []

    def spy(program, backend="auto"):
        handed.append(program)
        return solve_lp(program, backend=backend)

    with mock.patch("repro.placement.lp.solve_lp", spy), \
            mock.patch("repro.placement.solver.simplex_solve", reference_simplex_solve):
        volumes = {site: problem.total_input_at(site) for site in sites}
        fractions, _, _ = solve_task_lp(volumes, problem, backend="simplex")
    (task,) = handed
    data = DataLp(problem).program(fractions)
    assert task.a_ub.shape == (20, 11) and task.a_eq.shape == (1, 11)
    assert data.a_ub.shape == (120, 721) and data.a_eq is None
    return {"task": task, "data": data}


def solve_like_the_scalar_loop(program, c):
    """Field-for-field against the scalar loop; returns the result."""
    arguments = (c, program.a_ub, program.b_ub, program.a_eq, program.b_eq)
    result = simplex_solve(*arguments)
    assert result_fields(result) == result_fields(reference_simplex_solve(*arguments))
    assert result.ok
    return result


def costed_basics(result, c):
    return [float(c[column]) for column in result.basis_columns if column < c.size and c[column] != 0]


@pytest.mark.parametrize("name", ["task", "data"])
def test_simplex_is_the_scalar_loop_at_full_size(full_size_programs, name):
    """Phase 2 of a placement LP prices from t's row alone."""
    program = full_size_programs[name]
    result = solve_like_the_scalar_loop(program, program.c)
    assert costed_basics(result, program.c) == [1.0]


def test_one_costed_basic_row_that_is_not_one(full_size_programs):
    """t costs 0.3 and each byte of dataset d0 moved 1e-9: the moves stay
    nonbasic, so every phase-2 pivot prices them from ``0.3 * tableau[t]``
    (a cost of 1.0 in its place changes the pivots)."""
    program = full_size_programs["data"]
    c = 0.3 * program.c
    c[1:1 + 90] = 1e-9  # x[d0][i->j]: the first n(n-1) = 90 columns after t
    assert costed_basics(solve_like_the_scalar_loop(program, c), c) == [0.3]


def test_two_costed_basic_rows_price_through_the_product(full_size_programs):
    """Every byte moved costs 1e-7: a costed move enters beside t, and
    from then on the reduced costs are the gemv's (one row's changes them)."""
    program = full_size_programs["data"]
    c = program.c.copy()
    c[1:] = 1e-7
    assert sorted(costed_basics(solve_like_the_scalar_loop(program, c), c)) == [1e-7, 1.0]


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
    )


def linprog_highs_solve(core, program):
    """``reference_scipy_solve`` in the place of ``solver._highs_solve``."""
    return reference_scipy_solve(program)


def assert_plan_is_the_reference_plan(planner, backend, problem, *args):
    ours = outcome(planner.plan, problem, *args)
    with mock.patch("repro.placement.joint.DataLp", ReferenceDataLp), \
            mock.patch("repro.placement.joint.solve_task_lp", reference_solve_task_lp), \
            mock.patch(
                "repro.placement.joint.shuffle_bytes_after_moves",
                reference_shuffle_bytes_after_moves,
            ), \
            mock.patch.object(IridiumPlanner, "plan", reference_iridium_plan), \
            mock.patch("repro.placement.solver.simplex_solve", reference_simplex_solve), \
            mock.patch("repro.placement.solver._highs_solve", linprog_highs_solve):
        expected = outcome(planner.plan, problem, *args)
    assert decision_fields(ours, backend) == decision_fields(expected, backend)


@pytest.mark.parametrize("backend", ["scipy", "simplex", "auto"])
@settings(max_examples=20, deadline=None)
@given(problem=placement_problems(max_sites=4, max_datasets=3))
def test_joint_plan_is_the_plan_of_the_reference_functions(backend, problem):
    assert_plan_is_the_reference_plan(JointPlanner(backend=backend), backend, problem)


@pytest.mark.parametrize("backend", ["scipy", "simplex", "auto"])
@settings(max_examples=40, deadline=None)
@given(
    problem=placement_problems(max_sites=5, max_datasets=3, compute=True),
    counts=st.dictionaries(st.sampled_from(["d0", "d1", "d2"]), st.integers(0, 5)),
)
@example(
    problem=PlacementProblem(
        topology=WanTopology.from_sites([Site("s0", 1.0, 3.0), Site("s1", 1.0, 1.0)]),
        input_bytes={"d0": {}, "d1": {}, "d2": {"s0": 4923.0}},
        reduction_ratio={"d0": 1.0, "d1": 1.0, "d2": 1.0},
        similarity={},
        lag_seconds=1.0,
        compute_bps={"s0": 1.0, "s1": 1.0},
    ),
    counts={},
)
def test_iridium_plan_is_the_plan_of_the_reference_functions(backend, problem, counts):
    """Against ``reference_iridium_plan``, the LP-priced greedy: moves in
    order, fractions, t and iterations — the closed-form price makes
    every decision the LP's t made.  The pinned example is a zero-gain
    1-byte move whose simplex t reads 1.5e-9 over the closed form's at
    t ≈ 2.5e3 s: the greedy's tie tolerance is relative to ``best_t``."""
    assert_plan_is_the_reference_plan(IridiumPlanner(backend=backend), backend, problem, counts)


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

    def spy(program, backend="auto"):
        solution = solve_lp(program, backend=backend)
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
