"""The placement LP assembly, simplex and scipy call as they used to be.

Kept verbatim as the oracle for the code that replaced them:

- :func:`reference_scipy_solve` is the scipy backend's
  ``linprog(method="highs")`` call with its ``success`` rule, which
  ``solve_lp`` replaced by a direct call into scipy's HiGHS binding;

- :func:`reference_data_program` is ``solve_data_lp``'s row-by-row
  assembly — every coefficient reached through an f-string name and a
  dict lookup, constraint (4) re-deriving every other site's f-terms —
  returning the :class:`LinearProgram` instead of solving it;
  :func:`reference_solve_data_lp` is the whole old function (assemble,
  solve, read the moves back through the same name lookups), and
  :class:`ReferenceDataLp` puts it where a ``DataLp`` template goes;
- :func:`reference_solve_task_lp` is ``solve_task_lp`` with its row
  loop, and :func:`reference_shuffle_bytes_after_moves` the per-(dataset,
  site) ``PlacementProblem.shuffle_bytes`` sum it replaced;
- :func:`reference_iridium_plan` is ``IridiumPlanner.plan`` when its
  greedy solved the task LP after every candidate chunk to read its t,
  and recomputed the shuffle volumes for each step's bottleneck;
  :func:`lp_priced_greedy` runs it in the planner's place and collects
  the events its pricing solves emit;
- :func:`reference_simplex_solve` and its helpers are the two-phase
  simplex with a row-by-row Python elimination loop at each of its three
  pivot sites and an unconditional canonicalization pass in
  :func:`reference_iterate`;
- :func:`with_warm_started` puts back the ``warm_started`` flag every
  ``lp-solve`` span-end carried while the simplex could start from a
  previous plan's basis.

Slow, and obviously the textbook code.  ``tests/properties/
test_placement_lp.py`` holds the production path to these bit for bit.
"""

from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple
from unittest import mock

import numpy as np

from repro.errors import PlacementError, SolverError
from repro.obs import instrument
from repro.obs.telemetry import TelemetryEvent
from repro.placement.iridium import (
    CHUNK_FRACTION,
    MAX_STEPS_PER_DATASET,
    STALL_LIMIT,
    IridiumPlanner,
)
from repro.placement.joint import PlacementDecision
from repro.placement.lp import Moves
from repro.placement.model import PlacementProblem
from repro.placement.simplex import SimplexResult
from repro.placement.solver import LinearProgram, LpSolution, solve_lp

_EPS_BYTES = 1e-6
_TOL = 1e-9


def reference_scipy_solve(program: LinearProgram) -> Tuple[np.ndarray, float]:
    """``solve_lp``'s scipy backend as it was: ``x`` and objective, or raise."""
    from scipy.optimize import linprog

    result = linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"scipy linprog failed: {result.message}")
    return np.asarray(result.x, dtype=float), float(result.fun)


def reference_data_program(
    problem: PlacementProblem, reduce_fractions: Mapping[str, float]
) -> LinearProgram:
    """The data-movement LP for fixed reduce fractions, built row by row."""
    sites = problem.site_names
    datasets = problem.dataset_ids
    pairs = [(i, j) for i in sites for j in sites if i != j]
    var_names = ["t"] + [f"x[{a}][{i}->{j}]" for a in datasets for (i, j) in pairs]
    index_of = {name: position for position, name in enumerate(var_names)}
    num_vars = len(var_names)

    def x_index(dataset: str, src: str, dst: str) -> int:
        return index_of[f"x[{dataset}][{src}->{dst}]"]

    rows: List[np.ndarray] = []
    bounds: List[float] = []

    def coefficient_row() -> np.ndarray:
        return np.zeros(num_vars)

    def add_f_terms(
        row: np.ndarray, a: str, site: str, scale: float
    ) -> float:
        """Add scale * f_site^a(x) to the row; returns the constant part.

        f_i^a = R^a[(I_i - sum_j x_ij)(1 - S_i) + sum_k x_ki (1 - S_ki)].
        """
        local_k = problem.R(a) * (1.0 - problem.S(a, site)) * scale
        for j in sites:
            if j == site:
                continue
            row[x_index(a, site, j)] -= local_k  # moving out reduces f
            inflow_k = (
                problem.R(a) * (1.0 - problem.Sij(a, j, site)) * scale
            )
            row[x_index(a, j, site)] += inflow_k  # inflow adds at pair rate
        return local_k * problem.I(a, site)

    for i in sites:
        r_i = reduce_fractions.get(i, 0.0)
        # (3): upload time of shuffle data at i.
        row = coefficient_row()
        row[0] = -1.0
        constant = 0.0
        for a in datasets:
            constant -= add_f_terms(row, a, i, (1.0 - r_i) / problem.U(i))
        rows.append(row)
        bounds.append(constant)

        # (4): download time of shuffle data at i.
        row = coefficient_row()
        row[0] = -1.0
        constant = 0.0
        for a in datasets:
            for j in sites:
                if j == i:
                    continue
                constant -= add_f_terms(row, a, j, r_i / problem.D(i))
        rows.append(row)
        bounds.append(constant)

        # (5): data movement upload within the lag.
        row = coefficient_row()
        for a in datasets:
            for j in sites:
                if j != i:
                    row[x_index(a, i, j)] = 1.0
        rows.append(row)
        bounds.append(problem.lag_seconds * problem.U(i))

        # (6): data movement download within the lag.
        row = coefficient_row()
        for a in datasets:
            for k_site in sites:
                if k_site != i:
                    row[x_index(a, k_site, i)] = 1.0
        rows.append(row)
        bounds.append(problem.lag_seconds * problem.D(i))

        # Cannot move out more than the site holds.
        for a in datasets:
            row = coefficient_row()
            for j in sites:
                if j != i:
                    row[x_index(a, i, j)] = 1.0
            rows.append(row)
            bounds.append(problem.I(a, i))

        # Similarity-aware mobility caps: only the absorbable fraction of
        # a site's data may move toward each destination (x <= I * S_ij).
        for a in datasets:
            for j in sites:
                if j == i:
                    continue
                cap = problem.mobility_cap(a, i, j)
                if cap >= 1.0:
                    continue
                row = coefficient_row()
                row[x_index(a, i, j)] = 1.0
                rows.append(row)
                bounds.append(problem.I(a, i) * cap)

    objective = np.zeros(num_vars)
    objective[0] = 1.0
    return LinearProgram(
        c=objective,
        a_ub=np.vstack(rows),
        b_ub=np.asarray(bounds),
        variable_names=var_names,
    )


def reference_solve_data_lp(
    problem: PlacementProblem,
    reduce_fractions: Mapping[str, float],
    backend: str = "auto",
) -> Tuple[Moves, float, LpSolution]:
    """``solve_data_lp`` as it was: assemble, solve, look the moves up by name."""
    program = reference_data_program(problem, reduce_fractions)
    index_of = {name: position for position, name in enumerate(program.variable_names)}
    sites = problem.site_names
    solution = solve_lp(program, backend=backend)
    moves: Moves = {}
    for a in problem.dataset_ids:
        for i in sites:
            for j in sites:
                if i == j:
                    continue
                volume = float(solution.x[index_of[f"x[{a}][{i}->{j}]"]])
                if volume > _EPS_BYTES:
                    moves[(a, i, j)] = volume
    return moves, float(solution.x[0]), solution


class ReferenceDataLp:
    """:func:`reference_solve_data_lp` in the shape of ``DataLp``."""

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem

    def solve(
        self, reduce_fractions: Mapping[str, float], backend: str = "auto"
    ) -> Tuple[Moves, float, LpSolution]:
        return reference_solve_data_lp(self.problem, reduce_fractions, backend)


def reference_task_program(
    shuffle_bytes: Mapping[str, float], problem: PlacementProblem
) -> LinearProgram:
    """The task-placement LP for fixed shuffle volumes, built row by row."""
    sites = problem.site_names
    missing = set(shuffle_bytes) - set(sites)
    if missing:
        raise PlacementError(f"shuffle bytes reference unknown sites {sorted(missing)}")
    var_names = ["t"] + [f"r[{site}]" for site in sites]
    num_vars = len(var_names)

    total_volume = sum(shuffle_bytes.get(site, 0.0) for site in sites)
    rows: List[np.ndarray] = []
    bounds: List[float] = []
    for position, site in enumerate(sites):
        f_i = shuffle_bytes.get(site, 0.0)
        # (3): (1 - r_i) F_i / U_i <= t
        row = np.zeros(num_vars)
        row[0] = -1.0
        row[1 + position] = -f_i / problem.U(site)
        rows.append(row)
        bounds.append(-f_i / problem.U(site))
        # (4): r_i * sum_{j != i} F_j / D_i <= t
        inbound = sum(
            shuffle_bytes.get(other, 0.0) for other in sites if other != site
        )
        row = np.zeros(num_vars)
        row[0] = -1.0
        row[1 + position] = inbound / problem.D(site)
        rows.append(row)
        bounds.append(0.0)
        # Compute-constraint extension: reduce-processing time at i,
        # r_i * (total intermediate) / C_i <= t, when C_i is known.
        compute_rate = problem.compute_bps.get(site)
        if compute_rate and total_volume > 0:
            row = np.zeros(num_vars)
            row[0] = -1.0
            row[1 + position] = total_volume / compute_rate
            rows.append(row)
            bounds.append(0.0)

    equality = np.zeros((1, num_vars))
    equality[0, 1:] = 1.0
    objective = np.zeros(num_vars)
    objective[0] = 1.0
    return LinearProgram(
        c=objective,
        a_ub=np.vstack(rows),
        b_ub=np.asarray(bounds),
        a_eq=equality,
        b_eq=np.asarray([1.0]),
        variable_names=var_names,
    )


def reference_solve_task_lp(
    shuffle_bytes: Mapping[str, float],
    problem: PlacementProblem,
    backend: str = "auto",
) -> Tuple[Dict[str, float], float, LpSolution]:
    """``solve_task_lp`` as it was: the row loop, solved, normalized."""
    sites = problem.site_names
    program = reference_task_program(shuffle_bytes, problem)
    solution = solve_lp(program, backend=backend)
    fractions = {
        site: max(0.0, float(solution.x[1 + position]))
        for position, site in enumerate(sites)
    }
    total = sum(fractions.values())
    if total <= 0:
        raise PlacementError("task LP returned all-zero fractions")
    fractions = {site: value / total for site, value in fractions.items()}
    return fractions, float(solution.x[0]), solution


def reference_shuffle_bytes_after_moves(
    problem: PlacementProblem, moves: Moves
) -> Dict[str, float]:
    """Per-site total shuffle volume F_i = sum_a f_i^a(x) given moves."""
    totals: Dict[str, float] = {site: 0.0 for site in problem.site_names}
    per_dataset: Dict[str, Dict[Tuple[str, str], float]] = {}
    for (dataset, src, dst), volume in moves.items():
        per_dataset.setdefault(dataset, {})[(src, dst)] = volume
    for a in problem.dataset_ids:
        moved = per_dataset.get(a, {})
        for site in problem.site_names:
            totals[site] += problem.shuffle_bytes(a, site, moved)
    return totals


def reference_iridium_plan(
    planner,
    problem: PlacementProblem,
    query_counts: Optional[Mapping[str, int]] = None,
) -> PlacementDecision:
    """``IridiumPlanner.plan`` with ``planner``'s backend, LP-priced."""
    query_counts = query_counts or {}
    blind = PlacementProblem(
        topology=problem.topology,
        input_bytes=problem.input_bytes,
        reduction_ratio=problem.reduction_ratio,
        similarity={},
        lag_seconds=problem.lag_seconds,
        mobility={},
        cross_similarity={},
        compute_bps=dict(problem.compute_bps),
    )
    sites = blind.site_names

    def bottleneck_of(moves: Moves) -> str:
        volumes = reference_shuffle_bytes_after_moves(blind, moves)
        return max(sites, key=lambda site: volumes[site] / blind.U(site))

    def best_destination(source, chunk, down_budget) -> Optional[str]:
        candidates = [
            site for site in sites if site != source and down_budget[site] >= chunk
        ]
        if not candidates:
            return None
        return max(candidates, key=blind.U)

    moves: Moves = {}
    remaining = {
        (a, i): blind.I(a, i) for a in blind.dataset_ids for i in sites
    }
    up_budget = {i: blind.lag_seconds * blind.U(i) for i in sites}
    down_budget = {i: blind.lag_seconds * blind.D(i) for i in sites}
    solve_seconds = 0.0

    def current_t() -> float:
        nonlocal solve_seconds
        volumes = reference_shuffle_bytes_after_moves(blind, moves)
        _, t, solution = reference_solve_task_lp(volumes, blind, backend=planner.backend)
        solve_seconds += solution.solve_seconds
        return t

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
            source = bottleneck_of(moves)
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
            destination = best_destination(source, chunk, down_budget)
            if destination is None:
                break
            key = (dataset, source, destination)
            moves[key] = moves.get(key, 0.0) + chunk
            candidate_t = current_t()
            if candidate_t > best_t + 1e-9 * max(1.0, best_t):
                # Strictly worse: revert and stop this dataset.
                moves[key] -= chunk
                if moves[key] <= 1e-9:
                    del moves[key]
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
                    break

    volumes = reference_shuffle_bytes_after_moves(blind, moves)
    fractions, t, solution = reference_solve_task_lp(volumes, blind, backend=planner.backend)
    solve_seconds += solution.solve_seconds
    return PlacementDecision(
        moves=moves,
        reduce_fractions=fractions,
        estimated_shuffle_seconds=t,
        solve_seconds=solve_seconds,
        planner="iridium",
    )


def with_warm_started(events: List[TelemetryEvent]) -> List[TelemetryEvent]:
    """``events`` with ``warm_started: False`` on every ``lp-solve``
    span-end, as ``solve_lp`` emitted them before the warm start went
    (no run ever warm-started, so the flag was always False)."""
    return [
        TelemetryEvent(
            seq=event.seq, kind=event.kind, t=event.t,
            attrs={**event.attrs, "warm_started": False},
        )
        if event.kind == "span-end" and event.attrs["name"] == "lp-solve"
        else event
        for event in events
    ]


@contextmanager
def lp_priced_greedy() -> Iterator[List[int]]:
    """``IridiumPlanner.plan`` as :func:`reference_iridium_plan`; yields the
    ``seq`` of every telemetry event its pricing solves emit — each solve
    but the last of a plan, whose fractions the plan returns."""
    pricing: List[int] = []
    solve_task_lp = reference_solve_task_lp  # the unpatched one

    def emitted() -> int:
        return len(instrument.current().telemetry.events)

    def plan(planner, problem, query_counts=None):
        solves: List[range] = []

        def solve(*args, **kwargs):
            first = emitted()
            solved = solve_task_lp(*args, **kwargs)
            solves.append(range(first, emitted()))
            return solved

        with mock.patch(f"{__name__}.reference_solve_task_lp", solve):
            decision = reference_iridium_plan(planner, problem, query_counts)
        for seqs in solves[:-1]:
            pricing.extend(seqs)
        return decision

    with mock.patch.object(IridiumPlanner, "plan", plan):
        yield pricing


def reference_simplex_solve(
    c: np.ndarray,
    a_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    a_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    max_iterations: int = 20000,
    check_finite: bool = True,
) -> SimplexResult:
    """Two-phase simplex for the standard-form LP above.

    ``check_finite`` is accepted so this can stand in for
    ``simplex_solve`` under ``solve_lp``, and ignored: this solver checks
    no input for nan/inf.
    """
    c = np.asarray(c, dtype=float)
    num_vars = c.shape[0]
    rows = []
    rhs = []
    slack_rows = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        if a_ub.shape[0] != b_ub.shape[0] or a_ub.shape[1] != num_vars:
            raise SolverError("inequality shapes are inconsistent")
        for index in range(a_ub.shape[0]):
            rows.append(a_ub[index])
            rhs.append(b_ub[index])
            slack_rows.append(len(rows) - 1)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        if a_eq.shape[0] != b_eq.shape[0] or a_eq.shape[1] != num_vars:
            raise SolverError("equality shapes are inconsistent")
        for index in range(a_eq.shape[0]):
            rows.append(a_eq[index])
            rhs.append(b_eq[index])
    if not rows:
        # Unconstrained (beyond x >= 0): optimum at 0 unless some c < 0.
        if np.any(c < -_TOL):
            return SimplexResult(np.zeros(num_vars), -np.inf, 0, "unbounded")
        return SimplexResult(np.zeros(num_vars), 0.0, 0, "optimal")

    matrix = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    num_rows = matrix.shape[0]

    # Add slack columns for <= rows.
    num_slacks = len(slack_rows)
    slack_block = np.zeros((num_rows, num_slacks))
    for position, row in enumerate(slack_rows):
        slack_block[row, position] = 1.0
    tableau_a = np.hstack([matrix, slack_block])

    # Normalize to b >= 0.
    for row in range(num_rows):
        if b[row] < 0:
            tableau_a[row] *= -1.0
            b[row] *= -1.0

    total_real = num_vars + num_slacks
    basis = [-1] * num_rows
    # A slack column can start basic if its coefficient stayed +1.
    for position, row in enumerate(slack_rows):
        column = num_vars + position
        if tableau_a[row, column] == 1.0:  # lint: allow[R004] — exact structural test on the just-built tableau
            basis[row] = column

    artificial_rows = [row for row in range(num_rows) if basis[row] == -1]
    num_artificials = len(artificial_rows)
    if num_artificials:
        artificial_block = np.zeros((num_rows, num_artificials))
        for position, row in enumerate(artificial_rows):
            artificial_block[row, position] = 1.0
            basis[row] = total_real + position
        tableau_a = np.hstack([tableau_a, artificial_block])

        phase1_c = np.zeros(tableau_a.shape[1])
        phase1_c[total_real:] = 1.0
        status, iterations1 = reference_iterate(
            tableau_a, b, phase1_c, basis, max_iterations
        )
        if status != "optimal":
            return SimplexResult(np.zeros(num_vars), 0.0, iterations1, status)
        phase1_value = float(
            sum(
                phase1_c[basis[row]] * b[row]
                for row in range(num_rows)
            )
        )
        if phase1_value > 1e-7:
            return SimplexResult(np.zeros(num_vars), 0.0, iterations1, "infeasible")
        _pivot_out_artificials(tableau_a, b, basis, total_real)
        tableau_a = tableau_a[:, :total_real]
        basis = [col if col < total_real else -1 for col in basis]
        if any(col == -1 for col in basis):
            # A redundant row remained with an artificial basis: drop it.
            keep = [row for row in range(num_rows) if basis[row] != -1]
            tableau_a = tableau_a[keep]
            b = b[keep]
            basis = [basis[row] for row in keep]
            num_rows = len(keep)
    else:
        iterations1 = 0

    phase2_c = np.concatenate([c, np.zeros(tableau_a.shape[1] - num_vars)])
    status, iterations2 = reference_iterate(tableau_a, b, phase2_c, basis, max_iterations)
    x_full = np.zeros(tableau_a.shape[1])
    for row, column in enumerate(basis):
        x_full[column] = b[row]
    x = x_full[:num_vars]
    objective = float(c @ x)
    return SimplexResult(
        x,
        objective,
        iterations1 + iterations2,
        status,
        basis_columns=list(basis),
    )


def reference_iterate(
    tableau_a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list,
    max_iterations: int,
) -> Tuple[str, int]:
    """Run simplex iterations in place (revised tableau style)."""
    num_rows = tableau_a.shape[0]
    # Put the tableau into canonical form for the current basis.
    for row in range(num_rows):
        column = basis[row]
        pivot = tableau_a[row, column]
        if abs(pivot) < _TOL:
            raise SolverError("degenerate basis during canonicalization")
        tableau_a[row] /= pivot
        b[row] /= pivot
        for other in range(num_rows):
            if other != row and abs(tableau_a[other, column]) > _TOL:
                factor = tableau_a[other, column]
                tableau_a[other] -= factor * tableau_a[row]
                b[other] -= factor * b[row]

    degenerate_streak = 0
    for iteration in range(max_iterations):
        # Reduced costs: c_j - c_B . A_j
        c_basis = c[basis]
        reduced = c - c_basis @ tableau_a
        reduced[basis] = 0.0
        entering_candidates = np.where(reduced < -_TOL)[0]
        if entering_candidates.size == 0:
            return "optimal", iteration
        # Dantzig's rule converges fast; switch to Bland's anti-cycling
        # rule after a run of degenerate pivots.
        if degenerate_streak < 20:
            entering = int(entering_candidates[np.argmin(reduced[entering_candidates])])
        else:
            entering = int(entering_candidates[0])

        column = tableau_a[:, entering]
        positive = column > _TOL
        if not positive.any():
            return "unbounded", iteration
        ratios = np.full(num_rows, np.inf)
        ratios[positive] = b[positive] / column[positive]
        best = ratios.min()
        # Smallest basis index among tied rows (Bland-compatible).
        tied = [row for row in range(num_rows) if ratios[row] <= best + _TOL]
        leaving = min(tied, key=lambda row: basis[row])
        degenerate_streak = degenerate_streak + 1 if best <= _TOL else 0

        pivot = tableau_a[leaving, entering]
        tableau_a[leaving] /= pivot
        b[leaving] /= pivot
        for row in range(num_rows):
            if row != leaving and abs(tableau_a[row, entering]) > _TOL:
                factor = tableau_a[row, entering]
                tableau_a[row] -= factor * tableau_a[leaving]
                b[row] -= factor * b[leaving]
        basis[leaving] = entering
    raise SolverError(f"simplex exceeded {max_iterations} iterations")


def _pivot_out_artificials(
    tableau_a: np.ndarray, b: np.ndarray, basis: list, total_real: int
) -> None:
    """Swap basic artificials for real columns where possible."""
    num_rows = tableau_a.shape[0]
    for row in range(num_rows):
        if basis[row] < total_real:
            continue
        candidates = np.where(np.abs(tableau_a[row, :total_real]) > _TOL)[0]
        if candidates.size == 0:
            continue  # redundant row; caller drops it
        entering = int(candidates[0])
        pivot = tableau_a[row, entering]
        tableau_a[row] /= pivot
        b[row] /= pivot
        for other in range(num_rows):
            if other != row and abs(tableau_a[other, entering]) > _TOL:
                factor = tableau_a[other, entering]
                tableau_a[other] -= factor * tableau_a[row]
                b[other] -= factor * b[row]
        basis[row] = entering
