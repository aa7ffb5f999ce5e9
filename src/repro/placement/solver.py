"""LP solving front-end: scipy (HiGHS) with a pure-Python simplex fallback.

All placement LPs flow through :func:`solve_lp`, which also times the
solve — those timings are what Table 5 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import SolverError
from repro.obs import instrument
from repro.placement.simplex import simplex_solve


@dataclass
class LinearProgram:
    """min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    variable_names: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        if self.variable_names and len(self.variable_names) != self.c.shape[0]:
            raise SolverError("variable_names length must match c")

    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])


@dataclass
class LpSolution:
    """Solved LP with timing."""

    x: np.ndarray
    objective: float
    solve_seconds: float
    backend: str
    #: Structural variables usable as a warm-start hint for a related
    #: solve: the final simplex basis (simplex backend) or the solution
    #: support (scipy, which exposes no basis through ``linprog``).
    basis_names: List[str] = field(default_factory=list)
    #: True when the simplex backend started from a feasible warm basis.
    warm_started: bool = False

    def value_of(self, program: LinearProgram, name: str) -> float:
        try:
            index = program.variable_names.index(name)
        except ValueError:
            raise SolverError(f"unknown variable {name!r}") from None
        return float(self.x[index])


def solve_lp(
    program: LinearProgram,
    backend: str = "auto",
    warm_names: Optional[List[str]] = None,
) -> LpSolution:
    """Solve the LP; ``backend`` is ``"auto"``, ``"scipy"`` or ``"simplex"``.

    ``auto`` prefers scipy and silently falls back to the built-in simplex
    if scipy is unavailable.  Raises :class:`SolverError` on infeasible or
    unbounded problems.  ``warm_names`` hints variables (by name) whose
    columns should seed the simplex backend's starting basis — e.g. the
    ``basis_names`` of an incumbent solution to a related program; names
    the program does not define are ignored, and the scipy backend has no
    warm-start surface so the hint is a no-op there.
    """
    if backend not in ("auto", "scipy", "simplex"):
        raise SolverError(f"unknown backend {backend!r}")
    _require_well_formed(program)
    telemetry = instrument.current().telemetry
    with telemetry.span(
        "lp-solve", stage="placement", variables=program.num_variables
    ) as span:
        solution = _solve(program, backend, warm_names, span)
        span.set(
            backend=solution.backend,
            objective=solution.objective,
            warm_started=solution.warm_started,
        )
    return solution


def _require_well_formed(program: LinearProgram) -> None:
    """Reject mismatched shapes and nan/inf coefficients before either
    backend sees them: scipy raises a bare ``ValueError``, the simplex
    can return a plausible "optimal" point or ignore an ``a_ub`` given
    without ``b_ub``."""
    n = program.num_variables
    for a, b in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        matrix, rhs = getattr(program, a), getattr(program, b)
        shape_a = None if matrix is None else np.shape(matrix)
        shape_b = None if rhs is None else np.shape(rhs)
        rows = shape_b[0] if shape_b and len(shape_b) == 1 else -1
        if (shape_a, shape_b) != (None, None) and shape_a != (rows, n):
            raise SolverError(
                f"LP shapes do not match: {a} {shape_a}, {b} {shape_b}, c ({n},)"
            )
    for label in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
        values = getattr(program, label)
        if values is None:
            continue
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if finite.all():
            continue
        index = [int(k) for k in np.argwhere(~finite)[0]]
        where = f"{label}[{', '.join(map(str, index))}]"
        if not label.startswith("b_") and index[-1] < len(program.variable_names):
            where += f" (variable {program.variable_names[index[-1]]!r})"
        raise SolverError(
            f"LP input must be finite: {where} is {values[tuple(index)]}"
        )


def _solve(
    program: LinearProgram,
    backend: str,
    warm_names: Optional[List[str]],
    span,
) -> LpSolution:
    # Wall-clock on purpose: LP solve cost reported by Table 5.
    started = time.perf_counter()  # lint: allow[R001]
    names = program.variable_names
    if backend in ("auto", "scipy"):
        try:
            from scipy.optimize import linprog
        except ImportError:
            if backend == "scipy":
                raise SolverError("scipy is not installed") from None
            linprog = None
        if linprog is not None:
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
            x = np.asarray(result.x, dtype=float)
            return LpSolution(
                x=x,
                objective=float(result.fun),
                solve_seconds=time.perf_counter() - started,  # lint: allow[R001]
                backend="scipy",
                basis_names=(
                    [name for name, value in zip(names, x) if value > 1e-12]
                    if names
                    else []
                ),
            )
    warm_columns = None
    if warm_names and names:
        index_of = {name: position for position, name in enumerate(names)}
        warm_columns = [
            index_of[name] for name in warm_names if name in index_of
        ]
    result = simplex_solve(
        program.c,
        program.a_ub,
        program.b_ub,
        program.a_eq,
        program.b_eq,
        warm_columns=warm_columns,
    )
    span.set(simplex_status=result.status, simplex_iterations=result.iterations)
    if not result.ok:
        raise SolverError(f"simplex failed: {result.status}")
    num_vars = program.num_variables
    return LpSolution(
        x=result.x,
        objective=result.objective,
        solve_seconds=time.perf_counter() - started,  # lint: allow[R001]
        backend="simplex",
        basis_names=(
            [
                names[column]
                for column in result.basis_columns
                if column < num_vars
            ]
            if names
            else []
        ),
        warm_started=result.warm_started,
    )
