"""LP solving front-end: HiGHS through scipy's binding, or a pure-Python simplex.

All placement LPs flow through :func:`solve_lp`, which also times the
solve — those timings are what Table 5 reports.  The scipy backend hands
HiGHS the model scipy's ``method="highs"`` LP wrapper would, minus the wrapper.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.obs import instrument
from repro.placement.simplex import require_finite, simplex_solve


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

    def value_of(self, program: LinearProgram, name: str) -> float:
        try:
            index = program.variable_names.index(name)
        except ValueError:
            raise SolverError(f"unknown variable {name!r}") from None
        return float(self.x[index])


def solve_lp(program: LinearProgram, backend: str = "auto") -> LpSolution:
    """Solve the LP; ``backend`` is ``"auto"``, ``"scipy"`` or ``"simplex"``.

    ``auto`` prefers scipy and falls back to the built-in simplex only if
    scipy is not installed; a scipy without the HiGHS binding (< 1.15)
    fails every backend.  Raises :class:`SolverError` on infeasible or
    unbounded problems, naming the HiGHS model status.
    """
    if backend not in ("auto", "scipy", "simplex"):
        raise SolverError(f"unknown backend {backend!r}")
    _require_well_formed(program)
    telemetry = instrument.current().telemetry
    with telemetry.span(
        "lp-solve", stage="placement", variables=program.num_variables
    ) as span:
        solution = _solve(program, backend, span)
        span.set(backend=solution.backend, objective=solution.objective)
    return solution


def _require_well_formed(program: LinearProgram) -> None:
    """Reject mismatched shapes and nan/inf coefficients before either
    backend sees them: HiGHS would be handed a garbled model, the simplex
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
    require_finite(
        (
            (label, getattr(program, label))
            for label in ("c", "a_ub", "b_ub", "a_eq", "b_eq")
        ),
        program.variable_names,
    )


#: scipy's ``_check_result`` tolerance: ``sqrt(tol) * 10`` at ``tol=1e-9``.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


#: The binding's canonical name: ``scipy.optimize`` itself imports it by this.
_BINDING = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS binding, or None if scipy is not installed at all.

    Loaded from its own file, not imported: ``import scipy.optimize...``
    would run ``scipy.optimize``'s package init (~320 modules, ~40 MiB)
    for one extension.  It is registered under its canonical name, so a
    later ``import scipy.optimize`` reuses it and pybind11 registers its
    types once.  ``sys.modules`` is read on every call (``None`` there
    means absent), never cached here.
    """
    try:
        import scipy
    except ImportError:
        return None
    core = sys.modules.get(_BINDING)
    if core is not None:
        return core
    stem = os.path.join(scipy.__path__[0], "optimize", "_highspy", "_core")
    path = next(
        filter(os.path.isfile, (stem + suffix for suffix in EXTENSION_SUFFIXES)), None
    )
    if path is None or _BINDING in sys.modules:  # a None entry: absent
        message = f"scipy {scipy.__version__} has no {_BINDING}"
        raise SolverError(f"{message}: LP solving needs scipy>=1.15")
    loader = ExtensionFileLoader(_BINDING, path)
    spec = spec_from_file_location(_BINDING, path, loader=loader)
    try:
        core = sys.modules[_BINDING] = module_from_spec(spec)
        spec.loader.exec_module(core)
    except ImportError as error:
        sys.modules.pop(_BINDING, None)
        raise SolverError(
            f"cannot load {path} (scipy {scipy.__version__}): {error}"
        ) from error
    return core


def _highs_solve(core, program: LinearProgram) -> Tuple[np.ndarray, float]:
    """Solve as scipy's ``method="highs"`` does, on a fresh ``_Highs``: its
    options, rows as ``csc_array`` builds them (column-major, rows ascending,
    zeros dropped), ``x >= 0``, row bounds ``(-inf, b_ub]``, ``[b_eq, b_eq]``."""
    n = program.num_variables
    empty = (np.zeros((0, n)), np.zeros(0))  # _require_well_formed: both or neither
    a_ub, b_ub = empty if program.a_ub is None else (program.a_ub, program.b_ub)
    a_eq, b_eq = empty if program.a_eq is None else (program.a_eq, program.b_eq)
    transposed = np.vstack((a_ub, a_eq)).astype(float, copy=False).T
    columns, rows = np.nonzero(transposed)
    upper = np.concatenate((b_ub, b_eq)).astype(float, copy=False)
    lp = core.HighsLp()  # given lists: pybind11 copies a list ~2x faster than an array
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(upper)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = [0] + np.bincount(columns, minlength=n).cumsum().tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = transposed[columns, rows].tolist()
    lp.col_cost_, lp.col_lower_ = program.c.tolist(), [0.0] * n
    lp.col_upper_ = [core.kHighsInf] * n
    lp.row_lower_ = [-core.kHighsInf] * len(b_ub) + upper[len(b_ub):].tolist()
    lp.row_upper_ = upper.tolist()
    highs = core._Highs()
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("highs_debug_level", int(core.kHighsDebugLevelNone))
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("output_flag", False)
    dual = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs.setOptionValue("simplex_strategy", int(dual))
    highs.passModel(lp)
    highs.run()
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        status = highs.modelStatusToString(highs.getModelStatus())
        raise SolverError(f"HiGHS found no optimum: model status {status}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = highs.getInfo().objective_function_value
    slack = upper - np.array(solution.row_value)
    violation = _tolerance_violation(x, objective, slack, len(b_ub))
    if violation:
        raise SolverError(f"HiGHS optimum fails the feasibility check: {violation}")
    return x, objective


def _tolerance_violation(x, objective: float, slack, num_ub: int) -> Optional[str]:
    """What breaks scipy's ``_check_result`` test, or None: ``x >= 0``, the
    inequality slack ``slack[:num_ub] >= 0`` and the equality residual
    ``slack[num_ub:] == 0``, each within ``_FEASIBILITY_TOL``; any nan fails."""
    if np.isnan(objective):
        return "the objective is nan"
    for template, values, excess in (
        ("x[{}] = {!r} breaks x >= 0", x, -x),
        ("inequality row {} has slack {!r}", slack[:num_ub], -slack[:num_ub]),
        ("equality row {} has residual {!r}", slack[num_ub:], np.abs(slack[num_ub:])),
    ):
        broken = np.flatnonzero(~(excess <= _FEASIBILITY_TOL))
        if broken.size:
            return template.format(int(broken[0]), float(values[broken[0]]))
    return None


def _solve(program: LinearProgram, backend: str, span) -> LpSolution:
    # Before the clock: a first import of the binding is not solve time.
    core = _highs_core()
    # Wall-clock on purpose: LP solve cost reported by Table 5.
    started = time.perf_counter()  # lint: allow[R001]
    if backend == "scipy" and core is None:
        raise SolverError("scipy is not installed")
    if backend != "simplex" and core is not None:
        x, objective = _highs_solve(core, program)
        return LpSolution(
            x=x,
            objective=float(objective),
            solve_seconds=time.perf_counter() - started,  # lint: allow[R001]
            backend="scipy",
        )
    result = simplex_solve(
        program.c,
        program.a_ub,
        program.b_ub,
        program.a_eq,
        program.b_eq,
        check_finite=False,  # _require_well_formed has
    )
    span.set(simplex_status=result.status, simplex_iterations=result.iterations)
    if not result.ok:
        raise SolverError(f"simplex failed: {result.status}")
    return LpSolution(
        x=result.x,
        objective=result.objective,
        solve_seconds=time.perf_counter() - started,  # lint: allow[R001]
        backend="simplex",
    )
