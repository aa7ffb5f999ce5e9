"""Dense two-phase simplex (pure numpy).

A fallback LP solver so the placement pipeline has no hard dependency on
scipy's HiGHS backend, and an ablation target (`bench_ablation_lp_vs_
simplex`) proving both backends agree on the paper's placement LPs.

Solves::

    min c.x   s.t.   A_ub x <= b_ub,   A_eq x = b_eq,   x >= 0

with Bland's anti-cycling rule.  Suitable for the problem sizes here
(hundreds of variables, tens of constraints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError

_TOL = 1e-9


@dataclass
class SimplexResult:
    """Solution of one simplex run."""

    x: np.ndarray
    objective: float
    iterations: int
    status: str  # "optimal" | "infeasible" | "unbounded"
    #: Final basis columns (indices into the structural+slack space).
    basis_columns: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _eliminate(tableau_a: np.ndarray, b: np.ndarray, row: int, column: int) -> None:
    """Pivot in place on (row, column): unit pivot, column cleared elsewhere.

    One rank-1 update of the rows the column reaches.  No row's factor
    depends on another row's update and the pivot row is never touched,
    so reading the column once gives what a row-by-row loop would read;
    NumPy multiplies, then subtracts, as that loop does — the tableau
    comes out bit-identical.  A pivot of exactly 1.0 divides nothing:
    ``x / 1.0`` is ``x``.
    """
    pivot = tableau_a[row, column]
    if pivot != 1.0:  # lint: allow[R004] — exact: only x / 1.0 leaves x unchanged
        tableau_a[row] /= pivot
        b[row] /= pivot
    factors = tableau_a[:, column]
    reached = np.abs(factors) > _TOL
    reached[row] = False
    rows = reached.nonzero()[0]
    factors = factors[rows]
    tableau_a[rows] -= np.multiply.outer(factors, tableau_a[row])
    b[rows] -= factors * b[row]


def require_finite(
    arrays: Iterable[Tuple[str, Optional[np.ndarray]]],
    variable_names: Sequence[str] = (),
) -> None:
    """Name the first nan/inf entry of ``arrays`` (``(label, values)``
    pairs; ``None`` values are skipped), and the variable of a ``c`` or
    ``a_*`` column when ``variable_names`` has it: on a non-finite
    tableau the pivots return a plausible "optimal" point."""
    for label, values in arrays:
        if values is None:
            continue
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if finite.all():
            continue
        index = [int(k) for k in np.argwhere(~finite)[0]]
        where = f"{label}[{', '.join(map(str, index))}]"
        if not label.startswith("b_") and index[-1] < len(variable_names):
            where += f" (variable {variable_names[index[-1]]!r})"
        raise SolverError(
            f"LP input must be finite: {where} is {values[tuple(index)]}"
        )


def simplex_solve(
    c: np.ndarray,
    a_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    a_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    max_iterations: int = 20000,
    check_finite: bool = True,
) -> SimplexResult:
    """Two-phase simplex for the standard-form LP above.

    A nan/inf entry is a :class:`SolverError` naming it, unless
    ``check_finite`` is off because the caller has already checked.
    """
    c = np.asarray(c, dtype=float)
    num_vars = c.shape[0]
    blocks = []
    for matrix, rhs, kind in ((a_ub, b_ub, "inequality"), (a_eq, b_eq, "equality")):
        if matrix is None:
            blocks += [np.zeros((0, num_vars)), np.zeros(0)]
            continue
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if matrix.shape[0] != rhs.shape[0] or matrix.shape[1] != num_vars:
            raise SolverError(f"{kind} shapes are inconsistent")
        blocks += [matrix, rhs]
    a_ub, b_ub, a_eq, b_eq = blocks
    if check_finite:
        require_finite(
            (("c", c), ("a_ub", a_ub), ("b_ub", b_ub), ("a_eq", a_eq), ("b_eq", b_eq))
        )
    num_slacks = len(b_ub)
    num_rows = num_slacks + len(b_eq)
    if not num_rows:
        # Unconstrained (beyond x >= 0): optimum at 0 unless some c < 0.
        if np.any(c < -_TOL):
            return SimplexResult(np.zeros(num_vars), -np.inf, 0, "unbounded")
        return SimplexResult(np.zeros(num_vars), 0.0, 0, "optimal")

    # One allocation: structural block, a slack column per <= row, and an
    # artificial column per row whose slack cannot start basic — every
    # equality, and every <= row negated to make b >= 0 (its slack is -1).
    b = np.concatenate([b_ub, b_eq])
    negated = b < 0
    needs_artificial = negated.copy()
    needs_artificial[num_slacks:] = True
    artificial_rows = needs_artificial.nonzero()[0]
    num_artificials = artificial_rows.size
    total_real = num_vars + num_slacks
    tableau = np.zeros((num_rows, total_real + num_artificials))
    tableau[:num_slacks, :num_vars] = a_ub
    tableau[num_slacks:, :num_vars] = a_eq
    slack_rows = np.arange(num_slacks)
    tableau[slack_rows, num_vars + slack_rows] = 1.0
    # Normalize to b >= 0 (the artificial block is added after, unsigned).
    tableau[negated, :total_real] *= -1.0
    b[negated] *= -1.0
    tableau_a = tableau[:, :total_real]

    # A <= row's slack starts basic unless the row was negated; every
    # other row starts on its artificial column.
    basis_columns = np.empty(num_rows, dtype=np.intp)
    basis_columns[:num_slacks] = num_vars + slack_rows
    basis_columns[artificial_rows] = total_real + np.arange(num_artificials)
    basis = basis_columns.tolist()
    if num_artificials:
        tableau[artificial_rows, basis_columns[artificial_rows]] = 1.0
        tableau_a = tableau
        phase1_c = np.zeros(tableau_a.shape[1])
        phase1_c[total_real:] = 1.0
        status, iterations1 = _iterate(
            tableau_a, b, phase1_c, basis, max_iterations
        )
        if status != "optimal":
            return SimplexResult(np.zeros(num_vars), 0.0, iterations1, status)
        # Python's left fold in row order, not NumPy's pairwise sum.
        phase1_value = float(sum((phase1_c[basis] * b).tolist()))
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
    status, iterations2 = _iterate(tableau_a, b, phase2_c, basis, max_iterations)
    x_full = np.zeros(tableau_a.shape[1])
    x_full[basis] = b
    x = x_full[:num_vars]
    objective = float(c @ x)
    return SimplexResult(
        x,
        objective,
        iterations1 + iterations2,
        status,
        basis_columns=list(basis),
    )


def _iterate(
    tableau_a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list,
    max_iterations: int,
) -> Tuple[str, int]:
    """Run simplex iterations in place (revised tableau style)."""
    num_rows = tableau_a.shape[0]
    # The list is the caller's; the array beside it indexes NumPy.
    basis_columns = np.array(basis, dtype=np.intp)
    # Put the tableau into canonical form for the current basis — unless
    # its basis block already is the identity (unit diagonal, nothing to
    # clear): then every step would divide by 1.0 and eliminate nothing.
    block = tableau_a[:, basis_columns]
    unit_diagonal = np.all(block.diagonal() == 1.0)  # lint: allow[R004] — exact: only x / 1.0 leaves x unchanged
    np.fill_diagonal(block, 0.0)
    if not unit_diagonal or np.any(np.abs(block) > _TOL):
        for row in range(num_rows):
            column = basis[row]
            if abs(tableau_a[row, column]) < _TOL:
                raise SolverError("degenerate basis during canonicalization")
            _eliminate(tableau_a, b, row, column)

    c_basis = c[basis_columns]
    degenerate_streak = 0
    for iteration in range(max_iterations):
        # Reduced costs: c_j - c_B . A_j.  With one nonzero basic cost
        # (phase 2 of a placement LP: only t is costed) the product is
        # that row's term, bit for bit: every other term is 0 times a
        # finite entry, and adding zeros changes no sum, fused or not.
        costed = c_basis.nonzero()[0]
        if costed.size == 1:
            (row,) = costed
            reduced = c - c_basis[row] * tableau_a[row]
        else:
            reduced = c - c_basis @ tableau_a
        reduced[basis_columns] = 0.0
        entering_candidates = (reduced < -_TOL).nonzero()[0]
        if entering_candidates.size == 0:
            return "optimal", iteration
        # Dantzig's rule converges fast; switch to Bland's anti-cycling
        # rule after a run of degenerate pivots.
        if degenerate_streak < 20:
            entering = int(entering_candidates[reduced[entering_candidates].argmin()])
        else:
            entering = int(entering_candidates[0])

        # Ratio test over the rows the entering column can pivot on.
        column = tableau_a[:, entering]
        rows = (column > _TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded", iteration
        ratios = b[rows] / column[rows]
        best = ratios.min()
        # Smallest basis index among tied rows (Bland-compatible); with
        # no finite ratio every row ties, the unpivotable ones at inf too.
        if best == np.inf:
            tied = np.arange(num_rows)
        else:
            tied = rows[ratios <= best + _TOL]
        leaving = min(tied.tolist(), key=basis.__getitem__)
        degenerate_streak = degenerate_streak + 1 if best <= _TOL else 0

        _eliminate(tableau_a, b, leaving, entering)
        basis[leaving] = entering
        basis_columns[leaving] = entering
        c_basis[leaving] = c[entering]
    raise SolverError(f"simplex exceeded {max_iterations} iterations")


def _pivot_out_artificials(
    tableau_a: np.ndarray, b: np.ndarray, basis: list, total_real: int
) -> None:
    """Swap basic artificials for real columns where possible."""
    num_rows = tableau_a.shape[0]
    for row in range(num_rows):
        if basis[row] < total_real:
            continue
        candidates = (np.abs(tableau_a[row, :total_real]) > _TOL).nonzero()[0]
        if candidates.size == 0:
            continue  # redundant row; caller drops it
        entering = int(candidates[0])
        _eliminate(tableau_a, b, row, entering)
        basis[row] = entering
