"""The placement linear programs (equations (2)–(7)).

The full joint problem couples the bilinear terms :math:`r_i \\cdot
x^a_{i,j}`, so it is solved by alternating two exact LPs:

- :func:`solve_data_lp` — optimal data movement :math:`x^a_{i,j}` for a
  *fixed* task placement :math:`r` (constraints (3)–(6) plus the implicit
  bound that a site cannot move out more than it holds);
- :func:`solve_task_lp` — optimal task placement :math:`r` for *fixed*
  per-site shuffle volumes :math:`F_i` (constraints (3), (4), (7)).

Both minimize the same t, so alternation monotonically improves the
objective; :class:`~repro.placement.joint.JointPlanner` drives it to a
fixed point.
"""

from __future__ import annotations

from functools import reduce
from operator import sub
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.placement.model import PlacementProblem
from repro.placement.solver import LinearProgram, LpSolution, solve_lp

#: A data movement decision: (dataset, src_site, dst_site) -> bytes.
Moves = Dict[Tuple[str, str, str], float]

_EPS_BYTES = 1e-6


def solve_data_lp(
    problem: PlacementProblem,
    reduce_fractions: Mapping[str, float],
    backend: str = "auto",
) -> Tuple[Moves, float, LpSolution]:
    """Optimal data movement given fixed reduce fractions.

    Returns ``(moves, t, solution)`` where t is the optimized shuffle
    time bound of equation (2).

    Column 0 is t; ``x[a][i->j]`` sits at ``1 + a_pos * P + p`` with p the
    pair's position in ``for i … for j … if i != j`` order (P = n(n-1)),
    so rows are filled through an ``(rows, datasets, pairs)`` view by pair
    masks.  Row order — per site: (3), (4), (5), (6), one hold row per
    dataset, then the capped pairs — decides simplex ties; keep it.
    """
    sites = problem.site_names
    datasets = problem.dataset_ids
    num_sites, num_datasets = len(sites), len(datasets)
    pairs = [(i, j) for i in sites for j in sites if i != j]
    num_pairs = len(pairs)
    var_names = ["t"] + [f"x[{a}][{i}->{j}]" for a in datasets for (i, j) in pairs]
    pair_at = {pair: index for index, pair in enumerate(pairs)}
    # Site positions of each pair's ends (off-diagonal cells, row-major: the
    # order of ``pairs``), and (site, pair) masks of the pairs leaving /
    # entering each site.
    src, dst = np.nonzero(~np.eye(num_sites, dtype=bool))
    site_ids = np.arange(num_sites)
    leaves, enters = src == site_ids[:, None], dst == site_ids[:, None]

    def pair_table(table: Mapping, default: float) -> np.ndarray:
        """Sparse ``{dataset: {(src, dst): value}}`` as a (dataset, pair) array."""
        dense = np.full((num_datasets, num_pairs), default)
        for a_pos, a in enumerate(datasets):
            for pair, value in table.get(a, {}).items():
                if pair in pair_at:  # a site paired with itself is never read
                    dense[a_pos, pair_at[pair]] = value
        return dense

    R = np.array([problem.R(a) for a in datasets], dtype=float)
    S = np.array([[problem.S(a, i) for i in sites] for a in datasets], dtype=float)
    held = np.array([[problem.I(a, i) for i in sites] for a in datasets], dtype=float)
    cap = pair_table(problem.mobility, 1.0)
    capped = cap < 1.0
    # f_i^a = R^a[(I_i - sum_j x_ij)(1 - S_i) + sum_k x_ki (1 - S_ki)]: moving
    # out sheds at the local rate, inflow adds at the pair's rate.  Each is
    # multiplied by a row's scale afterwards — (R·(1−S))·scale, as a scalar
    # loop would — and a row entry is a sum of at most two such terms, which
    # does not depend on their order; never fold them into (inflow − local).
    local = R[:, None] * (1.0 - S)
    local_by_pair = local[:, src]
    inflow = R[:, None] * (1.0 - pair_table(problem.cross_similarity, 0.0))

    num_rows = num_sites * (4 + num_datasets) + int(capped.sum())
    a_ub = np.zeros((num_rows, 1 + num_datasets * num_pairs))
    b_ub = np.empty(num_rows)
    x_rows = a_ub[:, 1:].reshape(num_rows, num_datasets, num_pairs)  # a view
    row = 0
    for i_pos, i in enumerate(sites):
        r_i = reduce_fractions.get(i, 0.0)
        out, into = leaves[i_pos], enters[i_pos]
        upload, download, push, pull = x_rows[row:row + 4]
        a_ub[row:row + 2, 0] = -1.0
        # (3): upload time of shuffle data at i — scale * f_i.  Constants
        # are left folds in (dataset, site) order, not a pairwise np.sum.
        scale = (1.0 - r_i) / problem.U(i)
        np.subtract(upload, local_by_pair * scale, out=upload, where=out)
        np.add(upload, inflow * scale, out=upload, where=into)
        constants = local[:, i_pos] * scale * held[:, i_pos]
        b_ub[row] = reduce(sub, constants.tolist(), 0.0)
        # (4): download time of shuffle data at i — scale * sum_{j != i} f_j.
        scale = r_i / problem.D(i)
        np.subtract(download, local_by_pair * scale, out=download, where=~out)
        np.add(download, inflow * scale, out=download, where=~into)
        constants = (local * scale * held)[:, site_ids != i_pos]
        b_ub[row + 1] = reduce(sub, constants.ravel().tolist(), 0.0)
        # (5), (6): data movement upload / download within the lag.
        push[:, out] = 1.0
        b_ub[row + 2] = problem.lag_seconds * problem.U(i)
        pull[:, into] = 1.0
        b_ub[row + 3] = problem.lag_seconds * problem.D(i)
        row += 4
        # Cannot move out more than the site holds: one row per dataset.
        for a_pos in range(num_datasets):
            x_rows[row + a_pos, a_pos, out] = 1.0
        b_ub[row:row + num_datasets] = held[:, i_pos]
        row += num_datasets
        # Similarity-aware mobility caps: only the absorbable fraction of
        # a site's data may move toward each destination (x <= I * S_ij).
        a_pos, pair = np.nonzero(capped & out)
        x_rows[row + np.arange(a_pos.size), a_pos, pair] = 1.0
        b_ub[row:row + a_pos.size] = held[a_pos, i_pos] * cap[a_pos, pair]
        row += a_pos.size

    objective = np.zeros(a_ub.shape[1])
    objective[0] = 1.0
    program = LinearProgram(
        c=objective, a_ub=a_ub, b_ub=b_ub, variable_names=var_names
    )
    solution = solve_lp(program, backend=backend)
    volumes = solution.x[1:]
    moves: Moves = {}
    for index in np.flatnonzero(volumes > _EPS_BYTES).tolist():
        a_pos, pair = divmod(index, num_pairs)
        moves[(datasets[a_pos], *pairs[pair])] = float(volumes[index])
    return moves, float(solution.x[0]), solution


def solve_task_lp(
    shuffle_bytes: Mapping[str, float],
    problem: PlacementProblem,
    backend: str = "auto",
    warm_names: "Optional[List[str]]" = None,
) -> Tuple[Dict[str, float], float, LpSolution]:
    """Optimal reduce fractions given fixed per-site shuffle volumes F_i.

    Returns ``(reduce_fractions, t, solution)``.  ``warm_names`` seeds
    the simplex backend's starting basis — pass an incumbent solution's
    ``basis_names`` (e.g. restricted to surviving sites on a degraded
    replan); names absent from this program's variables are ignored.
    """
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
    program = LinearProgram(
        c=objective,
        a_ub=np.vstack(rows),
        b_ub=np.asarray(bounds),
        a_eq=equality,
        b_eq=np.asarray([1.0]),
        variable_names=var_names,
    )
    solution = solve_lp(program, backend=backend, warm_names=warm_names)
    fractions = {
        site: max(0.0, float(solution.x[1 + position]))
        for position, site in enumerate(sites)
    }
    total = sum(fractions.values())
    if total <= 0:
        raise PlacementError("task LP returned all-zero fractions")
    fractions = {site: value / total for site, value in fractions.items()}
    return fractions, float(solution.x[0]), solution


def shuffle_bytes_after_moves(problem: PlacementProblem, moves: Moves) -> Dict[str, float]:
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
