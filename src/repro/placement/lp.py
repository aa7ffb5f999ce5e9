"""The placement linear programs (equations (2)–(7)).

The full joint problem couples the bilinear terms :math:`r_i \\cdot
x^a_{i,j}`, so it is solved by alternating two exact LPs:

- :class:`DataLp` (one-shot: :func:`solve_data_lp`) — optimal data
  movement :math:`x^a_{i,j}` for a *fixed* task placement :math:`r`
  (constraints (3)–(6) plus the implicit bound that a site cannot move
  out more than it holds);
- :func:`solve_task_lp` — optimal task placement :math:`r` for *fixed*
  per-site shuffle volumes :math:`F_i` (constraints (3), (4), (7)); its
  optimal t alone is :func:`task_lp_optimum`, in closed form.

Both minimize the same t, so alternation monotonically improves the
objective; :class:`~repro.placement.joint.JointPlanner` drives it to a
fixed point.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.placement.model import PlacementProblem
from repro.placement.solver import LinearProgram, LpSolution, solve_lp

#: A data movement decision: (dataset, src_site, dst_site) -> bytes.
Moves = Dict[Tuple[str, str, str], float]

_EPS_BYTES = 1e-6


class DataLp:
    """The data-movement LP of one problem, for any fixed reduce fractions.

    Column 0 is t; ``x[a][i->j]`` sits at ``1 + a_pos * P + p`` with p the
    pair's position in ``for i … for j … if i != j`` order (P = n(n-1)),
    so rows are filled through a ``(rows, datasets, pairs)`` view by pair
    masks.  Row order — per site: (3), (4), (5), (6), one hold row per
    dataset, then the capped pairs — decides simplex ties; keep it.

    Only rows (3) and (4) depend on r.  Everything else — names, masks,
    R, S, I, caps, and the rows (5), (6), hold and cap rows with their
    bounds — is built here, once; :meth:`program` fills the 2n r-rows for
    all sites at once.  A template lives as long as its caller holds it
    (one :meth:`JointPlanner.plan`): it copies the problem's numbers, so
    it goes stale if the problem is edited, and it is never cached on one.
    """

    def __init__(self, problem: PlacementProblem) -> None:
        sites = problem.site_names
        datasets = problem.dataset_ids
        num_sites, num_datasets = len(sites), len(datasets)
        pairs = [(i, j) for i in sites for j in sites if i != j]
        num_pairs = len(pairs)
        pair_at = {pair: index for index, pair in enumerate(pairs)}
        # Site positions of each pair's ends (off-diagonal cells, row-major:
        # the order of ``pairs``), and (site, pair) masks of the pairs
        # leaving / entering each site.
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
        # f_i^a = R^a[(I_i - sum_j x_ij)(1 - S_i) + sum_k x_ki (1 - S_ki)]:
        # moving out sheds at the local rate, inflow adds at the pair's
        # rate.  Each is multiplied by a row's scale afterwards —
        # (R·(1−S))·scale, as a scalar loop would — and a row entry is a
        # sum of at most two such terms, which does not depend on their
        # order; never fold them into (inflow − local).
        local = R[:, None] * (1.0 - S)
        inflow = R[:, None] * (1.0 - pair_table(problem.cross_similarity, 0.0))

        block = 4 + num_datasets + np.count_nonzero(capped[:, None, :] & leaves, axis=(0, 2))
        first_row = np.concatenate(([0], np.cumsum(block)[:-1]))
        num_rows = int(block.sum())
        a_ub = np.zeros((num_rows, 1 + num_datasets * num_pairs))
        b_ub = np.zeros(num_rows)
        x_rows = a_ub[:, 1:].reshape(num_rows, num_datasets, num_pairs)  # a view
        for i_pos, row in enumerate(first_row.tolist()):
            out, into = leaves[i_pos], enters[i_pos]
            # (3), (4): shuffle upload / download time at i, filled per r.
            a_ub[row:row + 2, 0] = -1.0
            # (5), (6): data movement upload / download within the lag.
            x_rows[row + 2][:, out] = 1.0
            b_ub[row + 2] = problem.lag_seconds * problem.U(sites[i_pos])
            x_rows[row + 3][:, into] = 1.0
            b_ub[row + 3] = problem.lag_seconds * problem.D(sites[i_pos])
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

        self._datasets, self._pairs = datasets, pairs
        self._names = ["t"] + [f"x[{a}][{i}->{j}]" for a in datasets for (i, j) in pairs]
        self._sites = sites
        self._uplink = [problem.U(i) for i in sites]
        self._downlink = [problem.D(i) for i in sites]
        self._local, self._held = local, held
        self._local_by_pair, self._inflow = local[:, src], inflow
        self._leaves, self._enters = leaves[:, None, :], enters[:, None, :]
        self._others = ~np.eye(num_sites, dtype=bool)[:, None, :]
        self._upload_rows, self._download_rows = first_row, first_row + 1
        # The static part is a few entries per row: kept as flat positions
        # and values, scattered onto fresh zeros per round, not a dense copy.
        self._shape, self._b_ub = a_ub.shape, b_ub
        self._static = np.flatnonzero(a_ub)
        self._static_values = a_ub.reshape(-1)[self._static]

    def program(self, reduce_fractions: Mapping[str, float]) -> LinearProgram:
        """The LP for fixed reduce fractions: the template plus rows (3), (4).

        Each coefficient is the one product-then-add (or -subtract) onto
        zero a site-at-a-time fill makes, and each bound a left fold in
        (dataset, site) order, not a pairwise ``np.sum``.
        """
        r = [reduce_fractions.get(i, 0.0) for i in self._sites]
        local, held = self._local, self._held
        shape = (len(r),) + self._inflow.shape
        # (3): upload time of shuffle data at i — scale_i * f_i.  Scales are
        # Python-float divisions: a zero bandwidth raises, not yields inf.
        scale = np.array([(1.0 - r_i) / U for r_i, U in zip(r, self._uplink)])
        by_row = scale[:, None, None]
        upload = np.zeros(shape)
        np.subtract(upload, self._local_by_pair * by_row, out=upload, where=self._leaves)
        np.add(upload, self._inflow * by_row, out=upload, where=self._enters)
        upload_bounds = np.subtract.reduce(local * scale * held, axis=0, initial=0.0)
        # (4): download time of shuffle data at i — scale_i * sum_{j != i} f_j.
        # Site i's own terms are zeroed: subtracting +0.0 changes no fold.
        by_row = np.array([r_i / D for r_i, D in zip(r, self._downlink)])[:, None, None]
        download = np.zeros(shape)
        np.subtract(download, self._local_by_pair * by_row, out=download, where=~self._leaves)
        np.add(download, self._inflow * by_row, out=download, where=~self._enters)
        terms = np.where(self._others, local * by_row * held, 0.0)
        download_bounds = np.subtract.reduce(terms.reshape(len(r), -1), axis=1, initial=0.0)

        a_ub, b_ub = np.zeros(self._shape), self._b_ub.copy()
        a_ub.reshape(-1)[self._static] = self._static_values
        x_rows = a_ub[:, 1:].reshape(a_ub.shape[0], *self._inflow.shape)  # a view
        x_rows[self._upload_rows] = upload
        x_rows[self._download_rows] = download
        b_ub[self._upload_rows] = upload_bounds
        b_ub[self._download_rows] = download_bounds
        objective = np.zeros(a_ub.shape[1])
        objective[0] = 1.0
        return LinearProgram(
            c=objective, a_ub=a_ub, b_ub=b_ub, variable_names=self._names
        )

    def solve(
        self, reduce_fractions: Mapping[str, float], backend: str = "auto"
    ) -> Tuple[Moves, float, LpSolution]:
        """Optimal data movement given fixed reduce fractions.

        Returns ``(moves, t, solution)`` where t is the optimized shuffle
        time bound of equation (2).
        """
        solution = solve_lp(self.program(reduce_fractions), backend=backend)
        volumes = solution.x[1:]
        num_pairs = len(self._pairs)
        moves: Moves = {}
        for index in np.flatnonzero(volumes > _EPS_BYTES).tolist():
            a_pos, pair = divmod(index, num_pairs)
            moves[(self._datasets[a_pos], *self._pairs[pair])] = float(volumes[index])
        return moves, float(solution.x[0]), solution


def solve_data_lp(
    problem: PlacementProblem,
    reduce_fractions: Mapping[str, float],
    backend: str = "auto",
) -> Tuple[Moves, float, LpSolution]:
    """Optimal data movement given fixed reduce fractions, in one shot.

    Returns ``(moves, t, solution)``; see :class:`DataLp`, which a caller
    solving the same problem for several fractions should hold instead.
    """
    return DataLp(problem).solve(reduce_fractions, backend=backend)


def _task_rates(
    shuffle_bytes: Mapping[str, float], problem: PlacementProblem
) -> List[Tuple[float, float, Optional[float]]]:
    """Per site, the task LP's coefficients of r_i at fixed volumes F:
    ``(-F_i/U_i, In_i/D_i, total/C_i)`` with ``In_i = sum_{j != i} F_j``
    (a left fold in site order) and None where no compute row applies."""
    sites = problem.site_names
    missing = set(shuffle_bytes) - set(sites)
    if missing:
        raise PlacementError(f"shuffle bytes reference unknown sites {sorted(missing)}")
    volumes = [shuffle_bytes.get(site, 0.0) for site in sites]
    total = sum(volumes)
    rates = []
    for position, site in enumerate(sites):
        inbound = sum(volumes[:position] + volumes[position + 1:])
        # Compute-constraint extension: reduce-processing time at i,
        # r_i * (total intermediate) / C_i <= t, when C_i is known.
        compute_rate = problem.compute_bps.get(site)
        rates.append((
            -volumes[position] / problem.U(site),
            inbound / problem.D(site),
            total / compute_rate if compute_rate and total > 0 else None,
        ))
    return rates


def solve_task_lp(
    shuffle_bytes: Mapping[str, float],
    problem: PlacementProblem,
    backend: str = "auto",
) -> Tuple[Dict[str, float], float, LpSolution]:
    """Optimal reduce fractions given fixed per-site shuffle volumes F_i.

    Returns ``(reduce_fractions, t, solution)``.
    Only t wanted?  :func:`task_lp_optimum` is the same number, unsolved.
    """
    sites = problem.site_names
    rates = _task_rates(shuffle_bytes, problem)
    num_sites = len(sites)
    upload = np.array([rate[0] for rate in rates])  # -F_i / U_i
    # Per site: (3) (1 - r_i) F_i / U_i <= t, (4) r_i In_i / D_i <= t and
    # the compute row r_i total / C_i <= t, dropped where it does not apply.
    a_ub = np.zeros((num_sites, 3, 1 + num_sites))
    a_ub[:, :, 0] = -1.0
    diagonal = np.arange(num_sites)
    a_ub[diagonal, 0, 1 + diagonal] = upload
    a_ub[diagonal, 1, 1 + diagonal] = [rate[1] for rate in rates]
    a_ub[diagonal, 2, 1 + diagonal] = [rate[2] or 0.0 for rate in rates]
    b_ub = np.zeros((num_sites, 3))
    b_ub[:, 0] = upload
    present = np.ones((num_sites, 3), dtype=bool)
    present[:, 2] = [rate[2] is not None for rate in rates]

    equality = np.zeros((1, 1 + num_sites))
    equality[0, 1:] = 1.0
    objective = np.zeros(1 + num_sites)
    objective[0] = 1.0
    program = LinearProgram(
        c=objective,
        a_ub=a_ub[present],
        b_ub=b_ub[present],
        a_eq=equality,
        b_eq=np.asarray([1.0]),
        variable_names=["t"] + [f"r[{site}]" for site in sites],
    )
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


def task_lp_optimum(shuffle_bytes: Mapping[str, float], problem: PlacementProblem) -> float:
    """:func:`solve_task_lp`'s optimal t, in closed form, solving nothing.

    With ``a_i = F_i/U_i`` and ``h_i = max(In_i/D_i, total/C_i)`` the
    task LP's rows read ``max(0, 1 - t/a_i) <= r_i <= t/h_i`` and
    ``sum r = 1``; t is feasible iff every site's interval is non-empty
    (``t >= a_i h_i / (a_i + h_i)``), the upper ends reach 1
    (``t >= 1 / sum 1/h_i`` when no h_i is 0) and the lower ends stay
    within 1 — on the top-k a_i that is ``k - t sum 1/a_i <= 1``.  The
    optimum is the largest of these bounds (DESIGN.md derives it).
    """
    drains: List[float] = []
    fills: List[float] = []
    for upload, download, compute in _task_rates(shuffle_bytes, problem):
        drains.append(-upload)
        fills.append(download if compute is None else max(download, compute))
    # Each ratio is taken of the smaller over the larger, so no product
    # underflows and no reciprocal overflows, at any byte count.
    bound = max(
        (
            min(a, h) / (1.0 + min(a, h) / max(a, h))
            for a, h in zip(drains, fills)
            if a > 0 and h > 0
        ),
        default=0.0,
    )
    if all(h > 0 for h in fills):
        least = min(fills)
        bound = max(bound, least / sum(least / h for h in fills))
    # sum_i max(0, 1 - t/a_i) = 1: the largest (k - 1) / sum 1/a over the
    # k largest a_i.
    drains = sorted((a for a in drains if a > 0), reverse=True)
    for k in range(2, len(drains) + 1):
        least = drains[k - 1]
        bound = max(bound, (k - 1) * least / sum(least / a for a in drains[:k]))
    return bound


def shuffle_bytes_after_moves(problem: PlacementProblem, moves: Moves) -> Dict[str, float]:
    """Per-site total shuffle volume F_i = sum_a f_i^a(x) given moves.

    :meth:`PlacementProblem.shuffle_bytes` for every (dataset, site), from
    one pass over the moves: the bytes each site moves out and the inflow
    it receives at the pair's rate accumulate in move order, and the
    per-dataset terms add up in dataset order — the same float operations.
    """
    moved_out: Dict[Tuple[str, str], float] = {}
    inflow: Dict[Tuple[str, str], float] = {}
    for (dataset, src, dst), volume in moves.items():
        moved_out[dataset, src] = moved_out.get((dataset, src), 0.0) + volume
        inflow[dataset, dst] = inflow.get((dataset, dst), 0.0) + volume * (
            1.0 - problem.Sij(dataset, src, dst)
        )
    totals: Dict[str, float] = {site: 0.0 for site in problem.site_names}
    for a, held in problem.input_bytes.items():  # I^a and S^a, as I() and S() read them
        similarity = problem.similarity.get(a, {})
        ratio = problem.R(a)
        for site in totals:
            local = (held.get(site, 0.0) - moved_out.get((a, site), 0.0)) * (
                1.0 - similarity.get(site, 0.0)
            )
            totals[site] += (local + inflow.get((a, site), 0.0)) * ratio
    return totals
