"""Data and reduce-task placement (§5).

- :class:`~repro.placement.model.PlacementProblem` — the Table 1 inputs.
- :mod:`~repro.placement.lp` — the LP of equations (2)–(7); since the
  objective couples ``r_i`` with ``x_{i,j}`` bilinearly, the joint solver
  alternates two exact LPs (x given r, r given x) to a fixed point.
- :mod:`~repro.placement.solver` — scipy backend plus a pure-Python
  two-phase simplex fallback.
- :mod:`~repro.placement.iridium` — the Iridium baseline: separate
  task-placement LP and greedy high-value data movement heuristic [27].
- :mod:`~repro.placement.plan` — executing a plan against real shards,
  with similarity-aware or random record selection.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
