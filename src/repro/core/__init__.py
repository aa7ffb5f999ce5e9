"""Bohr's controller and experiment harness.

:class:`~repro.core.controller.Controller` is the logically centralized
controller of §3: it pre-processes data into cubes, checks similarity
with probes, solves placement, executes the data movement in the query
lag, and runs queries on the engine.  The experiment runner and report
helpers regenerate the paper's tables and figures from it.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
