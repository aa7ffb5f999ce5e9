"""`repro.lint` — simulation-aware static analysis for this repository.

An AST-based lint framework (visitor core, rule registry, per-line
``# lint: allow[R001]``-style pragmas, text/JSON/SARIF reporters) whose
rule pack encodes the repo's determinism and correctness contract — no
wall-clock reads in sim code (R001), seeded randomness only (R002), no
unordered set iteration into order-sensitive constructs (R003), no float
equality on sim quantities (R004), no mutable defaults (R005), no
blanket excepts (R006).  See DESIGN.md "Determinism & invariants
contract".

On top of the per-file rules sits one whole-program pass
(:mod:`repro.lint.graph` / :mod:`repro.lint.passes`): R010, the
shared-mutable-state inventory over every module of ``src/repro``.  Its
accepted findings live in the committed ``lint-baseline.json`` with
per-entry justifications; CI fails on any *new* finding.  Hash-seed
dependence that no rule sees is caught end to end instead: the
``--determinism`` smoke runs its second run in a fresh interpreter
under a different ``PYTHONHASHSEED``.

Run it exactly as CI does::

    python -m repro lint src/repro benchmarks
    python -m repro lint --static --baseline lint-baseline.json \
        src/repro benchmarks
    python -m repro.lint src/repro benchmarks    # equivalent
"""

from repro.lint.findings import Finding
from repro.lint.registry import (
    LintRule,
    STATIC_RULE_IDS,
    all_rules,
    register,
    rules_for,
)
from repro.lint.report import render_json, render_text
from repro.lint.runner import collect_files, lint_paths, lint_source

__all__ = [
    "Finding",
    "LintRule",
    "STATIC_RULE_IDS",
    "all_rules",
    "collect_files",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "rules_for",
]
