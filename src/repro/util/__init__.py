"""Shared utilities: units, seeded RNG helpers, statistics, ASCII tables.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
