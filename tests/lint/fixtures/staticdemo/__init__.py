"""Seeded shared state for the whole-program pass R010.

The hazard in this package is *invisible* to the per-file rules
(R001-R008) because the state is created in one frame and mutated in
another; ``tests/lint/test_static_passes.py`` asserts exactly that —
per-file lint of the package is clean while R010 flags it.
"""
