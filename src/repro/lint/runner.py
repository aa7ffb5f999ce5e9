"""Lint driver: collect files, run the rule pack, return findings.

The public entry points are :func:`lint_source` (one in-memory module —
what the fixture tests use) and :func:`lint_paths` (files and directory
trees — what the CLI and CI use).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.errors import LintError
from repro.lint.findings import Finding
from repro.lint.registry import rules_for
from repro.lint.visitor import run_rules

SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules",
                        ".pytest_cache", "build", "dist"})


def lint_source(
    source: str, path: str = "<string>", select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one module's source text; ``select`` narrows the rule pack."""
    return run_rules(source, path, rules_for(None if select is None else list(select)))


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    name
                    for name in dirs
                    if name not in SKIP_DIRS and not name.endswith(".egg-info")
                )
                collected.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        else:
            raise LintError(f"no such file or directory: {path!r}")
    return sorted(dict.fromkeys(collected))


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(findings, files_checked)`` with findings sorted by
    location.  Unreadable files surface as :class:`LintError`.
    """
    rules = rules_for(None if select is None else list(select))
    files = collect_files(paths)
    findings: List[Finding] = []
    for file_path in files:
        try:
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from exc
        findings.extend(run_rules(source, file_path, rules))
    return sorted(findings), len(files)
