"""Per-line suppression pragmas.

A finding on line N is suppressed when line N carries a trailing comment
of the form::

    some_code()  # lint: allow[R001]
    other_code()  # lint: allow[R003,R004] — reason text is free-form

The rule list is comma-separated; anything after the closing bracket is
an (encouraged) human-readable justification.  ``allow[*]`` suppresses
every rule on that line.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet

_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9*,\s]+)\]")


def parse_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the set of rule ids allowed there."""
    pragmas: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        )
        if rules:
            pragmas[lineno] = rules
    return pragmas


def is_suppressed(
    pragmas: Dict[int, FrozenSet[str]], line: int, rule_id: str
) -> bool:
    allowed = pragmas.get(line)
    if not allowed:
        return False
    return rule_id.upper() in allowed or "*" in allowed


def suppressed_in(
    pragmas: Dict[int, FrozenSet[str]], first: int, last: int, rule_id: str
) -> bool:
    """True when a pragma on any line ``first..last`` allows ``rule_id``."""
    return any(
        is_suppressed(pragmas, line, rule_id) for line in range(first, last + 1)
    )
