"""Single-pass AST walker with parent links and an import table.

One :class:`LintContext` is built per file; every registered rule is
dispatched from the same walk, so a file is parsed and traversed once no
matter how many rules run.  The context carries the cross-cutting
facilities rules need:

* ``qualified_name(node)`` — dotted name of a ``Name``/``Attribute``
  chain with import aliases resolved (``from time import perf_counter as
  pc`` makes ``pc()`` resolve to ``time.perf_counter``);
* ``parent(node)`` / ``ancestors(node)`` — upward navigation;
* ``is_set_expr(node)`` — conservative "this expression is an unordered
  set" type judgement used by R003.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.pragmas import parse_pragmas, suppressed_in
from repro.lint.registry import LintRule, known_rule_ids


class LintContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, tree: ast.AST, source: str, path: str) -> None:
        self.tree = tree
        self.source = source
        self.path = path
        self.pragmas: Dict[int, FrozenSet[str]] = parse_pragmas(source)
        self._parents: Dict[ast.AST, ast.AST] = {}
        #: local alias -> canonical dotted module path ("np" -> "numpy",
        #: "pc" -> "time.perf_counter").
        self.import_aliases: Dict[str, str] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._collect_imports()

    # ------------------------------------------------------------------
    # imports
    # ------------------------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.import_aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    # ------------------------------------------------------------------
    # expression helpers
    # ------------------------------------------------------------------

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a Name/Attribute chain, import aliases resolved."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.import_aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def is_set_expr(self, node: ast.AST) -> bool:
        """Conservatively true when ``node`` evaluates to an unordered set.

        Covers ``set(...)`` / ``frozenset(...)`` calls, set literals, set
        comprehensions, and set-operator expressions (``| & - ^``) whose
        operands are themselves sets or ``dict.keys()`` views (a binary
        set operation on key views returns a plain unordered ``set``).
        """
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = self.qualified_name(node.func)
            if name in ("set", "frozenset"):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return any(
                self.is_set_expr(side) or self._is_keys_view(side)
                for side in (node.left, node.right)
            )
        return False

    @staticmethod
    def _is_keys_view(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        )


def statement_span(stmt: ast.stmt) -> "Tuple[int, int]":
    """Line range on which a pragma covers ``stmt``.

    Its full extent for a simple statement, the header only (up to the
    first body statement) for a compound one — a pragma buried in a loop
    body must not silence a finding on the loop's iterable.
    """
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return stmt.lineno, max(stmt.lineno, body[0].lineno - 1)
    return stmt.lineno, stmt.end_lineno or stmt.lineno


def _suppression_span(
    context: LintContext, where: ast.AST, line: int
) -> "Tuple[int, int]":
    """Line range on which a pragma suppresses a finding at ``where``:
    the :func:`statement_span` of the enclosing statement, widened to
    the flagged expression's own lines."""
    end_line = line
    if isinstance(where, ast.expr):
        end_line = getattr(where, "end_lineno", None) or line
    stmt: Optional[ast.AST] = where
    while stmt is not None and not isinstance(stmt, ast.stmt):
        stmt = context.parent(stmt)
    if stmt is None:
        return line, end_line
    first, last = statement_span(stmt)
    return min(line, first), max(end_line, last)


def run_rules(
    source: str, path: str, rules: Sequence[LintRule]
) -> List[Finding]:
    """Parse ``source`` and run every rule over it; returns sorted findings.

    Parse failures (syntax errors, NUL bytes, …) are reported as a
    pseudo-finding with rule id ``R000`` rather than raised, so one
    broken file cannot abort a whole lint run.  Unknown rule ids inside
    pragmas are reported as ``W001`` — a typo'd pragma silently
    suppressing nothing is worse than a loud one.

    A pragma suppresses a finding when it sits on any line of the
    enclosing *simple* statement (so the trailing-comment idiom works on
    continuation lines of a multi-line expression); for compound
    statements (``for``/``if``/``def`` …) only the header lines count —
    a pragma buried in a loop body must not silence a finding on the
    loop's iterable.
    """
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        # ValueError covers non-syntax parse failures (e.g. NUL bytes).
        lineno = getattr(exc, "lineno", None) or 1
        offset = getattr(exc, "offset", None) or 1
        message = getattr(exc, "msg", None) or str(exc)
        return [
            Finding(
                path=path,
                line=lineno,
                col=offset - 1,
                rule_id="R000",
                message=f"parse failure: {message}",
            )
        ]
    context = LintContext(tree, source, path)
    findings: List[Finding] = []
    known_ids = known_rule_ids()
    for lineno, rule_ids in sorted(context.pragmas.items()):
        for rule_id in sorted(rule_ids):
            if rule_id != "*" and rule_id not in known_ids:
                findings.append(
                    Finding(
                        path=path, line=lineno, col=0, rule_id="W001",
                        message=(
                            f"pragma names unknown rule id {rule_id!r} "
                            "and suppresses nothing — fix the id or drop it"
                        ),
                    )
                )
    for node in ast.walk(tree):
        for rule in rules:
            if not isinstance(node, rule.node_types):
                continue
            for where, message in rule.check(node, context):
                line = getattr(where, "lineno", 1)
                col = getattr(where, "col_offset", 0)
                first, last = _suppression_span(context, where, line)
                if suppressed_in(context.pragmas, first, last, rule.rule_id):
                    continue
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=col,
                        rule_id=rule.rule_id,
                        message=message,
                    )
                )
    return sorted(findings)
