"""Rule registry: rules declare an id, the node types they inspect, and a
``check`` method; :func:`register` adds one instance to the global pack.

Rules are stateless across files — per-file context (imports, parents,
source) lives on the :class:`~repro.lint.visitor.LintContext` handed to
``check``.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Tuple, Type

from repro.errors import LintError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.visitor import LintContext

_RULE_ID_RE = re.compile(r"^R\d{3}$")

#: Whole-program pass ids (see :mod:`repro.lint.passes`).  Listed here
#: so pragma validation and reporters know the full rule-id space
#: without importing the project model.
STATIC_RULE_IDS: Tuple[str, ...] = ("R010",)

#: Pseudo ids emitted by the framework itself: R000 marks a file that
#: could not be parsed, W001 an unknown rule id inside a pragma.
META_RULE_IDS: Tuple[str, ...] = ("R000", "W001")


class LintRule:
    """Base class for one lint rule.

    Subclasses set :attr:`rule_id`, :attr:`title` and :attr:`node_types`
    and implement :meth:`check`, yielding ``(node, message)`` pairs for
    each violation found at ``node``.
    """

    rule_id: str = ""
    title: str = ""
    #: AST node classes this rule wants to see (dispatch filter).
    node_types: Tuple[Type[ast.AST], ...] = ()

    def check(
        self, node: ast.AST, context: "LintContext"
    ) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.rule_id}>"


_RULES: Dict[str, LintRule] = {}


def register(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding one rule instance to the global pack."""
    rule = rule_class()
    if not _RULE_ID_RE.match(rule.rule_id):
        raise LintError(
            f"rule id {rule.rule_id!r} does not match the R### convention"
        )
    if rule.rule_id in _RULES:
        raise LintError(f"duplicate rule id {rule.rule_id}")
    if not rule.node_types:
        raise LintError(f"rule {rule.rule_id} declares no node types")
    _RULES[rule.rule_id] = rule
    return rule_class


def all_rules() -> List[LintRule]:
    """Every registered rule, in rule-id order."""
    import repro.lint.rules  # noqa: F401 - populate the registry

    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def known_rule_ids() -> "FrozenSet[str]":
    """Every id a pragma may legitimately reference."""
    return (
        frozenset(rule.rule_id for rule in all_rules())
        | frozenset(STATIC_RULE_IDS)
        | frozenset(META_RULE_IDS)
    )


def rules_for(selected: "List[str] | None" = None) -> List[LintRule]:
    """The rule pack, optionally narrowed to ``selected`` ids."""
    rules = all_rules()
    if selected is None:
        return rules
    known = {rule.rule_id for rule in rules}
    unknown = [rule_id for rule_id in selected if rule_id.upper() not in known]
    if unknown:
        raise LintError(
            f"unknown rule ids {sorted(unknown)}; known: {sorted(known)}"
        )
    wanted = {rule_id.upper() for rule_id in selected}
    return [rule for rule in rules if rule.rule_id in wanted]
