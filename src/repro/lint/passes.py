"""The whole-program pass R010: the shared-mutable-state inventory.

Where the per-file rules (R001–R008) see one module at a time, R010
needs the whole of ``src/repro`` (:class:`~repro.lint.graph.ProjectGraph`):
module-level mutable containers, class-level mutable attributes,
``lru_cache`` memo tables and ``global``-rebound slots are collected
into a machine-readable inventory (``shared_state.json``); the ones
actually *mutated* from function bodies become findings.  The
multi-tenant serving layer treats this inventory as its isolation TODO
list.

A finding is anchored at the statement that creates the state, and an
``allow[R010]`` pragma there suppresses it under the per-file runner's
rule: anywhere on a simple statement, on the header lines of a compound
one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.baseline import normalize_path
from repro.lint.findings import Finding
from repro.lint.graph import (
    MODULE_FRAME,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    dotted_name,
    iter_frame,
)
from repro.lint.pragmas import suppressed_in
from repro.lint.visitor import statement_span

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter",
})

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "extendleft",
})

_CACHE_DECORATORS = frozenset({
    "functools.lru_cache", "functools.cache", "lru_cache", "cache",
})


@dataclass
class SharedStateEntry:
    """One piece of process-shared state, for ``shared_state.json``."""

    module: str
    name: str
    kind: str           #: module-global | class-attr | cache | global-rebind
    path: str
    line: int
    container: str = ""
    mutated: bool = False
    mutation_sites: List[str] = field(default_factory=list)
    justification: Optional[str] = None
    #: the statement that creates the state (the pragma anchor)
    node: Optional[ast.stmt] = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "module": self.module, "name": self.name, "kind": self.kind,
            "path": self.path, "line": self.line,
            "container": self.container, "mutated": self.mutated,
            "mutation_sites": sorted(self.mutation_sites),
        }
        if self.justification is not None:
            payload["justification"] = self.justification
        return payload


def _mutable_container(module: ModuleInfo, value: ast.AST) -> Optional[str]:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func, module.import_aliases)
        if name in _MUTABLE_FACTORIES:
            return name.rsplit(".", 1)[-1]
    return None


def build_inventory(graph: ProjectGraph) -> List[SharedStateEntry]:
    """Collect every shared-state candidate, then mark the mutated ones."""
    entries: Dict[str, SharedStateEntry] = {}
    for module in graph.modules.values():
        for stmt in module.tree.body:
            _collect_stmt_entry(module, stmt, None, entries)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    _collect_stmt_entry(module, item, stmt.name, entries)
    for info in graph.functions.values():
        module = graph.modules[info.module]
        if _cache_decorated(module, info):
            entry = SharedStateEntry(
                module=info.module,
                name=(f"{info.class_name}.{info.name}" if info.class_name
                      else info.name),
                kind="cache", path=normalize_path(info.path),
                line=info.lineno,
                container="lru_cache", mutated=True, node=info.node,
            )
            entries.setdefault(entry.key, entry)
    _mark_rebinds(graph, entries)
    _mark_mutations(graph, entries)
    return sorted(entries.values(), key=lambda e: (e.path, e.line, e.name))


def _collect_stmt_entry(
    module: ModuleInfo, stmt: ast.AST, class_name: Optional[str],
    entries: Dict[str, SharedStateEntry],
) -> None:
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets, value = [stmt.target], stmt.value
    else:
        return
    container = _mutable_container(module, value)
    if container is None:
        return
    for target in targets:
        if not isinstance(target, ast.Name):
            continue
        name = f"{class_name}.{target.id}" if class_name else target.id
        kind = "class-attr" if class_name else "module-global"
        entry = SharedStateEntry(
            module=module.name, name=name, kind=kind,
            path=normalize_path(module.path),
            line=stmt.lineno, container=container, node=stmt,
        )
        entries.setdefault(entry.key, entry)


def _cache_decorated(module: ModuleInfo, info: FunctionInfo) -> bool:
    if info.node is None or not hasattr(info.node, "decorator_list"):
        return False
    for decorator in info.node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target, module.import_aliases)
        if name in _CACHE_DECORATORS:
            return True
    return False


def _mark_rebinds(graph: ProjectGraph,
                  entries: Dict[str, SharedStateEntry]) -> None:
    for info in graph.functions.values():
        if info.name == MODULE_FRAME or info.node is None:
            continue
        for node in iter_frame(info.node.body):
            if not isinstance(node, ast.Global):
                continue
            for name in node.names:
                key = f"{info.module}.{name}"
                site = f"{normalize_path(info.path)}:{node.lineno}"
                if key in entries:
                    entries[key].mutated = True
                    entries[key].mutation_sites.append(site)
                else:
                    entries[key] = SharedStateEntry(
                        module=info.module, name=name, kind="global-rebind",
                        path=normalize_path(info.path), line=node.lineno,
                        container="global", mutated=True,
                        mutation_sites=[site], node=node,
                    )


def _mark_mutations(graph: ProjectGraph,
                    entries: Dict[str, SharedStateEntry]) -> None:
    for info in graph.functions.values():
        if info.name == MODULE_FRAME or info.node is None:
            continue  # import-time construction of a table is not runtime sharing
        module = graph.modules[info.module]
        for node in iter_frame(info.node.body):
            for receiver in _mutation_receivers(node):
                for key in _receiver_keys(module, info, receiver):
                    entry = entries.get(key)
                    if entry is None:
                        continue
                    entry.mutated = True
                    site = f"{normalize_path(info.path)}:{node.lineno}"
                    if site not in entry.mutation_sites:
                        entry.mutation_sites.append(site)


def _mutation_receivers(node: ast.AST) -> Iterator[ast.AST]:
    """Expressions whose value is mutated in place by ``node``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_METHODS:
            yield node.func.value
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        if isinstance(target, ast.Subscript):
            yield target.value


def _receiver_keys(module: ModuleInfo, info: FunctionInfo,
                   receiver: ast.AST) -> List[str]:
    dotted = dotted_name(receiver, module.import_aliases)
    if not dotted:
        return []
    root, _, rest = dotted.partition(".")
    if root in ("self", "cls") and info.class_name is not None:
        return [f"{module.name}.{info.class_name}.{rest}"] if rest else []
    if not rest:
        if dotted in info.local_names:
            return []
        return [f"{module.name}.{dotted}"]
    # alias-resolved dotted receiver (other module's global, or a
    # same-module ClassName.attr)
    return [dotted, f"{module.name}.{dotted}"]


def r010_message(entry: SharedStateEntry) -> str:
    """The R010 finding message for one inventory entry.

    Kept in one place so the baseline and ``shared_state.json`` writers
    agree on the key byte-for-byte.  It names the files that mutate the
    entry, not the lines: the message is the baseline key, and moving a
    line must not turn an accepted finding into a new one.
    """
    detail = {
        "module-global": "module-level mutable container",
        "class-attr": "class-level mutable attribute (shared by instances)",
        "cache": "memoization cache lives for the whole process",
        "global-rebind": "module global rebound at runtime",
    }[entry.kind]
    files = sorted({site.rsplit(":", 1)[0] for site in entry.mutation_sites})
    sites = ", ".join(files[:3]) or "decorator"
    return (
        f"shared mutable state {entry.key} ({entry.container}): {detail}; "
        f"mutated at {sites} — a concurrent serving layer must scope or "
        "lock this"
    )


def shared_state_pass(
    graph: ProjectGraph,
) -> Tuple[List[Finding], List[SharedStateEntry]]:
    """Run R010; returns (findings, inventory).

    The inventory holds every entry, mutated or not, so
    ``shared_state.json`` always reflects the full audit.
    """
    inventory = build_inventory(graph)
    findings: List[Finding] = []
    for entry in inventory:
        if not entry.mutated:
            continue
        first, last = statement_span(entry.node)
        if suppressed_in(graph.modules[entry.module].pragmas, first, last, "R010"):
            continue
        findings.append(Finding(
            path=entry.path, line=entry.line, col=0,
            rule_id="R010", message=r010_message(entry),
        ))
    return sorted(findings), inventory


def write_shared_state(
    entries: Sequence[SharedStateEntry], path: str, baseline=None
) -> int:
    """Write the R010 inventory as ``shared_state.json``; returns count.

    When a baseline is given, justifications for accepted mutated
    entries are joined in (the baseline key is the R010 finding message,
    which :func:`r010_message` reproduces byte-for-byte), so the JSON
    doubles as the serving layer's annotated isolation TODO list.
    """
    import json

    payload_entries = []
    for entry in sorted(entries, key=lambda item: item.key):
        if baseline is not None and entry.mutated:
            probe = Finding(
                path=entry.path, line=entry.line, col=0,
                rule_id="R010", message=r010_message(entry),
            )
            entry.justification = baseline.justification_for(probe)
        payload_entries.append(entry.to_dict())
    payload = {
        "version": 1,
        "description": (
            "process-shared mutable state in src/repro, emitted by "
            "`repro lint --shared-state` (pass R010); every entry must "
            "be scoped, locked, or reset-hooked before the concurrent "
            "serving layer lands"
        ),
        "entries": payload_entries,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  ensure_ascii=False)
        handle.write("\n")
    return len(payload_entries)
