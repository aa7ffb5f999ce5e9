"""Whole-program project model: modules, import aliases, function frames.

The per-file rules (R001–R008) see one AST at a time; the shared-state
pass R010 (:mod:`repro.lint.passes`) needs every module of ``src/repro``
at once, to find module- and class-level state and the function bodies
that mutate it.  :class:`ProjectGraph` supplies that: it parses every
module under one or more roots and records, per module, its import
alias table (module- and function-level imports, relative ones
resolved) and, per function frame, the names bound locally in it.

Parse failures do not abort the build: the broken module is recorded as
an ``R000`` finding (same convention as the per-file runner) and the
model is built from the modules that do parse.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.findings import Finding
from repro.lint.pragmas import parse_pragmas
from repro.lint.runner import SKIP_DIRS

#: Pseudo-function name for a module's import-time frame.
MODULE_FRAME = "<module>"


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted text of a Name/Attribute chain with import aliases resolved."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(aliases.get(current.id, current.id))
    return ".".join(reversed(parts))


def iter_frame(nodes: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Nodes executed in one frame (module body or function body).

    Descends into everything *except* nested function bodies — those are
    their own frames — while still yielding the parts of a nested ``def``
    that execute in this frame (decorators and argument defaults).
    Lambdas are opaque (deferred bodies).
    """
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(d for d in node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionInfo:
    """One function/method/nested-def (or a module's import-time frame)."""

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    path: str
    lineno: int
    node: Optional[ast.AST] = field(repr=False, default=None)
    #: names bound locally in this frame (params + assignments), used to
    #: tell a local from the module global of the same name.
    local_names: FrozenSet[str] = frozenset()


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: Optional[ast.Module] = field(repr=False, default=None)
    pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: local alias -> canonical dotted path, module- and function-level.
    import_aliases: Dict[str, str] = field(default_factory=dict)


class ProjectGraph:
    """The project model: modules and their function frames."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.parse_failures: List[Finding] = []

    @classmethod
    def build(cls, paths: Sequence[str]) -> "ProjectGraph":
        """Build the model from package directories and/or loose files."""
        graph = cls()
        for root in paths:
            graph._load_root(root)
        for module in graph.modules.values():
            graph._collect_imports(module)
            graph._collect_functions(module)
        return graph

    def _load_root(self, root: str) -> None:
        if os.path.isfile(root):
            stem = os.path.splitext(os.path.basename(root))[0]
            self._load_file(root, stem)
            return
        if not os.path.isdir(root):
            raise LintError(f"no such file or directory: {root!r}")
        root = root.rstrip("/\\")
        package_root = os.path.isfile(os.path.join(root, "__init__.py"))
        base = os.path.basename(root) if package_root else None
        for dirpath, dirs, names in os.walk(root):
            dirs[:] = sorted(
                d for d in dirs
                if d not in SKIP_DIRS and not d.endswith(".egg-info")
            )
            rel = os.path.relpath(dirpath, root)
            rel_parts = [] if rel == "." else rel.replace("\\", "/").split("/")
            if rel_parts and not os.path.isfile(
                os.path.join(dirpath, "__init__.py")
            ) and base is not None:
                # a non-package dir inside a package: skip its contents
                continue
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                stem = os.path.splitext(name)[0]
                if base is not None:
                    parts = [base] + rel_parts
                    if stem != "__init__":
                        parts.append(stem)
                    module_name = ".".join(parts)
                else:
                    module_name = ".".join(rel_parts + [stem]) if stem != "__init__" \
                        else ".".join(rel_parts) or stem
                self._load_file(os.path.join(dirpath, name), module_name)

    def _load_file(self, path: str, module_name: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as exc:
            lineno = getattr(exc, "lineno", None) or 1
            offset = getattr(exc, "offset", None) or 1
            message = getattr(exc, "msg", None) or str(exc)
            self.parse_failures.append(
                Finding(path=path, line=lineno, col=offset - 1,
                        rule_id="R000",
                        message=f"parse failure: {message}")
            )
            return
        self.modules[module_name] = ModuleInfo(
            name=module_name, path=path, tree=tree,
            pragmas=parse_pragmas(source),
        )

    def _collect_imports(self, module: ModuleInfo) -> None:
        """All import statements, module- and function-level alike.

        Lazy in-function imports are common in this codebase (CLI entry
        points defer heavy imports); folding them into one alias table
        keeps names they bind resolvable in every frame.
        """
        package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.import_aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        module.import_aliases.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                target = self._import_base(module, node, package)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    full = f"{target}.{alias.name}" if target else alias.name
                    module.import_aliases[alias.asname or alias.name] = full

    @staticmethod
    def _import_base(module: ModuleInfo, node: ast.ImportFrom,
                     package: str) -> Optional[str]:
        if node.level == 0:
            return node.module or None
        # relative import: climb level-1 packages above this module's package
        parts = package.split(".") if package else []
        climb = node.level - 1
        if climb > len(parts):
            return None
        base_parts = parts[: len(parts) - climb]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) or None

    def _collect_functions(self, module: ModuleInfo) -> None:
        # the module's import-time frame
        frame = FunctionInfo(
            qualname=f"{module.name}.{MODULE_FRAME}", module=module.name,
            name=MODULE_FRAME, class_name=None, path=module.path, lineno=1,
            node=module.tree,
        )
        self.functions[frame.qualname] = frame

        def visit_def(node, owner_qual: str, class_name: Optional[str]) -> None:
            qualname = f"{owner_qual}.{node.name}"
            info = FunctionInfo(
                qualname=qualname, module=module.name, name=node.name,
                class_name=class_name, path=module.path,
                lineno=node.lineno, node=node,
                local_names=self._frame_locals(node),
            )
            self.functions[qualname] = info
            for stmt in ast.walk(node):
                if stmt is node:
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if self._enclosing_def(node, stmt) is node:
                        visit_def(stmt, qualname, None)

        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_def(stmt, module.name, None)
            elif isinstance(stmt, ast.ClassDef):
                class_qual = f"{module.name}.{stmt.name}"
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit_def(item, class_qual, stmt.name)

    @staticmethod
    def _enclosing_def(root: ast.AST, target: ast.AST) -> Optional[ast.AST]:
        """The nearest def/lambda strictly containing ``target`` under ``root``."""
        result: List[ast.AST] = [root]

        def descend(node: ast.AST, owner: ast.AST) -> bool:
            for child in ast.iter_child_nodes(node):
                if child is target:
                    result[0] = owner
                    return True
                next_owner = child if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ) else owner
                if descend(child, next_owner):
                    return True
            return False

        descend(root, root)
        return result[0]

    @staticmethod
    def _param_names(node) -> Tuple[str, ...]:
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return tuple(names)

    def _frame_locals(self, node) -> FrozenSet[str]:
        names: Set[str] = set(self._param_names(node))
        for child in iter_frame(node.body):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                continue  # alias-table material, not dynamic locals
            targets: List[ast.AST] = []
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                targets = [child.target]
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                targets = [child.target]
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                targets = [i.optional_vars for i in child.items
                           if i.optional_vars is not None]
            elif isinstance(child, ast.comprehension):
                targets = [child.target]
            for target in targets:
                for leaf in ast.walk(target):
                    # Store context only: ``x[k] = v`` / ``x.attr = v``
                    # mutate an existing object, they do not bind ``x``.
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        names.add(leaf.id)
        for child in iter_frame(node.body):
            if isinstance(child, (ast.Global, ast.Nonlocal)):
                names.difference_update(child.names)
        return frozenset(names)
