"""The determinism/correctness rule pack (R001–R007).

Each rule encodes one clause of the repo's simulation contract (see
DESIGN.md "Determinism & invariants contract"):

* **R001** — no wall-clock reads in simulation code.  The simulator runs
  on its own clock; ``time.time``/``perf_counter``/``monotonic`` and
  ``datetime.now`` silently couple results to the host machine.  The
  intentional offline-prep timing sites (Tables 3 and 5 of the paper) carry
  ``# lint: allow[R001]`` pragmas.
* **R002** — no raw ``random`` module (or legacy global-state
  ``numpy.random.*``) use, no unseeded ``default_rng()`` /
  ``RandomState()``, no OS entropy (``os.urandom``, ``uuid.uuid1``/
  ``uuid4``, ``secrets.*``); all randomness flows through
  :mod:`repro.util.rng` so streams are seed-derived and independent.
  Every file under ``src/repro`` and ``benchmarks`` is linted, so a
  source flagged where it is written covers every call chain that
  reaches it.
* **R003** — no iteration over unordered set expressions feeding
  order-sensitive constructs (float accumulation, list building,
  hashing) without ``sorted(...)``; set iteration order varies with the
  process hash seed.
* **R004** — no float ``==``/``!=`` on sim-time/bytes quantities;
  accumulated floats differ in the last ulp across orderings.
* **R005** — no mutable default arguments (shared across calls).
* **R006** — no bare or blanket ``except`` (swallows the typed
  :class:`~repro.errors.ReproError` hierarchy and real bugs alike).
* **R007** — no hard-coded seeds in benchmark scripts (files under a
  ``benchmarks`` directory).  The harness owns the seed
  (:func:`repro.bench.bench_seed`); a literal ``SEED = 3`` or
  ``seed=7`` pins part of the suite to a private randomness universe
  that ``repro bench --seed`` cannot shift.
* **R008** — no direct ``print()`` in library code under ``src/repro/``.
  Library modules return or render strings and let the CLI layer decide
  where they go; a stray ``print`` corrupts machine-readable output
  (``--json``, JSONL exports) and cannot be silenced.  CLI entry points
  (``cli.py``, ``__main__.py``) and the terminal view (``top.py``) are
  whitelisted by basename; one-off sites carry ``# lint: allow[R008]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.registry import LintRule, register
from repro.lint.visitor import LintContext

_CheckResult = Iterator[Tuple[ast.AST, str]]


# ----------------------------------------------------------------------
# R001 — wall-clock reads
# ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(LintRule):
    rule_id = "R001"
    title = "wall-clock read in simulation code"
    node_types = (ast.Attribute, ast.Name)

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        # Only the outermost attribute of a chain carries the full name;
        # inner attributes resolve to prefixes and never match.
        parent = context.parent(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            return
        if isinstance(node, ast.Name) and node.id in context.import_aliases:
            name = context.import_aliases[node.id]
        elif isinstance(node, ast.Attribute):
            name = context.qualified_name(node) or ""
        else:
            return
        if name in _WALL_CLOCK_CALLS:
            yield node, (
                f"wall-clock read {name}() — simulation code must use the "
                "sim clock; pragma intentional offline-prep timing sites"
            )


# ----------------------------------------------------------------------
# R002 — raw randomness
# ----------------------------------------------------------------------

_NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "get_state",
        "set_state",
    }
)


#: Randomness drawn from the OS, never from a seed.
_ENTROPY_SOURCES = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Generator constructors that draw OS entropy when called with no seed.
_SEEDABLE_GENERATORS = frozenset(
    {"numpy.random.default_rng", "numpy.random.RandomState"}
)


@register
class RawRandomRule(LintRule):
    rule_id = "R002"
    title = "raw random module use"
    node_types = (ast.Import, ast.ImportFrom, ast.Attribute, ast.Name)

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, self._message(alias.name)
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield node, self._message("random")
            return
        parent = context.parent(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            return
        if isinstance(node, ast.Name):
            name = context.import_aliases.get(node.id, "")
        else:
            name = context.qualified_name(node) or ""
        if name.startswith("random."):
            yield node, self._message(name)
        elif name in _ENTROPY_SOURCES or name.startswith("secrets."):
            yield node, (
                f"entropy source {name} is not seed-derived — route "
                "randomness through repro.util.rng (derive_rng/spawn_seeds)"
            )
        elif name in _SEEDABLE_GENERATORS:
            if (
                isinstance(parent, ast.Call) and parent.func is node
                and not parent.args and not parent.keywords
            ):
                yield node, (
                    f"unseeded {name}() draws OS entropy — pass a seed "
                    "derived via repro.util.rng.derive_rng"
                )
        elif name.startswith("numpy.random."):
            terminal = name.rsplit(".", 1)[1]
            if terminal in _NUMPY_GLOBAL_RNG:
                yield node, (
                    f"global-state {name} — derive a seeded generator via "
                    "repro.util.rng.derive_rng instead"
                )

    @staticmethod
    def _message(name: str) -> str:
        return (
            f"stdlib {name} is seeded process-globally — route randomness "
            "through repro.util.rng (derive_rng/spawn_seeds)"
        )


# ----------------------------------------------------------------------
# R003 — unordered iteration feeding order-sensitive constructs
# ----------------------------------------------------------------------

#: Builtins whose result is insensitive to argument iteration order
#: (``sum`` is NOT here: float addition is not associative).
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "set", "frozenset", "min", "max", "any", "all", "len"}
)

#: Callables that materialize or depend on their argument's order.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "sum"})

_R003_HINT = "iteration order follows the hash seed; wrap in sorted(...)"


@register
class UnorderedIterationRule(LintRule):
    rule_id = "R003"
    title = "unordered set iteration feeding an order-sensitive construct"
    node_types = (ast.For, ast.ListComp, ast.GeneratorExp, ast.Call)

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        if isinstance(node, ast.For):
            if context.is_set_expr(node.iter) and self._accumulates(node):
                yield node.iter, (
                    "loop over an unordered set accumulates/appends — "
                    + _R003_HINT
                )
            return
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            parent = context.parent(node)
            if isinstance(parent, ast.Call) and node in parent.args:
                name = context.qualified_name(parent.func)
                if name in _ORDER_INSENSITIVE_CONSUMERS:
                    return
            for generator in node.generators:
                if context.is_set_expr(generator.iter):
                    yield generator.iter, (
                        "comprehension materializes an unordered set in "
                        "arbitrary order — " + _R003_HINT
                    )
            return
        # Call: order-sensitive builtins fed a set expression directly.
        assert isinstance(node, ast.Call)
        name = context.qualified_name(node.func)
        is_join = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if name not in _ORDER_SENSITIVE_CONSUMERS and not is_join:
            return
        for arg in node.args[:1]:
            if context.is_set_expr(arg):
                consumer = name or "str.join"
                yield arg, (
                    f"{consumer}() over an unordered set fixes an arbitrary "
                    "order — " + _R003_HINT
                )

    @staticmethod
    def _accumulates(loop: ast.For) -> bool:
        """True when the loop body accumulates floats or builds sequences."""
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "insert")
            ):
                return True
        return False


# ----------------------------------------------------------------------
# R004 — float equality on sim-time/bytes quantities
# ----------------------------------------------------------------------

#: Underscore-separated identifier tokens that mark a sim-time/bytes
#: quantity ("map_output_bytes", "start_time", ...).  Token-wise matching
#: keeps "strategy" (contains "rate") and friends out.
_QUANTITY_TOKENS = frozenset(
    {"seconds", "time", "bytes", "qct", "bps", "rate", "makespan",
     "duration", "epoch", "deadline", "lag"}
)


def _is_quantity_name(name: str) -> bool:
    return any(token in _QUANTITY_TOKENS for token in name.lower().split("_"))


@register
class FloatEqualityRule(LintRule):
    rule_id = "R004"
    title = "float equality on a sim-time/bytes quantity"
    node_types = (ast.Compare,)

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        assert isinstance(node, ast.Compare)
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left] + list(node.comparators)
        for operand in operands:
            if isinstance(operand, ast.Constant) and isinstance(
                operand.value, float
            ):
                yield node, (
                    "exact float comparison — accumulated floats differ in "
                    "the last ulp; compare with a tolerance or restructure"
                )
                return
        for operand in operands:
            name = self._terminal_name(operand)
            if name and _is_quantity_name(name):
                yield node, (
                    f"float ==/!= on quantity {name!r} — compare with a "
                    "tolerance (or <=/>= against the bound)"
                )
                return

    @staticmethod
    def _terminal_name(node: ast.AST) -> str:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return ""


# ----------------------------------------------------------------------
# R005 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "collections.defaultdict",
     "collections.OrderedDict", "collections.deque"}
)


@register
class MutableDefaultRule(LintRule):
    rule_id = "R005"
    title = "mutable default argument"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        args = node.args
        defaults = list(args.defaults) + [
            default for default in args.kw_defaults if default is not None
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ):
                yield default, (
                    "mutable default is shared across calls — default to "
                    "None and create inside the function"
                )
            elif isinstance(default, ast.Call):
                name = context.qualified_name(default.func)
                if name in _MUTABLE_FACTORIES:
                    yield default, (
                        f"default {name}() is evaluated once and shared "
                        "across calls — default to None instead"
                    )


# ----------------------------------------------------------------------
# R006 — bare or blanket except
# ----------------------------------------------------------------------


@register
class BlanketExceptRule(LintRule):
    rule_id = "R006"
    title = "bare or blanket except"
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield node, (
                "bare except catches SystemExit/KeyboardInterrupt too — "
                "catch a ReproError subclass (or at least Exception + re-raise)"
            )
            return
        for exc in self._exception_names(node.type, context):
            if exc in ("Exception", "BaseException"):
                yield node, (
                    f"blanket except {exc} swallows unrelated bugs — catch "
                    "the narrowest ReproError subclass that applies"
                )
                return

    @staticmethod
    def _exception_names(node: ast.AST, context: LintContext):
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        for item in nodes:
            name = context.qualified_name(item)
            if name:
                yield name


# ----------------------------------------------------------------------
# R007 — hard-coded seeds in benchmark scripts
# ----------------------------------------------------------------------

_R007_HINT = (
    "benchmarks take their seed from the harness — use "
    "repro.bench.bench_seed() (or derive a sub-stream from it)"
)


def _is_int_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


@register
class HardCodedBenchSeedRule(LintRule):
    rule_id = "R007"
    title = "hard-coded seed in a benchmark script"
    node_types = (ast.Assign, ast.Call, ast.FunctionDef, ast.AsyncFunctionDef)

    @staticmethod
    def _in_benchmarks(context: LintContext) -> bool:
        normalized = context.path.replace("\\", "/")
        return "benchmarks" in normalized.split("/")[:-1]

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        if not self._in_benchmarks(context):
            return
        if isinstance(node, ast.Assign):
            if not _is_int_literal(node.value):
                return
            for target in node.targets:
                if isinstance(target, ast.Name) and "seed" in target.id.lower():
                    yield node, (
                        f"literal seed constant {target.id} — " + _R007_HINT
                    )
            return
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "seed" and _is_int_literal(keyword.value):
                    yield keyword.value, ("literal seed= argument — " + _R007_HINT)
            return
        # Function definitions: a `seed` parameter with an int default.
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            if arg.arg == "seed" and _is_int_literal(default):
                yield default, ("literal default for seed= — " + _R007_HINT)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and arg.arg == "seed" and _is_int_literal(
                default
            ):
                yield default, ("literal default for seed= — " + _R007_HINT)


# ----------------------------------------------------------------------
# R008 — direct print() in library code
# ----------------------------------------------------------------------

#: Modules whose job *is* terminal output, matched by basename.
_PRINT_WHITELIST = frozenset({"cli.py", "__main__.py", "top.py"})


@register
class LibraryPrintRule(LintRule):
    rule_id = "R008"
    title = "direct print() in library code"
    node_types = (ast.Call,)

    @staticmethod
    def _in_library(context: LintContext) -> bool:
        normalized = context.path.replace("\\", "/")
        segments = normalized.split("/")
        if segments[-1] in _PRINT_WHITELIST:
            return False
        for index, segment in enumerate(segments[:-1]):
            if segment == "src" and segments[index + 1 : index + 2] == ["repro"]:
                return True
        return False

    def check(self, node: ast.AST, context: LintContext) -> _CheckResult:
        assert isinstance(node, ast.Call)
        if not self._in_library(context):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield node, (
                "direct print() in library code — return/render the string "
                "and let the CLI layer emit it (or write to an injected "
                "stream); pragma genuinely interactive sites"
            )
