"""Outside-in layer tracer.

The program under test is not edited.  At run time the tracer replaces a
fixed table of public functions with timing wrappers (``setattr`` on the
owning module or class, plus every module global that holds the same
function through a ``from`` import), keeps one span per call in memory,
and puts everything back on :meth:`LayerTracer.uninstall`.

A span is ``(id, parent, request, layer, name, t0, t1)``: ``parent`` is
the span that was open when the call started (-1 for none), ``request``
is whatever label the benchmark set for the operation in progress, and
the times are ``time.perf_counter`` seconds.  Self time is a span's
duration minus the time its direct children cover; the benchmark is
single-threaded, so children nest and never overlap.

A target that no longer exists is skipped and counted in
``missing_targets`` — a refactor that renames a function makes a layer
go dark, it does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``count(counters, args, kwargs, result)``: read work counts at the
#: boundary, from the call's own arguments and return value.
CountFn = Callable[[Dict[str, float], tuple, dict, Any], None]

Span = Tuple[int, int, str, str, str, float, float]

#: Modules whose globals are searched for ``from``-imported targets.
_REBIND_PREFIXES = ("repro", "perfbench", "__main__")


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module:attr`` or ``module:Class.attr``."""

    layer: str
    name: str
    path: str
    count: Optional[CountFn] = None


class LayerTracer:
    """Installs wrappers for ``targets`` and records their spans."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self.targets = list(targets)
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = {}
        self.request = ""
        self.enabled = True
        self.missing_targets = 0
        self._stack: List[int] = []
        #: (owner, attribute, original value) for every patched slot.
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> "LayerTracer":
        for target in self.targets:
            if not self._install_one(target):
                self.missing_targets += 1
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _install_one(self, target: Target) -> bool:
        module_name, _, attr_path = target.path.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attribute = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if inspect.isclass(owner):
            raw = owner.__dict__.get(attribute)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self._wrap(target, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(target, raw)
            else:
                return False
            self._patch(owner, attribute, raw, wrapped)
            return True
        original = getattr(owner, attribute, None)
        if not callable(original):
            return False
        wrapped = self._wrap(target, original)
        # ``from module import name`` copies the function into the
        # importer's globals; re-bind every such copy, the owner included.
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(_REBIND_PREFIXES):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapped)
        return True

    def _patch(self, owner: Any, attribute: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._patched.append((owner, attribute, original))

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        layer, name, count = target.layer, target.name, target.count

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # children must see a stable id sequence
            stack.append(span_id)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                finished = clock()
                stack.pop()
                spans[span_id] = (
                    span_id, parent, self.request, layer, name, started, finished
                )
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # recording controls
    # ------------------------------------------------------------------

    @contextmanager
    def labelled(self, request: str) -> Iterator[None]:
        """Spans opened inside carry ``request`` as their identifier."""
        previous, self.request = self.request, request
        try:
            yield
        finally:
            self.request = previous

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside run unwrapped-fast and leave no span."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # ------------------------------------------------------------------
    # reading the trace
    # ------------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        spans = self.finished_spans()
        own = {span[0]: span[6] - span[5] for span in spans}
        for span in spans:
            if span[1] in own:
                own[span[1]] -= span[6] - span[5]
        return own

    def write_jsonl(self, path: str) -> int:
        """One span per line, self time included; returns the span count."""
        own = self.self_seconds()
        spans = self.finished_spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, layer, name, started, finished in spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "layer": layer,
                            "name": name,
                            "t0": started,
                            "t1": finished,
                            "self_s": own[span_id],
                        }
                    )
                )
                handle.write("\n")
        return len(spans)
