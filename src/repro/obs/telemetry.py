"""Streaming runtime telemetry: the one recorder the hot paths publish into.

The bus observes the system *while* it runs: the WAN simulator, the
engine, the chaos runtime, the planners and the controller publish small
typed events as simulation advances, and every consumer — the JSONL
archive (``--telemetry FILE``), the span and metric views of
:mod:`repro.obs.views` (``--metrics``, ``inspect`` and its Chrome
export), the ``repro report`` dashboard, the ``repro top`` live view —
either subscribes to the stream or replays the archive.

The bus has a no-op twin (:data:`NULL_TELEMETRY`): a disabled call site
costs one attribute lookup and a truthiness check, so the telemetry-off
hot path is unchanged.

Event model (schema v4, specified in DESIGN.md; v2 = v1 plus the
serving-layer kinds, v3 = v2 plus the explicit queue/slot wait kinds and
the SLO tracker's ``slo-*`` kinds, v4 = v3 plus the ``span-begin`` /
``span-end`` pairs :meth:`TelemetryBus.span` brackets wall-clock work
with — old archives load unchanged):

* ``seq`` — monotonically increasing per bus, fixing a total order;
* ``t`` — simulated-clock seconds the event describes, or ``None`` for
  offline/wall-side events (plans, task-map builds);
* ``kind`` — one of :data:`EVENT_KINDS`; unknown kinds are rejected so a
  typo'd emitter fails loudly in tests rather than silently dropping a
  dashboard panel;
* ``attrs`` — flat JSON scalars (numbers, strings, bools, ``None``).

The JSONL archive starts with one header line carrying the schema
version; :func:`load_jsonl` refuses future-versioned files rather than
misreading them.  Two same-seed runs produce byte-identical archives
(checked by ``repro lint --determinism``) because every emitter iterates
deterministically ordered structures and wall-measured attributes are
kept out of the digest (:func:`telemetry_digest`).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

#: Schema version written into the JSONL header line.
TELEMETRY_VERSION = 4

#: Archive versions :func:`load_jsonl` still understands.  Each version
#: is a strict superset of the previous one (kinds were added, nothing
#: was renamed or removed), so old archives stay loadable forever.
SUPPORTED_VERSIONS = frozenset({1, 2, 3, 4})

#: Every event kind the v1 schema admitted, grouped by emitting layer.
V1_EVENT_KINDS = frozenset(
    {
        # wan/transfer.py — flow lifecycle and link occupancy
        "flow-start",
        "flow-park",
        "flow-finish",
        "flow-fail",
        "link-sample",
        "capacity-epoch",
        "flows-sample",
        # wan/estimator.py — bandwidth-estimate drift
        "estimator-sample",
        # engine/job.py + engine/shuffle.py — stage/task lifecycle
        "stage-start",
        "stage-finish",
        "shuffle-plan",
        "task-wave",
        "reduce-tasks",
        "job-finish",
        # chaos/runtime.py — fault windows and recovery churn
        "fault-window",
        "retry",
        "abandon",
        # core/controller.py + core/dynamic.py — planning and queries
        "plan",
        "degraded-replan",
        "replan",
        "batch-applied",
        "query-start",
        "query-finish",
        "query-abort",
    }
)

#: Kinds added by schema v2: the serving layer's query lifecycle and the
#: cube-cache's hit/miss/eviction stream (repro/serve/*).
SERVE_EVENT_KINDS = frozenset(
    {
        "serve-queue",
        "serve-shed",
        "serve-admit",
        "serve-start",
        "serve-finish",
        "cache-hit",
        "cache-miss",
        "cache-evict",
    }
)

#: Kinds added by schema v3: explicit admission-wait markers from the
#: serve scheduler (``queue-enter``/``slot-wait``), the dynamic-feed
#: batch marker (``serve-batch``, emitted since the feeds landed but
#: only now part of the closed set), and the SLO tracker's per-sample /
#: rolling-window / final-status / blame-attribution stream
#: (repro/obs/slo.py + repro/obs/critpath.py).
V3_EVENT_KINDS = frozenset(
    {
        "queue-enter",
        "slot-wait",
        "serve-batch",
        "slo-sample",
        "slo-window",
        "slo-status",
        "slo-blame",
    }
)

#: Kinds added by schema v4: the pair :meth:`TelemetryBus.span` brackets
#: wall-clock work with; both carry ``name`` and ``at_wall_seconds``
#: (offset from the bus epoch), and nesting is stream order.
V4_EVENT_KINDS = frozenset({"span-begin", "span-end"})

#: The full closed kind set of the current schema version.
EVENT_KINDS = (
    V1_EVENT_KINDS | SERVE_EVENT_KINDS | V3_EVENT_KINDS | V4_EVENT_KINDS
)

_Scalar = Union[str, int, float, bool, None]

#: Hoisted for the ``emit`` hot path (saves a module-attribute lookup).
_isfinite = math.isfinite


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One typed event on the stream.

    Slotted: a run materializes tens of thousands of these, and slots
    keep each one smaller than a dict-backed instance.  Construction
    validates the kind and ``t``; :attr:`TelemetryBus.events` skips that
    check for columns :meth:`TelemetryBus.emit` has already validated.
    """

    seq: int
    kind: str
    t: Optional[float] = None
    attrs: Dict[str, _Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ObservabilityError(
                f"unknown telemetry event kind {self.kind!r}; "
                f"schema v{TELEMETRY_VERSION} kinds: {sorted(EVENT_KINDS)}"
            )
        if self.t is not None and (math.isnan(self.t) or math.isinf(self.t)):
            raise ObservabilityError(
                f"telemetry event {self.kind!r}: t must be finite, got {self.t}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (one JSONL line)."""
        record: Dict[str, Any] = {"seq": self.seq, "kind": self.kind, "t": self.t}
        if self.attrs:
            record["attrs"] = {key: self.attrs[key] for key in sorted(self.attrs)}
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TelemetryEvent":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                seq=int(record["seq"]),
                kind=str(record["kind"]),
                t=None if record.get("t") is None else float(record["t"]),
                attrs=dict(record.get("attrs", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ObservabilityError(
                f"malformed telemetry event: {error}"
            ) from None


#: Slot setters that bypass the frozen ``__setattr__`` (and validation):
#: :attr:`TelemetryBus.events` fills pre-validated columns through them.
_set_seq = TelemetryEvent.seq.__set__
_set_kind = TelemetryEvent.kind.__set__
_set_t = TelemetryEvent.t.__set__
_set_attrs = TelemetryEvent.attrs.__set__


def _drain(effects: Iterable[Any]) -> None:
    """Run an iterator of side effects to exhaustion, keeping nothing."""
    deque(effects, maxlen=0)


#: A subscriber gets every event as it is emitted (the ``repro top`` hook).
Subscriber = Callable[[TelemetryEvent], None]


class _OpenSpan:
    """Context manager for one wall-clock span (see :meth:`TelemetryBus.span`)."""

    __slots__ = ("_bus", "_name", "_late")

    def __init__(self, bus: "TelemetryBus", name: str) -> None:
        self._bus = bus
        self._name = name
        self._late: Dict[str, _Scalar] = {}

    def set(self, **attrs: _Scalar) -> None:
        """Attach attrs known only once the work is done (ride on span-end)."""
        self._late.update(attrs)

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._bus._stamp("span-end", self._name, **self._late)


class TelemetryBus:
    """Collects (and optionally streams) telemetry events for one run.

    ``emit`` is the hot path — it runs once per simulator round sample —
    so it validates and appends into three parallel columns (kind, t,
    attrs; ``seq`` is the column index) and defers
    :class:`TelemetryEvent` construction until a consumer reads
    :attr:`events` (or a live subscriber is attached, which forces
    per-emit materialization).  Columnar storage also keeps the
    per-event allocation count down, which matters: at tens of
    thousands of events the GC churn from per-event container objects
    is a measurable slice of the telemetry overhead budget.
    """

    enabled = True

    def __init__(self) -> None:
        # Wall-clock by design: the epoch span stamps are offsets from.
        self._epoch = time.perf_counter()  # lint: allow[R001]
        self._kinds: List[str] = []
        self._ts: List[Optional[float]] = []
        self._attr_rows: List[Dict[str, _Scalar]] = []
        self._materialized: List[TelemetryEvent] = []
        self._subscribers: List[Subscriber] = []

    @property
    def events(self) -> List[TelemetryEvent]:
        """Materialized event list (lazily extended; same objects returned).

        ``emit`` validated every column entry, so the new events are
        built through the slot descriptors, one C-level ``map`` per
        field, without running ``__init__``/``__post_init__`` again."""
        events = self._materialized
        start, stop = len(events), len(self._kinds)
        if start < stop:
            fresh = list(map(object.__new__, repeat(TelemetryEvent, stop - start)))
            _drain(map(_set_seq, fresh, range(start, stop)))
            _drain(map(_set_kind, fresh, self._kinds[start:]))
            _drain(map(_set_t, fresh, self._ts[start:]))
            _drain(map(_set_attrs, fresh, self._attr_rows[start:]))
            events += fresh
        return events

    def emit(
        self, kind: str, t: Optional[float] = None, **attrs: _Scalar
    ) -> Optional[TelemetryEvent]:
        """Append one event and fan it out to subscribers."""
        return self.record(kind, t, attrs)

    def record(
        self, kind: str, t: Optional[float], attrs: Dict[str, _Scalar]
    ) -> Optional[TelemetryEvent]:
        """:meth:`emit` with the attrs dict built by the caller, which
        keeps it (the bus stores it as given).  For the per-round
        emitters: packing keyword arguments into a fresh dict costs about
        as much again as a dict literal."""
        if kind not in EVENT_KINDS:
            raise ObservabilityError(
                f"unknown telemetry event kind {kind!r}; "
                f"schema v{TELEMETRY_VERSION} kinds: {sorted(EVENT_KINDS)}"
            )
        if t is not None and not _isfinite(t):
            raise ObservabilityError(
                f"telemetry event {kind!r}: t must be finite, got {t}"
            )
        self._kinds.append(kind)
        self._ts.append(t)
        self._attr_rows.append(attrs)
        if self._subscribers:
            event = self.events[-1]
            for subscriber in self._subscribers:
                subscriber(event)
            return event
        return None

    def span(self, name: str, stage: str = "", **attrs: _Scalar) -> _OpenSpan:
        """Bracket wall-clock work with a ``span-begin``/``span-end`` pair.

        ::

            with bus.span("lp-solve", stage="placement", variables=n) as span:
                solution = solve(...)
                span.set(backend=solution.backend)

        ``span-begin`` is emitted now, ``span-end`` when the block exits
        (also on error).  Events emitted in between nest under the span:
        nesting is stream order, rebuilt (and checked) by the reader.
        """
        self._stamp("span-begin", name, stage=stage or name, **attrs)
        return _OpenSpan(self, name)

    def _stamp(self, kind: str, name: str, **attrs: _Scalar) -> None:
        self.emit(
            kind,
            name=name,
            at_wall_seconds=time.perf_counter() - self._epoch,  # lint: allow[R001]
            **attrs,
        )

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a live consumer; called synchronously on every emit."""
        self._subscribers.append(subscriber)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind in self._kinds:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


class _NullSpan:
    """Shared no-op span returned by :meth:`NullTelemetryBus.span`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetryBus:
    """Bus twin whose every operation is a cheap no-op."""

    enabled = False

    @property
    def events(self) -> List[TelemetryEvent]:
        # Always empty, and fresh per read: a shared class-level list
        # would let one stray append contaminate every null bus (R010).
        return []

    def emit(self, kind: str, t: Optional[float] = None, **attrs: Any) -> None:
        return None

    def record(self, kind: str, t: Optional[float], attrs: Dict[str, Any]) -> None:
        return None

    def span(self, name: str, stage: str = "", **attrs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def subscribe(self, subscriber: Subscriber) -> None:
        return None

    def counts_by_kind(self) -> Dict[str, int]:
        return {}


NULL_TELEMETRY = NullTelemetryBus()


# ----------------------------------------------------------------------
# JSONL archive
# ----------------------------------------------------------------------


#: What ``json.dumps`` writes for a value, by its exact type; any other
#: type (numpy scalars, nested values) goes to ``json.dumps`` itself.
_JSON = {
    float: lambda value: repr(value) if _isfinite(value) else json.dumps(value),
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

#: The encoders a column of one exact type runs through a single ``map``.
_COLUMN = {int: int.__repr__, str: encode_basestring_ascii, bool: _JSON[bool]}

#: Events :func:`write_jsonl` formats per batch: the lines of one window
#: are held in memory at once, never the whole archive.
_EXPORT_WINDOW = 2048


def _encode_floats(values: List[float]) -> List[str]:
    """``repr`` of each of a column of finite floats: once per distinct
    value when at most half of them are distinct (capacities, byte
    counts, zero park times).  A dict holds 0.0 and -0.0 as one key, so
    zeros are then re-encoded one by one."""
    distinct = dict.fromkeys(values)
    if 2 * len(distinct) > len(values):
        return list(map(float.__repr__, values))
    memo = dict(zip(distinct, map(float.__repr__, distinct)))
    encoded = list(map(memo.__getitem__, values))
    if 0.0 in memo:
        zeros = list(compress(range(len(values)), map(not_, values)))
        zero_reprs = map(float.__repr__, map(values.__getitem__, zeros))
        _drain(map(encoded.__setitem__, zeros, zero_reprs))
    return encoded


def _encode_column(values: List[Any]) -> List[str]:
    """``json.dumps`` of each value: C-level ``map`` passes when the column
    is all exact finite floats or all of one :data:`_COLUMN` type,
    otherwise the per-value :data:`_JSON` encoders (``None``, numpy
    scalars, non-finite floats, nested values, mixed types)."""
    types = set(map(type, values))
    if len(types) == 1:
        (kind,) = types
        if kind is float:
            # Finite only when every term is (an overflow just falls back).
            if _isfinite(sum(values)):
                return _encode_floats(values)
        elif kind in _COLUMN:
            return list(map(_COLUMN[kind], values))
    encoder, other = _JSON.get, partial(json.dumps, sort_keys=True)
    return [encoder(type(value), other)(value) for value in values]


def _line_pieces(kind: str, *keys: str) -> Tuple[List[str], List[str]]:
    """Sorted attr keys and the event line's constant text: what comes
    before each attr value, before ``seq``, before ``t``, and after it."""
    ordered = sorted(keys)
    openers = ['{"attrs": {'] + [", "] * (len(ordered) - 1)
    pieces = [
        opener + encode_basestring_ascii(key) + ": "
        for opener, key in zip(openers, ordered)
    ]
    pieces += [
        ("}, " if ordered else "{") + f'"kind": "{kind}", "seq": ', ', "t": ', "}\n"
    ]
    return ordered, pieces


def write_jsonl(
    source: Union[TelemetryBus, Sequence[TelemetryEvent]], path: str
) -> int:
    """Write the versioned JSONL archive; returns the event count.

    Each line is ``json.dumps(event.to_dict(), sort_keys=True)`` byte for
    byte, formatted from the bus's columns (or the seq-sorted events).
    Each window of :data:`_EXPORT_WINDOW` events is grouped by kind and
    key set; each value column of a group is encoded at once
    (:func:`_encode_column`) and a line is one ``str.join`` of its
    values between the group's constant pieces (:func:`_line_pieces`)."""
    if isinstance(source, TelemetryBus):
        kinds, ts, attr_rows = source._kinds, source._ts, source._attr_rows
        seqs: Sequence[int] = range(len(kinds))
    else:
        events = sorted(source, key=lambda event: event.seq)
        seqs = [event.seq for event in events]
        kinds = [event.kind for event in events]
        ts = [event.t for event in events]
        attr_rows = [event.attrs for event in events]
    count = len(kinds)
    pieces_of = lru_cache(maxsize=None)(_line_pieces)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "telemetry": "repro.obs.telemetry",
            "version": TELEMETRY_VERSION,
            "events": count,
        }
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for low in range(0, count, _EXPORT_WINDOW):
            window = slice(low, low + _EXPORT_WINDOW)
            rows, window_seqs, window_ts = attr_rows[window], seqs[window], ts[window]
            groups: Dict[Tuple[str, ...], List[int]] = {}
            for position, (kind, row) in enumerate(zip(kinds[window], rows)):
                groups.setdefault((kind, *row), []).append(position)
            lines = [""] * len(rows)
            for (kind, *keys), positions in groups.items():
                ordered, pieces = pieces_of(kind, *keys)
                group = list(map(rows.__getitem__, positions))
                columns = [
                    _encode_column(list(map(itemgetter(key), group))) for key in ordered
                ]
                for column in (window_seqs, window_ts):
                    columns.append(_encode_column(list(map(column.__getitem__, positions))))
                parts = []
                for piece, column in zip(pieces, columns):
                    parts += (repeat(piece), column)
                parts.append(repeat(pieces[-1]))
                lines_of_group = map("".join, zip(*parts))
                _drain(map(lines.__setitem__, positions, lines_of_group))
            handle.writelines(lines)
    return count


def read_jsonl(path: str) -> List[Tuple[int, Any]]:
    """``(line number, parsed JSON)`` for every non-blank line of a file."""
    records: List[Tuple[int, Any]] = []
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    records.append((line_number, json.loads(line)))
            except UnicodeDecodeError as error:
                raise ObservabilityError(
                    f"{path}:{line_number}: invalid UTF-8 ({error})"
                ) from None
            except json.JSONDecodeError as error:
                raise ObservabilityError(
                    f"{path}:{line_number}: invalid JSON ({error})"
                ) from None
    return records


def load_jsonl(path: str) -> Tuple[Dict[str, Any], List[TelemetryEvent]]:
    """Load ``(header, events)`` from an archive written by :func:`write_jsonl`."""
    records = read_jsonl(path)
    if not records:
        raise ObservabilityError(f"{path}: empty telemetry file")
    header = records[0][1]
    if not isinstance(header, dict) or header.get("telemetry") != "repro.obs.telemetry":
        raise ObservabilityError(
            f"{path}: missing telemetry header line; span traces are no "
            "longer read, record the run with --telemetry"
        )
    version = header.get("version")
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(f"v{v}" for v in sorted(SUPPORTED_VERSIONS))
        raise ObservabilityError(
            f"{path}: telemetry schema v{version} is not supported "
            f"(supported: {supported})"
        )
    events = [TelemetryEvent.from_dict(record) for _, record in records[1:]]
    if header.get("events", len(events)) != len(events):
        raise ObservabilityError(
            f"{path}: header says {header['events']} events, file holds {len(events)}"
        )
    return header, events


# ----------------------------------------------------------------------
# determinism digest
# ----------------------------------------------------------------------

#: Significant digits kept when digesting floats (guards repr formatting
#: only; identical computations produce bit-identical floats).
_FLOAT_DIGITS = 12


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return f"{value:.{_FLOAT_DIGITS}e}"
    return value


def _is_wall_attr(key: str) -> bool:
    return key.endswith("wall_seconds")


def telemetry_digest(
    source: Union[TelemetryBus, Sequence[TelemetryEvent]]
) -> str:
    """SHA-256 over the sim-relevant content of an event stream, in order.

    Wall-measured attributes (every key ending in ``wall_seconds``)
    legitimately differ between same-seed runs and are excluded;
    everything else must be byte-identical.
    """
    payload: List[Any] = []
    events = source.events if isinstance(source, TelemetryBus) else source
    for event in sorted(events, key=lambda event: event.seq):
        attrs = {
            key: _canonical(value)
            for key, value in sorted(event.attrs.items())
            if not _is_wall_attr(key)
        }
        payload.append(
            [event.kind, _canonical(event.t) if event.t is not None else None, attrs]
        )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def iter_kind(
    events: Iterable[TelemetryEvent], *kinds: str
) -> List[TelemetryEvent]:
    """Events of the given kinds, preserving stream order."""
    wanted = set(kinds)
    unknown = wanted - EVENT_KINDS
    if unknown:
        raise ObservabilityError(f"unknown telemetry kinds {sorted(unknown)}")
    return [event for event in events if event.kind in wanted]
