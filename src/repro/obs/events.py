"""The campaign event bus: typed structured events, pluggable sinks.

The temporal half of the observability layer (the metrics registry is
the numeric half): one process-global stream of *what the run is
doing right now*, timed regions included, fanned out to pluggable
sinks -- a JSONL file, a span trace (:class:`TraceSink`), an
in-memory ring buffer (the ``/events`` endpoint's backing store), or
arbitrary callbacks (the progress view, the status tracker).

Event taxonomy (names are dotted, lowest-frequency first):

``campaign.started`` / ``campaign.finished``
    One per campaign: population size, test length; coverage and
    detected/escaped tallies on finish.
``suite.generated``
    A W/Wp/HSI suite was constructed (method, m, sequences, steps).
``fault.verdict``
    One per fault/bug, in submission order, once its sweep slice has
    been assembled -- the verdict stream.
``coverage.snapshot``
    Incremental transition coverage during an instrumented replay.
``chunk.dispatched`` / ``chunk.completed``
    Executor scheduling: a chunk of tasks went out to / came back
    from the pool.  Placement-dependent by nature.
``worker.degraded``
    A quarantined task was re-run on the interpreter oracle.
``journal.flushed``
    A slice of verdicts was journaled and fsynced.
``run.resumed``
    A journaled run replayed its journal (replay accounting).
``service.*``
    Campaign-service lifecycle: submissions admitted, shards leased,
    leases expired, shards completed/bisected, result-store hits.
    Lease traffic is timing-dependent by nature.
``span.begin`` / ``span.end``
    A timed region (:func:`span`) opened / closed in the emitting
    thread, properly nested per thread.  Both carry the span name; the
    end also carries the span's arguments (coerced to JSON scalars,
    plus any :meth:`Span.set` attributes and, when the body raised,
    ``error``) and its duration in ``seconds``.

**The determinism contract.**  Event *payloads* carry only data that
is byte-identical at any ``--jobs`` / ``--kernel`` setting; wall-clock
timestamps, sequence numbers and process ids live in the envelope
(:meth:`Event.to_json_dict` puts them under ``"meta"``), mirroring how
the metrics registry segregates ``*_seconds`` timings.  Events whose
very *occurrence* is scheduling- or environment-dependent --
``chunk.*``, ``worker.*``, ``journal.*``, ``run.*``, ``service.*``,
``span.*`` -- are excluded from the deterministic view altogether,
exactly like the ``parallel.*`` / ``runtime.*`` metric namespaces:
:func:`deterministic_payloads` keeps only the events the differential
tests compare.

**Zero cost when disabled.**  The process-global bus defaults to
:data:`NULL_BUS`; :func:`emit_event` is one global read and a
truthiness check when no live bus is installed, and no event object is
ever allocated; :func:`span` then returns the shared
:data:`NOOP_SPAN`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

#: Event-name prefixes whose occurrence depends on scheduling or the
#: environment (task placement, worker failures, journal slicing,
#: resume accounting, campaign-service lease/shard traffic, span
#: timing).  Excluded from the deterministic view, exactly like the
#: ``parallel.*`` / ``runtime.*`` metric namespaces.
SCHEDULING_PREFIXES: Tuple[str, ...] = (
    "chunk.",
    "worker.",
    "journal.",
    "run.",
    "service.",
    "span.",
)


def is_deterministic_event(name: str) -> bool:
    """True when an event's payload is pinned by the differential
    contract (byte-identical at any ``jobs``/``kernel`` setting)."""
    return not name.startswith(SCHEDULING_PREFIXES)


@dataclass(frozen=True)
class Event:
    """One structured event.

    ``payload`` is the deterministic part; ``seq``, ``ts`` (wall
    clock, seconds) and ``pid`` are envelope metadata that legitimately
    vary run-to-run and are segregated accordingly.
    """

    seq: int
    name: str
    payload: Dict[str, Any] = field(default_factory=dict)
    ts: float = 0.0
    pid: int = 0

    def to_json_dict(self) -> Dict[str, Any]:
        """The event as one JSON-serializable object; deterministic
        payload and variable envelope kept apart."""
        return {
            "seq": self.seq,
            "name": self.name,
            "payload": dict(self.payload),
            "meta": {"ts": self.ts, "pid": self.pid},
        }


def deterministic_payloads(
    events: Iterable[Event],
) -> List[Tuple[str, Dict[str, Any]]]:
    """The deterministic projection of an event stream.

    Keeps ``(name, payload)`` for every event outside the scheduling
    namespaces, in emission order.  Two runs of the same campaign --
    at any ``jobs``, on either kernel, chaos-harassed or not -- must
    produce byte-identical projections (compare their
    ``json.dumps(..., sort_keys=True)``).
    """
    return [
        (e.name, dict(e.payload))
        for e in events
        if is_deterministic_event(e.name)
    ]


class JsonlSink:
    """Append every event to a JSONL file, one object per line.

    The handle is line-buffered so a tail -f (or the ``repro watch``
    of a future session) sees events as they happen; :meth:`close`
    flushes and closes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")

    def __call__(self, event: Event) -> None:
        self._handle.write(
            json.dumps(event.to_json_dict(), sort_keys=True)
        )
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class RingBufferSink:
    """Keep the last ``capacity`` events in memory.

    The backing store of the status server's ``/events?since=N``
    endpoint: :meth:`since` returns every retained event with a
    sequence number strictly greater than ``N``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = max(1, int(capacity))
        self._events: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> List[Event]:
        with self._lock:
            return list(self._events)

    def since(self, seq: int) -> List[Event]:
        with self._lock:
            return [e for e in self._events if e.seq > seq]


class TraceSink:
    """Render the event stream as a span trace, written on close.

    Each ``span.end`` becomes a Chrome ``trace_event`` complete record
    (``"ph": "X"`` with microsecond ``ts``/``dur``), every other event
    an instant (``"ph": "i"``).  ``pid`` comes from the event envelope;
    ``tid`` is read here, since sinks run in the emitting thread.
    :meth:`close` writes ``{"traceEvents": [...]}`` JSON (loadable in
    ``chrome://tracing`` / Perfetto), or one record per line when
    ``path`` ends in ``.jsonl``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._origin = time.perf_counter()
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def _us(self, t: float) -> int:
        return max(0, int((t - self._origin) * 1_000_000))

    def __call__(self, event: Event) -> None:
        now = time.perf_counter()
        tid = threading.get_ident()
        if event.name == "span.end":
            seconds = event.payload["seconds"]
            record = {
                "name": event.payload["span"],
                "cat": "repro",
                "ph": "X",
                "ts": self._us(now - seconds),
                "dur": max(0, int(seconds * 1_000_000)),
                "pid": event.pid,
                "tid": tid,
                "args": dict(event.payload["args"]),
            }
        else:
            record = {
                "name": event.name,
                "cat": "repro",
                "ph": "i",
                "ts": self._us(now),
                "s": "t",
                "pid": event.pid,
                "tid": tid,
                "args": dict(event.payload),
            }
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """A snapshot of the rendered records (emission order)."""
        with self._lock:
            return list(self._records)

    def close(self) -> None:
        records = self.records
        with open(self.path, "w") as handle:
            if self.path.endswith(".jsonl"):
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True))
                    handle.write("\n")
            else:
                json.dump(
                    {"traceEvents": records, "displayTimeUnit": "ms"},
                    handle,
                    indent=1,
                )
                handle.write("\n")


class EventBus:
    """A live event bus: numbered events fanned out to sinks.

    Sinks are callables taking one :class:`Event`.  A sink that raises
    is dropped from the fan-out (and the error swallowed): telemetry
    must never take down the campaign it is watching.
    """

    enabled = True

    def __init__(self) -> None:
        self._sinks: List[Callable[[Event], None]] = []
        self._seq = 0
        self._lock = threading.Lock()

    def add_sink(
        self, sink: Callable[[Event], None]
    ) -> Callable[[Event], None]:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Callable[[Event], None]) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def emit(self, name: str, **payload: Any) -> Optional[Event]:
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                name=name,
                payload=payload,
                ts=time.time(),
                pid=os.getpid(),
            )
            sinks = list(self._sinks)
        dead: List[Callable[[Event], None]] = []
        for sink in sinks:
            try:
                sink(event)
            except Exception:  # noqa: BLE001 - sinks must not kill runs
                dead.append(sink)
        for sink in dead:
            self.remove_sink(sink)
        return event


class NullBus(EventBus):
    """The disabled bus: ``emit`` allocates and dispatches nothing."""

    enabled = False

    def emit(self, name: str, **payload: Any) -> Optional[Event]:
        return None

    def add_sink(
        self, sink: Callable[[Event], None]
    ) -> Callable[[Event], None]:
        raise RuntimeError(
            "cannot attach a sink to the disabled bus; install a live "
            "EventBus first (scoped_bus() / install_bus())"
        )


NULL_BUS = NullBus()

_ACTIVE: EventBus = NULL_BUS


def get_bus() -> EventBus:
    """The process-global event bus (the no-op bus by default)."""
    return _ACTIVE


def install_bus(bus: Optional[EventBus]) -> EventBus:
    """Install ``bus`` globally (None -> the no-op bus); returns the
    previously installed one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = bus if bus is not None else NULL_BUS
    return previous


@contextmanager
def scoped_bus(bus: Optional[EventBus] = None) -> Iterator[EventBus]:
    """Install a fresh (or given) live bus for a ``with`` block."""
    b = EventBus() if bus is None else bus
    previous = install_bus(b)
    try:
        yield b
    finally:
        install_bus(previous)


def emit_event(name: str, **payload: Any) -> None:
    """Emit an event on the global bus; free when the bus is disabled."""
    bus = _ACTIVE
    if bus.enabled:
        bus.emit(name, **payload)


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: Any) -> bool:
        return False

    def set(self, **_attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def _jsonable(value: Any) -> Any:
    """Coerce a span attribute to a JSON scalar."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Span:
    """One live span: ``span.begin`` on entry, ``span.end`` on exit,
    both on the bus that was installed when the span was opened."""

    __slots__ = ("_bus", "name", "args", "_t0")

    def __init__(self, bus: EventBus, name: str, args: Dict[str, Any]):
        self._bus = bus
        self.name = name
        self.args = args
        self._t0 = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after creation."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self._bus.emit("span.begin", span=self.name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, *_exc: Any) -> bool:
        seconds = time.perf_counter() - self._t0
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._bus.emit(
            "span.end",
            span=self.name,
            args={k: _jsonable(v) for k, v in self.args.items()},
            seconds=seconds,
        )
        return False


def span(name: str, **args: Any) -> Any:
    """A timed region on the global bus; the shared :data:`NOOP_SPAN`
    when the bus is disabled."""
    bus = _ACTIVE
    if not bus.enabled:
        return NOOP_SPAN
    return Span(bus, name, args)
