"""In-memory span tracing of the library's layer boundaries.

The traced run wraps the library's public functions where their
callers look them up (a module attribute, a class attribute or a
constructor) and records one span per call: name, start, end, the
span that caused it, and its self time -- the duration minus the part
covered by child spans.  Functions called once per fault get one
aggregate timer and a count instead of a span per call.  Spans stay in
memory; `bench.py` writes them out when the run ends.

Nothing is wrapped until :meth:`Tracer.patch` is called, and
:meth:`Tracer.uninstall` restores every original, so untraced
iterations run the library exactly as shipped.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Finish = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    ident: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> [self time, calls] for per-fault functions.
        self.aggregates: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self.counts: Counter = Counter()
        self._stack: List[List[Any]] = []   # [ident, child time]
        self._next_ident = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _open(self) -> List[Any]:
        frame = [self._next_ident, 0.0]
        self._next_ident += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any], name: str, start: float,
               end: float, aggregate: bool) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self_time = duration - frame[1]
        if aggregate:
            bucket = self.aggregates[name]
            bucket[0] += self_time
            bucket[1] += 1
        else:
            self.spans.append(Span(
                frame[0], parent[0] if parent else None, name, start, end,
                self_time,
            ))

    def call(self, name: str, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        frame = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, name, start, time.perf_counter(), False)

    def wrap(self, name: str, fn: Callable, *, aggregate: bool = False,
             finish: Optional[Finish] = None) -> Callable:
        """``fn`` timed as a span (or an aggregate timer); ``finish``
        runs after the timer stops and records counts from the call's
        arguments and result (``None`` when it raised)."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._open()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(frame, name, start, time.perf_counter(), aggregate)
                if finish is not None:
                    finish(self, args, kwargs, result)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation --------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` with its traced version."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(name, raw.__func__, **options))
        else:
            wrapped = self.wrap(name, raw, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def count_calls(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        raw = getattr(owner, attr)

        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counts[counter] += 1
            return raw(*args, **kwargs)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- read-out ------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.aggregates.clear()
        self.counts.clear()

    def self_times(self) -> Dict[str, float]:
        """Self time per span or aggregate name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_time
        for name, (self_time, _calls) in self.aggregates.items():
            totals[name] += self_time
        return dict(totals)

    def durations(self) -> Dict[str, float]:
        """Inclusive time per span name (aggregates: their self time,
        as no span nests inside a per-fault function)."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration
        for name, (self_time, _calls) in self.aggregates.items():
            totals[name] += self_time
        return dict(totals)

    def calls(self, name: str) -> int:
        if name in self.aggregates:
            return int(self.aggregates[name][1])
        return sum(1 for span in self.spans if span.name == name)

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer: the span name's prefix up to the first
        dot (``kernel.compile`` -> ``kernel``)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, self_time in self.self_times().items():
            layers[name.split(".", 1)[0]] += self_time
        return dict(layers)
