"""Deterministic metrics: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the observability layer (the
tracer in :mod:`repro.obs.trace` is the temporal half).  Three design
rules keep it compatible with the differential guarantee that campaign
results -- and their coverage/latency aggregates -- are byte-identical
at any worker count:

* **Fixed bucket boundaries.**  Histograms never rebucket; boundaries
  are chosen at creation (or taken from the deterministic defaults),
  so the dumped ``counts`` vector depends only on the observations,
  not on their arrival order or magnitude distribution.
* **Deterministic dumps.**  :meth:`MetricsRegistry.dump` sorts every
  key; :meth:`MetricsRegistry.deterministic_dump` additionally drops
  the metrics that legitimately vary run-to-run -- wall-clock timings
  (base name ending in ``_seconds``), executor/cache internals
  (``parallel.*``, ``cache.*``) and crash-tolerance accounting
  (``runtime.*``) -- leaving exactly the aggregates the jobs=1 vs
  jobs=N differential tests compare.
* **Zero cost when disabled.**  The process-global registry defaults
  to :data:`NULL_REGISTRY`, whose metric handles are shared no-op
  singletons: an un-instrumented run pays one attribute lookup and an
  empty method call per event, nothing more.

Tests that need isolation use :func:`scoped_registry`, which installs
a fresh live registry for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Default boundaries for step-valued histograms (detection latencies,
#: visit counts, tour lengths).  Upper-inclusive: observation ``v``
#: lands in the first bucket with ``v <= bound``; larger values go to
#: the overflow bucket.
STEP_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

#: Default boundaries for wall-clock histograms, in seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
    10.0, 60.0, 300.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def dump(self) -> Any:
        return self.value


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def dump(self) -> Any:
        return self.value


class Histogram:
    """A fixed-boundary histogram of observations.

    ``boundaries`` are upper-inclusive bucket edges; one overflow
    bucket catches everything beyond the last edge.  The dump is fully
    determined by the multiset of observations.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "total")

    def __init__(
        self, name: str, boundaries: Sequence[float] = STEP_BUCKETS
    ) -> None:
        self.name = name
        self.boundaries = tuple(boundaries)
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError(
                f"histogram {name!r}: boundaries must be sorted"
            )
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        idx = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def dump(self) -> Dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class _NullMetric:
    """Shared no-op handle standing in for every metric kind."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: Any) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


def _full_name(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _base_name(full_name: str) -> str:
    return full_name.split("{", 1)[0]


def _is_nondeterministic(full_name: str) -> bool:
    """True for metrics that legitimately differ run-to-run.

    ``runtime.*`` covers the crash-tolerant runtime's degradation and
    resume accounting: whether a worker died (and how often the
    quarantine path retried) depends on the environment, never on the
    verdicts, so those counters must not enter the byte-identity
    comparisons.
    """
    base = _base_name(full_name)
    return (
        base.endswith("_seconds")
        or base.startswith("parallel.")
        or base.startswith("cache.")
        or base.startswith("runtime.")
    )


class MetricsRegistry:
    """A live metrics registry: creates-on-demand, dumps sorted."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _full_name(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(key)
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _full_name(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(key)
        return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = STEP_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = _full_name(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(key, buckets)
        elif metric.boundaries != tuple(buckets):
            raise ValueError(
                f"histogram {key!r} already registered with boundaries "
                f"{metric.boundaries}, requested {tuple(buckets)}"
            )
        return metric

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry: counters and histograms
        add up, gauges take ``other``'s value."""
        for key, counter in other._counters.items():
            self.counter(key).inc(counter.value)
        for key, gauge in other._gauges.items():
            self.gauge(key).set(gauge.value)
        for key, hist in other._histograms.items():
            mine = self.histogram(key, hist.boundaries)
            mine.counts = [a + b for a, b in zip(mine.counts, hist.counts)]
            mine.count += hist.count
            mine.total += hist.total

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """The full registry as a deterministic (sorted) plain dict."""
        return {
            "counters": {
                k: self._counters[k].dump() for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].dump() for k in sorted(self._gauges)
            },
            "histograms": {
                k: self._histograms[k].dump()
                for k in sorted(self._histograms)
            },
        }

    def deterministic_dump(self) -> Dict[str, Dict[str, Any]]:
        """The dump restricted to run-invariant aggregates.

        Drops wall-clock metrics (``*_seconds``), executor/cache
        internals (``parallel.*``, ``cache.*``) and crash-tolerance
        accounting (``runtime.*``); what remains --
        coverage counts, verdict counters, detection-latency
        histograms -- must be byte-identical at any ``jobs`` setting.
        """
        full = self.dump()
        return {
            section: {
                k: v
                for k, v in entries.items()
                if not _is_nondeterministic(k)
            }
            for section, entries in full.items()
        }


class NullRegistry(MetricsRegistry):
    """The disabled registry: every handle is the no-op singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: Any) -> Any:
        return NULL_METRIC

    def gauge(self, name: str, **labels: Any) -> Any:
        return NULL_METRIC

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = STEP_BUCKETS,
        **labels: Any,
    ) -> Any:
        return NULL_METRIC

    def merge(self, other: MetricsRegistry) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_ACTIVE: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global registry (a no-op registry by default)."""
    return _ACTIVE


def install_registry(
    registry: Optional[MetricsRegistry],
) -> MetricsRegistry:
    """Install ``registry`` globally (None -> the no-op registry);
    returns the previously installed one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install a fresh (or given) live registry for a ``with`` block."""
    reg = MetricsRegistry() if registry is None else registry
    previous = install_registry(reg)
    try:
        yield reg
    finally:
        install_registry(previous)
