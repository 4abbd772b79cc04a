"""Observability: metrics, events and the live observatory.

A dependency-free instrumentation layer for the validation runner.
All pieces are zero-cost when disabled (the default):

* :mod:`repro.obs.metrics` -- a process-global
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket
  histograms.  ``get_registry()`` returns a shared no-op registry
  until a live one is installed (``scoped_registry()`` for tests,
  the CLI's ``--metrics FILE`` for runs).
* :mod:`repro.obs.events` -- the typed event bus, the one timeline:
  campaign lifecycle, per-fault verdicts, coverage snapshots,
  scheduling events and ``span("campaign.run", ...)`` regions
  (``span.begin``/``span.end``) fan out to pluggable sinks (JSONL
  file, in-memory ring, callbacks).  :class:`TraceSink` renders the
  stream as a Chrome ``trace_event`` JSON or JSONL span trace
  (``chrome://tracing`` / Perfetto; the CLI's ``--trace FILE``).
* :mod:`repro.obs.telemetry` -- :class:`CoverageTelemetry`, the
  instrumented replay hook streaming per-transition visit counts,
  first-visit steps and incremental coverage snapshots.
* :mod:`repro.obs.progress` -- :class:`ProgressModel` folds the event
  stream into phase/ETA/throughput state; :class:`ProgressRenderer`
  draws it as a single-line TTY dashboard.
* :mod:`repro.obs.server` -- :class:`StatusServer`, a stdlib HTTP
  thread exposing ``/status`` (JSON), ``/metrics`` (Prometheus text)
  and ``/events?since=N`` (ring tail).
* :mod:`repro.obs.prom` -- Prometheus text exposition for a metrics
  dump, plus the tiny parser CI uses to validate it.
* :mod:`repro.obs.bench` -- schema-versioned ``BENCH_<name>.json``
  history files, the trajectory report and the regression gate.

The differential contract: instrumentation never changes campaign
results; every metric outside the ``*_seconds`` / ``parallel.*``
/ ``runtime.*`` namespaces is byte-identical at any ``jobs`` setting
(see :meth:`MetricsRegistry.deterministic_dump`); and every event
outside the scheduling namespaces (``chunk.*``, ``worker.*``,
``journal.*``, ``run.*``, ``service.*``, ``span.*``) has
byte-identical payloads at any ``jobs``/``kernel`` setting (see
:func:`repro.obs.events.deterministic_payloads`).
"""

from .bench import (
    BENCH_SCHEMA,
    Regression,
    find_regressions,
    load_bench,
    load_bench_dir,
    record_bench,
    render_trajectory,
)
from .events import (
    NOOP_SPAN,
    NULL_BUS,
    Event,
    EventBus,
    JsonlSink,
    NullBus,
    RingBufferSink,
    Span,
    TraceSink,
    deterministic_payloads,
    emit_event,
    get_bus,
    install_bus,
    is_deterministic_event,
    scoped_bus,
    span,
)
from .metrics import (
    NULL_REGISTRY,
    SECONDS_BUCKETS,
    STEP_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    install_registry,
    scoped_registry,
)
from .progress import ProgressModel, ProgressRenderer, progress_enabled
from .prom import parse_prometheus, render_prometheus
from .report import load_metrics, render_metrics, render_metrics_file
from .server import (
    StatusServer,
    model_status_provider,
    registry_metrics_provider,
    ring_events_provider,
    serve_campaign,
)
from .telemetry import (
    CoverageTelemetry,
    record_detection_latencies,
    replay_with_telemetry,
)

__all__ = [
    "BENCH_SCHEMA",
    "NOOP_SPAN",
    "NULL_BUS",
    "NULL_REGISTRY",
    "SECONDS_BUCKETS",
    "STEP_BUCKETS",
    "Counter",
    "CoverageTelemetry",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullBus",
    "NullRegistry",
    "ProgressModel",
    "ProgressRenderer",
    "Regression",
    "RingBufferSink",
    "Span",
    "StatusServer",
    "TraceSink",
    "deterministic_payloads",
    "emit_event",
    "find_regressions",
    "get_bus",
    "get_registry",
    "install_bus",
    "install_registry",
    "is_deterministic_event",
    "load_bench",
    "load_bench_dir",
    "load_metrics",
    "model_status_provider",
    "parse_prometheus",
    "progress_enabled",
    "record_bench",
    "record_detection_latencies",
    "registry_metrics_provider",
    "render_metrics",
    "render_metrics_file",
    "render_prometheus",
    "render_trajectory",
    "replay_with_telemetry",
    "ring_events_provider",
    "scoped_bus",
    "scoped_registry",
    "serve_campaign",
    "span",
]
