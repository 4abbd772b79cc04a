"""The campaign status server: ``/status``, ``/metrics``, ``/events``.

A stdlib :class:`~http.server.ThreadingHTTPServer` running on a
daemon thread next to the campaign -- the embryo of the ROADMAP's
``repro serve``.  Three endpoints:

``/status``
    One JSON object: the run's manifest identity (when it has one),
    the live :class:`~repro.obs.progress.ProgressModel` status
    (phase, done/total, throughput, ETA, queue depth) and the
    coverage so far.
``/metrics``
    The installed metrics registry rendered as Prometheus text
    exposition format (:mod:`repro.obs.prom`).
``/events?since=N``
    The ring-buffer tail: every retained event with sequence number
    greater than ``N``, JSON-encoded with payload and envelope
    metadata kept apart.

The server binds ``127.0.0.1`` only (this is telemetry, not an API
gateway) and ``port=0`` asks the OS for an ephemeral port --
``StatusServer.port`` reports the bound one.  Providers are plain
callables so ``repro watch`` can serve a run *directory* (journal
tail, saved metrics) through the identical surface.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from .events import Event, RingBufferSink
from .progress import ProgressModel
from .prom import render_prometheus

StatusProvider = Callable[[], Dict[str, Any]]
MetricsProvider = Callable[[], Dict[str, Any]]
EventsProvider = Callable[[int], List[Dict[str, Any]]]

#: Per-connection socket timeout (seconds).  One stalled or
#: half-closed client times out instead of parking a handler thread
#: (and, transitively, anything serialized behind it) forever.
SOCKET_TIMEOUT = 10.0

#: Hard ceiling on a single response body.  Telemetry responses are
#: small by construction; anything larger indicates a runaway provider
#: and is refused rather than streamed to a possibly-slow client.
MAX_RESPONSE_BYTES = 2 * 1024 * 1024

#: Events per ``/events`` response.  Clients page with ``since=N``
#: (each event carries its ``seq``), so a bounded window loses nothing.
MAX_EVENTS_PER_RESPONSE = 1024


def ring_events_provider(
    ring: RingBufferSink, limit: int = MAX_EVENTS_PER_RESPONSE
) -> EventsProvider:
    """An ``/events`` provider reading a live ring-buffer sink.

    At most ``limit`` events per call (the *oldest* retained events
    after ``since``, so a paging client never skips any).
    """

    def provide(since: int) -> List[Dict[str, Any]]:
        return [e.to_json_dict() for e in ring.since(since)[:limit]]

    return provide


def model_status_provider(
    model: ProgressModel,
    identity: Optional[Dict[str, Any]] = None,
) -> StatusProvider:
    """A ``/status`` provider over a live progress model."""

    def provide() -> Dict[str, Any]:
        status = {"run": identity or {}}
        status.update(model.status())
        return status

    return provide


def registry_metrics_provider() -> MetricsProvider:
    """A ``/metrics`` provider reading the *installed* registry (late
    bound, so a registry scoped after server start is still seen)."""

    def provide() -> Dict[str, Any]:
        from .metrics import get_registry

        return get_registry().dump()

    return provide


class JsonHandler(BaseHTTPRequestHandler):
    """The hardened request-handler base of both HTTP surfaces (this
    status server and :mod:`repro.service.server`).

    A per-connection socket timeout, no per-request stderr logging,
    socket timeouts and client resets treated as a normal end of
    conversation, and responses capped at :data:`MAX_RESPONSE_BYTES`
    and written in a single send -- status line, headers and body
    together, so a client's first ``recv()`` sees the whole of a small
    response.
    """

    #: Per-connection socket timeout (socketserver applies it in
    #: ``setup()``): a stalled client cannot wedge its handler thread.
    timeout = SOCKET_TIMEOUT

    def log_message(self, *_args: Any) -> None:
        """Silence per-request stderr logging."""

    def handle(self) -> None:
        """One connection; socket timeouts and client resets are a
        normal end-of-conversation, not a server error."""
        try:
            super().handle()
        except (TimeoutError, OSError):
            self.close_connection = True

    def _send(
        self,
        code: int,
        body: str,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = body.encode("utf-8")
        if len(data) > MAX_RESPONSE_BYTES:
            # Refuse runaway payloads instead of feeding megabytes to
            # a client that may be reading one byte per timeout.
            data = json.dumps({
                "error": f"response exceeds {MAX_RESPONSE_BYTES} bytes"
            }).encode("utf-8") + b"\n"
            code, content_type = 500, "application/json"
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # end_headers() would write the head on its own; append the
        # blank line and the body to the buffered head instead.
        self._headers_buffer.append(b"\r\n" + data)
        self.flush_headers()

    def _send_metrics(self, dump: Dict[str, Any]) -> None:
        """A metrics dump as Prometheus text exposition."""
        self._send(
            200, render_prometheus(dump),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _send_json(
        self,
        code: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            code, json.dumps(payload, sort_keys=True) + "\n",
            headers=headers,
        )


class _Handler(JsonHandler):
    server_version = "repro-status/1"

    # Set per-server via the factory in StatusServer.__init__.
    status_provider: StatusProvider
    metrics_provider: MetricsProvider
    events_provider: EventsProvider

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        try:
            if url.path == "/status":
                self._send_json(200, type(self).status_provider())
            elif url.path == "/metrics":
                self._send_metrics(type(self).metrics_provider())
            elif url.path == "/events":
                query = parse_qs(url.query)
                try:
                    since = int(query.get("since", ["0"])[0])
                except ValueError:
                    self._send_json(
                        400, {"error": "since must be an integer"}
                    )
                    return
                events = type(self).events_provider(since)
                self._send_json(200, {"events": events})
            elif url.path == "/":
                self._send_json(
                    200, {"endpoints": ["/status", "/metrics", "/events"]}
                )
            else:
                self._send_json(404, {"error": f"no route {url.path}"})
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self._send_json(500, {"error": repr(exc)})


class JsonServer:
    """A :class:`JsonHandler` subclass served from a daemon thread.

    ``attrs`` bind per-server state onto a fresh subclass of
    ``handler``; ``port=0`` binds an ephemeral port (``.url`` reports
    the bound one).  Usable as a context manager.
    """

    thread_name = "repro-http"

    def __init__(
        self,
        handler: type,
        attrs: Dict[str, Any],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        bound = type(f"_Bound{handler.__name__}", (handler,), attrs)
        self._httpd = ThreadingHTTPServer((host, port), bound)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JsonServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "JsonServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


class StatusServer(JsonServer):
    """A daemon-thread HTTP status server over pluggable providers."""

    thread_name = "repro-status-server"

    def __init__(
        self,
        *,
        status_provider: StatusProvider,
        metrics_provider: Optional[MetricsProvider] = None,
        events_provider: Optional[EventsProvider] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(
            _Handler,
            {
                "status_provider": staticmethod(status_provider),
                "metrics_provider": staticmethod(
                    metrics_provider or registry_metrics_provider()
                ),
                "events_provider": staticmethod(
                    events_provider or (lambda since: [])
                ),
            },
            host,
            port,
        )


def serve_campaign(
    model: ProgressModel,
    ring: RingBufferSink,
    identity: Optional[Dict[str, Any]] = None,
    port: int = 0,
) -> StatusServer:
    """Start the standard live-campaign server: model-backed
    ``/status``, installed-registry ``/metrics``, ring ``/events``."""
    return StatusServer(
        status_provider=model_status_provider(model, identity),
        metrics_provider=registry_metrics_provider(),
        events_provider=ring_events_provider(ring),
        port=port,
    ).start()
