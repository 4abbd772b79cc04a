"""The campaign service's HTTP surface (``repro serve``).

A thin, hardened JSON shim over :class:`~repro.service.coordinator.
Coordinator` -- every route is one locked coordinator call, so the
transport adds no semantics.  Built on the status server's
:class:`~repro.obs.server.JsonHandler` base, so it is hardened the
same way (per-connection socket timeouts, bounded responses written
in one send, no per-request stderr noise), plus a bounded request
body.

Routes::

    POST /api/campaigns     {"spec": {...}}        -> campaign summary
                            (429 + Retry-After under back-pressure,
                             400 for an unresolvable spec)
    GET  /api/campaigns/K                          -> full view + report
    POST /api/lease         {"worker": "..."}      -> lease or retry_after
    POST /api/heartbeat     {"lease": "..."}       -> {"ok": bool}
    POST /api/shard-result  {lease,campaign,shard,
                             records|error,worker} -> {"accepted": bool}
    GET  /status                                   -> service document
    GET  /metrics                                  -> Prometheus text
    GET  /healthz                                  -> {"ok": true}

A POST body must be a JSON object (an empty body reads as ``{}``);
anything else gets 400.

A background **ticker** thread calls ``coordinator.tick()`` every
quarter-lease, so leases expire (and shards get rescheduled) even when
no request happens to arrive -- expiry must not depend on traffic.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from ..obs.metrics import get_registry
from ..obs.server import JsonHandler, JsonServer
from .coordinator import BackPressure, Coordinator
from .protocol import SpecError

#: Hard ceiling on a request body.  The largest legitimate payload is
#: a shard result (a few hundred small records); megabytes mean a
#: confused or hostile client.
MAX_REQUEST_BYTES = 8 * 1024 * 1024


class _ServiceHandler(JsonHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    coordinator: Coordinator  # bound per-server by ServiceServer

    # -- plumbing ----------------------------------------------------

    def _read_json(self) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_REQUEST_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                return None, "bad Content-Length"
            return None, (
                f"request body exceeds {MAX_REQUEST_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}, None
        try:
            payload = json.loads(raw)
        except ValueError:
            return None, "request body is not valid JSON"
        if not isinstance(payload, dict):
            return None, "request body must be a JSON object"
        return payload, None

    # -- routes ------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        payload, error = self._read_json()
        if error is not None:
            self._send_json(400, {"error": error})
            return
        coordinator = type(self).coordinator
        try:
            if path == "/api/campaigns":
                try:
                    view = coordinator.submit(payload.get("spec"))
                except SpecError as exc:
                    self._send_json(400, {"error": str(exc)})
                    return
                except BackPressure as exc:
                    self._send_json(
                        429,
                        {
                            "error": str(exc),
                            "retry_after": exc.retry_after,
                        },
                        headers={
                            "Retry-After": str(
                                max(1, int(exc.retry_after))
                            )
                        },
                    )
                    return
                self._send_json(200, view)
            elif path == "/api/lease":
                worker = payload.get("worker") or "anonymous"
                self._send_json(200, coordinator.lease(str(worker)))
            elif path == "/api/heartbeat":
                self._send_json(
                    200, coordinator.heartbeat(payload.get("lease"))
                )
            elif path == "/api/shard-result":
                self._send_json(200, coordinator.report_shard(payload))
            else:
                self._send_json(404, {"error": f"no route POST {path}"})
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self._send_json(500, {"error": repr(exc)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        coordinator = type(self).coordinator
        try:
            if path.startswith("/api/campaigns/"):
                key = path[len("/api/campaigns/"):]
                view = coordinator.campaign_view(key)
                if view is None:
                    self._send_json(
                        404, {"error": f"unknown campaign {key}"}
                    )
                else:
                    self._send_json(200, view)
            elif path == "/status":
                self._send_json(200, coordinator.status())
            elif path == "/metrics":
                self._send_metrics(get_registry().dump())
            elif path == "/healthz":
                self._send_json(200, {"ok": True})
            elif path == "/":
                self._send_json(200, {
                    "endpoints": [
                        "/api/campaigns",
                        "/api/lease",
                        "/api/heartbeat",
                        "/api/shard-result",
                        "/status",
                        "/metrics",
                        "/healthz",
                    ]
                })
            else:
                self._send_json(404, {"error": f"no route GET {path}"})
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self._send_json(500, {"error": repr(exc)})


class ServiceServer(JsonServer):
    """The coordinator behind a threaded HTTP server plus a ticker.

    ``port=0`` binds an ephemeral port (``.url`` reports it); stop()
    is idempotent and also stops the ticker.  Usable as a context
    manager in tests.
    """

    thread_name = "repro-service-http"

    def __init__(
        self,
        coordinator: Coordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: Optional[float] = None,
    ) -> None:
        super().__init__(
            _ServiceHandler, {"coordinator": coordinator}, host, port
        )
        self.coordinator = coordinator
        self.tick_interval = tick_interval or max(
            0.05, min(1.0, coordinator.lease_seconds / 4)
        )
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.tick_interval):
            try:
                self.coordinator.tick()
            except Exception:  # noqa: BLE001 - the ticker must survive
                pass

    def start(self) -> "ServiceServer":
        super().start()
        self._ticker = threading.Thread(
            target=self._tick_loop,
            name="repro-service-ticker",
            daemon=True,
        )
        self._ticker.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        super().stop()
        if self._ticker is not None:
            self._ticker.join(timeout=5)
            self._ticker = None
        self.coordinator.close()
