"""The service chaos differential: harassment changes nothing.

The acceptance pin for the campaign service: a multi-worker HTTP run
in which at least one shard worker is SIGKILLed mid-lease and at
least one goes silent past its lease (expiry + a zombie late report)
must produce the byte-identical report, metrics and deterministic
event projection as one uninterrupted serial ``--jobs 1`` run -- and
resubmitting the identical campaign to a fresh coordinator over the
same store must perform zero simulations.

Real sockets, real subprocess workers (``python -m repro
shard-worker``), real SIGKILLs.  The fake-clock edge cases live in
``test_service.py``; this file is the end-to-end contract.
"""

import json
import os
import signal
import subprocess
import sys
import time

import repro
from repro.obs.events import (
    RingBufferSink,
    deterministic_payloads,
    scoped_bus,
)
from repro.obs.metrics import scoped_registry
from repro.service import (
    Coordinator,
    ServiceServer,
    campaign_view,
    submit_campaign,
    wait_for_campaign,
)
from repro.validation import DIRECTED_TEST_NAME

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(repro.__file__), os.pardir)
)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def reap(procs, timeout=30.0):
    """Wait every process out (hangers are finite); returncodes."""
    codes = []
    deadline = time.monotonic() + timeout
    for proc in procs:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            codes.append(proc.wait(timeout=remaining))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
            codes.append("timeout")
    return codes


def serial_dlx_reference():
    """The uninterrupted ``--jobs 1`` run the service must match."""
    from repro.dlx.buggy import BUG_CATALOG
    from repro.dlx.programs import DIRECTED_PROGRAMS
    from repro.validation.harness import run_bug_campaign

    tests = tuple(
        (list(p), None, None) for p in DIRECTED_PROGRAMS.values()
    )
    with scoped_bus() as bus:
        ring = RingBufferSink()
        bus.add_sink(ring)
        result = run_bug_campaign(
            tests,
            tuple(BUG_CATALOG),
            test_name=DIRECTED_TEST_NAME,
            jobs=1,
        )
        events = deterministic_payloads(ring.events())
    # Metrics come from a second run with a live registry (and the
    # default null bus): exactly the runner's own --metrics recipe.
    with scoped_registry() as registry:
        rerun = run_bug_campaign(
            tests,
            tuple(BUG_CATALOG),
            test_name=DIRECTED_TEST_NAME,
            jobs=1,
        )
        metrics = registry.deterministic_dump()
    assert rerun.to_json_dict() == result.to_json_dict()
    return result, events, metrics


class TestChaosDifferential:
    def test_harassed_run_is_byte_identical_to_serial(self, tmp_path):
        serial, serial_events, serial_metrics = serial_dlx_reference()
        serial_report = serial.to_json_dict()
        serial_bytes = (
            json.dumps(serial_report, indent=2, sort_keys=True) + "\n"
        )

        root = str(tmp_path / "svc")
        coordinator = Coordinator(root, shard_size=3, lease_seconds=1.5)
        procs = []
        killers = []
        with scoped_bus() as bus:
            ring = RingBufferSink(capacity=65536)
            bus.add_sink(ring)
            server = ServiceServer(coordinator).start()
            try:
                view = submit_campaign(server.url, {"target": "dlx"})
                key = view["campaign"]
                assert view["state"] == "running"
                assert view["shards"] == 4  # 10 bugs / shard_size 3

                # The hang: leases its first shard, goes silent (no
                # heartbeats) past the 1.5s lease, then reports late
                # -- the zombie whose verdicts must not double-count.
                hanger = spawn([
                    "shard-worker", server.url,
                    "--worker-id", "hanger",
                    "--max-shards", "1",
                    "--poll", "0.1",
                    "--chaos", "seed=3,hang=1.0,hang_seconds=4",
                ])
                procs.append(hanger)

                # The kills: each leases a first-attempt shard and
                # SIGKILLs itself immediately; respawns pick up the
                # expired leases (chaos only fires on attempt 0, so
                # the harassed campaign still converges).
                current = None
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    doc = campaign_view(server.url, key)
                    if doc["state"] in ("done", "failed"):
                        break
                    if current is None or current.poll() is not None:
                        current = spawn([
                            "shard-worker", server.url,
                            "--poll", "0.1",
                            "--max-idle", "1.0",
                            "--chaos", "seed=11,kill=1.0",
                        ])
                        procs.append(current)
                        killers.append(current)
                    time.sleep(0.2)

                final = wait_for_campaign(
                    server.url, key, poll=0.2, timeout=30.0
                )
                # Let the zombie's late report land (dedup path) and
                # the last killer idle out before freezing the stats.
                codes = reap(procs)
                service_events = deterministic_payloads(ring.events())
            finally:
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                server.stop()

        # The chaos actually happened: at least one SIGKILL death and
        # at least one lease expired (the hang, plus every kill that
        # died holding a lease).
        assert codes.count(-signal.SIGKILL) >= 1
        assert coordinator.stats["expired"] >= 2
        assert hanger.returncode == 0  # reported late, then exited

        # The pin: report, stored bytes, metrics and deterministic
        # event projection all byte-identical to the serial run.
        assert final["state"] == "done"
        assert final["coverage"] == serial_report["coverage"]
        assert final["report"] == serial_report
        with open(coordinator.store.report_path(key)) as handle:
            assert handle.read() == serial_bytes
        stored = coordinator.store.get(key)
        assert stored["report"] == serial_report
        assert stored["metrics"] == serial_metrics
        assert json.dumps(service_events, sort_keys=True) == (
            json.dumps(serial_events, sort_keys=True)
        )

        # Resubmission: a fresh coordinator over the same root answers
        # from the store with zero simulations and zero leases.
        reborn = Coordinator(root, shard_size=3, lease_seconds=1.5)
        with ServiceServer(reborn) as server:
            again = submit_campaign(server.url, {"target": "dlx"})
            full = campaign_view(server.url, again["campaign"])
        assert again["state"] == "done"
        assert again["cached"] is True
        assert again["executed"] == 0
        assert full["report"] == serial_report
        assert reborn.stats["leases"] == 0
        assert reborn.stats["store_hits"] == 1


class TestServiceHttpHardening:
    def test_oversized_request_body_refused(self, tmp_path):
        """A Content-Length past the cap is refused up front -- the
        handler never tries to buffer it."""
        import socket

        from repro.service.server import MAX_REQUEST_BYTES

        coordinator = Coordinator(str(tmp_path / "svc"))
        with ServiceServer(coordinator) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as conn:
                conn.sendall(
                    b"POST /api/campaigns HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {MAX_REQUEST_BYTES + 1}\r\n"
                    .encode()
                    + b"\r\n{"
                )
                reply = conn.recv(65536).decode("utf-8", "replace")
        assert reply.startswith("HTTP/1.1 400")
        assert "exceeds" in reply

    def test_bad_json_body_is_400(self, tmp_path):
        from repro.service import request_json

        coordinator = Coordinator(str(tmp_path / "svc"))
        with ServiceServer(coordinator) as server:
            status, body = request_json(
                server.url + "/api/campaigns", {"spec": None}
            )
            assert status == 400
            assert "spec" in body["error"]
            status, body = request_json(server.url + "/healthz")
            assert status == 200 and body == {"ok": True}

    def test_non_object_body_is_400(self, tmp_path):
        """Every POST route refuses JSON that parses but is not an
        object with 400, before the coordinator sees it."""
        import http.client

        bodies = {
            "/api/campaigns": b"[1,2]",
            "/api/lease": b"[1]",
            "/api/heartbeat": b'"x"',
            "/api/shard-result": b"[1]",
        }
        coordinator = Coordinator(str(tmp_path / "svc"))
        replies = {}
        with ServiceServer(coordinator) as server:
            for route, body in bodies.items():
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=10
                )
                try:
                    conn.request(
                        "POST", route, body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    reply = conn.getresponse()
                    replies[route] = (
                        reply.status, json.loads(reply.read())
                    )
                finally:
                    conn.close()
        expected = (400, {"error": "request body must be a JSON object"})
        assert replies == {route: expected for route in bodies}
        assert coordinator.stats["leases"] == 0


class TestServiceCli:
    """`repro serve` / `repro shard-worker` / `repro submit` round
    trips as real subprocesses -- the CI smoke, pinned locally."""

    def start_serve(self, root):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", root, "--port", "0",
                "--lease-seconds", "2.0",
            ],
            env=worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        url = proc.stdout.readline().strip()
        assert url.startswith("http://"), url
        return proc, url

    def submit(self, url, *extra, timeout=90):
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "submit", url,
                "dlx", "--json", *extra,
            ],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def test_serve_submit_worker_roundtrip(self, tmp_path):
        root = str(tmp_path / "svc")
        serve, url = self.start_serve(root)
        worker = None
        try:
            worker = spawn([
                "shard-worker", url, "--poll", "0.1",
                "--max-idle", "2.0",
            ])
            done = self.submit(url)
            assert done.returncode == 0, done.stderr
            view = json.loads(done.stdout)
            assert view["state"] == "done"
            assert view["coverage"] == 1.0
            assert view["cached"] is False
            assert view["report"]["total"] == view["total"]

            # A bad spec is a 400, surfaced as exit 2 with no wait.
            bad = subprocess.run(
                [
                    sys.executable, "-m", "repro", "submit", url,
                    "warp-core",
                ],
                env=worker_env(),
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert bad.returncode == 2
            assert "submit failed" in bad.stderr
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)
            serve.send_signal(signal.SIGINT)
            serve.wait(timeout=10)

        # A new serve process over the same --root: the result store
        # survives the restart and answers without any worker at all.
        serve, url = self.start_serve(root)
        try:
            cached = self.submit(url, timeout=30)
            assert cached.returncode == 0, cached.stderr
            view = json.loads(cached.stdout)
            assert view["state"] == "done"
            assert view["cached"] is True
            assert view["executed"] == 0
        finally:
            serve.send_signal(signal.SIGINT)
            serve.wait(timeout=10)
