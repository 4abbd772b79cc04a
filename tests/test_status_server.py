"""Tests for the status server, Prometheus exposition and run watching.

The server binds 127.0.0.1 on an ephemeral port per test; requests go
through ``urllib`` so the full HTTP surface (routes, content types,
error codes) is exercised exactly as ``curl`` would in CI.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.models import counter
from repro.obs import scoped_registry
from repro.obs.events import Event, RingBufferSink, scoped_bus
from repro.obs.progress import ProgressModel
from repro.obs.prom import parse_prometheus, render_prometheus
from repro.obs.server import (
    MAX_EVENTS_PER_RESPONSE,
    MAX_RESPONSE_BYTES,
    SOCKET_TIMEOUT,
    StatusServer,
    model_status_provider,
    ring_events_provider,
    serve_campaign,
)
from repro.tour import transition_tour


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


@pytest.fixture()
def server():
    model = ProgressModel()
    ring = RingBufferSink()
    ring(Event(1, "campaign.started", {"machine": "m", "faults": 4}))
    model.handle(Event(1, "campaign.started",
                       {"machine": "m", "faults": 4}))
    srv = StatusServer(
        status_provider=model_status_provider(model, {"kind": "fsm"}),
        events_provider=ring_events_provider(ring),
    ).start()
    yield srv
    srv.stop()


class TestEndpoints:
    def test_status(self, server):
        status, ctype, body = _get(server.url + "/status")
        assert status == 200 and ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["run"] == {"kind": "fsm"}
        assert payload["campaign"] == "m"
        assert payload["total"] == 4

    def test_metrics_prometheus(self, server):
        with scoped_registry() as registry:
            registry.counter("campaign.faults_total").inc(7)
            registry.gauge("coverage.fraction", model="m").set(0.5)
            status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert "version=0.0.4" in ctype
        parsed = parse_prometheus(body)
        assert parsed["repro_campaign_faults_total"] == 7
        assert parsed['repro_coverage_fraction{model="m"}'] == 0.5

    def test_events_since(self, server):
        status, _ctype, body = _get(server.url + "/events?since=0")
        events = json.loads(body)["events"]
        assert [e["name"] for e in events] == ["campaign.started"]
        assert events[0]["payload"]["machine"] == "m"
        _status, _ctype, body = _get(server.url + "/events?since=1")
        assert json.loads(body)["events"] == []

    def test_events_bad_since(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/events?since=banana")
        assert exc.value.code == 400

    def test_root_lists_endpoints(self, server):
        _status, _ctype, body = _get(server.url + "/")
        assert json.loads(body)["endpoints"] == [
            "/status", "/metrics", "/events"
        ]

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/nope")
        assert exc.value.code == 404

    def test_provider_error_500(self):
        def boom():
            raise RuntimeError("provider exploded")

        srv = StatusServer(status_provider=boom).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(srv.url + "/status")
            assert exc.value.code == 500
        finally:
            srv.stop()


class TestHardening:
    """The robustness satellite: per-connection socket timeouts,
    bounded responses, and paged ``/events``."""

    def test_handler_carries_socket_timeout(self, server):
        handler = server._httpd.RequestHandlerClass
        assert handler.timeout == SOCKET_TIMEOUT
        assert SOCKET_TIMEOUT > 0

    def test_stalled_client_cannot_wedge_the_server(self):
        """A half-open connection times out and is closed; other
        requests keep being served the whole time."""
        srv = StatusServer(status_provider=lambda: {"ok": True})
        srv._httpd.RequestHandlerClass.timeout = 0.2
        srv.start()
        try:
            stalled = socket.create_connection(
                (srv.host, srv.port), timeout=5
            )
            stalled.sendall(b"GET /status HTTP/1.1\r\n")  # never ends
            # The stalled handler must not block a healthy client.
            status, _ctype, _body = _get(srv.url + "/status")
            assert status == 200
            # And the stalled connection gets hung up on, not parked.
            stalled.settimeout(5)
            deadline = time.monotonic() + 5
            closed = b"x"
            while closed != b"" and time.monotonic() < deadline:
                try:
                    closed = stalled.recv(4096)
                except TimeoutError:
                    break
            assert closed == b""
            stalled.close()
        finally:
            srv.stop()

    def test_events_are_paged_oldest_first(self):
        ring = RingBufferSink(capacity=4096)
        for seq in range(1, 2501):
            ring(Event(seq, "fault.verdict", {"i": seq}))
        srv = StatusServer(
            status_provider=lambda: {},
            events_provider=ring_events_provider(ring),
        ).start()
        try:
            # One page is capped...
            _s, _c, body = _get(srv.url + "/events?since=0")
            page = json.loads(body)["events"]
            assert len(page) == MAX_EVENTS_PER_RESPONSE
            assert page[0]["seq"] == 1  # oldest first: nothing skipped
            # ...and paging by the last seq recovers every event.
            seen = []
            since = 0
            while True:
                _s, _c, body = _get(
                    srv.url + f"/events?since={since}"
                )
                page = json.loads(body)["events"]
                if not page:
                    break
                seen.extend(e["seq"] for e in page)
                since = page[-1]["seq"]
            assert seen == list(range(1, 2501))
        finally:
            srv.stop()

    def test_runaway_response_refused(self):
        huge = {"blob": "x" * (MAX_RESPONSE_BYTES + 1)}
        srv = StatusServer(status_provider=lambda: huge).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(srv.url + "/status")
            assert exc.value.code == 500
            body = json.loads(exc.value.read())
            assert "exceeds" in body["error"]
        finally:
            srv.stop()


class TestLiveCampaignIntegration:
    def test_serve_campaign_sees_run(self):
        from repro.faults import run_campaign

        machine = counter(3)
        inputs = transition_tour(machine).inputs
        with scoped_registry(), scoped_bus() as bus:
            model = ProgressModel()
            ring = RingBufferSink()
            bus.add_sink(model)
            bus.add_sink(ring)
            with serve_campaign(model, ring) as srv:
                run_campaign(machine, inputs, jobs=2)
                _s, _c, body = _get(srv.url + "/status")
                status = json.loads(body)
                assert status["phase"] == "done"
                assert status["done"] == status["total"] == 256
                assert status["detected"] == 249
                _s, _c, body = _get(srv.url + "/metrics")
                parsed = parse_prometheus(body)
                key = 'repro_campaign_coverage{machine="counter3"}'
                assert parsed[key] == pytest.approx(0.9727, abs=1e-3)
                _s, _c, body = _get(srv.url + "/events?since=0")
                names = {
                    e["name"] for e in json.loads(body)["events"]
                }
                assert "campaign.started" in names
                assert "fault.verdict" in names


class TestPrometheusRendering:
    def test_histogram_exposition(self):
        with scoped_registry() as registry:
            hist = registry.histogram(
                "campaign.latency", buckets=(1.0, 5.0), cls="output"
            )
            hist.observe(0.5)
            hist.observe(3.0)
            hist.observe(99.0)
            text = render_prometheus(registry.dump())
        parsed = parse_prometheus(text)
        key = 'repro_campaign_latency_bucket{cls="output",le="1"}'
        assert parsed[key] == 1
        key = 'repro_campaign_latency_bucket{cls="output",le="5"}'
        assert parsed[key] == 2  # cumulative
        key = 'repro_campaign_latency_bucket{cls="output",le="+Inf"}'
        assert parsed[key] == 3
        assert parsed['repro_campaign_latency_count{cls="output"}'] == 3
        assert parsed['repro_campaign_latency_sum{cls="output"}'] == 102.5

    def test_counter_gets_total_suffix(self):
        with scoped_registry() as registry:
            registry.counter("cache.hits").inc(3)
            text = render_prometheus(registry.dump())
        assert parse_prometheus(text)["repro_cache_hits_total"] == 3

    def test_non_numeric_gauge_skipped(self):
        with scoped_registry() as registry:
            registry.gauge("campaign.name").set("counter3")
            registry.gauge("campaign.faults").set(9)
            text = render_prometheus(registry.dump())
        parsed = parse_prometheus(text)
        assert "repro_campaign_faults" in parsed
        assert not any("name" in key for key in parsed)

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_x{unterminated 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("repro_x notanumber\n")

    def test_parser_roundtrip_is_float_exact(self):
        with scoped_registry() as registry:
            registry.gauge("a.b").set(0.972656)
            text = render_prometheus(registry.dump())
        assert parse_prometheus(text)["repro_a_b"] == 0.972656


class TestWatchSnapshot:
    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory):
        from repro.runtime import run_campaign_resumable

        machine = counter(3)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path_factory.mktemp("watch") / "run")
        run_campaign_resumable(machine, inputs, run_dir=run_dir,
                               slice_size=64)
        return run_dir

    def test_finished_run_snapshot(self, finished_run):
        from repro.runtime import watch_snapshot

        snapshot = watch_snapshot(finished_run)
        assert snapshot["phase"] == "done"
        assert snapshot["journaled"] == snapshot["total"] == 256
        assert snapshot["detected"] == 249
        assert snapshot["escaped"] == 7
        assert snapshot["coverage"] == pytest.approx(0.9726, abs=1e-3)
        assert snapshot["identity"]["machine"] == "counter3"
        json.dumps(snapshot)  # /status-serializable

    def test_mid_run_snapshot(self, tmp_path):
        """Manifest + partial journal (no report yet) reads as a
        running campaign."""
        import os

        from repro.runtime import (
            Journal,
            run_paths,
            watch_snapshot,
            write_manifest,
        )

        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        paths = run_paths(run_dir)
        write_manifest(
            paths.manifest,
            {"kind": "fsm", "machine": "m", "fault_count": 10},
            {"jobs": 2},
        )
        with Journal(paths.journal) as journal:
            for i in range(4):
                journal.append({"i": i, "detected": i % 2 == 0,
                                "timed_out": False, "degraded": False})
            journal.sync()
        snapshot = watch_snapshot(run_dir)
        assert snapshot["phase"] == "running"
        assert snapshot["journaled"] == 4 and snapshot["total"] == 10
        assert snapshot["progress"] == pytest.approx(0.4)
        assert snapshot["coverage"] is None

    def test_timed_out_verdicts_tally_like_the_report(self, tmp_path):
        """A timed-out verdict is journaled detected (by crash): the
        snapshot counts it among the detected, as the report does, and
        escapes are the journaled verdicts that were not detected."""
        import os

        from repro.faults import all_single_faults
        from repro.runtime import (
            ChaosPlan,
            chaos_scope,
            run_campaign_resumable,
            watch_snapshot,
        )

        machine = counter(3)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path / "run")
        with chaos_scope(ChaosPlan(seed=1, hang=1.0, hang_seconds=1.0)):
            run_campaign_resumable(
                machine, inputs, all_single_faults(machine)[:6],
                run_dir=run_dir, jobs=2, timeout=0.2, kernel="interp",
            )
        with open(os.path.join(run_dir, "report.json")) as handle:
            report = json.load(handle)
        snapshot = watch_snapshot(run_dir)
        assert snapshot["timed_out"] == snapshot["journaled"] == 6
        assert (snapshot["detected"], snapshot["escaped"]) == (6, 0)
        assert snapshot["detected"] == report["detected"]
        assert snapshot["escaped"] == report["escaped"]

    def test_missing_manifest_raises(self, tmp_path):
        from repro.runtime import RunDirError, watch_snapshot

        with pytest.raises(RunDirError):
            watch_snapshot(str(tmp_path))


class TestWatchCli:
    def test_watch_once(self, tmp_path, capsys):
        from repro.cli import main
        from repro.models import counter  # noqa: F401 - fixture parity
        from repro.runtime import run_campaign_resumable

        machine = counter(2)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path / "run")
        run_campaign_resumable(machine, inputs, run_dir=run_dir)
        capsys.readouterr()
        assert main(["watch", run_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "counter2" in out

    def test_watch_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runtime import run_campaign_resumable

        machine = counter(2)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path / "run")
        run_campaign_resumable(machine, inputs, run_dir=run_dir)
        capsys.readouterr()
        assert main(["watch", run_dir, "--once", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["phase"] == "done"

    def test_watch_follows_to_done(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runtime import run_campaign_resumable

        machine = counter(2)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path / "run")
        run_campaign_resumable(machine, inputs, run_dir=run_dir)
        capsys.readouterr()
        # A finished run: the loop prints one line and exits 0.
        assert main(["watch", run_dir, "--interval", "0.05"]) == 0

    def test_watch_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", str(tmp_path / "ghost")]) == 2
        assert "cannot watch" in capsys.readouterr().err

    def test_watch_with_status_port(self, tmp_path, capsys):
        """--status-port on watch serves the snapshot over HTTP; use
        the server machinery directly at port 0 via the CLI."""
        import re

        from repro.cli import main
        from repro.runtime import run_campaign_resumable

        machine = counter(2)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path / "run")
        run_campaign_resumable(machine, inputs, run_dir=run_dir)
        capsys.readouterr()
        assert main(["watch", run_dir, "--once",
                     "--status-port", "0"]) == 0
        err = capsys.readouterr().err
        assert re.search(r"http://127\.0\.0\.1:\d+", err)


class TestCampaignStatusPortCli:
    def test_observability_context_serves_live(self, tmp_path):
        """The CLI's --status-port context: endpoints answer while the
        command body runs, and the bound URL is announced."""
        import argparse
        import io
        import re
        import sys

        from repro.cli import _observability

        args = argparse.Namespace(
            trace=None, metrics=None, events=str(tmp_path / "e.jsonl"),
            progress="never", status_port=0,
        )
        captured = io.StringIO()
        real_stderr = sys.stderr
        sys.stderr = captured
        try:
            with _observability(args):
                sys.stderr = real_stderr
                url = re.search(
                    r"http://[\d.]+:\d+", captured.getvalue()
                ).group(0)
                from repro.faults import run_campaign

                machine = counter(2)
                run_campaign(machine, transition_tour(machine).inputs)
                _s, _c, body = _get(url + "/status")
                assert json.loads(body)["phase"] == "done"
                _s, _c, body = _get(url + "/metrics")
                parsed = parse_prometheus(body)
                key = 'repro_campaign_coverage{machine="counter2"}'
                assert key in parsed
        finally:
            sys.stderr = real_stderr
        # Sinks closed: the JSONL file holds the full stream.
        lines = (tmp_path / "e.jsonl").read_text().splitlines()
        names = [json.loads(line)["name"] for line in lines]
        assert "campaign.started" in names
        assert "campaign.finished" in names
        # Server torn down with the context.
        with pytest.raises(urllib.error.URLError):
            _get(url + "/status", timeout=1)


class TestBenchReportCli:
    def _seed(self, directory, first=1.0, second=1.5):
        from repro.obs.bench import record_bench

        record_bench("demo", "demo", {"sweep_seconds": first},
                     out_dir=str(directory))
        record_bench("demo", "demo", {"sweep_seconds": second},
                     out_dir=str(directory))

    def test_report_only_flags_regression(self, tmp_path, capsys):
        from repro.cli import main

        self._seed(tmp_path)
        assert main(["bench-report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "demo (2 entries)" in out
        assert "1 timing regression(s)" in out
        assert "1.50x" in out

    def test_check_gates(self, tmp_path, capsys):
        from repro.cli import main

        self._seed(tmp_path)
        assert main(["bench-report", str(tmp_path), "--check"]) == 1

    def test_clean_trajectory_passes_check(self, tmp_path, capsys):
        from repro.cli import main

        self._seed(tmp_path, first=1.0, second=1.01)
        assert main(["bench-report", str(tmp_path), "--check"]) == 0
        assert "no timing regressions" in capsys.readouterr().out

    def test_threshold_override(self, tmp_path, capsys):
        from repro.cli import main

        self._seed(tmp_path, first=1.0, second=1.4)
        assert main(["bench-report", str(tmp_path),
                     "--threshold", "0.5", "--check"]) == 0

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench-report", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err
