"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestTour:
    def test_tour_vending(self, capsys):
        assert main(["tour", "vending"]) == 0
        out = capsys.readouterr().out
        assert "cpp tour" in out

    def test_tour_show_and_campaign(self, capsys):
        assert main(["tour", "figure2", "--method", "greedy",
                     "--show", "--campaign"]) == 0
        out = capsys.readouterr().out
        assert "error coverage" in out

    def test_unknown_model(self, capsys):
        assert main(["tour", "nonsense"]) == 2


class TestValidate:
    def test_validate_pass(self, tmp_path, capsys):
        asm = tmp_path / "prog.s"
        asm.write_text("addi r1, r0, 2\nadd r2, r1, r1\nhalt\n")
        assert main(["validate", str(asm)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_with_bug_fails(self, tmp_path, capsys):
        asm = tmp_path / "prog.s"
        # Store 7, reload it, and consume the load immediately: with
        # the interlock dropped the consumer sees the load's *address*
        # (3) instead of its data (7).
        asm.write_text(
            "addi r1, r0, 7\n"
            "sw r1, 3(r0)\n"
            "lw r2, 3(r0)\n"
            "add r3, r2, r2\n"
            "sw r3, 4(r0)\n"
            "halt\n"
        )
        assert main(
            ["validate", str(asm), "--bug", "interlock_dropped"]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_bug(self, tmp_path):
        asm = tmp_path / "prog.s"
        asm.write_text("halt\n")
        assert main(["validate", str(asm), "--bug", "nope"]) == 2


class TestCampaign:
    def test_campaign_model_serial(self, capsys):
        # A bare tour leaves some transfer errors untested on figure2
        # (the paper's own limitation), so incomplete coverage now
        # exits 1 -- same convention as the dlx path.
        assert main(["campaign", "figure2"]) == 1
        out = capsys.readouterr().out
        assert "error coverage" in out
        assert "jobs=1" in out

    def test_campaign_model_parallel_matches_serial(self, capsys):
        assert main(["campaign", "counter"]) == 1
        serial = capsys.readouterr().out
        assert main(["campaign", "counter", "--jobs", "2"]) == 1
        parallel = capsys.readouterr().out
        assert serial.replace("jobs=1", "jobs=2") == parallel

    def test_campaign_dlx(self, capsys):
        assert main(["campaign", "dlx", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "10/10 catalog bugs detected" in out

    def test_campaign_unknown_target(self, capsys):
        assert main(["campaign", "nonsense"]) == 2

    def test_campaign_json(self, capsys):
        import json

        assert main(["campaign", "counter", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "counter3"
        assert payload["detected"] + payload["escaped"] == payload["total"]
        assert 0.9 < payload["coverage"] < 1.0
        assert payload["undetected"]
        assert set(payload["by_class"]) == {"output", "transfer"}

    def test_campaign_dlx_json(self, capsys):
        import json

        assert main(["campaign", "dlx", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"] == 1.0
        assert payload["undetected"] == []
        assert len(payload["rows"]) == payload["total"]


class TestDlxRunDir:
    """The DLX campaign's identity names its battery, never its worker
    count, so a journaled run resumes and reports alike at any
    ``--jobs``."""

    def test_resume_at_other_job_count_replays_every_verdict(
        self, tmp_path, capsys
    ):
        run_dir = str(tmp_path / "run")
        assert main(
            ["campaign", "dlx", "--jobs", "1", "--run-dir", run_dir]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "dlx", "--jobs", "2", "--run-dir", run_dir,
             "--resume"]
        ) == 0
        captured = capsys.readouterr()
        assert "replayed 10 journaled verdicts" in captured.err
        assert "simulated 0" in captured.err
        assert "jobs=2" in captured.out

    def test_report_identical_across_job_counts(self, tmp_path, capsys):
        from repro.runtime import REPORT_NAME

        reports = []
        for jobs in ("1", "2"):
            run_dir = tmp_path / f"jobs{jobs}"
            assert main(
                ["campaign", "dlx", "--jobs", jobs, "--run-dir",
                 str(run_dir)]
            ) == 0
            reports.append((run_dir / REPORT_NAME).read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_identity_is_the_services(self, tmp_path, capsys):
        import json

        from repro.runtime import MANIFEST_NAME
        from repro.service import resolve_campaign

        run_dir = tmp_path / "run"
        assert main(["campaign", "dlx", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        assert manifest["identity"] == resolve_campaign(
            {"target": "dlx"}
        ).identity


class TestObservabilityFlags:
    def test_campaign_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["campaign", "dlx", "--jobs", "2",
             "--trace", str(trace), "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"] == "bugcampaign.run" for e in events)
        dump = json.loads(metrics.read_text())
        assert dump["gauges"]["bugcampaign.coverage"] == 1
        assert "bugcampaign.mismatch_index" in dump["histograms"]

    def test_tour_trace_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["tour", "vending", "--trace", str(trace),
             "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines() if line
        ]
        assert any(r["name"] == "tour.generate" for r in records)
        dump = json.loads(metrics.read_text())
        gauges = dump["gauges"]
        assert gauges["coverage.fraction{model=vending}"] == 1
        assert "tour.length{method=cpp,model=vending}" in gauges

    def test_validate_metrics(self, tmp_path, capsys):
        import json

        asm = tmp_path / "prog.s"
        asm.write_text("addi r1, r0, 2\nadd r2, r1, r1\nhalt\n")
        metrics = tmp_path / "metrics.json"
        assert main(
            ["validate", str(asm), "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        dump = json.loads(metrics.read_text())
        assert dump["counters"]["validate.runs_total{outcome=pass}"] == 1

    def test_report_renders_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(
            ["campaign", "counter", "--metrics", str(metrics)]
        ) == 1
        capsys.readouterr()
        assert main(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "histograms" in out
        assert "campaign.detection_latency_steps{cls=output}" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot render" in err

    def test_report_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "cannot render" in capsys.readouterr().err

    def test_report_truncated_json(self, tmp_path, capsys):
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"counters": {"a": 1}, "gau')
        assert main(["report", str(truncated)]) == 2
        assert "cannot render" in capsys.readouterr().err

    def test_report_non_object_json(self, tmp_path, capsys):
        """A JSON array parses fine but is not a metrics dump; it must
        exit 2 with a diagnostic, not crash with AttributeError."""
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2, 3]")
        assert main(["report", str(listy)]) == 2
        err = capsys.readouterr().err
        assert "cannot render" in err
        assert "expected a JSON object" in err

    def test_report_empty_dump_renders(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        metrics.write_text("{}")
        assert main(["report", str(metrics)]) == 0
        assert "(empty metrics dump)" in capsys.readouterr().out


class TestQuantileEdges:
    def test_zero_count_histogram(self):
        from repro.obs.report import _quantile

        assert _quantile([1.0, 5.0], [0, 0, 0], 0.5) == "-"

    def test_all_mass_in_overflow_bucket(self):
        from repro.obs.report import _quantile

        assert _quantile([1.0, 5.0], [0, 0, 7], 0.5) == ">5"
        assert _quantile([1.0, 5.0], [0, 0, 7], 0.9) == ">5"

    def test_no_boundaries(self):
        from repro.obs.report import _quantile

        assert _quantile([], [3], 0.5) == "inf"

    def test_zero_count_renders_dash_row(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({
            "histograms": {
                "empty.hist": {
                    "boundaries": [1.0, 5.0],
                    "counts": [0, 0, 0],
                    "count": 0,
                    "sum": 0.0,
                },
                "over.hist": {
                    "boundaries": [1.0],
                    "counts": [0, 4],
                    "count": 4,
                    "sum": 40.0,
                },
            },
        }))
        assert main(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "empty.hist" in out and "over.hist" in out
        assert ">1" in out  # overflow-bucket quantile rendering


class TestObservatoryFlags:
    def test_campaign_events_jsonl(self, tmp_path, capsys):
        import json

        from repro.obs import is_deterministic_event

        events = tmp_path / "events.jsonl"
        assert main(["campaign", "counter", "--jobs", "2",
                     "--events", str(events)]) == 1
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in events.read_text().splitlines()
        ]
        names = [r["name"] for r in records]
        # Spans (and other scheduling events) may wrap the campaign.
        deterministic = [n for n in names if is_deterministic_event(n)]
        assert deterministic[0] == "campaign.started"
        assert "fault.verdict" in names
        assert "chunk.dispatched" in names
        assert deterministic[-1] == "campaign.finished"
        assert names.count("span.begin") == names.count("span.end") > 0
        # Envelope metadata segregated from payloads.
        assert all(
            "ts" in r["meta"] and "ts" not in r["payload"]
            for r in records
        )

    def test_progress_always_draws_on_stderr(self, capsys):
        assert main(["campaign", "counter",
                     "--progress", "always"]) == 1
        err = capsys.readouterr().err
        assert "\r" in err
        assert "counter3" in err
        assert err.endswith("\n")

    def test_progress_never_keeps_stderr_clean(self, capsys):
        assert main(["campaign", "counter",
                     "--progress", "never"]) == 1
        assert capsys.readouterr().err == ""

    def test_events_do_not_change_output(self, tmp_path, capsys):
        assert main(["campaign", "counter", "--progress", "never"]) == 1
        plain = capsys.readouterr().out
        assert main(["campaign", "counter", "--progress", "never",
                     "--events", str(tmp_path / "e.jsonl")]) == 1
        assert capsys.readouterr().out == plain


class TestBusyPort:
    """A port that cannot be bound is one stderr line and exit 2, and
    the observability globals are left as they were."""

    @pytest.fixture
    def busy_port(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            yield sock.getsockname()[1]

    def _assert_refused(self, status, capsys, port):
        import re

        from repro.obs import NULL_BUS, NULL_REGISTRY, get_bus, get_registry

        assert status == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"cannot serve on 127\.0\.0\.1:{port}: \[Errno \d+\] [^\n]+\n",
            err,
        ), err
        assert get_registry() is NULL_REGISTRY
        assert get_bus() is NULL_BUS

    def test_campaign(self, tmp_path, capsys, busy_port):
        status = main([
            "campaign", "vending", "--status-port", str(busy_port),
            "--events", str(tmp_path / "events.jsonl"),
            "--trace", str(tmp_path / "trace.json"),
        ])
        self._assert_refused(status, capsys, busy_port)

    def test_serve(self, tmp_path, capsys, busy_port):
        status = main([
            "serve", "--root", str(tmp_path / "root"),
            "--port", str(busy_port),
            "--events", str(tmp_path / "events.jsonl"),
        ])
        self._assert_refused(status, capsys, busy_port)

    def test_watch(self, tmp_path, capsys, busy_port):
        run_dir = str(tmp_path / "run")
        assert main(["campaign", "counter", "--run-dir", run_dir]) == 1
        capsys.readouterr()
        status = main(["watch", run_dir, "--status-port", str(busy_port)])
        self._assert_refused(status, capsys, busy_port)


class TestOthers:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "interlock_dropped" in out
        assert "[bypass]" in out

    def test_fig3b(self, capsys):
        assert main(["fig3b"]) == 0
        out = capsys.readouterr().out
        assert "160" in out
        assert "remove interlock registers" in out

    def test_stats_small(self, capsys):
        assert main(["stats", "--small"]) == 0
        out = capsys.readouterr().out
        assert "reachable" in out
        assert "transitions:" in out
