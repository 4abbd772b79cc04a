"""Differential guarantees over the event stream.

The bus extends the repo's determinism contract: the *deterministic
projection* of the event stream (every event outside the scheduling
namespaces, payloads only) must be byte-identical at any ``--jobs``
and on either kernel, chaos-harassed or not -- and turning the
observatory on must change neither campaign results nor deterministic
metrics.
"""

import json
from collections import defaultdict

import pytest

from repro.faults import run_campaign
from repro.models import counter, figure2_fragment
from repro.obs import scoped_registry
from repro.obs.events import (
    RingBufferSink,
    TraceSink,
    deterministic_payloads,
    scoped_bus,
)
from repro.runtime import chaos_scope, parse_plan, run_campaign_resumable
from repro.tour import transition_tour


def _projection_bytes(events):
    """The canonical byte form of a stream's deterministic projection."""
    return json.dumps(deterministic_payloads(events), sort_keys=True)


def _run_fsm(machine, inputs, **kwargs):
    """One campaign under a fresh bus; returns (result, events)."""
    with scoped_bus() as bus:
        ring = bus.add_sink(RingBufferSink(capacity=100_000))
        result = run_campaign(machine, inputs, **kwargs)
    return result, ring.events()


class TestFsmCampaignDifferential:
    @pytest.fixture(scope="class")
    def tour(self):
        machine = counter(3)
        return machine, transition_tour(machine).inputs

    def test_jobs_and_kernel_invariant(self, tour):
        machine, inputs = tour
        baseline_result, baseline_events = _run_fsm(
            machine, inputs, jobs=1, kernel="interp"
        )
        baseline = _projection_bytes(baseline_events)
        assert baseline_events, "bus saw no events"
        for jobs in (1, 2, 4):
            for kernel in ("interp", "compiled"):
                result, events = _run_fsm(
                    machine, inputs, jobs=jobs, kernel=kernel
                )
                assert _projection_bytes(events) == baseline, (
                    f"jobs={jobs} kernel={kernel}"
                )
                assert result.to_json_dict() == (
                    baseline_result.to_json_dict()
                )

    def test_projection_shape(self, tour):
        machine, inputs = tour
        _result, events = _run_fsm(machine, inputs, jobs=2)
        names = [name for name, _ in deterministic_payloads(events)]
        assert names[0] == "campaign.started"
        assert names[-1] == "campaign.finished"
        verdicts = [n for n in names if n == "fault.verdict"]
        assert len(verdicts) == len(names) - 2
        started = dict(deterministic_payloads(events))["campaign.started"]
        assert started["machine"] == machine.name
        assert started["faults"] == len(verdicts)

    def test_parallel_run_has_scheduling_events(self, tour):
        machine, inputs = tour
        _result, events = _run_fsm(machine, inputs, jobs=2)
        names = {e.name for e in events}
        assert "chunk.dispatched" in names
        assert "chunk.completed" in names
        # ... and none of them leak into the deterministic view.
        proj_names = {n for n, _ in deterministic_payloads(events)}
        assert not any(n.startswith("chunk.") for n in proj_names)

    def test_chaos_degrades_but_payloads_identical(self, tour):
        """Worker failures appear as worker.degraded events; the
        deterministic projection still matches the clean run."""
        machine, inputs = tour
        _clean_result, clean_events = _run_fsm(machine, inputs, jobs=2)
        plan = parse_plan("seed=7,error=0.3")
        with chaos_scope(plan):
            chaos_result, chaos_events = _run_fsm(
                machine, inputs, jobs=2, retries=0
            )
        assert chaos_result.degraded
        degraded = [
            e for e in chaos_events if e.name == "worker.degraded"
        ]
        assert degraded, "chaos run injected no failures"
        assert degraded[0].payload["action"] == "oracle-rerun"
        assert _projection_bytes(chaos_events) == (
            _projection_bytes(clean_events)
        )


class TestObservatoryChangesNothing:
    def test_result_and_metrics_identical_bus_on_vs_off(self):
        machine, _outputs = figure2_fragment()
        inputs = transition_tour(machine).inputs

        def run(with_bus):
            with scoped_registry() as registry:
                if with_bus:
                    with scoped_bus() as bus:
                        bus.add_sink(RingBufferSink())
                        result = run_campaign(machine, inputs, jobs=2)
                else:
                    result = run_campaign(machine, inputs, jobs=2)
                return result, registry.deterministic_dump()

        result_on, metrics_on = run(with_bus=True)
        result_off, metrics_off = run(with_bus=False)
        assert result_on.to_json_dict() == result_off.to_json_dict()
        assert json.dumps(metrics_on, sort_keys=True) == (
            json.dumps(metrics_off, sort_keys=True)
        )


class TestBugCampaignDifferential:
    def test_jobs_invariant(self):
        from repro.dlx.programs import DIRECTED_PROGRAMS
        from repro.validation import run_bug_campaign

        tests = [
            (list(p), None, None)
            for p in list(DIRECTED_PROGRAMS.values())[:3]
        ]

        def run(jobs):
            with scoped_bus() as bus:
                ring = bus.add_sink(RingBufferSink())
                run_bug_campaign(tests, test_name="differential",
                                 jobs=jobs)
            return _projection_bytes(ring.events())

        baseline = run(1)
        assert run(2) == baseline
        names = [n for n, _ in json.loads(baseline)]
        assert "campaign.started" in names
        assert "fault.verdict" in names
        assert "campaign.finished" in names


class TestStructuralCampaignDifferential:
    def test_kernel_invariant_including_divergence_index(self):
        from repro.rtl import Netlist, and_, not_, or_, var
        from repro.rtl.faults import run_stuck_at_campaign

        net = Netlist("toy")
        net.add_input("a")
        net.add_register("q0", next=or_(var("a"), var("q1")))
        net.add_register("q1", next=and_(var("a"), not_(var("q0"))))
        net.add_output("y", or_(var("q0"), var("q1")))
        vectors = [{"a": bool(i % 3 == 0)} for i in range(12)]

        def run(kernel, jobs):
            with scoped_bus() as bus:
                ring = bus.add_sink(RingBufferSink())
                result = run_stuck_at_campaign(
                    net, vectors, kernel=kernel, jobs=jobs
                )
            return result, _projection_bytes(ring.events())

        base_result, baseline = run("interp", 1)
        for kernel in ("interp", "compiled"):
            for jobs in (1, 2):
                result, projection = run(kernel, jobs)
                assert projection == baseline, f"{kernel} jobs={jobs}"
                assert result == base_result
        # The payload carries the first-divergence index, so the two
        # kernels are held to agree on *when*, not just whether.
        payloads = json.loads(baseline)
        verdicts = [p for n, p in payloads if n == "fault.verdict"]
        assert any(v["first_divergence"] is not None for v in verdicts)


class TestResumableRunnerEvents:
    def test_journaled_run_matches_plain_projection(self, tmp_path):
        """A journaled run's deterministic projection is identical to
        the plain driver's -- journal.flushed lives outside it.  Both
        run under a live registry: the runner always records metrics
        (and hence coverage snapshots) into a scoped one, so the plain
        driver needs the same path active to be comparable.
        """
        machine = counter(3)
        inputs = transition_tour(machine).inputs
        with scoped_registry():
            _plain_result, plain_events = _run_fsm(
                machine, inputs, jobs=2
            )
        with scoped_bus() as bus:
            ring = bus.add_sink(RingBufferSink())
            run = run_campaign_resumable(
                machine, inputs, run_dir=str(tmp_path / "run"),
                jobs=2, slice_size=16,
            )
        events = ring.events()
        assert _projection_bytes(events) == (
            _projection_bytes(plain_events)
        )
        flushed = [e for e in events if e.name == "journal.flushed"]
        assert flushed, "no journal.flushed events"
        assert flushed[-1].payload["journaled"] == (
            len(run.result.detected) + len(run.result.escaped)
        )

    def test_resume_emits_run_resumed(self, tmp_path):
        machine = counter(3)
        inputs = transition_tour(machine).inputs
        run_dir = str(tmp_path / "run")
        run_campaign_resumable(machine, inputs, run_dir=run_dir,
                               slice_size=16)
        with scoped_bus() as bus:
            ring = bus.add_sink(RingBufferSink())
            run_campaign_resumable(machine, inputs, run_dir=run_dir,
                                   resume=True, slice_size=16)
        resumed = [e for e in ring.events() if e.name == "run.resumed"]
        assert len(resumed) == 1
        payload = resumed[0].payload
        assert payload["pending"] == 0
        assert payload["replayed"] > 0


class TestEveryFilledSlotEmitsItsVerdict:
    """Each slot's ``fault.verdict`` is emitted exactly once, in
    fault-index order, however the slot was filled: a fresh sweep or a
    journal replay."""

    def test_resumed_run_projects_like_uninterrupted(self, tmp_path):
        from repro.models import build_model
        from repro.obs.progress import ProgressModel

        machine = build_model("abp")
        inputs = transition_tour(machine).inputs

        def journaled(run_dir, resume=False):
            with scoped_bus() as bus:
                ring = bus.add_sink(RingBufferSink(capacity=100_000))
                progress = bus.add_sink(ProgressModel())
                run = run_campaign_resumable(
                    machine, inputs, run_dir=run_dir, resume=resume,
                    slice_size=4,
                )
            return run, ring.events(), progress.status()

        whole, whole_events, _ = journaled(str(tmp_path / "whole"))
        assert whole.result.total == 128
        cut = tmp_path / "cut"
        journaled(str(cut))
        journal = cut / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[: len(lines) // 2]))
        (cut / "report.json").unlink()
        (cut / "metrics.json").unlink()

        resumed, events, status = journaled(str(cut), resume=True)
        assert resumed.stats.replayed == 64
        assert resumed.stats.executed == 64
        assert _projection_bytes(events) == _projection_bytes(whole_events)
        assert status["phase"] == "done"
        assert status["done"] == status["total"] == 128
        report = json.loads((cut / "report.json").read_text())
        assert status["detected"] == report["detected"]
        assert status["escaped"] == report["escaped"]



# --------------------------------------------------------------------
# --trace watches without changing anything
# --------------------------------------------------------------------


def _observe(work, run, traced):
    """``run(work)`` under a live registry and bus, with a
    :class:`TraceSink` attached when ``traced`` (what ``--trace``
    does).  Returns ``((projection, report, metrics), trace records)``,
    the first three in canonical serialized form."""
    sink = TraceSink(str(work / "trace.json"))
    with scoped_registry() as registry, scoped_bus() as bus:
        ring = bus.add_sink(RingBufferSink(capacity=100_000))
        if traced:
            bus.add_sink(sink)
        report = run(work)
    sink.close()
    metrics = json.dumps(registry.deterministic_dump(), sort_keys=True)
    return (_projection_bytes(ring.events()), report, metrics), sink.records


def _assert_spans_nest(records):
    """Every ``span.begin`` is closed by its own ``span.end``,
    last-in-first-out within the emitting thread."""
    open_spans = defaultdict(list)
    ended = 0
    for record in records:
        if record["name"] == "span.begin":
            open_spans[record["tid"]].append(record["args"]["span"])
        elif record["ph"] == "X":
            assert open_spans[record["tid"]].pop() == record["name"]
            ended += 1
    assert ended > 0
    assert not any(open_spans.values())


def _tour(machine):
    return machine, transition_tour(machine).inputs


class TestTraceChangesNothing:
    """Attaching a trace sink leaves the deterministic projection, the
    report and the deterministic metrics dump byte-identical, and its
    spans pair up per thread."""

    def _compare(self, tmp_path, run, prepare=lambda work: None):
        observed = []
        for traced in (False, True):
            work = tmp_path / ("traced" if traced else "plain")
            work.mkdir()
            prepare(work)
            observed.append(_observe(work, run, traced))
        (plain, _), (traced, records) = observed
        assert traced == plain
        _assert_spans_nest(records)
        return {r["name"] for r in records if r["ph"] == "X"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counter(self, tmp_path, jobs):
        machine, inputs = _tour(counter(3))

        def run(_work):
            result = run_campaign(machine, inputs, jobs=jobs)
            return json.dumps(result.to_json_dict(), sort_keys=True)

        spans = self._compare(tmp_path, run)
        assert {"campaign.run", "parallel.map"} <= spans

    def test_resumed_from_half_cut_journal(self, tmp_path):
        machine, inputs = _tour(counter(3))

        def prepare(work):
            run_dir = work / "run"
            run_campaign_resumable(machine, inputs, run_dir=str(run_dir),
                                   slice_size=16)
            journal = run_dir / "journal.jsonl"
            lines = journal.read_bytes().splitlines(keepends=True)
            journal.write_bytes(b"".join(lines[: len(lines) // 2]))
            (run_dir / "report.json").unlink()
            (run_dir / "metrics.json").unlink()

        def run(work):
            run_dir = work / "run"
            resumed = run_campaign_resumable(
                machine, inputs, run_dir=str(run_dir), resume=True,
                jobs=2, slice_size=16,
            )
            assert resumed.stats.replayed and resumed.stats.executed
            return (run_dir / "report.json").read_bytes() + (
                run_dir / "metrics.json"
            ).read_bytes()

        spans = self._compare(tmp_path, run, prepare)
        assert {"runtime.campaign", "parallel.map"} <= spans

    def test_dlx_directed_programs(self, tmp_path):
        from repro.dlx.programs import DIRECTED_PROGRAMS
        from repro.validation import run_bug_campaign

        tests = [(list(p), None, None) for p in DIRECTED_PROGRAMS.values()]

        def run(_work):
            result = run_bug_campaign(tests, test_name="directed programs",
                                      jobs=2)
            return json.dumps(result.to_json_dict(), sort_keys=True)

        spans = self._compare(tmp_path, run)
        assert {"bugcampaign.run", "validate.spec_run"} <= spans

    @pytest.mark.parametrize("target", ["fsm", "dlx"])
    def test_raising_span_ends_with_error(self, tmp_path, monkeypatch,
                                          target):
        from repro.kernel import KernelError

        def broken(*args, **kwargs):
            raise KernelError("dispatch failed")

        if target == "fsm":
            machine, inputs = _tour(counter(3))
            name = "campaign.run"
            monkeypatch.setattr(
                "repro.faults.campaign.parallel_map_batched", broken
            )

            def campaign():
                run_campaign(machine, inputs)
        else:
            from repro.dlx.programs import DIRECTED_PROGRAMS
            from repro.validation import run_bug_campaign

            program = next(iter(DIRECTED_PROGRAMS.values()))
            name = "bugcampaign.run"
            monkeypatch.setattr(
                "repro.validation.harness.parallel_map_batched", broken
            )

            def campaign():
                run_bug_campaign([(list(program), None, None)])

        def run(_work):
            with pytest.raises(KernelError):
                campaign()

        _, records = _observe(tmp_path, run, traced=True)
        (end,) = [r for r in records if r["ph"] == "X" and r["name"] == name]
        assert end["args"]["error"] == "KernelError"
        _assert_spans_nest(records)
