"""Tests for the observability layer (repro.obs).

Covers the ISSUE acceptance points for the instrumentation subsystem:
histogram bucket determinism, span nesting and Chrome-trace schema
validity, zero-cost-when-disabled behaviour, coverage telemetry, and
the differential guarantee that metrics aggregates are identical for
``jobs=1`` vs ``jobs=4``.
"""

import json
import random

import pytest

from repro.faults import run_campaign
from repro.models import counter, vending_machine
from repro.obs import (
    NOOP_SPAN,
    NULL_BUS,
    NULL_REGISTRY,
    STEP_BUCKETS,
    CoverageTelemetry,
    Histogram,
    MetricsRegistry,
    RingBufferSink,
    TraceSink,
    emit_event,
    get_bus,
    get_registry,
    record_detection_latencies,
    replay_with_telemetry,
    scoped_bus,
    scoped_registry,
    span,
)
from repro.tour import transition_tour


def _span_events(body):
    """Run ``body`` under a fresh bus; its ``span.*`` events."""
    with scoped_bus() as bus:
        ring = bus.add_sink(RingBufferSink())
        body()
    return [e for e in ring.events() if e.name.startswith("span.")]


def _span_ends(body):
    """The ``span.end`` payloads ``body`` emits, in emission order."""
    return [e.payload for e in _span_events(body) if e.name == "span.end"]


class TestHistogram:
    def test_fixed_boundaries_are_deterministic(self):
        h = Histogram("h", boundaries=(1, 2, 4))
        assert h.dump()["boundaries"] == [1, 2, 4]
        assert h.dump()["counts"] == [0, 0, 0, 0]

    def test_upper_inclusive_bucketing(self):
        h = Histogram("h", boundaries=(1, 2, 4))
        for v in (0, 1, 2, 3, 4, 5):
            h.observe(v)
        # 0,1 -> bucket <=1; 2 -> <=2; 3,4 -> <=4; 5 -> overflow.
        assert h.dump()["counts"] == [2, 1, 2, 1]
        assert h.count == 6
        assert h.dump()["sum"] == 15

    def test_dump_is_order_independent(self):
        values = list(range(50)) * 3
        shuffled = list(values)
        random.Random(7).shuffle(shuffled)
        a = Histogram("a", boundaries=STEP_BUCKETS)
        b = Histogram("b", boundaries=STEP_BUCKETS)
        for v in values:
            a.observe(v)
        for v in shuffled:
            b.observe(v)
        assert a.dump() == b.dump()

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(4, 2, 1))

    def test_mean(self):
        h = Histogram("h", boundaries=(10,))
        assert h.mean == 0.0
        h.observe(2)
        h.observe(4)
        assert h.mean == 3.0


class TestRegistry:
    def test_metrics_accumulate_and_dump_sorted(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", outcome="pass").inc()
        reg.counter("runs_total", outcome="pass").inc()
        reg.counter("runs_total", outcome="fail").inc()
        reg.gauge("coverage", model="m").set(0.5)
        reg.histogram("lat", buckets=(1, 2)).observe(1)
        dump = reg.dump()
        assert dump["counters"] == {
            "runs_total{outcome=fail}": 1,
            "runs_total{outcome=pass}": 2,
        }
        assert dump["gauges"] == {"coverage{model=m}": 0.5}
        assert list(dump["histograms"]) == ["lat"]

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("c", a=1, b=2).inc()
        reg.counter("c", b=2, a=1).inc()
        assert reg.dump()["counters"] == {"c{a=1,b=2}": 2}

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1, 2, 3))

    def test_deterministic_dump_excludes_timing_namespaces(self):
        reg = MetricsRegistry()
        reg.counter("campaign.faults_total").inc()
        reg.counter("parallel.tasks_total").inc()
        reg.counter("runtime.degradations_total").inc()
        reg.histogram("campaign.fault_wall_seconds").observe(0.5)
        reg.histogram(
            "campaign.detection_latency_steps", cls="output"
        ).observe(3)
        det = reg.deterministic_dump()
        assert "campaign.faults_total" in det["counters"]
        assert "parallel.tasks_total" not in det["counters"]
        assert "runtime.degradations_total" not in det["counters"]
        assert "campaign.fault_wall_seconds" not in det["histograms"]
        assert (
            "campaign.detection_latency_steps{cls=output}"
            in det["histograms"]
        )

    def test_scoped_registry_installs_and_restores(self):
        before = get_registry()
        assert not before.enabled
        with scoped_registry() as reg:
            assert get_registry() is reg
            assert reg.enabled
            get_registry().counter("x").inc()
            assert reg.dump()["counters"]["x"] == 1
        assert get_registry() is before

    def test_null_registry_is_zero_cost(self):
        metric = NULL_REGISTRY.counter("anything", label="ignored")
        # Same shared no-op object for every metric kind.
        assert NULL_REGISTRY.gauge("g") is metric
        assert NULL_REGISTRY.histogram("h") is metric
        metric.inc()
        metric.set(3)
        metric.observe(1.5)  # all no-ops, nothing recorded
        assert not NULL_REGISTRY.enabled


class TestTracing:
    def test_span_disabled_by_default(self):
        assert get_bus() is NULL_BUS
        assert span("anything", x=1) is NOOP_SPAN

    def test_span_nesting_depths(self):
        def body():
            with span("outer", model="m"):
                with span("inner"):
                    pass

        events = _span_events(body)
        ends = {e.payload["span"]: e.payload for e in events
                if e.name == "span.end"}
        # Inner span completes (and ends) first.
        assert [e.payload["span"] for e in events
                if e.name == "span.end"] == ["inner", "outer"]
        # Depth is implied by the stream: the spans open at a begin.
        depths, open_spans = {}, 0
        for e in events:
            if e.name == "span.begin":
                depths[e.payload["span"]] = open_spans
                open_spans += 1
            else:
                open_spans -= 1
        assert depths["outer"] == 0
        assert depths["inner"] == 1
        assert ends["outer"]["args"] == {"model": "m"}

    def test_span_records_error_on_exception(self):
        def body():
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("nope")

        (end,) = _span_ends(body)
        assert end["args"]["error"] == "RuntimeError"

    def test_span_set_attributes(self):
        def body():
            with span("work") as sp:
                sp.set(items=3)

        (end,) = _span_ends(body)
        assert end["args"]["items"] == 3

    def test_chrome_trace_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = TraceSink(str(path))
        with scoped_bus() as bus:
            bus.add_sink(sink)
            with span("outer", model="m"):
                emit_event("tick", step=1)
        sink.close()
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        # span.begin and tick as instants, the span as one "X".
        assert len(events) == 3
        for e in events:
            assert e["ph"] in ("X", "i")
            assert e["cat"] == "repro"
            assert isinstance(e["ts"], int) and e["ts"] >= 0
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert "depth" not in e  # internal field, not chrome schema
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["dur"] >= 0
        instant = [e for e in events if e["ph"] == "i"]
        assert instant[0]["s"] == "t"

    def test_jsonl_export(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        with scoped_bus() as bus:
            bus.add_sink(sink)
            with span("a"):
                pass
            with span("b"):
                pass
        sink.close()
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert [r["name"] for r in records if r["ph"] == "X"] == [
            "a", "b"
        ]

    def test_span_args_coerced_to_jsonable(self):
        def body():
            with span("x", machine=vending_machine()):
                pass

        (end,) = _span_ends(body)
        assert isinstance(end["args"]["machine"], str)


class TestCoverageTelemetry:
    def test_visit_counts_and_first_visits(self):
        machine = vending_machine()
        tour = transition_tour(machine)
        telemetry = CoverageTelemetry(machine)
        telemetry.feed_all(tour.inputs)
        report = telemetry.snapshot()
        assert report.complete
        # Every transition visited at least once; first visits are
        # 1-based step indices within the tour.
        assert all(c >= 1 for c in telemetry.visit_counts.values())
        firsts = sorted(telemetry.first_visit.values())
        assert firsts[0] >= 1
        assert firsts[-1] <= len(tour)

    def test_undefined_step_raises(self):
        machine = counter(2)
        telemetry = CoverageTelemetry(machine)
        with pytest.raises(ValueError):
            telemetry.feed("no-such-input")

    def test_snapshots_and_trace_events(self, tmp_path):
        machine = vending_machine()
        tour = transition_tour(machine)
        sink = TraceSink(str(tmp_path / "trace.json"))
        with scoped_bus() as bus:
            bus.add_sink(sink)
            telemetry = replay_with_telemetry(
                machine, tour.inputs, snapshot_every=5
            )
        assert telemetry.snapshots
        steps = [s for s, _report in telemetry.snapshots]
        assert steps == sorted(steps)
        events = [
            r for r in sink.records if r["name"] == "coverage.snapshot"
        ]
        assert len(events) == len(telemetry.snapshots)
        fractions = [e["args"]["fraction"] for e in events]
        assert fractions == sorted(fractions)  # coverage only grows
        assert telemetry.snapshot().complete  # final state is full

    def test_finalize_records_metrics(self):
        machine = vending_machine()
        tour = transition_tour(machine)
        with scoped_registry() as reg:
            replay_with_telemetry(machine, tour.inputs)
        gauges = reg.dump()["gauges"]
        assert gauges["coverage.fraction{model=vending}"] == 1
        total = gauges["coverage.transitions_total{model=vending}"]
        assert gauges["coverage.transitions_covered{model=vending}"] == total
        hist = reg.dump()["histograms"][
            "coverage.visit_count{model=vending}"
        ]
        assert hist["count"] == total

    def test_record_detection_latencies(self):
        with scoped_registry() as reg:
            record_detection_latencies(
                {"output": [1, 2, 3], "transfer": [5]}
            )
        hists = reg.dump()["histograms"]
        out = hists["campaign.detection_latency_steps{cls=output}"]
        assert out["count"] == 3
        assert out["sum"] == 6
        xfer = hists["campaign.detection_latency_steps{cls=transfer}"]
        assert xfer["count"] == 1


class TestDifferentialMetrics:
    """Instrumentation must not perturb the parallel==serial guarantee:
    campaign results AND deterministic metrics aggregates are identical
    at any jobs count (ISSUE acceptance criterion, jobs=1 vs jobs=4)."""

    def _campaign_dump(self, jobs):
        machine = counter(3)
        tour = transition_tour(machine)
        with scoped_registry() as reg:
            result = run_campaign(machine, tour.inputs, jobs=jobs)
        return result, reg.deterministic_dump()

    def test_jobs1_vs_jobs4_aggregates_identical(self):
        serial, dump1 = self._campaign_dump(1)
        parallel, dump4 = self._campaign_dump(4)
        assert parallel == serial
        assert json.dumps(dump1, sort_keys=True) == json.dumps(
            dump4, sort_keys=True
        )
        # The deterministic dump is not trivially empty: it carries the
        # campaign aggregates and the latency histograms.
        assert dump1["gauges"]["campaign.coverage{machine=counter3}"] > 0.9
        assert any(
            k.startswith("campaign.detection_latency_steps")
            for k in dump1["histograms"]
        )

    def test_wall_clock_metrics_are_segregated(self):
        _result, dump = self._campaign_dump(2)
        for section in dump.values():
            for name in section:
                base = name.split("{", 1)[0]
                assert not base.endswith("_seconds")
                assert not base.startswith(("parallel.", "cache."))


class TestInstrumentationOff:
    def test_campaign_identical_with_and_without_registry(self):
        machine = counter(3)
        tour = transition_tour(machine)
        bare = run_campaign(machine, tour.inputs)
        with scoped_registry():
            instrumented = run_campaign(machine, tour.inputs)
        assert bare == instrumented

    def test_hot_paths_record_nothing_when_disabled(self):
        # With the null registry and the null bus installed (the
        # default), generation and campaigns leave no observable residue.
        assert not get_registry().enabled
        assert get_bus() is NULL_BUS
        machine = vending_machine()
        tour = transition_tour(machine)
        run_campaign(machine, tour.inputs)
        assert not get_registry().enabled
        assert get_bus() is NULL_BUS


# --------------------------------------------------------------------
# repro.core.observability: automatic interaction-state identification
# (merged from the former tests/test_observability.py, which collided
# in name with this observability-layer suite)
# --------------------------------------------------------------------

from repro.core.distinguish import analyze_forall_k
from repro.core.mealy import MealyMachine
from repro.core.observability import (
    ObservabilityError,
    auto_observe,
    component_names,
    residual_components,
    state_components,
    suggest_observations,
)
from repro.models import shift_register


def hazard_machine():
    """States are (phase, dest) pairs: the 'dest' component is
    interaction state the outputs do not reveal -- a miniature of the
    paper's destination-register example."""
    m = MealyMachine(("idle", 0), name="hazardette")
    for dest in (0, 1):
        # Issue an operation writing register `dest`.
        for pick in (0, 1):
            m.add_transition(
                ("idle", dest), f"issue{pick}", "issued", ("busy", pick)
            )
        # A dependent consumer: output differs only via the hazard.
        for use in (0, 1):
            out = "stall" if use == dest else "flow"
            m.add_transition(
                ("busy", dest), f"use{use}", out, ("idle", dest)
            )
        m.add_transition(("idle", dest), "use0", "flow", ("idle", dest))
        m.add_transition(("idle", dest), "use1", "flow", ("idle", dest))
        m.add_transition(("busy", dest), "issue0", "busy", ("busy", dest))
        m.add_transition(("busy", dest), "issue1", "busy", ("busy", dest))
    return m


class TestDecomposition:
    def test_tuple_by_position(self):
        assert state_components(("a", 3)) == {0: "a", 1: 3}

    def test_canonical_pairs_by_name(self):
        assert state_components((("x", 1), ("y", 2))) == {"x": 1, "y": 2}

    def test_mapping(self):
        assert state_components({"p": 1}) == {"p": 1}

    def test_scalar(self):
        assert state_components("s3") == {(): "s3"}

    def test_component_names_consistent(self):
        m = hazard_machine()
        assert component_names(m) == [0, 1]

    def test_component_names_inconsistent_rejected(self):
        m = MealyMachine(("a", 1))
        m.add_transition(("a", 1), "i", "o", ("b",))
        m.add_transition(("b",), "i", "o", ("a", 1))
        with pytest.raises(ObservabilityError):
            component_names(m)


class TestSuggestion:
    def test_hazard_machine_needs_dest_observed(self):
        m = hazard_machine()
        report = analyze_forall_k(m)
        assert not report.holds  # ('idle',0) vs ('idle',1) etc.
        scores = residual_components(m, report)
        # Component 1 (the dest register) is the blocking one.
        assert scores.get(1, 0) > 0
        plan = suggest_observations(m)
        assert plan.certified
        assert 1 in plan.components

    def test_auto_observe_certifies(self):
        m = hazard_machine()
        enriched, plan = auto_observe(m)
        assert plan.certified
        report = analyze_forall_k(enriched)
        assert report.holds
        assert report.k == plan.k

    def test_already_certified_machine_untouched(self, counter3=None):
        from repro.models import counter

        m = counter(2)
        enriched, plan = auto_observe(m)
        assert plan.components == ()
        assert plan.certified
        assert enriched is m

    def test_budget_respected(self):
        m = hazard_machine()
        plan = suggest_observations(m, max_components=0)
        assert plan.components == ()
        assert not plan.certified

    def test_history_records_progress(self):
        m = hazard_machine()
        plan = suggest_observations(m)
        assert plan.history
        residuals = [remaining for _comp, remaining in plan.history]
        assert residuals[-1] == 0

    def test_shift_register_full_observation(self):
        """Positional tuple states: observing every bit is sufficient
        (and the analysis confirms a smaller k afterwards)."""
        m = shift_register(2)
        base = analyze_forall_k(m)
        assert base.holds and base.k == 2
        enriched, plan = auto_observe(m)
        # Already certified: nothing to do.
        assert plan.components == ()
