"""Tests of the benchmark itself (not collected by the repo's tier-1
run; run with ``python -m pytest perfbench``).

They check that inputs are a pure function of the seed, that the
traced run's self times account for its whole wall time and that every
layer a workload runs shows in its metrics, that traced and untraced
iterations reach the same verdicts (and, on the default seed, the
committed ones), that every unit's time is scaled by its own host
probes, and that BENCHMARK.json names exactly the metrics the
benchmark prints.  Each workload runs two iterations, one untraced and
one traced, at its full size.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import bench, inputs, layers, workloads  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _corpus_bytes(seed, directory):
    inputs.write_corpus(seed, directory)
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def test_inputs_are_a_function_of_the_seed(tmp_path):
    first = _corpus_bytes(1, tmp_path / "a")
    assert first == _corpus_bytes(1, tmp_path / "b")
    assert first != _corpus_bytes(2, tmp_path / "c")

    trail = [("x", ("a", "b", "c")), ("y", ("d", "e"))]
    vectors = inputs.trail_vectors(1, trail)
    assert json.dumps(vectors) == json.dumps(inputs.trail_vectors(1, trail))
    assert vectors != inputs.trail_vectors(2, trail)

    assert inputs.farm_phase_order(1, 32) == inputs.farm_phase_order(1, 32)
    assert inputs.farm_phase_order(1, 32) != inputs.farm_phase_order(2, 32)

    records = {f"c{i}": 40 for i in range(6)}
    assert inputs.journal_cuts(1, 0, records) == inputs.journal_cuts(1, 0, records)
    assert inputs.journal_cuts(1, 0, records) != inputs.journal_cuts(2, 0, records)
    assert inputs.DEFAULT_SEED != inputs.HELDOUT_SEED


#: Per workload, the layer metrics that must read above zero: each
#: names a wrapped function (or a count taken from one) the workload
#: calls, so a function dropped from ``layers.PATCHES`` fails here.
RUNS = {
    "corpus-wp": [
        "corpus.load_s", "corpus.circuits", "corpus.runnable",
        "corpus.suite_self_s", "core.kiss_parse_s", "rtl.blif_parse_s",
        "rtl.extract_s", "rtl.extract_states", "tour.suite_s",
        "tour.executable_s", "tour.test_steps", "kernel.compile_s",
        "kernel.compiles", "kernel.mealy_s", "kernel.batches",
        "kernel.fault_steps", "kernel.ns_per_fault_step",
        "kernel.detected_share", "faults.campaign_self_s",
        "faults.sweep_self_s", "faults.verdicts", "faults.latency_s",
        "faults.latency_calls", "parallel.map_self_s", "parallel.batches",
        "runtime.identity_s", "runtime.runner_self_s",
        "runtime.journal_append_s", "runtime.journal_sync_s",
        "runtime.fsyncs", "runtime.journal_bytes", "runtime.outputs_s",
        "runtime.replay_s", "runtime.replayed", "runtime.executed",
        "runtime.dropped", "service.store_put_s", "service.store_misses",
        "service.store_get_s", "service.store_hits", "obs.telemetry_s",
        "obs.dump_s",
    ],
    "dlx": [
        "rtl.extract_s", "rtl.extract_states", "rtl.stuckat_self_s",
        "tour.tour_s", "tour.test_steps", "kernel.compile_s",
        "kernel.compiles", "kernel.netlist_s", "kernel.batches",
        "kernel.fault_steps", "kernel.ns_per_fault_step",
        "kernel.detected_share", "parallel.map_self_s", "parallel.batches",
        "dlx.derive_s", "dlx.tour_model_s", "dlx.minimize_s", "dlx.spec_s",
        "dlx.pipeline_s", "dlx.pipeline_cycles", "validation.concretize_s",
        "validation.sweep_self_s", "validation.bugs_detected",
    ],
    "farm-sparse": [
        "corpus.synth_s", "rtl.stuckat_self_s", "tour.suite_s",
        "kernel.compile_s", "kernel.compiles", "kernel.netlist_s",
        "kernel.batches", "kernel.fault_steps", "kernel.ns_per_fault_step",
        "kernel.detected_share",
    ],
}

#: Largest share of a traced iteration's wall time the benchmark's own
#: code (the "bench" layer) may take, in all and inside the timed
#: units.  Measured on a 2-CPU host on seeds 1 and 7919: at most 0.39%
#: (corpus-wp, mostly its untimed journal cutting and output reading)
#: and 0.014%.
GAP_SHARE = 0.02
TIMED_GAP_SHARE = 0.002


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    cache = {}

    def run(name):
        if name not in cache:
            work = str(tmp_path_factory.mktemp(name))
            workload = WORKLOADS[name](inputs.DEFAULT_SEED, work)
            cache[name] = bench.measure(workload, 0.0, trace=True)
        return cache[name]

    return run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_accounts_for_wall_time(name, measured):
    result = measured(name)
    untraced, traced = result["iterations"]
    assert not untraced["traced"] and traced["traced"]
    assert result["failed"] == 0, [
        (op.name, op.error) for r in result["iterations"] for op in r["ops"]
        if op.error
    ]
    # Layer self times, with the benchmark's own gaps as the "bench"
    # layer, add up to the traced iteration's wall time ...
    assert sum(traced["layer_self"].values()) == pytest.approx(
        traced["wall"], rel=1e-9, abs=1e-9
    )
    # ... the gaps are small, and inside the timed units every library
    # call is under a layer span.
    assert 0 < traced["layer_self"]["bench"] < GAP_SHARE * traced["wall"]
    units = [s for s in traced["spans"]
             if s.name.startswith("bench.") and s.name != "bench.iteration"]
    assert sum(s.self_time for s in units) < TIMED_GAP_SHARE * sum(
        s.duration for s in units
    )
    metrics = bench.per_layer_metrics(result["iterations"])
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert [m for m in RUNS[name] if not metrics[m] > 0] == []
    # The library is left unwrapped after a traced iteration.
    assert not hasattr(layers.loader.load_kiss, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_verdict(name, measured):
    untraced, traced = measured(name)["iterations"]
    assert [(o.name, o.digest) for o in traced["ops"]] == [
        (o.name, o.digest) for o in untraced["ops"]
    ]
    # The default seed's verdicts are the committed ones.
    assert (measured(name)["digest"]
            == bench.EXPECTED_DIGESTS[name][inputs.DEFAULT_SEED])


def test_times_are_scaled_to_the_reference_host_speed():
    # Probes around each unit twice as slow as the reference: the host
    # ran at half speed there, so the unit's measured time is halved.
    slow = workloads.PROBE_SECONDS * 2
    records = [
        {"units": {("setup", "a"): 4.0, ("campaign", "b"): 2.0},
         "probes": {("setup", "a"): (slow * 0.9, slow * 1.1),
                    ("campaign", "b"): (slow, slow)}},
        {"units": {("setup", "a"): 6.0, ("campaign", "b"): 2.0},
         "probes": {("setup", "a"): (slow / 2, slow / 2),
                    ("campaign", "b"): (slow, slow)}},
    ]
    assert bench.phase_times(records) == pytest.approx(
        {"setup": (2.0 + 6.0) / 2, "campaign": 1.0}
    )
    assert bench.speed(records[:1]) == pytest.approx(0.5)
    assert bench.speed(records) == pytest.approx((2 + 1 + 6 + 1) / 14)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        doc = json.load(h)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER_UNITS
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
