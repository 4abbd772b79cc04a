"""Which library functions the traced run wraps, and the per-layer
metrics derived from one traced iteration.

Each function is wrapped where its caller looks it up: a module
attribute the caller imported by name, a name imported at call time
from its package, a method or a constructor on its class.  Per-fault
functions (``detection_latency``, ``Journal.append``) get one
aggregate timer; ``os.fsync`` is only counted.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

import repro.corpus.loader as loader
import repro.corpus.suite as bench_suite
import repro.dlx.testmodel as testmodel
import repro.faults.campaign as campaign
import repro.kernel as kernel
import repro.runtime as runtime
import repro.runtime.runner as runner
import repro.validation.harness as harness
from repro.dlx.behavioral import BehavioralDLX
from repro.dlx.pipeline import PipelinedDLX
from repro.kernel.mealy_kernel import DenseMealy
from repro.kernel.netlist_kernel import CompiledNetlist
from repro.obs.metrics import MetricsRegistry
from repro.runtime.journal import Journal
from repro.service.store import ResultStore
from repro.tour.methods import TestSuite

from .tracing import Tracer


# -- counts taken from calls ---------------------------------------------
def _extract_states(tracer: Tracer, args, kwargs, machine) -> None:
    if machine is not None:
        tracer.counts["rtl.extract_states"] += len(machine)


def _test_steps(tracer: Tracer, args, kwargs, executable) -> None:
    if executable is not None:
        tracer.counts["tour.test_steps"] += len(executable.inputs)


def _verdicts(tracer: Tracer, args, kwargs, verdicts) -> None:
    if verdicts is not None:
        tracer.counts["faults.verdicts"] += len(verdicts)
        tracer.counts["faults.degraded"] += sum(v.degraded for v in verdicts)


def _map_batches(tracer: Tracer, args, kwargs, outcomes) -> None:
    items = args[1]
    size = max(1, int(kwargs.get("batch_size", 1)))
    tracer.counts["parallel.batches"] += math.ceil(len(items) / size)


def _mealy_batch(tracer: Tracer, args, kwargs, verdicts) -> None:
    _spec, inputs, batch = args[:3]
    tracer.counts["kernel.batches"] += 1
    tracer.counts["kernel.fault_steps"] += len(batch) * len(inputs)
    tracer.counts["kernel.faults"] += len(batch)
    if verdicts is not None:
        tracer.counts["kernel.detected"] += sum(
            1 for tag, value in verdicts if tag == "ok" and value
        )


def _netlist_batch(tracer: Tracer, args, kwargs, firsts) -> None:
    _golden, vectors, faults = args[:3]
    width = kernel.resolve_lanes(kwargs.get("lanes")) - 1
    tracer.counts["kernel.batches"] += math.ceil(len(faults) / width)
    tracer.counts["kernel.fault_steps"] += len(faults) * len(vectors)
    tracer.counts["kernel.faults"] += len(faults)
    if firsts is not None:
        tracer.counts["kernel.detected"] += sum(f is not None for f in firsts)


def _store_get(tracer: Tracer, args, kwargs, hit) -> None:
    tracer.counts["service.store_hits" if hit else "service.store_misses"] += 1


def _pipeline_cycles(tracer: Tracer, args, kwargs, _stream) -> None:
    tracer.counts["dlx.pipeline_cycles"] += args[0].cycle_count


#: (owner, attribute, span name, options)
PATCHES: List[Tuple[Any, str, str, Dict[str, Any]]] = [
    (loader, "load_kiss", "core.kiss_parse", {}),
    (loader, "load_blif", "rtl.blif_parse", {}),
    (loader, "extract_mealy", "rtl.extract", {"finish": _extract_states}),
    (testmodel, "extract_mealy", "rtl.extract", {"finish": _extract_states}),
    (bench_suite, "generate_suite", "tour.suite", {}),
    (TestSuite, "executable", "tour.executable", {"finish": _test_steps}),
    (bench_suite, "fsm_campaign_identity", "runtime.identity", {}),
    (runner, "fsm_campaign_identity", "runtime.identity", {}),
    (bench_suite, "run_campaign", "faults.campaign", {}),
    (campaign, "sweep_verdicts", "faults.sweep", {"finish": _verdicts}),
    (runner, "sweep_verdicts", "faults.sweep", {"finish": _verdicts}),
    (campaign, "parallel_map_batched", "parallel.map",
     {"finish": _map_batches}),
    (harness, "parallel_map_batched", "parallel.map",
     {"finish": _map_batches}),
    (kernel, "detect_faults_compiled", "kernel.mealy",
     {"finish": _mealy_batch}),
    (kernel, "stuck_at_first_divergences", "kernel.netlist",
     {"finish": _netlist_batch}),
    (CompiledNetlist, "__init__", "kernel.compile", {}),
    (DenseMealy, "__init__", "kernel.compile", {}),
    (campaign, "detection_latency", "faults.latency", {"aggregate": True}),
    (campaign, "replay_with_telemetry", "obs.telemetry", {}),
    (campaign, "record_detection_latencies", "obs.telemetry", {}),
    (MetricsRegistry, "deterministic_dump", "obs.dump", {}),
    (runtime, "run_campaign_resumable", "runtime.runner", {}),
    (Journal, "append", "runtime.journal_append", {"aggregate": True}),
    (Journal, "sync", "runtime.journal_sync", {}),
    (Journal, "replay", "runtime.replay", {}),
    (runner, "atomic_write_json", "runtime.outputs", {}),
    (ResultStore, "get", "service.store_get", {"finish": _store_get}),
    (ResultStore, "put", "service.store_put", {}),
    (BehavioralDLX, "run", "dlx.spec", {}),
    (PipelinedDLX, "run", "dlx.pipeline", {"finish": _pipeline_cycles}),
    (harness, "sweep_bug_verdicts", "validation.sweep", {}),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, options in PATCHES:
        tracer.patch(owner, attr, name, **options)
    tracer.count_calls(os, "fsync", "runtime.fsyncs")


# -- per-layer metrics ---------------------------------------------------
def _inclusive(name: str) -> Callable[[Dict], float]:
    return lambda v: v["dur"].get(name, 0.0)


def _self(name: str) -> Callable[[Dict], float]:
    return lambda v: v["self"].get(name, 0.0)


def _count(name: str) -> Callable[[Dict], float]:
    return lambda v: v["counts"].get(name, 0)


def _calls(name: str) -> Callable[[Dict], float]:
    return lambda v: v["calls"](name)


def _ns_per_fault_step(v: Dict) -> float:
    steps = v["counts"].get("kernel.fault_steps", 0)
    busy = v["self"].get("kernel.mealy", 0.0) + v["self"].get("kernel.netlist", 0.0)
    return busy * 1e9 / steps if steps else 0.0


def _detected_share(v: Dict) -> float:
    faults = v["counts"].get("kernel.faults", 0)
    return v["counts"].get("kernel.detected", 0) / faults if faults else 0.0


#: name -> (unit, derivation from one traced iteration)
METRICS: Dict[str, Tuple[str, Callable[[Dict], float]]] = {
    "corpus.load_s": ("s", _inclusive("corpus.load")),
    "corpus.circuits": ("count", _count("corpus.circuits")),
    "corpus.runnable": ("count", _count("corpus.runnable")),
    "corpus.synth_s": ("s", _inclusive("corpus.synth")),
    "corpus.suite_self_s": ("s", _self("corpus.bench_suite")),
    "core.kiss_parse_s": ("s", _inclusive("core.kiss_parse")),
    "rtl.blif_parse_s": ("s", _inclusive("rtl.blif_parse")),
    "rtl.extract_s": ("s", _inclusive("rtl.extract")),
    "rtl.extract_states": ("count", _count("rtl.extract_states")),
    "rtl.stuckat_self_s": ("s", _self("rtl.stuckat")),
    "tour.suite_s": ("s", _inclusive("tour.suite")),
    "tour.executable_s": ("s", _inclusive("tour.executable")),
    "tour.test_steps": ("count", _count("tour.test_steps")),
    "tour.tour_s": ("s", _inclusive("tour.tour")),
    "kernel.compile_s": ("s", _inclusive("kernel.compile")),
    "kernel.compiles": ("count", _calls("kernel.compile")),
    # Simulation time: compile spans nested inside are excluded.
    "kernel.mealy_s": ("s", _self("kernel.mealy")),
    "kernel.netlist_s": ("s", _self("kernel.netlist")),
    "kernel.batches": ("count", _count("kernel.batches")),
    "kernel.fault_steps": ("count", _count("kernel.fault_steps")),
    "kernel.ns_per_fault_step": ("ns", _ns_per_fault_step),
    "kernel.detected_share": ("ratio", _detected_share),
    "faults.campaign_self_s": ("s", _self("faults.campaign")),
    "faults.sweep_self_s": ("s", _self("faults.sweep")),
    "faults.verdicts": ("count", _count("faults.verdicts")),
    "faults.degraded": ("count", _count("faults.degraded")),
    "faults.latency_s": ("s", _self("faults.latency")),
    "faults.latency_calls": ("count", _calls("faults.latency")),
    "parallel.map_self_s": ("s", _self("parallel.map")),
    "parallel.batches": ("count", _count("parallel.batches")),
    "runtime.identity_s": ("s", _inclusive("runtime.identity")),
    "runtime.runner_self_s": ("s", _self("runtime.runner")),
    "runtime.journal_append_s": ("s", _self("runtime.journal_append")),
    "runtime.journal_sync_s": ("s", _inclusive("runtime.journal_sync")),
    "runtime.fsyncs": ("count", _count("runtime.fsyncs")),
    "runtime.journal_bytes": ("B", _count("runtime.journal_bytes")),
    "runtime.outputs_s": ("s", _inclusive("runtime.outputs")),
    "runtime.replay_s": ("s", _inclusive("runtime.replay")),
    "runtime.replayed": ("count", _count("runtime.replayed")),
    "runtime.executed": ("count", _count("runtime.executed")),
    "runtime.dropped": ("count", _count("runtime.dropped")),
    "service.store_put_s": ("s", _inclusive("service.store_put")),
    "service.store_misses": ("count", _count("service.store_misses")),
    "service.store_get_s": ("s", _inclusive("service.store_get")),
    "service.store_hits": ("count", _count("service.store_hits")),
    "obs.telemetry_s": ("s", _inclusive("obs.telemetry")),
    "obs.dump_s": ("s", _inclusive("obs.dump")),
    "dlx.derive_s": ("s", _inclusive("dlx.derive")),
    "dlx.tour_model_s": ("s", _inclusive("dlx.tour_model")),
    "dlx.minimize_s": ("s", _inclusive("dlx.minimize")),
    "dlx.spec_s": ("s", _inclusive("dlx.spec")),
    "dlx.pipeline_s": ("s", _inclusive("dlx.pipeline")),
    "dlx.pipeline_cycles": ("count", _count("dlx.pipeline_cycles")),
    "validation.concretize_s": ("s", _inclusive("validation.concretize")),
    "validation.sweep_self_s": ("s", _self("validation.sweep")),
    "validation.bugs_detected": ("count", _count("validation.bugs_detected")),
}


def layer_metrics(tracer: Tracer, counts: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration; ``counts`` adds
    what the workload observed itself (corpus sizes, resume stats)."""
    view = {
        "dur": tracer.durations(),
        "self": tracer.self_times(),
        "counts": tracer.counts + Counter(counts),
        "calls": tracer.calls,
    }
    return {name: float(fn(view)) for name, (_unit, fn) in METRICS.items()}
