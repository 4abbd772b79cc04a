"""Benchmark runner: runs one workload for a time budget and prints
its metrics.

Untraced (``--trace 0``) runs report the end-to-end metrics.  Traced
(``--trace 1``) runs alternate untraced and traced iterations in one
process and report every per-layer metric (medians over the traced
iterations), the workload's phase times (medians over the untraced
ones) and the tracing overhead (traced minus untraced end-to-end
time).  Every reported time is scaled to the reference host speed (see
`unit_scale`); the lines above the result give the times as measured.  The
last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

# Modules the library imports inside functions, imported here so no
# timed phase pays for a first import.
import repro.bdd.boolexpr  # noqa: F401
import repro.bdd.manager  # noqa: F401
import repro.core.minimize  # noqa: F401
import repro.dlx.programs  # noqa: F401
import repro.faults.simulate  # noqa: F401
import repro.models  # noqa: F401
import repro.rtl.compile  # noqa: F401

from . import layers
from .tracing import Tracer
from .workloads import (
    PROBE_SECONDS,
    WORKLOADS,
    Iteration,
    Op,
    Phases,
    Workload,
    digest,
)

#: Hard cap on measuring time, whatever ``--seconds`` asks for, so a
#: run always ends well inside three minutes (the first iteration and
#: a traced run's second always run, whatever their length).
MAX_MEASURE_SECONDS = 120.0

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


#: The verdict digest each workload printed on the default and the
#: held-out seed (``inputs.DEFAULT_SEED``, ``inputs.HELDOUT_SEED``)
#: when the benchmark was written.  A run on either seed whose digest
#: differs fails every operation.
EXPECTED_DIGESTS: Dict[str, Dict[int, str]] = {
    "corpus-wp": {1: "76140c57238aa754", 7919: "f81d42f988d07104"},
    "dlx": {1: "eb2b6860947c6e04", 7919: "2507d6641d4d0230"},
    "farm-sparse": {1: "92f13dd2072bcb48", 7919: "92f13dd2072bcb48"},
}


def unit_scale(probes: Tuple[float, float]) -> float:
    """The factor that scales one unit's measured seconds to seconds at
    the reference host speed: `PROBE_SECONDS` over the mean of the
    host probes taken just before and just after the unit.

    The host this benchmark was written on runs at two speeds and
    switches between them, sometimes within seconds and sometimes only
    after minutes; ten runs' measured times spread by 30% of their
    median and more.  The probes slow down with the workload, and
    probing at every unit keeps each measurement and its correction at
    the same moment."""
    return 2 * PROBE_SECONDS / sum(probes)


def speed(records: List[Dict[str, Any]]) -> float:
    """Scaled over measured seconds of every unit in ``records``: the
    host's speed while they ran, as a share of the reference speed."""
    measured = scaled = 0.0
    for record in records:
        for key, seconds in record.get("units", {}).items():
            measured += seconds
            scaled += seconds * unit_scale(record["probes"][key])
    return scaled / measured if measured else 1.0


def host_fingerprint(work_dir: str) -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu": model or platform.processor(),
        "cpus": len(os.sched_getaffinity(0)),
        "filesystem": filesystem_of(work_dir),
    }


def filesystem_of(path: str) -> str:
    """``mountpoint (type)`` of the mount holding ``path``."""
    path = os.path.realpath(path)
    best = ("", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                mount, fstype = parts[1], parts[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return f"{best[0]} ({best[1]})"


def run_iteration(workload: Workload, index: int,
                  tracer: Optional[Tracer]) -> Iteration:
    """One iteration; with a tracer, the library is wrapped only for
    its duration, inside one root span."""
    gc.collect()
    phases = Phases(tracer, workload.probes)
    if tracer is None:
        it = workload.run(phases, index)
    else:
        tracer.reset()
        layers.install(tracer)
        try:
            it = tracer.call("bench.iteration", workload.run, phases, index)
        finally:
            tracer.uninstall()
    it.units = dict(phases.units)
    it.probes = dict(phases.probes)
    return it


def measure(workload: Workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Iterate ``workload`` for ``seconds``, its checks and probes
    included; returns every iteration plus the failure tally."""
    tracer = Tracer() if trace else None
    iterations: List[Dict[str, Any]] = []
    reference: Dict[str, str] = {}
    peak_rss_mb = 0.0
    started = time.perf_counter()
    minimum = 2 if trace else 1
    # Start another iteration only if one more of average length still
    # fits in the budget, so a run never takes longer than asked.
    while len(iterations) < minimum or (
        (time.perf_counter() - started) * (len(iterations) + 1)
        / len(iterations) <= min(seconds, MAX_MEASURE_SECONDS)
    ):
        index = len(iterations)
        traced = trace and index % 2 == 1
        record: Dict[str, Any] = {"traced": traced}
        try:
            it = run_iteration(workload, index, tracer if traced else None)
        except Exception:
            traceback.print_exc()
            record.update(ops=[Op("iteration", error="raised")])
            iterations.append(record)
            break
        if traced:
            record["layers"] = layers.layer_metrics(tracer, it.counts)
            record["layer_self"] = tracer.layer_self_times()
            record["wall"] = next(
                s.duration for s in tracer.spans if s.name == "bench.iteration"
            )
            record["spans"] = list(tracer.spans)
            record["aggregates"] = {k: list(v) for k, v in tracer.aggregates.items()}
        if index == 0:
            peak_rss_mb = peak_rss()
        checked = time.perf_counter()
        try:
            workload.check(it, deep=index == 0)
        except Exception:
            traceback.print_exc()
            for op in it.ops:
                op.error = op.error or "check raised"
        for op in it.ops:
            if index == 0:
                reference[op.name] = op.digest
            elif op.digest != reference.get(op.name) and not op.error:
                op.error = "verdict digest differs from the first iteration"
        record.update(units=it.units, probes=it.probes, ops=it.ops)
        iterations.append(record)
        failed = [op for op in it.ops if op.error]
        print(f"iteration {index}{' traced' if traced else ''}: "
              + " ".join(f"{k}={v:.4f}" for k, v in it.phases.items())
              + f" (measured) speed={speed([record]):.4f}"
              + f" checks={time.perf_counter() - checked:.2f}"
              + f" ops={len(it.ops)} failed={len(failed)}")
        for op in failed[:5]:
            print(f"  FAILED {op.name}: {op.error}")
    ops = [op for record in iterations for op in record["ops"]]
    verdicts = digest(sorted(reference.items()))
    expected = EXPECTED_DIGESTS[workload.name].get(workload.seed)
    if expected is not None and verdicts != expected:
        print(f"verdict digest {verdicts} differs from the committed {expected}")
        for op in ops:
            op.error = op.error or "verdict digest differs from the committed one"
    return {
        "iterations": iterations,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error),
        "digest": verdicts,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_of(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def phase_times(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per phase, the sum over its units of each unit's median across
    ``records``, each scaled by `unit_scale`: the typical time of the
    phase at the reference host speed, robust to a burst of host noise
    in any one unit."""
    samples: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for key, seconds in record.get("units", {}).items():
            samples.setdefault(key, []).append(
                seconds * unit_scale(record["probes"][key])
            )
    phases: Dict[str, float] = {}
    for (phase, _unit), values in samples.items():
        phases[phase] = phases.get(phase, 0.0) + statistics.median(values)
    return phases


def end_to_end_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    phases = phase_times(result["iterations"])
    return {
        "setup_s": phases.get("setup", 0.0),
        "campaign_s": phases.get("campaign", 0.0),
        "total_s": sum(phases.values()),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(iterations: List[Dict[str, Any]]) -> Dict[str, float]:
    traced = [r for r in iterations if r["traced"] and "layers" in r]
    plain = [r for r in iterations if not r["traced"] and "units" in r]
    # A traced iteration's layer times are scaled by its own speed.
    out = {
        name: median_of([
            r["layers"][name] * (speed([r]) if unit in ("s", "ns") else 1.0)
            for r in traced
        ])
        for name, (unit, _fn) in layers.METRICS.items()
    }
    phases = phase_times(plain)
    for phase in PHASES:
        out[f"phase.{phase}_s"] = phases.get(phase, 0.0)
    out["trace.overhead_s"] = (
        sum(phase_times(traced).values()) - sum(phases.values())
    )
    out["trace.gap_s"] = median_of(
        [r["layer_self"].get("bench", 0.0) * speed([r]) for r in traced]
    )
    out["trace.spans"] = median_of([len(r["spans"]) for r in traced])
    return out


#: Phases reported per workload by the traced run (0 where a
#: workload has no such phase).
PHASES = ("setup", "campaign", "replay", "journal", "resume", "cosim")

PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _fn) in layers.METRICS.items()},
    **{f"phase.{phase}_s": "s" for phase in PHASES},
    "trace.overhead_s": "s",
    "trace.gap_s": "s",
    "trace.spans": "count",
}


def write_trace(path: str, header: Dict[str, Any],
                iterations: List[Dict[str, Any]]) -> None:
    """Write the spans of every traced iteration as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for index, record in enumerate(iterations):
            for span in record.get("spans", ()):
                handle.write(json.dumps({
                    "iteration": index, "id": span.ident,
                    "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end,
                    "self": span.self_time,
                }) + "\n")
            for name, (self_time, calls) in sorted(
                record.get("aggregates", {}).items()
            ):
                handle.write(json.dumps({
                    "iteration": index, "aggregate": name,
                    "self": self_time, "calls": calls,
                }) + "\n")


def main(argv: Optional[List[str]]) -> int:
    """Run one workload from the checkout root (the working directory)."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A fixed-length relative path: the library keeps many paths under
    # it, and their length alone moved the peak resident set by 10%
    # between checkouts and process ids.
    work = os.path.join(".perfbench-work", f"{args.workload}-{os.getpid():07d}")
    out_dir = ".perfbench-out"
    os.makedirs(work)
    try:
        host = host_fingerprint(work)
        workload = WORKLOADS[args.workload](args.seed, work)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = result["iterations"]
    probes = [p for r in iterations for pair in r.get("probes", {}).values()
              for p in pair]
    if len(probes) > 1:
        host["probe_s_quartiles"] = statistics.quantiles(probes, n=4)
    host["speed"] = speed(iterations)
    print("host " + json.dumps(host, sort_keys=True))
    plain = [r for r in iterations if not r["traced"] and "units" in r]
    for phase, seconds in phase_times(plain).items():
        print(f"phase {phase}: {seconds:.4f} s (sum of unit medians over "
              f"{len(plain)} untraced iterations, at reference speed)")
    print(f"verdict digest {result['digest']}")
    if args.trace:
        values = per_layer_metrics(iterations)
        units = PER_LAYER_UNITS
        os.makedirs(out_dir, exist_ok=True)
        write_trace(
            os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "host": host},
            iterations,
        )
    else:
        values = end_to_end_metrics(result)
        units = END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0
