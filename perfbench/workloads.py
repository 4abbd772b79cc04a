"""The three benchmark workloads, their timed phases and their checks.

Each workload is built from a seed (inputs are generated once, before
any timing) and then run as repeated *iterations*.  An iteration runs
the workload's phases in order through the library's public entry
points at ``jobs=1``; only the phases are timed.  Every verdict check
runs after the phases, outside the timed region.

Every phase is timed in *units* of work -- one circuit, one trail
netlist, one set-up step -- so that `bench.py` can take each unit's
median over the iterations and sum them into the phase's time.

An *operation* is one campaign: one per circuit per ``corpus-wp``
phase, one per Figure 3(b) trail netlist and one per bug-catalog run
in ``dlx``, one per ``farm-sparse`` iteration.  An operation fails if
it raises, returns a degraded verdict, misses its predicted coverage,
or produces a verdict digest other than the first iteration's (or, on
the seeds `bench.EXPECTED_DIGESTS` lists, than the committed one).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.runtime
from repro.corpus import (
    PROTOCOL_MODELS,
    load_corpus,
    machine_to_netlist,
    suite_vectors,
)
from repro.corpus.suite import BenchSuiteReport, run_bench_suite
from repro.corpus.synth import merge_netlists
from repro.dlx.buggy import BUG_CATALOG
from repro.dlx.testmodel import (
    SMALL_TOUR_OPCODES,
    build_tour_model,
    derive_test_model,
    minimize_tour_model,
)
from repro.faults import run_campaign
from repro.kernel import stuck_at_first_divergences
from repro.rtl.faults import all_stuck_at_faults, run_stuck_at_campaign
from repro.runtime.journal import JOURNAL_NAME, METRICS_NAME, REPORT_NAME
from repro.service.store import ResultStore
from repro.tour import FaultDomain, generate_suite, transition_tour
from repro.validation import fill_inputs, run_bug_campaign

from .inputs import (
    farm_phase_order,
    journal_cuts,
    rng_for,
    sample,
    trail_vectors,
    write_corpus,
)
from .tracing import Tracer


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    """One campaign of one iteration."""

    name: str
    digest: str = ""
    error: str = ""


@dataclass
class Iteration:
    """What one iteration produced: timed units of each phase, the
    host probes taken around them, operations, layer counts the
    workload observes itself, and state for the checks."""

    units: Dict[Tuple[str, str], float] = field(default_factory=dict)
    probes: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict
    )
    ops: List[Op] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    state: Dict[str, Any] = field(default_factory=dict)

    @property
    def phases(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (phase, _unit), seconds in self.units.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def op(self, name: str) -> Op:
        return next(o for o in self.ops if o.name == name)

    def fail(self, name: str, reason: str) -> None:
        op = self.op(name)
        if not op.error:
            op.error = reason


#: Seconds each host probe takes at the reference host speed, the
#: speed every reported time is scaled to.
PROBE_SECONDS = 0.005


def interpreter_probe() -> float:
    """Seconds for a fixed piece of interpreter-bound work -- dict
    updates and small-integer arithmetic, the kind of work the Wp
    suites, the Mealy campaigns and the journal spend their time in --
    that no library change can speed up or slow down."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(40_000):
        key = i & 255
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - start


def lane_probe() -> float:
    """Seconds for a fixed piece of wide-word work -- ANDs of 1024-bit
    lane words drawn from a table of a few hundred kilobytes, the kind
    of work the word-parallel netlist kernel spends its time in -- that
    no library change can speed up or slow down."""
    start = time.perf_counter()
    word = (1 << 1024) // 3
    words = [word >> (i & 63) ^ i for i in range(2048)]
    acc = 0
    for i in range(25_000):
        acc ^= words[i * 40503 & 2047] & words[i & 2047]
    return time.perf_counter() - start


def mixed_probe() -> float:
    """The mean of `interpreter_probe` and `lane_probe`."""
    return (interpreter_probe() + lane_probe()) / 2


class Phases:
    """Times the units of each phase, each between two calls of the
    phase's host probe (``probes``; `interpreter_probe` by default);
    with a tracer, each unit, each probe and each layer call the
    workload makes itself also becomes a span."""

    def __init__(self, tracer: Optional[Tracer],
                 probes: Dict[str, Callable[[], float]]) -> None:
        self.tracer = tracer
        self.probe_for = probes
        #: (phase, unit) -> measured seconds
        self.units: Dict[Tuple[str, str], float] = {}
        #: (phase, unit) -> the probes just before and just after it
        self.probes: Dict[Tuple[str, str], Tuple[float, float]] = {}

    def run(self, phase: str, unit: str, fn: Callable, /,
            *args: Any, **kwargs: Any) -> Any:
        probe = self.probe_for.get(phase, interpreter_probe)
        before = self.call("host.probe", probe)
        start = time.perf_counter()
        try:
            return self.call("bench." + phase, fn, *args, **kwargs)
        finally:
            self.units[phase, unit] = time.perf_counter() - start
            after = self.call("host.probe", probe)
            self.probes[phase, unit] = (before, after)

    def call(self, span: str, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(span, fn, *args, **kwargs)


def _stuck_digest(result) -> str:
    return digest([
        [str(f) for f in result.detected], [str(f) for f in result.escaped]
    ])


class Workload:
    name = ""
    #: Phase -> the host probe timed around each of its units (see
    #: `Phases`); other phases use `interpreter_probe`.  Each probe does
    #: the kind of work the phase's hot loops do: when the host this
    #: benchmark was written on slows down, interpreter-bound code slows
    #: by up to 1.9x and wide-word code by about 1.5x, so a probe of the
    #: other kind over- or under-corrects.
    probes: Dict[str, Callable[[], float]] = {}
    #: Faults (or catalog entries) per campaign checked on the oracle.
    oracle_sample = 3
    #: Stuck-at faults per campaign whose dirty and dense first
    #: divergences are compared.
    dense_sample = 8

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def run(self, phases: Phases, iteration: int) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration, deep: bool) -> None:
        """Verdict checks outside the timed region.  ``deep`` adds the
        oracle comparisons, run on the first iteration only: later
        iterations must reproduce its digests exactly."""
        raise NotImplementedError


# --------------------------------------------------------------------
# corpus-wp
# --------------------------------------------------------------------
class CorpusWp(Workload):
    """KISS/BLIF files -> load_corpus -> Wp sweeps through the result
    store, then a journaled sweep of the small circuits and its
    resume after a seeded crash."""

    name = "corpus-wp"
    oracle_sample = 8

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.corpus_dir = os.path.join(work_dir, "corpus")
        self.slice_names = write_corpus(seed, self.corpus_dir)

    def run(self, ph: Phases, iteration: int) -> Iteration:
        it = Iteration()
        iteration_dir = os.path.join(self.work_dir, f"iteration-{iteration}")
        runs = os.path.join(iteration_dir, "runs")
        entries = ph.run(
            "setup", "load", ph.call, "corpus.load", load_corpus,
            self.corpus_dir,
        )
        it.counts["corpus.circuits"] = len(entries)
        it.counts["corpus.runnable"] = sum(1 for e in entries if e.runnable)
        small = [e for e in entries if e.name in self.slice_names]

        def sweep(phase, circuits, **options):
            """One phase: a ``run_bench_suite`` call per circuit, each
            call one timed unit."""
            rows = []
            for entry in circuits:
                rows += ph.run(
                    phase, entry.name, ph.call, "corpus.bench_suite",
                    run_bench_suite, [entry], "corpus", suite="wp", **options,
                ).rows
            return BenchSuiteReport(corpus="corpus", suite="wp", rows=rows)

        store_root = os.path.join(iteration_dir, "store")
        reports = {}
        for phase in ("campaign", "replay"):
            store = ph.run(phase, "store", ph.call, "service.store_open",
                           ResultStore, store_root)
            reports[phase] = sweep(phase, entries, store=store)
        reports["journal"] = sweep("journal", small, run_root=runs)
        journal_outputs = self._outputs(runs, small)
        cuts = self._crash(runs, small, iteration)
        # run_bench_suite keeps each circuit's ResumeStats to itself;
        # record them from the runner it calls, for the resume checks.
        stats: Dict[str, Any] = {}
        original = repro.runtime.run_campaign_resumable

        def capture(*args: Any, **kwargs: Any):
            run = original(*args, **kwargs)
            stats[os.path.basename(run.paths.run_dir)] = run.stats
            return run

        repro.runtime.run_campaign_resumable = capture
        try:
            reports["resume"] = sweep(
                "resume", small, run_root=runs, resume=True
            )
        finally:
            repro.runtime.run_campaign_resumable = original
        resume_outputs = self._outputs(runs, small)
        # Bytes the journal layer wrote: each full phase-3 journal
        # plus what the resume appended to its cut copy.
        it.counts["runtime.journal_bytes"] = sum(
            written + os.path.getsize(os.path.join(runs, name, JOURNAL_NAME))
            - survived for name, (_cut, survived, written) in cuts.items()
        )
        for name, st in stats.items():
            it.counts["runtime.replayed"] += st.replayed
            it.counts["runtime.executed"] += st.executed
            it.counts["runtime.dropped"] += st.dropped
        shutil.rmtree(iteration_dir)
        for phase, report in reports.items():
            for row in report.rows:
                payload = row.to_json_dict()
                if phase in ("journal", "resume"):
                    outputs = (journal_outputs if phase == "journal"
                               else resume_outputs)[row.name]
                    payload["report_sha"] = digest(outputs[0])
                it.ops.append(Op(f"{phase}/{row.name}", digest(payload)))
        it.state = {
            "entries": entries, "reports": reports, "cuts": cuts,
            "stats": stats, "journal_outputs": journal_outputs,
            "resume_outputs": resume_outputs,
        }
        return it

    @staticmethod
    def _outputs(runs: str, circuits) -> Dict[str, tuple]:
        """report.json and metrics.json bytes per circuit run dir."""
        out = {}
        for entry in circuits:
            files = []
            for name in (REPORT_NAME, METRICS_NAME):
                with open(os.path.join(runs, entry.name, name), "rb") as h:
                    files.append(h.read())
            out[entry.name] = tuple(files)
        return out

    def _crash(self, runs: str, circuits, iteration: int) -> Dict[str, tuple]:
        """Cut each journal at a seeded record boundary, append a torn
        partial line and delete the outputs, as a crash mid-sweep
        leaves them.  Returns circuit -> (records cut off, bytes that
        survived, bytes phase 3 wrote)."""
        lines = {}
        for entry in circuits:
            with open(os.path.join(runs, entry.name, JOURNAL_NAME), "rb") as h:
                lines[entry.name] = h.read().splitlines(keepends=True)
        keep = journal_cuts(
            self.seed, iteration, {n: len(v) for n, v in lines.items()}
        )
        cuts = {}
        for name, records in lines.items():
            k = keep[name]
            torn = records[k][: len(records[k]) // 2]
            survived = b"".join(records[:k]) + torn
            with open(os.path.join(runs, name, JOURNAL_NAME), "wb") as h:
                h.write(survived)
            for output in (REPORT_NAME, METRICS_NAME):
                os.remove(os.path.join(runs, name, output))
            cuts[name] = (
                len(records) - k, len(survived), sum(map(len, records))
            )
        return cuts

    def check(self, it: Iteration, deep: bool) -> None:
        reports = it.state["reports"]
        first = {r.name: r.to_json_dict() for r in reports["campaign"].rows}
        for phase, report in reports.items():
            for row in report.rows:
                op = f"{phase}/{row.name}"
                if row.verdict != "complete" or row.coverage != 1.0:
                    it.fail(op, f"Wp coverage {row.coverage} ({row.verdict})")
                if row.degraded:
                    it.fail(op, "degraded verdict")
                if row.to_json_dict() != first.get(row.name):
                    it.fail(op, "table row differs from phase 1")
                if phase == "replay" and (row.executed or not row.cached):
                    it.fail(op, f"store replay executed {row.executed}")
                if phase == "resume":
                    self._check_resume(it, op, row)
        if reports["campaign"].render_table() != reports["replay"].render_table():
            for row in reports["replay"].rows:
                it.fail(f"replay/{row.name}", "table differs from phase 1")
        if deep:
            self._check_oracle(it)

    def _check_resume(self, it: Iteration, op: str, row) -> None:
        name = row.name
        cut = it.state["cuts"][name][0]
        stats = it.state["stats"].get(name)
        if it.state["resume_outputs"][name] != it.state["journal_outputs"][name]:
            it.fail(op, "resume outputs differ from the journaled sweep")
        if stats is None:
            it.fail(op, "no resume statistics")
        elif stats.dropped != 1 or stats.executed != cut:
            it.fail(op, f"resume dropped {stats.dropped} (torn 1), "
                        f"executed {stats.executed} (cut {cut})")

    def _check_oracle(self, it: Iteration) -> None:
        rng = rng_for(self.name, self.seed, "oracle")
        for entry in it.state["entries"]:
            ex = generate_suite(
                entry.machine, "wp", FaultDomain(extra_states=0)
            ).executable(entry.machine)
            faults = sample(rng, ex.faults, self.oracle_sample)
            oracle = run_campaign(
                ex.machine, ex.inputs, faults=faults, kernel="interp"
            )
            if oracle.escaped:
                it.fail(f"campaign/{entry.name}",
                        f"interpreter oracle escapes {oracle.escaped[0]}")


# --------------------------------------------------------------------
# dlx
# --------------------------------------------------------------------
class Dlx(Workload):
    """The paper's Section 7 case study: Figure 3(b) trail, tour model,
    tour program; stuck-at campaigns on the trail netlists; and the
    bug-catalog co-simulation of the tour program."""

    name = "dlx"
    #: The trail campaigns run the netlist kernel.  Set-up (a 4,164-state
    #: extraction) and co-simulation (the DLX simulators) are
    #: interpreter work on large objects, and slow down between the two
    #: kinds of probe when the host does.
    probes = {"setup": mixed_probe, "campaign": lane_probe,
              "cosim": mixed_probe}
    dense_sample = 16
    #: The catalog bugs the tour program detects.  The program does not
    #: depend on the seed, so neither does this.
    detected_bugs = ("squash_misses_delay_slot", "squash_absent")

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        trail = derive_test_model()
        self.vectors = trail_vectors(
            seed, [(label, net.inputs) for label, net in trail]
        )

    def run(self, ph: Phases, iteration: int) -> Iteration:
        it = Iteration()
        trail = ph.run("setup", "derive", ph.call, "dlx.derive",
                       derive_test_model)
        raw = ph.run("setup", "tour_model", ph.call, "dlx.tour_model",
                     build_tour_model, registers=1, opcodes=SMALL_TOUR_OPCODES)
        model = ph.run("setup", "minimize", ph.call, "dlx.minimize",
                       minimize_tour_model, raw)
        tour = ph.run("setup", "tour", ph.call, "tour.tour", transition_tour,
                      model.machine, method="greedy")
        it.counts["tour.test_steps"] += len(tour.inputs)
        concrete = ph.run("setup", "concrete_vectors", ph.call,
                          "dlx.concrete_vectors", model.concrete_vectors,
                          tour.inputs)
        test = ph.run("setup", "concretize", ph.call, "validation.concretize",
                      fill_inputs, concrete, registers=1)

        def stuck_at(net, vectors):
            faults = ph.call("rtl.faults", all_stuck_at_faults, net,
                             include_inputs=True)
            return ph.call("rtl.stuckat", run_stuck_at_campaign, net, vectors,
                           faults)

        stuck = [
            ph.run("campaign", str(index), stuck_at, net, vectors)
            for index, ((_label, net), vectors)
            in enumerate(zip(trail, self.vectors))
        ]
        battery = [(list(test.program), test.data, list(test.branch_oracle))]
        bugs = ph.run(
            "cosim", "catalog", ph.call, "validation.campaign",
            run_bug_campaign, battery, catalog=BUG_CATALOG,
            test_name="tour program",
        )
        it.counts["validation.bugs_detected"] = len(bugs.detected)
        for index, result in enumerate(stuck):
            it.ops.append(Op(f"trail/{index}", _stuck_digest(result)))
        for row in bugs.rows:
            it.ops.append(Op(f"bug/{row.bug_name}", digest([
                row.detected, str(row.mismatch),
            ])))
        it.state = {"trail": trail, "stuck": stuck, "bugs": bugs,
                    "battery": battery}
        return it

    def check(self, it: Iteration, deep: bool) -> None:
        bugs = it.state["bugs"]
        for row in bugs.rows:
            if bugs.degraded:
                it.fail(f"bug/{row.bug_name}", "degraded verdict")
            if row.detected != (row.bug_name in self.detected_bugs):
                it.fail(f"bug/{row.bug_name}",
                        f"detected={row.detected}, expected the opposite")
        if not deep:
            return
        rng = rng_for(self.name, self.seed, "oracle")
        trail, stuck = it.state["trail"], it.state["stuck"]
        for index, ((_label, net), vectors, result) in enumerate(
            zip(trail, self.vectors, stuck)
        ):
            # The trail campaigns leave hundreds of faults escaped, so
            # coverage pins nothing: every verdict is checked on dense.
            check_stuck_at(it, f"trail/{index}", rng, net, vectors, result,
                           self.oracle_sample, self.dense_sample, True)
        entries = sample(rng, BUG_CATALOG, 2)
        oracle = run_bug_campaign(
            it.state["battery"], catalog=entries, test_name="tour program",
            kernel="interp",
        )
        compiled = {row.bug_name: row for row in bugs.rows}
        for row in oracle.rows:
            if row != compiled[row.bug_name]:
                it.fail(f"bug/{row.bug_name}",
                        "interpreter oracle disagrees")


def check_stuck_at(it: Iteration, op: str, rng, net, vectors, result,
                   oracle_k: int, dense_k: int, every_fault: bool) -> None:
    """Interpreter oracle on a seeded sample of one stuck-at campaign's
    faults, and dirty-vs-dense first divergences on another; with
    ``every_fault``, also the dense kernel's verdict on every fault,
    which must reproduce the campaign's detected set."""
    population = list(result.detected) + list(result.escaped)
    detected = set(result.detected)
    faults = sample(rng, population, oracle_k)
    oracle = run_stuck_at_campaign(net, vectors, faults, kernel="interp")
    if set(oracle.detected) != detected & set(faults):
        it.fail(op, "interpreter oracle disagrees")
    if every_fault:
        dense = stuck_at_first_divergences(net, vectors, population,
                                           dirty=False)
        if {f for f, first in zip(population, dense)
                if first is not None} != detected:
            it.fail(op, "dense kernel verdicts differ from the campaign's")
    faults = sample(rng, population, dense_k)
    dirty = stuck_at_first_divergences(net, vectors, faults, dirty=True)
    dense = stuck_at_first_divergences(net, vectors, faults, dirty=False)
    if dirty != dense:
        it.fail(op, "dirty and dense first divergences differ")


# --------------------------------------------------------------------
# farm-sparse
# --------------------------------------------------------------------
#: Copies of each protocol model in the farm.
FARM_COPIES = 8


def _block_prefix(model: str, copy: int) -> str:
    return f"{model.replace('-', '_')}_{copy}_"


class FarmSparse(Workload):
    """The four protocol models, synthesised, replicated and merged
    into one farm that is tested one block at a time while the others
    idle -- the activity-sparse shape dirty-set simulation is for."""

    name = "farm-sparse"
    #: The stuck-at campaign runs the netlist kernel.
    probes = {"campaign": lane_probe}

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.machines = {
            name: build() for name, build in sorted(PROTOCOL_MODELS.items())
        }
        # The farm's stimulus is assembled once, from an untimed
        # synthesis: block prefixes and bit names are deterministic, so
        # every iteration's synthesis must reproduce it (checked).
        self.reference = self._synthesize(Phases(None, self.probes))
        block_vectors, farm = self.reference
        blocks = [(name, copy) for name in self.machines
                  for copy in range(FARM_COPIES)]
        idle = dict.fromkeys(farm.inputs, False)
        self.vectors = []
        for index in farm_phase_order(seed, len(blocks)):
            name, copy = blocks[index]
            prefix = _block_prefix(name, copy)
            for vec in block_vectors[name]:
                merged = dict(idle)
                for bit, value in vec.items():
                    merged[prefix + bit] = value
                self.vectors.append(merged)

    def _synthesize(self, ph: Phases):
        """The farm's synthesis, one timed unit per library call: each
        model's netlist, Wp suite and suite vectors, then the merge of
        every copy.  Returns (model -> block vectors, farm netlist)."""
        synths, vectors = {}, {}
        for name, machine in self.machines.items():
            synths[name] = ph.run(
                "setup", f"synth/{name}", ph.call, "corpus.synth",
                machine_to_netlist, machine, reset_input="rst",
            )
            suite = ph.run(
                "setup", f"suite/{name}", ph.call, "tour.suite",
                generate_suite, machine, "wp", FaultDomain(extra_states=0),
            )
            vectors[name] = ph.run(
                "setup", f"vectors/{name}", ph.call, "corpus.synth",
                suite_vectors, synths[name], suite.sequences,
            )
        farm = ph.run(
            "setup", "merge", ph.call, "corpus.synth", merge_netlists,
            [(_block_prefix(name, copy), synths[name].netlist)
             for name in self.machines for copy in range(FARM_COPIES)],
            name="protocol-farm",
        )
        return vectors, farm

    def run(self, ph: Phases, iteration: int) -> Iteration:
        it = Iteration()
        block_vectors, farm = self._synthesize(ph)
        result = ph.run("campaign", "farm", lambda: ph.call(
            "rtl.stuckat", run_stuck_at_campaign, farm, self.vectors,
            ph.call("rtl.faults", all_stuck_at_faults, farm),
        ))
        it.ops.append(Op("farm", _stuck_digest(result)))
        it.state = {"farm": farm, "block_vectors": block_vectors,
                    "result": result}
        return it

    def check(self, it: Iteration, deep: bool) -> None:
        result = it.state["result"]
        if result.coverage != 1.0:
            # Every block sees its own reset-separated Wp suite, so
            # every register stuck-at fault is predicted detected.
            it.fail("farm", f"stuck-at coverage {result.coverage}")
        block_vectors, farm = self.reference
        if (it.state["block_vectors"] != block_vectors
                or it.state["farm"].inputs != farm.inputs):
            it.fail("farm", "synthesis differs from the reference stimulus")
        if deep:
            check_stuck_at(
                it, "farm", rng_for(self.name, self.seed, "oracle"),
                it.state["farm"], self.vectors, result,
                self.oracle_sample, self.dense_sample, False,
            )


WORKLOADS = {w.name: w for w in (CorpusWp, Dlx, FarmSparse)}
