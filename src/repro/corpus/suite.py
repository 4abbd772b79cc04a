"""The suite-wide campaign runner behind ``repro bench-suite DIR``.

One invocation sweeps a whole benchmark corpus through the existing
campaign engine: for every runnable circuit it builds the requested
test set (transition tour or W/Wp/HSI suite), runs the fault campaign
at any ``--jobs``/``--kernel``, and folds the verdicts into one
per-circuit + aggregate table.  The report's stdout rendering is
**deterministic by construction** -- no timings, no scheduling facts,
no store state -- so the table is byte-identical across job counts,
kernels and store hits; wall-clock numbers travel separately (stderr
summary, ``timing`` JSON section, and the ``record_bench``-routed
``BENCH_bench_suite.json`` history).

Two integrations make corpus sweeps cheap to repeat:

* **Result store.**  Each circuit campaign is keyed by its PR-4
  manifest identity (:func:`~repro.runtime.runner
  .fsm_campaign_identity`) into the PR-9 content-addressed
  :class:`~repro.service.store.ResultStore`; re-running an unchanged
  corpus against the same store answers every circuit with **zero
  simulations** and the identical table.
* **Run dirs.**  ``run_root`` gives every circuit its own journaled
  run directory (``<run_root>/<circuit>``), so an interrupted sweep
  resumes circuit-by-circuit with the PR-4 guarantees intact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import all_single_faults, run_campaign
from ..obs.events import emit_event
from ..runtime.runner import fsm_campaign_identity
from ..service.store import ResultStore, store_key
from ..tour import FaultDomain, SuiteError, generate_suite, transition_tour
from .loader import CorpusEntry

#: ``suite`` values accepted by :func:`run_bench_suite` (the CLI's
#: ``--suite`` choices: a tour or one of the complete-suite methods).
BENCH_SUITES = ("tour", "w", "wp", "hsi")


@dataclass(frozen=True)
class CircuitRow:
    """One circuit's line in the bench-suite table.

    Everything here except ``seconds``, ``executed`` and ``cached`` is
    deterministic across jobs/kernel/store state; the rendered
    table only shows the deterministic columns.
    """

    name: str
    kind: str
    states: int
    alphabet: int
    transitions: int
    suite: str
    test_length: int
    faults: int
    detected: int
    escaped: int
    coverage: float
    verdict: str          # complete | gaps | skipped | error
    detail: str = ""      # reason for skipped/error verdicts
    cached: bool = False
    executed: int = 0
    degraded: bool = False
    seconds: float = 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        """Deterministic projection (scheduling facts live in the
        report-level ``timing`` section, never in rows)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "states": self.states,
            "alphabet": self.alphabet,
            "transitions": self.transitions,
            "suite": self.suite,
            "test_length": self.test_length,
            "faults": self.faults,
            "detected": self.detected,
            "escaped": self.escaped,
            "coverage": round(self.coverage, 6),
            "verdict": self.verdict,
            "detail": self.detail,
        }


@dataclass
class BenchSuiteReport:
    """The whole sweep: per-circuit rows plus the aggregate."""

    corpus: str
    suite: str
    rows: List[CircuitRow] = field(default_factory=list)

    @property
    def ran(self) -> List[CircuitRow]:
        return [r for r in self.rows if r.verdict in ("complete", "gaps")]

    @property
    def total_faults(self) -> int:
        return sum(r.faults for r in self.ran)

    @property
    def total_detected(self) -> int:
        return sum(r.detected for r in self.ran)

    @property
    def coverage(self) -> float:
        """Aggregate error coverage over every campaigned fault."""
        total = self.total_faults
        return self.total_detected / total if total else 1.0

    @property
    def executed(self) -> int:
        """Simulations actually run (0 when the store answered all)."""
        return sum(r.executed for r in self.rows)

    @property
    def cached_circuits(self) -> int:
        return sum(1 for r in self.rows if r.cached)

    @property
    def degraded(self) -> bool:
        return any(r.degraded for r in self.rows)

    @property
    def errors(self) -> List[CircuitRow]:
        return [r for r in self.rows if r.verdict == "error"]

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.rows)

    def aggregate(self) -> Dict[str, Any]:
        """The deterministic aggregate line as a JSON object."""
        ran = self.ran
        return {
            "circuits": len(self.rows),
            "ran": len(ran),
            "skipped": sum(
                1 for r in self.rows if r.verdict == "skipped"
            ),
            "errors": len(self.errors),
            "faults": self.total_faults,
            "detected": self.total_detected,
            "escaped": self.total_faults - self.total_detected,
            "coverage": round(self.coverage, 6),
            "complete": sum(
                1 for r in ran if r.verdict == "complete"
            ),
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """Full JSON payload.  ``rows``/``aggregate`` are the
        deterministic projection; ``timing`` carries the wall-clock
        and store facts that legitimately vary run to run."""
        return {
            "corpus": self.corpus,
            "suite": self.suite,
            "rows": [r.to_json_dict() for r in self.rows],
            "aggregate": self.aggregate(),
            "timing": {
                "seconds": round(self.seconds, 6),
                "executed": self.executed,
                "cached_circuits": self.cached_circuits,
                "degraded": self.degraded,
                "per_circuit_seconds": {
                    r.name: round(r.seconds, 6) for r in self.rows
                },
            },
        }

    def render_table(self) -> str:
        """The aligned per-circuit + aggregate table (deterministic:
        byte-identical at any jobs/kernel and from the store)."""
        headers = (
            "circuit", "kind", "states", "in", "trans", "suite",
            "len", "faults", "det", "esc", "coverage", "verdict",
        )
        table: List[Tuple[str, ...]] = [headers]
        for r in self.rows:
            if r.verdict in ("complete", "gaps"):
                cells = (
                    r.name, r.kind, str(r.states), str(r.alphabet),
                    str(r.transitions), r.suite, str(r.test_length),
                    str(r.faults), str(r.detected), str(r.escaped),
                    f"{r.coverage:.1%}", r.verdict,
                )
            else:
                shown = (
                    (str(r.states), str(r.alphabet), str(r.transitions))
                    if r.states else ("-", "-", "-")
                )
                cells = (
                    (r.name, r.kind) + shown
                    + ("-", "-", "-", "-", "-", "-", r.verdict)
                )
            table.append(cells)
        widths = [
            max(len(row[i]) for row in table)
            for i in range(len(headers))
        ]
        lines = []
        for row in table:
            lines.append("  ".join(
                cell.ljust(w) if i < 2 else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(row, widths))
            ).rstrip())
        agg = self.aggregate()
        lines.append("")
        lines.append(
            f"aggregate: {agg['ran']}/{agg['circuits']} circuits ran "
            f"({agg['skipped']} skipped, {agg['errors']} errors), "
            f"{agg['detected']}/{agg['faults']} faults detected "
            f"({self.coverage:.1%}), {agg['complete']} complete"
        )
        for r in self.rows:
            if r.detail:
                lines.append(f"  {r.name}: {r.detail}")
        return "\n".join(lines) + "\n"


def build_test(
    machine: Any,
    suite: str,
    method: str,
    extra_states: int,
) -> Tuple[Any, Tuple, List]:
    """(machine to run, test inputs, fault population) for a transition
    tour or a W/Wp/HSI suite of ``machine``; raises SuiteError where
    the construction does not apply.  The campaign service resolves
    its specs through here too, so both address a campaign by the same
    identity."""
    if suite == "tour":
        tour = transition_tour(machine, method=method)
        return machine, tuple(tour.inputs), all_single_faults(machine)
    generated = generate_suite(
        machine, suite, FaultDomain(extra_states=extra_states)
    )
    ex = generated.executable(machine)
    return ex.machine, tuple(ex.inputs), list(ex.faults)


def run_bench_suite(
    entries: Sequence[CorpusEntry],
    corpus: str,
    suite: str = "tour",
    *,
    method: str = "cpp",
    extra_states: int = 0,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    store: Optional[ResultStore] = None,
    run_root: Optional[str] = None,
    resume: bool = False,
) -> BenchSuiteReport:
    """Run the requested campaign over every runnable corpus entry.

    Verdict semantics: ``complete``/``gaps`` report the campaign's
    error coverage; ``skipped`` marks circuits the suite construction
    does not apply to (combinational netlists, incomplete machines
    under W/Wp/HSI); ``error`` marks circuits that failed to load or
    execute.  The returned report's table rendering is byte-identical
    at any ``jobs``/``kernel`` and whether or not the store
    answered -- determinism is the point.
    """
    if suite not in BENCH_SUITES:
        raise ValueError(
            f"unknown bench suite {suite!r}: expected one of "
            f"{BENCH_SUITES}"
        )
    report = BenchSuiteReport(corpus=corpus, suite=suite)
    emit_event(
        "bench_suite.started",
        corpus=corpus,
        suite=suite,
        circuits=len(entries),
    )
    for entry in entries:
        report.rows.append(
            _run_circuit(
                entry, suite,
                method=method, extra_states=extra_states, jobs=jobs,
                timeout=timeout, retries=retries, kernel=kernel,
                store=store, run_root=run_root, resume=resume,
            )
        )
    agg = report.aggregate()
    emit_event(
        "bench_suite.finished",
        corpus=corpus,
        suite=suite,
        circuits=agg["circuits"],
        faults=agg["faults"],
        detected=agg["detected"],
        coverage=round(report.coverage, 6),
    )
    return report


def _row(entry: CorpusEntry, suite: str, **fields: Any) -> CircuitRow:
    """``entry``'s table row: its structural stats plus ``fields``."""
    stats = entry.stats
    return CircuitRow(
        name=entry.name,
        kind=entry.kind,
        states=stats.get("states", 0),
        alphabet=stats.get("inputs", 0),
        transitions=stats.get("transitions", 0),
        suite=suite,
        **fields,
    )


def _skip_row(
    entry: CorpusEntry, suite: str, verdict: str, detail: str
) -> CircuitRow:
    return _row(
        entry, suite, test_length=0, faults=0, detected=0, escaped=0,
        coverage=0.0, verdict=verdict, detail=detail,
    )


def _run_circuit(
    entry: CorpusEntry,
    suite: str,
    *,
    method: str,
    extra_states: int,
    jobs: int,
    timeout: Optional[float],
    retries: int,
    kernel: str,
    store: Optional[ResultStore],
    run_root: Optional[str],
    resume: bool,
) -> CircuitRow:
    if not entry.runnable:
        verdict = "error" if entry.kind == "bad" else "skipped"
        return _skip_row(entry, suite, verdict, entry.error or "")
    try:
        run_machine, test, population = build_test(
            entry.machine, suite, method, extra_states
        )
    except SuiteError as exc:
        return _skip_row(entry, suite, "skipped", str(exc))
    emit_event(
        "corpus.circuit.started",
        circuit=entry.name,
        suite=suite,
        faults=len(population),
        test_length=len(test),
    )
    start = time.perf_counter()
    cached = False
    executed = 0
    degraded = False
    hit = None
    if store is not None:
        # The identity prints every fault once (fault_digest), so a
        # store hit still pays that pass besides building the test.
        # Both passes are cheap (the suite is generated on the Mealy
        # kernel's dense table, the digest prints one head per fault
        # site), but only a recipe identity would skip them.  Only
        # the store reads the identity (a journaled run pins its own).
        identity = fsm_campaign_identity(
            run_machine, test, population, kernel, timeout
        )
        key = store_key(identity)
        hit = store.get(key, identity=identity)
    if hit is not None:
        stored = hit["report"]
        detected = int(stored["detected"])
        escaped = int(stored["escaped"])
        coverage = float(stored["coverage"])
        cached = True
    else:
        options = dict(
            faults=list(population), jobs=jobs, timeout=timeout,
            retries=retries, kernel=kernel,
        )
        if run_root is not None:
            from ..runtime import run_campaign_resumable

            run = run_campaign_resumable(
                run_machine, test,
                run_dir=os.path.join(run_root, entry.name),
                resume=resume,
                **options,
            )
            result = run.result
            executed = run.stats.executed
        else:
            result = run_campaign(run_machine, test, **options)
            executed = result.total
        detected = len(result.detected)
        escaped = len(result.escaped)
        coverage = result.coverage
        degraded = result.degraded
        if store is not None:
            store.put(key, identity, result.to_json_dict(), {})
    seconds = time.perf_counter() - start
    emit_event(
        "corpus.circuit.finished",
        circuit=entry.name,
        suite=suite,
        detected=detected,
        escaped=escaped,
        coverage=round(coverage, 6),
    )
    return _row(
        entry, suite,
        test_length=len(test),
        faults=len(population),
        detected=detected,
        escaped=escaped,
        coverage=coverage,
        verdict="complete" if coverage == 1.0 else "gaps",
        cached=cached,
        executed=executed,
        degraded=degraded,
        seconds=seconds,
    )
