"""Fault-injection campaigns: error coverage of test sets.

The missing link the paper calls out in Section 1 is relating
state/transition coverage "to the coverage of design errors".  A
campaign makes that relation measurable: take a machine, enumerate its
single-fault population, run one test set against every mutant, and
report the *error coverage* -- the detected fraction -- broken down by
fault class.

The theorem experiments (THM1 in DESIGN.md) are campaigns with a
twist: on machines whose completeness certificate holds, the claim is
error coverage == 100% for any padded transition tour; on uncertified
machines the escapes are expected and diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..campaign import Campaign, check_kernel, per_item, record_index, settle
from ..core.errors import OutputError, TransferError
from ..core.mealy import Input, MealyMachine
from ..obs import (
    SECONDS_BUCKETS,
    get_registry,
    record_detection_latencies,
    replay_with_telemetry,
    span,
)
from ..core.theorems import CompletenessCertificate
from ..kernel import DEFAULT_LANES
from ..kernel.mealy_kernel import (
    detection_latency_compiled as detection_latency,
)
from ..parallel import batch_spans, batch_unit, parallel_map_batched
from .inject import Fault, all_single_faults
from .simulate import Detection, detect_fault, pad_inputs


class CampaignExecutionError(RuntimeError):
    """A campaign task failed (after retries) instead of returning a
    verdict; raised rather than silently mislabelling the fault."""


@dataclass(frozen=True)
class FaultVerdict:
    """One fault's campaign verdict plus how it was obtained.

    ``degraded`` marks a verdict produced by the quarantine path: the
    primary (possibly compiled, possibly pooled) task failed and the
    fault was re-run on the in-process interpreter oracle.  The
    verdict itself is exactly as trustworthy as any other -- the
    oracle *defines* correctness -- but a degraded campaign did not
    complete cleanly, which CI distinguishes via the exit status.
    """

    detected: bool
    timed_out: bool = False
    degraded: bool = False


#: The verdicts of a clean sweep, shared by every slot they fill
#: (``_CLEAN[detected]``): verdicts are frozen.
_CLEAN = (FaultVerdict(detected=False), FaultVerdict(detected=True))


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of a fault-injection campaign.

    Attributes
    ----------
    machine_name:
        The specification machine.
    test_length:
        Length of the test set used (after any padding).
    detected / escaped:
        The faults by outcome, in injection order.
    """

    machine_name: str
    test_length: int
    detected: Tuple[Fault, ...]
    escaped: Tuple[Fault, ...]
    #: True when at least one verdict came from the degradation path
    #: (quarantined task re-run on the interpreter oracle).  Excluded
    #: from equality and from reports: verdicts are byte-identical
    #: either way, and the "survived pass" signal travels through the
    #: CLI exit status and the runtime.* metrics instead.
    degraded: bool = field(default=False, compare=False)

    @property
    def total(self) -> int:
        return len(self.detected) + len(self.escaped)

    @property
    def coverage(self) -> float:
        """Error coverage: detected / total (1.0 for empty campaigns)."""
        if self.total == 0:
            return 1.0
        return len(self.detected) / self.total

    def by_class(self) -> dict:
        """Coverage split into output-error and transfer-error classes."""
        stats = {}
        for cls, label in ((OutputError, "output"), (TransferError, "transfer")):
            det = sum(1 for f in self.detected if isinstance(f, cls))
            esc = sum(1 for f in self.escaped if isinstance(f, cls))
            stats[label] = {
                "detected": det,
                "escaped": esc,
                "coverage": det / (det + esc) if det + esc else 1.0,
            }
        return stats

    def to_json_dict(self) -> dict:
        """The campaign as one JSON-serializable object (for
        ``repro campaign --json`` and scripting)."""
        return {
            "machine": self.machine_name,
            "test_length": self.test_length,
            "total": self.total,
            "detected": len(self.detected),
            "escaped": len(self.escaped),
            "coverage": self.coverage,
            "by_class": self.by_class(),
            "undetected": [repr(f) for f in self.escaped],
        }

    def __str__(self) -> str:
        by_cls = self.by_class()
        parts = [
            f"{self.machine_name}: error coverage "
            f"{len(self.detected)}/{self.total} ({self.coverage:.1%}) "
            f"with {self.test_length}-step test set"
        ]
        for label, s in by_cls.items():
            parts.append(
                f"  {label}: {s['detected']}/{s['detected'] + s['escaped']} "
                f"({s['coverage']:.1%})"
            )
        return "\n".join(parts)


def _detect_task(shared: Tuple[MealyMachine, Tuple[Input, ...]],
                 fault: Fault) -> bool:
    """Per-fault interpreter task: the oracle, and through
    :func:`~repro.campaign.per_item` the interp sweep's batch body
    (module-level so workers can unpickle it)."""
    spec, inputs = shared
    return bool(detect_fault(spec, fault, inputs))


def _detect_batch_task(
    shared: Tuple[MealyMachine, Tuple[Input, ...]], batch: Sequence[Fault]
) -> List[Tuple[str, object]]:
    """The compiled sweep's batch body: compiled verdicts for a fault
    batch.

    Returns one ``("ok", bool)`` / ``("err", message)`` tuple per
    fault so an invalid fault reports exactly like the interpreter
    body instead of poisoning its batchmates.  The kernel function is
    looked up at call time, so a substitute installed on
    :mod:`repro.kernel` takes effect.
    """
    spec, inputs = shared
    from ..kernel import detect_faults_compiled

    return detect_faults_compiled(spec, inputs, batch)


def sweep_verdicts(
    spec: MealyMachine,
    test: Tuple[Input, ...],
    faults: Sequence[Fault],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
) -> List[FaultVerdict]:
    """One :class:`FaultVerdict` per fault, in submission order.

    The FSM sweep every campaign driver fills its verdict slots from
    (through :class:`FsmKind`).  A task that fails -- a poisoned
    compiled kernel, a worker crash the pool fallback could not hide,
    an exception that survived ``retries`` -- does not abort the
    sweep: the affected faults are quarantined and re-run on the
    interpreter oracle (see :func:`repro.campaign.settle`), and their
    verdicts are marked ``degraded``.  Only a fault the oracle itself
    cannot simulate raises :class:`CampaignExecutionError`.

    Both kernels dispatch the same fault batches of up to
    ``DEFAULT_LANES - 1`` faults; ``kernel`` picks only the batch body
    -- the compiled Mealy kernel, which adjudicates one batch against
    the precomputed spec trajectory, or the interpreter oracle per
    fault.
    """
    check_kernel(kernel)
    faults = list(faults)
    if not faults:
        return []
    body = (
        _detect_batch_task if kernel == "compiled"
        else partial(per_item, _detect_task)
    )
    outcomes = parallel_map_batched(
        body, faults, shared=(spec, test), jobs=jobs,
        timeout=timeout, retries=retries,
        batch_size=batch_unit(len(faults), jobs, DEFAULT_LANES - 1),
    )
    verdicts = settle(
        outcomes, faults,
        make=lambda value, degraded: (
            FaultVerdict(detected=bool(value), degraded=True) if degraded
            else _CLEAN[bool(value)]
        ),
        timed_out=lambda: FaultVerdict(detected=True, timed_out=True),
        oracle=_detect_task,
        shared=(spec, test),
        describe=lambda fault: {"fault": repr(fault)},
        failure=lambda fault, error: CampaignExecutionError(
            f"fault {fault} failed to simulate: {error}"
        ),
    )
    reg = get_registry()
    if reg.enabled:
        # One observation per fault that was not re-run on the oracle:
        # its share of its batch's wall time.
        wall = reg.histogram(
            "campaign.fault_wall_seconds", buckets=SECONDS_BUCKETS
        )
        for outcome, start, end in batch_spans(outcomes, len(faults)):
            share = outcome.elapsed / (end - start)
            for verdict in verdicts[start:end]:
                if not verdict.degraded:
                    wall.observe(share)
    return verdicts


#: Faults whose latency we aggregate, by class label.
_FAULT_CLASSES = ((OutputError, "output"), (TransferError, "transfer"))


class FsmKind:
    """The single faults of a Mealy specification as a campaign fault
    domain: slot ``i`` holds the :class:`FaultVerdict` of ``faults[i]``
    under the test ``test`` (see :class:`repro.campaign.Campaign`)."""

    name = "fsm"

    def __init__(
        self,
        spec: MealyMachine,
        test: Sequence[Input],
        faults: Sequence[Fault],
    ) -> None:
        self.spec = spec
        self.test = tuple(test)
        self.faults = tuple(faults)
        self.total = len(self.faults)

    def sweep(self, indices: List[int], **options: Any) -> List[FaultVerdict]:
        return sweep_verdicts(
            self.spec, self.test, [self.faults[i] for i in indices],
            **options,
        )

    def record(self, index: int, verdict: FaultVerdict) -> Dict[str, Any]:
        return {
            "i": index,
            "detected": verdict.detected,
            "timed_out": verdict.timed_out,
            "degraded": verdict.degraded,
        }

    def parse(self, record: Any) -> Optional[Tuple[int, FaultVerdict]]:
        index = record_index(record, self.total)
        if index is None:
            return None
        return index, FaultVerdict(
            detected=bool(record.get("detected")),
            timed_out=bool(record.get("timed_out")),
            degraded=bool(record.get("degraded")),
        )

    def result(self, slots: Sequence[FaultVerdict]) -> CampaignResult:
        return CampaignResult(
            machine_name=self.spec.name,
            test_length=len(self.test),
            detected=tuple(
                f for f, v in zip(self.faults, slots) if v.detected
            ),
            escaped=tuple(
                f for f, v in zip(self.faults, slots) if not v.detected
            ),
            degraded=any(v.degraded for v in slots),
        )

    def fold(
        self, slots: Sequence[FaultVerdict], result: CampaignResult
    ) -> None:
        """Fold a finished campaign into the metrics registry.

        Runs entirely in the parent process *after* verdict assembly,
        from data that is identical at any ``jobs`` setting -- which is
        what keeps the coverage/latency aggregates byte-identical
        between serial and parallel sweeps.  Only a live registry pays
        for it: one ``detection_latency`` query per detected fault
        that did not time out, answered by the compiled kernel's walk
        over the spec trajectory the sweep already built (the
        interpreter's mutant replay in
        :func:`repro.faults.simulate.detection_latency` is its
        differential oracle), whatever kernel the sweep used.
        """
        reg = get_registry()
        if not reg.enabled:
            return
        spec, test = self.spec, self.test
        for cls, label in _FAULT_CLASSES:
            det = sum(1 for f in result.detected if isinstance(f, cls))
            esc = sum(1 for f in result.escaped if isinstance(f, cls))
            reg.counter("campaign.faults_detected", cls=label).inc(det)
            reg.counter("campaign.faults_escaped", cls=label).inc(esc)
        reg.gauge("campaign.coverage", machine=spec.name).set(
            round(result.coverage, 6)
        )
        reg.gauge("campaign.test_length", machine=spec.name).set(len(test))
        timeouts = sum(1 for v in slots if v.timed_out)
        if timeouts:
            reg.counter("campaign.timeouts_total").inc(timeouts)
        # Detection latency (excitation -> divergence, in steps): the
        # empirical Requirement 2 k-bound.  Timed-out verdicts have no
        # meaningful latency and are skipped.
        latencies = {label: [] for _cls, label in _FAULT_CLASSES}
        for fault, verdict in zip(self.faults, slots):
            if not verdict.detected or verdict.timed_out:
                continue
            latency = detection_latency(spec, fault, test)
            if latency is None:
                continue
            for cls, label in _FAULT_CLASSES:
                if isinstance(fault, cls):
                    latencies[label].append(latency)
                    break
        record_detection_latencies(latencies, registry=reg)
        # Per-transition visit counts and first-visit steps of the test
        # set itself (the coverage side of the coverage-vs-error
        # relation).
        replay_with_telemetry(
            spec,
            test,
            snapshot_every=max(1, len(test) // 10) if test else 0,
            registry=reg,
        )

    def started(self) -> Dict[str, Any]:
        return {
            **self.title(),
            "faults": self.total,
            "test_length": len(self.test),
        }

    def title(self) -> Dict[str, Any]:
        return {"machine": self.spec.name}

    def describe(self, index: int, verdict: FaultVerdict) -> Dict[str, Any]:
        return {
            "fault": repr(self.faults[index]),
            "detected": verdict.detected,
            "timed_out": verdict.timed_out,
        }


def run_campaign(
    spec: MealyMachine,
    inputs: Sequence[Input],
    faults: Optional[Sequence[Fault]] = None,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
) -> CampaignResult:
    """Test every fault in ``faults`` (default: the full single-fault
    population) against the test set ``inputs``.

    ``jobs`` fans the mutant simulations out over worker processes; the
    result is byte-identical to the serial run at any worker count
    (faults keep their injection order).  A fault whose simulation
    exceeds ``timeout`` wall-clock seconds is recorded as *detected* --
    the mutant visibly diverged from the always-terminating spec, the
    campaign-level analogue of a crash detection.

    ``kernel`` selects the simulator each fault batch runs on:
    ``"compiled"`` (default) replays the batch against a dense-table
    compilation of the spec, ``"interp"`` walks the machine per fault.
    Verdicts, reports and error messages are byte-identical either way
    -- the interpreter is kept as the differential oracle.

    A failing task does not abort the sweep: the affected faults are
    quarantined and re-run on the interpreter oracle (graceful
    degradation -- see :func:`sweep_verdicts`); the result's
    ``degraded`` flag records that it happened.
    """
    check_kernel(kernel)
    population = (
        all_single_faults(spec) if faults is None else list(faults)
    )
    campaign = Campaign(FsmKind(spec, inputs, population))
    with span(
        "campaign.run",
        machine=spec.name,
        faults=len(population),
        test_length=len(campaign.kind.test),
        jobs=jobs,
    ):
        return campaign.run(
            jobs=jobs, timeout=timeout, retries=retries, kernel=kernel,
        )


def run_suite_campaign(
    spec: MealyMachine,
    suite,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
) -> CampaignResult:
    """Campaign with a W/Wp/HSI :class:`~repro.tour.methods.TestSuite`
    as the traffic source.

    The suite is lowered onto the engine's native interface (reset-
    augmented harness machine, flat reset-separated input sequence,
    the spec's single-fault population) and then runs through the very
    same executor paths as a tour campaign -- so ``jobs``, ``timeout``,
    ``retries`` and ``kernel`` all behave identically, and
    verdicts are byte-identical at any worker count on either kernel.

    When the suite's fault-domain certificate holds, every single
    output/transfer fault lies inside the m-state domain and the
    campaign is predicted (and asserted by the test suite) to reach
    coverage 1.0 -- including the transfer errors a bare tour misses
    on non-forall-k-distinguishable models.
    """
    ex = suite.executable(spec)
    return run_campaign(
        ex.machine,
        ex.inputs,
        faults=list(ex.faults),
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        kernel=kernel,
    )


def certified_tour_campaign(
    spec: MealyMachine,
    tour_inputs: Sequence[Input],
    certificate: CompletenessCertificate,
    faults: Optional[Sequence[Fault]] = None,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    kernel: str = "compiled",
) -> CampaignResult:
    """Campaign with the Theorem 1 simulation discipline applied.

    Pads the tour by the certificate's horizon ``k`` (so transfer
    errors excited near the end still get their ``k`` exposing steps)
    and then runs the campaign.  When ``certificate.complete`` holds,
    Theorem 1 predicts coverage 1.0; the caller (and the test suite)
    asserts exactly that.
    """
    k = certificate.k or 0
    padded = pad_inputs(spec, tour_inputs, k)
    return run_campaign(
        spec, padded, faults=faults, jobs=jobs, timeout=timeout,
        kernel=kernel,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One row of a test-set comparison table (COMP benchmark)."""

    method: str
    test_length: int
    coverage: float
    output_coverage: float
    transfer_coverage: float


def compare_test_sets(
    spec: MealyMachine,
    test_sets: Sequence[Tuple[str, Sequence[Input]]],
    faults: Optional[Sequence[Fault]] = None,
    *,
    jobs: int = 1,
    kernel: str = "compiled",
) -> List[ComparisonRow]:
    """Run the same campaign under several test sets; one row each.

    This regenerates the baseline comparison of DESIGN.md's COMP
    experiment: transition tour vs state tour vs random vectors on an
    identical fault population.
    """
    population = (
        all_single_faults(spec) if faults is None else list(faults)
    )
    rows: List[ComparisonRow] = []
    for method, inputs in test_sets:
        result = run_campaign(
            spec, inputs, faults=population, jobs=jobs, kernel=kernel,
        )
        by_cls = result.by_class()
        rows.append(
            ComparisonRow(
                method=method,
                test_length=len(inputs),
                coverage=result.coverage,
                output_coverage=by_cls["output"]["coverage"],
                transfer_coverage=by_cls["transfer"]["coverage"],
            )
        )
    return rows


def format_comparison(rows: Sequence[ComparisonRow]) -> str:
    """Render comparison rows as an aligned text table."""
    header = (
        f"{'method':<12} {'len':>8} {'coverage':>9} "
        f"{'output':>8} {'transfer':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.method:<12} {r.test_length:>8} {r.coverage:>9.1%} "
            f"{r.output_coverage:>8.1%} {r.transfer_coverage:>9.1%}"
        )
    return "\n".join(lines)
