"""The end-to-end validation driver (Figure 1).

Ties the pieces together: run a test program on the behavioral
specification and on a (possibly buggy) pipelined implementation,
compare their checkpoint streams, and aggregate results over the bug
catalog or over arbitrary test sets.  Also measures the empirical
Requirement 2 bound (worst instruction latency) used by the
Theorem 3 certificate for the DLX model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..campaign import Campaign, check_kernel, per_item, record_index, settle
from ..dlx.behavioral import BehavioralDLX, Checkpoint, ExecutionError
from ..dlx.buggy import BUG_CATALOG, BugEntry
from ..dlx.isa import Instruction
from ..dlx.pipeline import PipelineBugs, PipelinedDLX
from ..dlx.programs import DIRECTED_PROGRAMS
from ..kernel import DEFAULT_LANES
from ..obs import STEP_BUCKETS, get_registry, span
from ..parallel import batch_unit, parallel_map_batched
from .checkpoints import compare_streams
from .report import (
    BugCampaignResult,
    BugCampaignRow,
    Mismatch,
    ValidationResult,
)
from .testgen import ConcreteTest


#: The directed-program battery's name in a DLX campaign's identity
#: and report.  It names the battery alone, never how it is run, so a
#: journaled run resumes at any worker count.
DIRECTED_TEST_NAME = "directed-programs"


def directed_battery() -> Tuple[Tuple[List[Instruction], None, None], ...]:
    """The DLX campaign's battery: every directed program, each with
    no initial data image and no branch oracle."""
    return tuple((list(p), None, None) for p in DIRECTED_PROGRAMS.values())


class BugCampaignError(RuntimeError):
    """A bug-campaign task failed (after retries) instead of returning
    a verdict; raised rather than silently mislabelling the bug."""


@dataclass(frozen=True)
class BugVerdict:
    """One catalog entry's verdict plus how it was obtained (the DLX
    analogue of :class:`repro.faults.campaign.FaultVerdict`)."""

    detected: bool
    mismatch: Optional[Mismatch]
    timed_out: bool = False
    degraded: bool = False


@dataclass(frozen=True)
class ReplayedMismatch:
    """A mismatch reconstructed from a journal record.

    The report renders mismatches via ``str()`` and the metrics need
    only ``.index``, so persisting (index, rendered text) is enough to
    reproduce both byte-for-byte without pickling spec/impl values.
    """

    index: int
    text: str

    def __str__(self) -> str:
        return self.text


def expected_stream(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
    branch_oracle: Optional[Sequence[bool]] = None,
) -> List[Checkpoint]:
    """The specification's checkpoint stream for one test.

    The spec run depends only on (program, data, oracle) -- never on
    the injected bugs -- so campaigns compute it once per test and
    share it across every catalog entry instead of re-simulating it
    per mutant.
    """
    with span("validate.spec_run", program=len(program)):
        spec = BehavioralDLX(
            program, dict(data) if data else None,
            branch_oracle=branch_oracle,
        )
        return spec.run(max_steps=max(200_000, 2 * len(program)))


def prepare_tests(tests: Sequence[Tuple]) -> Tuple[Tuple, ...]:
    """The (program, data, oracle, expected-stream) quadruples
    :func:`sweep_bug_verdicts` consumes: hashable, picklable, and with
    each test's specification stream computed once."""
    return tuple(
        (
            tuple(program),
            tuple(sorted(data.items())) if data else None,
            tuple(oracle) if oracle is not None else None,
            tuple(expected_stream(list(program), data, oracle)),
        )
        for program, data, oracle in tests
    )


def _co_simulate(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]],
    bugs: Optional[PipelineBugs],
    branch_oracle: Optional[Sequence[bool]],
    max_cycles: Optional[int],
    expected: Sequence[Checkpoint],
) -> ValidationResult:
    """Run the implementation and compare against a precomputed
    specification stream (the Figure 1 checkpoint comparison)."""
    if max_cycles is None:
        max_cycles = max(500_000, 6 * len(program))
    impl = PipelinedDLX(
        program,
        dict(data) if data else None,
        bugs=bugs,
        branch_oracle=branch_oracle,
    )
    try:
        observed = impl.run(max_cycles=max_cycles)
    except ExecutionError as exc:
        return ValidationResult(
            program_length=len(program),
            retired=impl.retired,
            cycles=impl.cycle_count,
            mismatch=Mismatch(impl.retired, "crash", "halt", str(exc)),
            max_latency=impl.max_latency(),
        )
    return ValidationResult(
        program_length=len(program),
        retired=impl.retired,
        cycles=impl.cycle_count,
        mismatch=compare_streams(expected, observed),
        max_latency=impl.max_latency(),
    )


def validate(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
    bugs: Optional[PipelineBugs] = None,
    branch_oracle: Optional[Sequence[bool]] = None,
    max_cycles: Optional[int] = None,
) -> ValidationResult:
    """One checkpointed co-simulation of spec vs implementation.

    A crash or livelock of the implementation (possible under injected
    bugs -- e.g. a squash bug that sends the PC out of the program)
    counts as a mismatch of field "crash".  ``max_cycles`` defaults to
    a generous multiple of the program length.
    """
    with span(
        "validate.cosim", program=len(program), buggy=bugs is not None
    ):
        expected = expected_stream(program, data, branch_oracle)
        result = _co_simulate(
            program, data, bugs, branch_oracle, max_cycles, expected
        )
    reg = get_registry()
    if reg.enabled:
        reg.counter(
            "validate.runs_total",
            outcome="pass" if result.passed else "fail",
        ).inc()
    return result


def validate_concrete_test(
    test: ConcreteTest,
    data: Optional[Dict[int, int]] = None,
    bugs: Optional[PipelineBugs] = None,
) -> ValidationResult:
    """Co-simulate a converted abstract test (program + oracle).

    ``data`` defaults to the test's own distinct-value memory image.
    """
    return validate(
        list(test.program),
        data=data if data is not None else test.data,
        bugs=bugs,
        branch_oracle=list(test.branch_oracle),
    )


def _bug_entry_task(
    shared: Tuple[Tuple, ...], entry: BugEntry
) -> Tuple[bool, Optional[Mismatch]]:
    """Per-catalog-entry interpreter task: run the battery until the
    bug produces a mismatch.  The oracle, and through
    :func:`~repro.campaign.per_item` the interp sweep's batch body
    (module-level so workers can unpickle it)."""
    for program, data, oracle, expected in shared:
        result = _co_simulate(
            list(program),
            dict(data) if data else None,
            entry.bugs,
            list(oracle) if oracle is not None else None,
            None,
            expected,
        )
        if not result.passed:
            return (True, result.mismatch)
    return (False, None)


def _bug_entry_batch_task(
    shared: Tuple[Tuple, ...], batch: Sequence[BugEntry]
) -> List[Tuple[str, object]]:
    """The compiled sweep's batch body: one ``("ok", (detected,
    mismatch))`` or ``("err", message)`` per catalog entry.

    The DLX has no compiled co-simulator: this runs
    :func:`_bug_entry_task` per entry, as the interp body does.  The
    sweep looks it up at call time, so a substitute installed here
    takes effect.
    """
    return per_item(_bug_entry_task, shared, batch)


def sweep_bug_verdicts(
    prepared: Tuple[Tuple, ...],
    entries: Sequence[BugEntry],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
) -> List[BugVerdict]:
    """One :class:`BugVerdict` per catalog entry, in submission order.

    The DLX sweep every campaign driver fills its verdict slots from
    (through :class:`DlxKind`).  Task failures quarantine the affected
    entries and re-run them in-process (graceful degradation, see
    :func:`repro.campaign.settle`) instead of aborting the sweep.
    Batching amortizes the per-task pickling of the shared battery
    (programs + precomputed spec streams), which dominates the
    dispatch cost; batches hold up to ``DEFAULT_LANES - 1`` entries,
    and ``kernel`` picks only the batch body.
    """
    entries = list(entries)
    if not entries:
        return []
    body = (
        _bug_entry_batch_task if kernel == "compiled"
        else partial(per_item, _bug_entry_task)
    )
    # Keep at least jobs*4 batches in flight so a short catalog still
    # fans out across every worker.
    outcomes = parallel_map_batched(
        body, entries, shared=prepared, jobs=jobs, timeout=timeout,
        retries=retries,
        batch_size=batch_unit(len(entries), jobs, DEFAULT_LANES - 1),
    )
    # The correct design always halts well inside the budget, so a
    # timed-out mutant has visibly diverged: detected by crash, same as
    # a livelock that exhausts max_cycles -- just without the wait.
    return settle(
        outcomes, entries,
        make=lambda value, degraded: BugVerdict(
            detected=bool(value[0]), mismatch=value[1], degraded=degraded
        ),
        timed_out=lambda: BugVerdict(
            detected=True,
            mismatch=Mismatch(
                0, "crash", "halt",
                f"per-fault timeout: exceeded {timeout:g}s wall clock",
            ),
            timed_out=True,
        ),
        oracle=_bug_entry_task,
        shared=prepared,
        describe=lambda entry: {"bug": entry.name},
        failure=lambda entry, error: BugCampaignError(
            f"catalog bug {entry.name!r} failed to simulate: {error}"
        ),
    )


class DlxKind:
    """The DLX bug catalog as a campaign fault domain: slot ``i`` holds
    the :class:`BugVerdict` of ``catalog[i]`` against the whole test
    battery (see :class:`repro.campaign.Campaign`)."""

    name = "dlx"

    def __init__(
        self,
        tests: Sequence[Tuple],
        catalog: Sequence[BugEntry],
        test_name: str,
    ) -> None:
        self.tests = tuple(tests)
        self.catalog = tuple(catalog)
        self.test_name = test_name
        self.total = len(self.catalog)
        self._prepared: Optional[Tuple[Tuple, ...]] = None

    def prepared(self) -> Tuple[Tuple, ...]:
        """The battery as :func:`prepare_tests` quadruples, computed on
        first use (a coordinator that never simulates never needs it)."""
        if self._prepared is None:
            self._prepared = prepare_tests(self.tests)
        return self._prepared

    def sweep(self, indices: List[int], **options: Any) -> List[BugVerdict]:
        return sweep_bug_verdicts(
            self.prepared(), [self.catalog[i] for i in indices], **options
        )

    def record(self, index: int, verdict: BugVerdict) -> Dict[str, Any]:
        mismatch = verdict.mismatch
        return {
            "i": index,
            "bug": self.catalog[index].name,
            "detected": verdict.detected,
            "timed_out": verdict.timed_out,
            "degraded": verdict.degraded,
            "mismatch": str(mismatch) if mismatch is not None else None,
            "mismatch_index": (
                mismatch.index if mismatch is not None else None
            ),
        }

    def parse(self, record: Any) -> Optional[Tuple[int, BugVerdict]]:
        index = record_index(record, self.total)
        if index is None or record.get("bug") != self.catalog[index].name:
            return None
        text = record.get("mismatch")
        return index, BugVerdict(
            detected=bool(record.get("detected")),
            mismatch=(
                ReplayedMismatch(
                    index=int(record.get("mismatch_index") or 0),
                    text=text,
                )
                if isinstance(text, str)
                else None
            ),
            timed_out=bool(record.get("timed_out")),
            degraded=bool(record.get("degraded")),
        )

    def result(self, slots: Sequence[BugVerdict]) -> BugCampaignResult:
        return BugCampaignResult(
            test_name=self.test_name,
            rows=tuple(
                BugCampaignRow(
                    bug_name=entry.name,
                    mechanism=entry.mechanism,
                    detected=verdict.detected,
                    mismatch=verdict.mismatch,
                )
                for entry, verdict in zip(self.catalog, slots)
            ),
            degraded=any(v.degraded for v in slots),
        )

    def fold(
        self, slots: Sequence[BugVerdict], result: BugCampaignResult
    ) -> None:
        """Fold a finished bug campaign into the metrics registry.

        Computed from the assembled (order-stable) rows, so every
        aggregate is byte-identical at any ``jobs`` setting.  The
        mismatch-index histogram is the DLX analogue of the FSM
        detection latency: how many retirements a bug incubates before
        the Figure 1 comparison catches it.
        """
        reg = get_registry()
        if not reg.enabled:
            return
        for row in result.rows:
            reg.counter(
                "bugcampaign.bugs",
                mechanism=row.mechanism,
                outcome="detected" if row.detected else "escaped",
            ).inc()
        reg.gauge("bugcampaign.coverage").set(round(result.coverage, 6))
        reg.gauge("bugcampaign.catalog_size").set(len(result.rows))
        latency = reg.histogram(
            "bugcampaign.mismatch_index", buckets=STEP_BUCKETS
        )
        for row in result.rows:
            if row.detected and row.mismatch is not None:
                latency.observe(row.mismatch.index)

    def started(self) -> Dict[str, Any]:
        return {
            **self.title(),
            "catalog": self.total,
            "tests": len(self.tests),
        }

    def title(self) -> Dict[str, Any]:
        return {"test_name": self.test_name}

    def describe(self, index: int, verdict: BugVerdict) -> Dict[str, Any]:
        return {
            "bug": self.catalog[index].name,
            "detected": verdict.detected,
            "timed_out": verdict.timed_out,
        }


def run_bug_campaign(
    tests: Sequence[Tuple[Sequence[Instruction], Optional[Dict[int, int]],
                          Optional[Sequence[bool]]]],
    catalog: Sequence[BugEntry] = BUG_CATALOG,
    test_name: str = "test-set",
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
) -> BugCampaignResult:
    """Run every catalog bug against a battery of test programs.

    ``tests`` is a sequence of (program, data, branch_oracle) triples;
    a bug counts as detected when *any* of them produces a mismatch.
    This is the DLX-level analogue of the FSM fault campaigns: the
    test set validates the implementation iff coverage is 100%.

    ``jobs`` distributes catalog entries over worker processes; rows
    come back in catalog order and are byte-identical to the serial
    sweep at any worker count.  ``timeout`` bounds each entry's
    wall-clock time: a mutant that livelocks (e.g. a bug that traps
    the PC in a loop the squash logic never exits) is recorded as
    detected with a "crash" mismatch instead of stalling the sweep for
    the full ``max_cycles`` bound.

    Either ``kernel`` hands workers small *batches* of catalog
    entries, amortizing the per-task shipping of the shared battery;
    both co-simulate each entry of a batch in turn (the interp body is
    the per-entry oracle), and rows are byte-identical either way.
    """
    check_kernel(kernel)
    campaign = Campaign(DlxKind(tests, catalog, test_name))
    with span(
        "bugcampaign.run",
        test_name=test_name,
        tests=len(tests),
        catalog=len(catalog),
        jobs=jobs,
    ):
        return campaign.run(
            jobs=jobs, timeout=timeout, retries=retries, kernel=kernel,
        )


def campaign_from_concrete_test(
    test: ConcreteTest,
    catalog: Sequence[BugEntry] = BUG_CATALOG,
    test_name: str = "tour-test",
    data: Optional[Dict[int, int]] = None,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    kernel: str = "compiled",
) -> BugCampaignResult:
    """Bug campaign driven by a single converted tour test."""
    image = data if data is not None else test.data
    return run_bug_campaign(
        [(list(test.program), image, list(test.branch_oracle))],
        catalog=catalog,
        test_name=test_name,
        jobs=jobs,
        timeout=timeout,
        kernel=kernel,
    )


def measure_latencies(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
) -> List[Tuple[Instruction, int]]:
    """Fetch-to-retire latency per instruction on the correct design.

    Feeds :func:`repro.core.requirements.check_bounded_latency` --
    Requirement 2's empirical ``k`` for the DLX pipeline (5 stages +
    stall cycles).
    """
    impl = PipelinedDLX(program, dict(data) if data else None)
    impl.run()
    return list(impl.latencies)
