"""The one campaign core under every driver.

The paper's method comes down to one computation: run a test set
against every error the fault model admits and report the error
coverage.  A :class:`Campaign` holds its state: the identity (the
manifest identity a run directory pins and the result store keys on;
None in memory), one verdict slot per fault index -- filled at most
once, which makes journal replay and at-least-once shard delivery
safe -- and an optional journal that records every filled slot.

A *kind* supplies what is specific to one fault domain:
:class:`repro.faults.campaign.FsmKind` (the single faults of a Mealy
specification), :class:`repro.validation.harness.DlxKind` (the DLX
bug catalog) or :class:`repro.rtl.faults.StuckAtKind` (the stuck-at
faults of a netlist).  Drivers only fill slots: the in-memory drivers
from one sweep, the journaled runners of :mod:`repro.runtime.runner`
from the journal replay and fsynced slices, the service coordinator
from leased shards.  Every sweep dispatches through
:func:`repro.parallel.parallel_map_batched`; the kernel picks only the
task body, and an interpreter body is the per-item oracle task run
through :func:`per_item`.

Only the core emits ``campaign.started``, ``fault.verdict`` and
``campaign.finished``.  Each slot's ``fault.verdict`` is emitted
exactly once, in fault-index order, for the filled prefix whenever the
driver flushes, so every driver -- resumed journals and shard fleets
included -- projects to the event stream of an uninterrupted
``--jobs 1`` run.
"""

from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .obs import get_registry, scoped_registry
from .obs.events import NULL_BUS, emit_event, get_bus, scoped_bus
from .parallel import TaskTimeout, batch_spans, run_task_inline

#: The simulation kernels: ``"compiled"`` (default) and the
#: ``"interp"`` differential oracle.
KERNELS = ("interp", "compiled")

#: Bounded exponential backoff for quarantined oracle re-runs: up to
#: DEGRADE_ATTEMPTS attempts, sleeping DEGRADE_BACKOFF,
#: 2*DEGRADE_BACKOFF, ... between them.
DEGRADE_ATTEMPTS = 3
DEGRADE_BACKOFF = 0.02


def check_kernel(kernel: str) -> None:
    """Refuse a kernel name outside :data:`KERNELS`."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}: expected one of {KERNELS}"
        )


def record_index(record: Any, total: int) -> Optional[int]:
    """The slot index a journal record claims, or None when the record
    is not an object or its index is not an in-range integer (a JSON
    ``true`` is not index 1)."""
    if not isinstance(record, dict):
        return None
    index = record.get("i")
    if (
        isinstance(index, int) and not isinstance(index, bool)
        and 0 <= index < total
    ):
        return index
    return None


def per_item(
    task: Callable[[Any, Any], Any], shared: Any, batch: Sequence[Any]
) -> List[Tuple[str, Any]]:
    """Run a per-item ``task(shared, item)`` as a batched body: one
    ``("ok", value)`` or ``("err", traceback)`` per item, so a failing
    item is quarantined alone instead of poisoning its batchmates.

    A :class:`~repro.parallel.TaskTimeout` propagates: timeouts force
    singleton batches, so the executor records the whole batch as
    timed out.  ``functools.partial(per_item, task)`` is the picklable
    ``fn(shared, batch)`` that
    :func:`~repro.parallel.parallel_map_batched` calls.
    """
    results: List[Tuple[str, Any]] = []
    for item in batch:
        try:
            results.append(("ok", task(shared, item)))
        except TaskTimeout:
            raise
        except Exception as exc:  # noqa: BLE001 - reported per item
            results.append(("err", "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__
            ))))
    return results


def settle(
    outcomes: Sequence[Any],
    items: Sequence[Any],
    *,
    make: Callable[[Any, bool], Any],
    timed_out: Optional[Callable[[], Any]],
    oracle: Callable[..., Any],
    shared: Any,
    describe: Callable[[Any], Dict[str, Any]],
    failure: Callable[[Any, Optional[str]], Exception],
) -> List[Any]:
    """One verdict per item, in submission order, from the batch
    outcomes of :func:`~repro.parallel.parallel_map_batched`.

    A batch settles as a batch.  A batch that ran carries one
    ``("ok", value)``/``("err", message)`` per item: a value becomes
    ``make(value, False)``.  A timed-out batch gives each of its items
    ``timed_out()`` (None for a sweep without a timeout).  A failed
    task -- an ``"err"`` item or a batch that raised -- does not abort
    the sweep: only then is the batch expanded item by item, and its
    failed items are quarantined and re-run in-process on ``oracle``
    with bounded exponential backoff.  They become degraded verdicts
    (``make(value, True)``, a ``worker.degraded`` event, ``runtime.*``
    counters).  An item the oracle cannot simulate raises
    ``failure(item, error)`` -- with the direct oracle path's error
    text, since the re-run goes through the same executor frames.
    """
    verdicts: List[Any] = []
    quarantined: List[int] = []
    for outcome, start, end in batch_spans(outcomes, len(items)):
        if outcome.ok:
            for index, (tag, value) in enumerate(outcome.value, start):
                if tag == "err":
                    quarantined.append(index)
                    verdicts.append(None)
                else:
                    verdicts.append(make(value, False))
        elif outcome.timed_out:
            verdicts.extend(timed_out() for _ in range(start, end))
        else:
            quarantined.extend(range(start, end))
            verdicts.extend([None] * (end - start))
    if quarantined:
        reg = get_registry()
        reg.counter("runtime.degradations_total").inc()
        reg.counter("runtime.quarantined_tasks_total").inc(len(quarantined))
        for i in quarantined:
            emit_event(
                "worker.degraded", **describe(items[i]),
                action="oracle-rerun",
            )
            verdicts[i] = make(
                _rerun_on_oracle(oracle, shared, items[i], failure), True
            )
    return verdicts


def _rerun_on_oracle(
    oracle: Callable[..., Any],
    shared: Any,
    item: Any,
    failure: Callable[[Any, Optional[str]], Exception],
) -> Any:
    delay = DEGRADE_BACKOFF
    error: Optional[str] = None
    for attempt in range(DEGRADE_ATTEMPTS):
        if attempt:
            time.sleep(delay)
            delay *= 2
            get_registry().counter("runtime.degrade_retries_total").inc()
        outcome = run_task_inline(oracle, shared, item)
        if outcome.ok:
            return outcome.value
        error = outcome.error
    raise failure(item, error)


class Campaign:
    """Identity, population, first-write-wins verdict slots and an
    optional journal, over one fault-domain ``kind``.

    A kind provides ``name`` (``"fsm"``/``"dlx"``/``"stuck-at"``),
    ``total`` (the population size) and:

    * ``sweep(indices, **options)`` -- one verdict object per index
      (verdicts carry ``detected`` and ``degraded``);
    * ``record(index, verdict)`` -- the verdict's journal record, and
      ``parse(record)`` -- ``(index, verdict)`` from a journal or
      worker record, or None for a malformed one (only for kinds that
      are journaled; their verdicts also carry ``timed_out``);
    * ``result(slots)`` and ``fold(slots, result)`` -- the campaign
      result and its metrics fold into the installed registry;
    * ``started()`` -- the ``campaign.started`` payload, ``title()``
      -- the campaign's name field, which leads the
      ``campaign.finished`` payload, and ``describe(index, verdict)``
      -- the ``fault.verdict`` payload, which leaves out the
      environment-dependent ``degraded`` flag (degradation travels via
      ``worker.degraded`` events).
    """

    def __init__(
        self,
        kind: Any,
        identity: Optional[Dict[str, Any]] = None,
        journal: Any = None,
    ) -> None:
        self.kind = kind
        self.identity = identity
        self.journal = journal
        self.slots: List[Any] = [None] * kind.total
        self._flushed = 0

    @property
    def total(self) -> int:
        return len(self.slots)

    def pending(self) -> List[int]:
        """The indices whose slot is still empty, ascending."""
        return [i for i, verdict in enumerate(self.slots) if verdict is None]

    def start(self) -> None:
        emit_event("campaign.started", **self.kind.started())

    def fill(self, index: int, verdict: Any) -> bool:
        """Fill one slot (journaling it); False when it was already
        filled -- the first write wins."""
        if self.slots[index] is not None:
            return False
        self.slots[index] = verdict
        if self.journal is not None:
            self.journal.append(self.kind.record(index, verdict))
        return True

    def replay(self, records: Sequence[Any]) -> int:
        """Fill slots from journal records already on disk; returns the
        number of provisional records skipped.

        A timed-out verdict is provisional: a wall-clock timeout says
        more about the host the run died on than about the fault, so
        the slot stays empty and the fault is simulated again.
        """
        provisional = 0
        for record in records:
            parsed = self.kind.parse(record)
            if parsed is None:
                continue
            index, verdict = parsed
            if verdict.timed_out:
                provisional += 1
            elif self.slots[index] is None:
                self.slots[index] = verdict
        return provisional

    def absorb(self, records: Sequence[Any]) -> int:
        """Fill slots from untrusted records (a worker's shard result):
        malformed records are dropped, filled slots keep their first
        verdict, new ones are journaled and synced.  Returns how many
        slots were filled."""
        if not isinstance(records, (list, tuple)):
            return 0
        absorbed = 0
        for record in records:
            parsed = self.kind.parse(record)
            if parsed is not None and self.fill(*parsed):
                absorbed += 1
        if absorbed and self.journal is not None:
            self.journal.sync()
        return absorbed

    def sweep(self, indices: Sequence[int], **options: Any) -> None:
        """Simulate ``indices`` through the kind's sweep and fill (and
        journal, then sync) their slots."""
        verdicts = self.kind.sweep(list(indices), **options)
        for index, verdict in zip(indices, verdicts):
            self.fill(index, verdict)
        if self.journal is not None:
            self.journal.sync()

    def run(self, **options: Any) -> Any:
        """Run the whole campaign in memory -- one sweep -- and finish
        it."""
        self.start()
        self.sweep(self.pending(), **options)
        return self.finish()

    def flush(self) -> None:
        """Emit ``fault.verdict`` for the filled prefix not yet emitted,
        in fault-index order."""
        start = end = self._flushed
        while end < len(self.slots) and self.slots[end] is not None:
            end += 1
        self._flushed = end
        bus = get_bus()
        if bus.enabled:
            for index in range(start, end):
                bus.emit(
                    "fault.verdict",
                    **self.kind.describe(index, self.slots[index]),
                )

    def finish(
        self,
        metrics: str = "live",
        publish: Optional[Callable[[Any, Optional[Dict]], None]] = None,
    ) -> Any:
        """Flush the remaining verdicts, assemble the result, fold its
        metrics and emit ``campaign.finished``; returns the result.

        ``metrics`` picks the fold: ``"live"`` folds into the installed
        registry (a no-op without a live one); ``"scoped"`` folds once
        into a fresh registry, whose deterministic dump goes to
        ``publish``, and copies it into the installed one; ``"detached"``
        is ``"scoped"`` with the bus muted and nothing copied -- the
        fold of a campaign this process serves for someone else.
        ``publish(result, dump)`` runs before ``campaign.finished``.
        """
        self.flush()
        assert self._flushed == self.total, "unfilled verdict slots"
        result = self.kind.result(self.slots)
        dump = None
        if metrics == "live":
            self.kind.fold(self.slots, result)
        else:
            muted = (
                scoped_bus(NULL_BUS) if metrics == "detached"
                else nullcontext()
            )
            with scoped_registry() as registry, muted:
                self.kind.fold(self.slots, result)
            dump = registry.deterministic_dump()
            if metrics == "scoped":
                get_registry().merge(registry)
        if publish is not None:
            publish(result, dump)
        emit_event(
            "campaign.finished", **self.kind.title(),
            detected=len(result.detected), escaped=len(result.escaped),
            coverage=round(result.coverage, 6),
        )
        return result

