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
specification) or :class:`repro.validation.harness.DlxKind` (the DLX
bug catalog).  Drivers only fill slots: the in-memory drivers from the
memo cache and one sweep, the journaled runners of
:mod:`repro.runtime.runner` from the journal replay and fsynced
slices, the service coordinator from leased shards.

Only the core emits ``campaign.started``, ``fault.verdict`` and
``campaign.finished``.  Each slot's ``fault.verdict`` is emitted
exactly once, in fault-index order, for the filled prefix whenever the
driver flushes, so every driver -- cache hits, resumed journals and
shard fleets included -- projects to the event stream of an
uninterrupted ``--jobs 1`` run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from .obs import get_registry, scoped_registry
from .obs.events import NULL_BUS, emit_event, get_bus, scoped_bus
from .parallel import CampaignCache, run_task_inline

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
    is not an object or its index is out of range."""
    if not isinstance(record, dict):
        return None
    index = record.get("i")
    if isinstance(index, int) and 0 <= index < total:
        return index
    return None


def settle(
    outcomes: Sequence[Any],
    items: Sequence[Any],
    *,
    batched: bool,
    make: Callable[[Any, bool], Any],
    timed_out: Callable[[], Any],
    oracle: Callable[..., Any],
    shared: Any,
    describe: Callable[[Any], Dict[str, Any]],
    failure: Callable[[Any, Optional[str]], Exception],
) -> List[Any]:
    """One verdict per item, in submission order, from executor outcomes.

    ``batched`` outcomes carry one ``("ok", value)``/``("err", message)``
    per item.  A value becomes ``make(value, False)``, a timeout
    ``timed_out()``.  A failed task does not abort the sweep: its items
    are quarantined and re-run in-process on ``oracle`` with bounded
    exponential backoff, and become degraded verdicts
    (``make(value, True)``, a ``worker.degraded`` event, ``runtime.*``
    counters).  An item the oracle cannot simulate raises
    ``failure(item, error)`` -- with the direct oracle path's error
    text, since the re-run goes through the same executor frames.
    """
    verdicts: List[Any] = [None] * len(items)
    quarantined: List[int] = []
    for i, outcome in enumerate(outcomes):
        error, value = outcome.error, outcome.value
        if error is None and not outcome.timed_out and batched:
            tag, payload = value
            if tag == "err":
                error = payload
            else:
                value = payload
        if error is not None:
            quarantined.append(i)
        elif outcome.timed_out:
            verdicts[i] = timed_out()
        else:
            verdicts[i] = make(value, False)
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

    A kind provides ``name`` (``"fsm"``/``"dlx"``), ``total`` (the
    population size) and:

    * ``sweep(indices, **options)`` -- one verdict object per index
      (verdicts carry ``detected``/``timed_out``/``degraded``);
    * ``record(index, verdict)`` -- the verdict's journal record, and
      ``parse(record)`` -- ``(index, verdict)`` from a journal or
      worker record, or None for a malformed one;
    * ``cache_keys()`` -- one memo-cache key per index;
    * ``result(slots)`` and ``fold(slots, result)`` -- the campaign
      result and its metrics fold into the installed registry;
    * ``started()`` -- the ``campaign.started`` payload, ``title()``
      -- the campaign's name field, and ``describe(index)`` -- the
      fault's, which lead the ``campaign.finished`` and
      ``fault.verdict`` payloads.
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

    def run(self, cache: Optional[CampaignCache] = None, **options: Any) -> Any:
        """Run the whole campaign in memory and finish it: memo-cache
        hits first, one sweep for the rest.  New verdicts are memoized,
        except timeouts -- those are environment facts, not properties
        of the fault."""
        self.start()
        keys: List[Any] = []
        if cache is not None:
            keys = self.kind.cache_keys()
            for index, key in enumerate(keys):
                hit = cache.lookup(key)
                if hit is not CampaignCache.MISSING:
                    self.slots[index] = hit
        pending = self.pending()
        if pending:
            self.sweep(pending, **options)
        if cache is not None:
            for index in pending:
                verdict = self.slots[index]
                if not verdict.timed_out:
                    cache.store(keys[index], replace(verdict, degraded=False))
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
            # The environment-dependent `degraded` flag stays out of the
            # payload; degradation travels via worker.degraded events.
            for index in range(start, end):
                verdict = self.slots[index]
                bus.emit(
                    "fault.verdict", **self.kind.describe(index),
                    detected=verdict.detected, timed_out=verdict.timed_out,
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

