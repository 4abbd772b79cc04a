"""Worker-pool task execution with deterministic result ordering.

The engine runs ``fn`` over a list of items, optionally fanning the
work out to worker processes.  Three properties make it suitable for
campaign duty:

* **Determinism** -- outcomes are returned in submission order, one
  :class:`TaskOutcome` per item, no matter how many workers ran them or
  in which order chunks completed.  A campaign assembled from the
  outcome list is therefore byte-identical at any ``jobs`` setting.
* **Robustness** -- each task gets a wall-clock ``timeout`` (enforced
  with ``SIGALRM`` where available, i.e. the main thread of a POSIX
  process -- which both the serial path and pool workers are; a
  thread-based watchdog covers non-main-thread and non-POSIX callers)
  and up to ``retries`` re-runs on unexpected exceptions.  One
  livelocked mutant times out instead of hanging the whole sweep.
* **Graceful degradation** -- if the payload cannot be pickled or the
  pool breaks (a worker dies, fork is unavailable), the affected chunks
  are transparently re-run in-process; the result is the same, just
  slower.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import SECONDS_BUCKETS, get_registry, span
from ..obs.events import get_bus


class TaskTimeout(Exception):
    """A task exceeded its per-task wall-clock budget."""


@dataclass(frozen=True)
class TaskOutcome:
    """The outcome of one task, tagged with its submission index (for
    :func:`parallel_map_batched`, the index of the batch's first item).

    Exactly one of the following holds: ``ok`` (``value`` is valid),
    ``timed_out`` (the task hit the wall-clock limit), or ``error``
    is a non-None string holding the task's formatted traceback text
    (ending in the usual ``"ExcType: message"`` line -- the task
    raised and exhausted its retries).  ``elapsed`` is the task's
    wall-clock time
    (summed over attempts) and ``worker`` the pid of the process that
    ran it -- telemetry that rides back across the process boundary.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    timed_out: bool = False
    attempts: int = 1
    elapsed: float = 0.0
    worker: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def batch_unit(n_items: int, jobs: int, width: int) -> int:
    """Batch size for a sweep of ``n_items`` whose batches hold at most
    ``width`` items.  The campaign sweeps pass the netlist kernel's
    ``DEFAULT_LANES - 1`` mutant lanes, so one stuck-at batch fills
    one simulation word.

    Serially (``jobs <= 1``) the full width is the right unit: every
    pass is packed.  Under process fan-out a single full-width batch
    could starve all but one worker, so the batch shrinks until every
    worker gets ~4 batches (the same heuristic as
    :func:`parallel_map`'s chunking) -- but never below 1 and never
    above ``width``, so no batch overflows a simulation word.
    """
    width = max(1, int(width))
    jobs = max(1, int(jobs))
    if jobs <= 1 or n_items <= 0:
        return width
    per_worker = math.ceil(n_items / (jobs * 4))
    return max(1, min(width, per_worker))


def default_jobs() -> int:
    """Worker count matching the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _alarm_usable() -> bool:
    """Wall-clock interruption needs SIGALRM and the main thread."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _call_bounded(
    fn: Callable[..., Any], args: Tuple[Any, ...], timeout: Optional[float]
) -> Any:
    """Call ``fn(*args)``, raising :class:`TaskTimeout` after ``timeout``
    wall-clock seconds.

    ``SIGALRM`` preempts the task where it can (main thread of a POSIX
    process -- the serial path and pool workers); everywhere else a
    watchdog thread supplies the same timeout semantics.
    """
    if timeout is None:
        return fn(*args)
    if not _alarm_usable():
        return _call_watchdog(fn, args, timeout)

    def _on_alarm(_signum: int, _frame: Any) -> None:
        raise TaskTimeout(f"task exceeded {timeout:g}s wall clock")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _call_watchdog(
    fn: Callable[..., Any], args: Tuple[Any, ...], timeout: float
) -> Any:
    """Timeout fallback for callers SIGALRM cannot serve.

    Runs the task in a daemon thread and joins with ``timeout``.  A
    task that overruns is *abandoned*, not interrupted -- the daemon
    thread keeps burning its CPU until it finishes or the process
    exits -- but the caller gets the same :class:`TaskTimeout` at the
    same wall-clock moment as the SIGALRM path, which is what the
    per-task timeout contract promises.
    """
    box: Dict[str, Any] = {}

    def _target() -> None:
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["exc"] = exc

    worker = threading.Thread(
        target=_target, name="repro-task-watchdog", daemon=True
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise TaskTimeout(f"task exceeded {timeout:g}s wall clock")
    if "exc" in box:
        raise box["exc"]
    return box["value"]


# A chunk record travelling back from a worker:
# (index, value, error, timed_out, attempts, elapsed, worker_pid).
_Record = Tuple[int, Any, Optional[str], bool, int, float, int]


def _run_one(
    fn: Callable[..., Any],
    shared: Any,
    index: int,
    item: Any,
    timeout: Optional[float],
    retries: int,
) -> _Record:
    args = (item,) if shared is None else (shared, item)
    attempts = 0
    pid = os.getpid()
    started = time.perf_counter()
    while True:
        attempts += 1
        try:
            value = _call_bounded(fn, args, timeout)
            return (index, value, None, False, attempts,
                    time.perf_counter() - started, pid)
        except TaskTimeout:
            # A livelocked task will time out again; never retry it.
            return (index, None, None, True, attempts,
                    time.perf_counter() - started, pid)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            if attempts > retries:
                return (
                    index,
                    None,
                    "".join(
                        traceback.format_exception(
                            type(exc), exc, exc.__traceback__
                        )
                    ),
                    False,
                    attempts,
                    time.perf_counter() - started,
                    pid,
                )


def _run_chunk(
    fn: Callable[..., Any],
    shared: Any,
    pairs: Sequence[Tuple[int, Any]],
    timeout: Optional[float],
    retries: int,
) -> List[_Record]:
    """Worker entry point: run one chunk of (index, item) pairs."""
    return [
        _run_one(fn, shared, index, item, timeout, retries)
        for index, item in pairs
    ]


# Hook point for repro.runtime.chaos: when installed, every fn handed
# to parallel_map is passed through the wrapper before dispatch (and
# therefore before picklability is probed), letting the chaos harness
# deterministically inject worker crashes, hangs, exceptions and
# corrupted pickles without the engine knowing it is under test.
_TASK_WRAPPER: Optional[Callable[[Callable[..., Any]], Callable[..., Any]]] = None


def install_task_wrapper(
    wrapper: Optional[Callable[[Callable[..., Any]], Callable[..., Any]]],
) -> Optional[Callable[[Callable[..., Any]], Callable[..., Any]]]:
    """Install (or clear, with None) the task wrapper; returns the
    previously installed one so scopes can restore it."""
    global _TASK_WRAPPER
    previous = _TASK_WRAPPER
    _TASK_WRAPPER = wrapper
    return previous


def run_task_inline(
    fn: Callable[..., Any], shared: Any, item: Any
) -> TaskOutcome:
    """Run one task in-process through the engine's task machinery.

    Degradation re-runs (quarantined faults replayed on the
    interpreter oracle) use this instead of calling ``fn`` directly so
    an error produces byte-for-byte the same traceback text as the
    pool path -- the differential tests compare campaign error
    messages across kernels and worker counts.
    """
    return TaskOutcome(*_run_one(fn, shared, 0, item, None, 0))


def _exit_with_parent() -> None:
    """Pool-worker initializer: end this worker once the process that
    created the pool is gone.

    A SIGKILLed campaign cannot shut its pool down, and a worker does
    not notice on its own: it inherited its siblings' pipe ends, so
    its task queue never reads EOF.  A daemon thread waits instead on
    the sentinel of :func:`multiprocessing.parent_process`, a pipe
    whose write end the creator holds, and exits the process once it
    reads EOF.  Under the fork start method the workers forked after
    this one hold that write end too; they exit the same way first.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


def _picklable(payload: Any) -> bool:
    try:
        pickle.dumps(payload)
        return True
    except Exception:  # noqa: BLE001 - any failure means "stay local"
        return False


def parallel_map(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    shared: Any = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> List[TaskOutcome]:
    """Run ``fn`` over ``items``; outcomes in submission order.

    ``fn`` is called as ``fn(item)``, or ``fn(shared, item)`` when
    ``shared`` is not None -- ``shared`` carries per-campaign context
    (the spec machine, the test set) that is shipped once per chunk
    instead of once per item.  With ``jobs <= 1`` everything runs
    in-process; otherwise chunks are distributed over a process pool
    and any chunk the pool fails to deliver is re-run locally.  A
    failing task is re-run up to ``retries`` times, immediately.
    """
    work = list(items)
    if not work:
        return []
    if _TASK_WRAPPER is not None:
        fn = _TASK_WRAPPER(fn)
    jobs = max(1, int(jobs))
    bus = get_bus()
    if jobs == 1 or len(work) == 1 or not _picklable((fn, shared)):
        with span("parallel.map", items=len(work), jobs=1, mode="serial"):
            if bus.enabled:
                bus.emit(
                    "chunk.dispatched",
                    items=len(work), jobs=1, mode="serial",
                )
            outcomes = []
            for i, item in enumerate(work):
                outcomes.append(TaskOutcome(
                    *_run_one(fn, shared, i, item, timeout, retries)
                ))
                if bus.enabled:
                    bus.emit("chunk.completed", items=1, mode="serial")
        _record_pool_metrics(outcomes, jobs=1)
        return outcomes

    # Several chunks per worker so an unbalanced chunk cannot serialize
    # the sweep.
    chunk_size = max(1, math.ceil(len(work) / (jobs * 4)))
    pairs = list(enumerate(work))
    chunks = [
        pairs[lo:lo + chunk_size] for lo in range(0, len(pairs), chunk_size)
    ]

    records: Dict[int, _Record] = {}
    fallback = 0
    with span(
        "parallel.map",
        items=len(work),
        jobs=jobs,
        chunks=len(chunks),
        chunk_size=chunk_size,
        mode="pool",
    ):
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(chunks)),
                initializer=_exit_with_parent,
            ) as pool:
                futures = {}
                for chunk in chunks:
                    futures[pool.submit(
                        _run_chunk, fn, shared, chunk, timeout, retries,
                    )] = chunk
                    if bus.enabled:
                        bus.emit(
                            "chunk.dispatched",
                            items=len(chunk), jobs=jobs, mode="pool",
                        )
                for future in as_completed(futures):
                    delivered = True
                    try:
                        for record in future.result():
                            records[record[0]] = record
                    except Exception:  # noqa: BLE001 - re-run locally
                        delivered = False
                    if bus.enabled:
                        bus.emit(
                            "chunk.completed",
                            items=len(futures[future]), mode="pool",
                            ok=delivered,
                        )
        except Exception:  # noqa: BLE001 - pool itself failed; fall back
            pass

        # Whatever the pool did not deliver, compute locally
        # (deterministic fallback -- same fn, same items, same order).
        for index, item in pairs:
            if index not in records:
                fallback += 1
                records[index] = _run_one(fn, shared, index, item,
                                          timeout, retries)
        if fallback and bus.enabled:
            bus.emit("chunk.completed", items=fallback, mode="fallback")
    outcomes = [TaskOutcome(*records[index]) for index in range(len(work))]
    _record_pool_metrics(outcomes, jobs=jobs, fallback=fallback)
    return outcomes


def parallel_map_batched(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    shared: Any = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    batch_size: int,
) -> List[TaskOutcome]:
    """Run a *batched* ``fn`` over ``items``; one outcome per batch, in
    submission order.

    ``fn`` is called as ``fn(batch)`` (or ``fn(shared, batch)``) where
    ``batch`` is a tuple of up to ``batch_size`` consecutive items, and
    must return exactly one result per batch item; a batch that returns
    anything else raises :class:`ValueError`.  Batching amortizes
    per-task dispatch and lets word-parallel kernels simulate a whole
    batch in one pass.

    A batch's outcome stands for all of its items: its ``index`` is the
    position of the batch's first item in ``items`` (the batch runs up
    to the next outcome's ``index``, see :func:`batch_spans`), an ``ok``
    outcome's ``value`` holds the batch's results in item order, and a
    batch that raised or timed out failed for every item.  Callers
    expand a batch item by item only where they need to.

    The per-task ``timeout`` budget necessarily covers a whole batch:
    one slow item would both steal its batchmates' budget and mark all
    of them timed out.  Timeouts therefore force singleton batches,
    preserving ``parallel_map``'s per-item timeout semantics exactly.
    """
    work = list(items)
    if not work:
        return []
    if timeout is not None:
        batch_size = 1
    batch_size = max(1, int(batch_size))
    starts = range(0, len(work), batch_size)
    batches = [tuple(work[lo:lo + batch_size]) for lo in starts]
    outcomes = parallel_map(
        fn, batches, shared=shared, jobs=jobs, timeout=timeout,
        retries=retries,
    )
    for batch, outcome in zip(batches, outcomes):
        values = outcome.value
        if outcome.ok and (
            not isinstance(values, (list, tuple)) or len(values) != len(batch)
        ):
            raise ValueError(
                f"batched task returned "
                f"{len(values) if isinstance(values, (list, tuple)) else type(values).__name__} "
                f"results for a {len(batch)}-item batch"
            )
    return [
        replace(outcome, index=lo) for lo, outcome in zip(starts, outcomes)
    ]


def batch_spans(
    outcomes: Sequence[TaskOutcome], total: int
) -> List[Tuple[TaskOutcome, int, int]]:
    """``(outcome, start, end)`` for each batch outcome that
    :func:`parallel_map_batched` returned for ``total`` items: the batch
    holds items ``start`` up to, not including, ``end``."""
    ends = [outcome.index for outcome in outcomes[1:]]
    ends.append(total)
    return [
        (outcome, outcome.index, end)
        for outcome, end in zip(outcomes, ends)
    ]


def _record_pool_metrics(
    outcomes: Sequence[TaskOutcome], jobs: int, fallback: int = 0
) -> None:
    """Fold one map's outcomes into the registry (no-op when disabled).

    Worker pids are remapped to stable ``w0..wN`` labels in
    first-appearance order so dumps stay readable; everything here
    lives in the ``parallel.*`` namespace, which the deterministic
    dump excludes (task placement is scheduling-dependent).
    """
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter("parallel.maps_total").inc()
    reg.counter("parallel.tasks_total").inc(len(outcomes))
    reg.gauge("parallel.jobs").set(jobs)
    if fallback:
        reg.counter("parallel.fallback_tasks_total").inc(fallback)
    worker_labels: Dict[int, str] = {}
    task_seconds = reg.histogram(
        "parallel.task_seconds", buckets=SECONDS_BUCKETS
    )
    for outcome in outcomes:
        task_seconds.observe(outcome.elapsed)
        if outcome.timed_out:
            reg.counter("parallel.timeouts_total").inc()
        if outcome.error is not None:
            reg.counter("parallel.errors_total").inc()
        if outcome.attempts > 1:
            reg.counter("parallel.retries_total").inc(outcome.attempts - 1)
        label = worker_labels.setdefault(
            outcome.worker, f"w{len(worker_labels)}"
        )
        reg.counter("parallel.worker_tasks", worker=label).inc()
