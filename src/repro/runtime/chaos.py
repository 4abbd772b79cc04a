"""Deterministic chaos injection for the parallel executor.

The crash-tolerance claims of this package are only as good as the
failures they were tested against, so the test suite does not wait
for real worker crashes -- it manufactures them.  A :class:`ChaosPlan`
assigns each task a failure mode (or none) by hashing a stable task
key under a seed, which makes every chaos run reproducible: the same
seed kills the same workers at the same tasks.

Failure modes, applied *inside worker processes only*:

``crash``
    ``SIGKILL`` the worker mid-task -- the hard variant the executor's
    pool fallback and the journal's torn-tail handling must survive.
``hang``
    Sleep past the per-task timeout before doing the work, exercising
    the wall-clock watchdog (and the journal's provisional-timeout
    re-run on resume).
``error``
    Raise :class:`ChaosError` from the task body, exercising retries
    and the quarantine/degradation path.
``corrupt``
    Return an unpicklable object, poisoning the result channel the
    way a half-written shared-memory page would.

Injection happens through the executor's task-wrapper hook
(:func:`repro.parallel.install_task_wrapper`); production code paths
contain no chaos logic at all.  Three guards keep chaos runs useful:

* The parent process never fires (``os.getpid()`` check), so the
  campaign driver itself -- and the in-process fallback/serial paths,
  which are the recovery mechanisms under test -- stay healthy.
* Each (seed, task-key) fires at most once per process, so a retried
  or re-dispatched task eventually succeeds and campaigns terminate.
* The mode decision depends only on (seed, task-key), never on
  worker identity or timing.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Set, Tuple

from ..parallel import install_task_wrapper

#: Failure modes in cumulative-probability order (stable: the spec
#: string "crash=0.1,error=0.1" always carves [0,0.1) for crash and
#: [0.1,0.2) for error out of the task hash's unit interval).
MODES = ("crash", "hang", "error", "corrupt")


class ChaosError(RuntimeError):
    """The injected task exception (mode ``error``)."""


class _Unpicklable:
    """A return value that cannot cross the process boundary."""

    def __reduce__(self) -> Any:  # pragma: no cover - exercised in workers
        raise TypeError("chaos: deliberately unpicklable result")


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded failure rates, each in [0, 1]; rates sum to <= 1."""

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    error: float = 0.0
    corrupt: float = 0.0
    #: How long a hung task sleeps; keep it above the campaign's
    #: --timeout so the hang actually trips the watchdog.
    hang_seconds: float = 30.0
    #: The orchestrating process; chaos never fires there.
    parent_pid: int = field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        rates = [getattr(self, mode) for mode in MODES]
        if any(r < 0 or r > 1 for r in rates) or sum(rates) > 1:
            raise ValueError(
                f"chaos rates must lie in [0, 1] and sum to <= 1: "
                f"{dict(zip(MODES, rates))}"
            )

    def mode_for(self, key: str) -> Optional[str]:
        """The failure mode for a task key, or None (clean task)."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}".encode("utf-8", "backslashreplace")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        cumulative = 0.0
        for mode in MODES:
            cumulative += getattr(self, mode)
            if fraction < cumulative:
                return mode
        return None


def parse_plan(spec: str) -> ChaosPlan:
    """A :class:`ChaosPlan` from a ``--chaos`` spec string.

    Comma-separated ``key=value`` pairs, e.g.
    ``"seed=7,crash=0.1,hang=0.05,hang_seconds=2"``.  Unknown keys and
    malformed values raise ``ValueError`` with the offending part.
    """
    return ChaosPlan(**_spec_fields(spec, ("hang_seconds", *MODES), "chaos"))


def _spec_fields(spec: str, keys: Tuple[str, ...], label: str) -> dict:
    """The ``key=value`` pairs of a chaos spec: an int ``seed`` plus
    float ``keys``; anything else raises ``ValueError``."""
    fields: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in ("seed", *keys):
            raise ValueError(f"bad {label} spec part {part!r}")
        try:
            fields[key] = int(value) if key == "seed" else float(value)
        except ValueError:
            raise ValueError(
                f"bad {label} spec part {part!r}: not a number"
            ) from None
    return fields


#: (seed, task-key) pairs that already fired in this process.
_FIRED: Set[Tuple[int, str]] = set()


class ChaoticTask:
    """A picklable task wrapper that injects the planned failure.

    Wraps the executor's task callable -- ``fn(shared, item)`` or the
    no-shared ``fn(item)`` form; the task key is ``repr(item)``, which
    is stable across processes and identical for a task and its
    retries/re-dispatches.
    """

    def __init__(self, fn: Callable, plan: ChaosPlan) -> None:
        self.fn = fn
        self.plan = plan

    def __call__(self, *args: Any) -> Any:
        plan = self.plan
        if os.getpid() != plan.parent_pid:
            key = repr(args[-1])
            mode = plan.mode_for(key)
            fired = (plan.seed, key)
            if mode is not None and fired not in _FIRED:
                _FIRED.add(fired)
                if mode == "crash":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif mode == "hang":
                    time.sleep(plan.hang_seconds)
                elif mode == "error":
                    raise ChaosError(
                        f"chaos: injected task failure (seed="
                        f"{plan.seed})"
                    )
                elif mode == "corrupt":
                    return _Unpicklable()
        return self.fn(*args)


# --------------------------------------------------------------------
# Service-layer chaos: shard workers that die or go silent mid-shard
# --------------------------------------------------------------------


@dataclass(frozen=True)
class ShardChaosPlan:
    """Deterministic failure injection for campaign-service workers.

    Where :class:`ChaosPlan` harasses individual executor tasks inside
    one process tree, this plan harasses whole *shard workers* talking
    to a coordinator over HTTP -- the failure domain the lease
    protocol exists for:

    ``kill``
        ``SIGKILL`` the worker right after it leased the shard: the
        lease goes unheartbeaten, expires, and the coordinator must
        reassign the shard to a survivor.
    ``hang``
        Go silent (stop heartbeating, sleep ``hang_seconds``) after
        simulating the shard, then report late -- the zombie-worker
        case: by then the lease has expired and been reassigned, and
        the late verdicts must be deduplicated, never double-counted.

    The mode depends only on ``(seed, campaign, shard)`` and fires
    only on a shard's *first* lease (``attempt == 0``), so every
    chaos-harassed service run terminates: the reassignment of a
    killed or abandoned shard is always clean.
    """

    seed: int = 0
    kill: float = 0.0
    hang: float = 0.0
    #: How long a hanging worker stays silent; keep it above the
    #: coordinator's lease so the lease actually expires.
    hang_seconds: float = 2.0

    def __post_init__(self) -> None:
        rates = (self.kill, self.hang)
        if any(r < 0 or r > 1 for r in rates) or sum(rates) > 1:
            raise ValueError(
                f"shard chaos rates must lie in [0, 1] and sum to <= 1: "
                f"kill={self.kill}, hang={self.hang}"
            )

    def mode_for(
        self, campaign: str, shard: int, attempt: int
    ) -> Optional[str]:
        """``"kill"``, ``"hang"`` or None for one shard lease."""
        if attempt:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{campaign}:{shard}".encode(
                "utf-8", "backslashreplace"
            )
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        if fraction < self.kill:
            return "kill"
        if fraction < self.kill + self.hang:
            return "hang"
        return None


def parse_shard_plan(spec: str) -> ShardChaosPlan:
    """A :class:`ShardChaosPlan` from a ``--chaos`` spec string, e.g.
    ``"seed=3,kill=1.0"`` or ``"hang=0.5,hang_seconds=1"``."""
    return ShardChaosPlan(
        **_spec_fields(spec, ("kill", "hang", "hang_seconds"), "shard chaos")
    )


@contextmanager
def chaos_scope(plan: Optional[ChaosPlan]) -> Iterator[None]:
    """Route every ``parallel_map`` task through ``plan`` while the
    block runs (no-op for ``plan=None``)."""
    if plan is None:
        yield
        return
    previous = install_task_wrapper(
        lambda fn: ChaoticTask(fn, plan)
    )
    try:
        yield
    finally:
        install_task_wrapper(previous)
