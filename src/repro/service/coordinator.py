"""The campaign coordinator: leases, heartbeats, back-pressure, store.

The service's brain, deliberately transport-free: every public method
is a plain reentrant-locked state transition taking an explicit
``now`` (tests drive it with a fake clock; the HTTP layer passes real
time).  The design is the classic lease protocol made safe by the
repo's determinism contract:

**Sharding.**  A submitted spec resolves to a fault population; the
pending indices are carved into contiguous ``[lo, hi)`` shards.

**Leases.**  A worker asks for work and gets a shard under a
time-bounded lease.  Heartbeats extend the deadline; a missed
heartbeat expires the lease (``now >= deadline``) and the shard goes
back to pending with ``attempts + 1`` and a jittered-exponential
``not_before`` (:class:`~repro.parallel.backoff.BackoffPolicy`, so a
thundering herd of retries never forms).  Expiry-then-reassignment
gives *at-least-once* shard execution.

**Idempotent absorption.**  At-least-once is made safe by the
:class:`~repro.campaign.Campaign` core's verdict slots: each
fault-index slot is filled at most once, so a zombie worker (lease
long expired) reporting late is deduplicated slot-by-slot, never
double-counted.  Accepted records go straight to the campaign's spool
journal (the run-directory write-ahead journal, same record schema),
so a coordinator crash loses nothing that was acknowledged: on
resubmission the spool replays into the slots and only the missing
indices are re-sharded.

**Quarantine and bisect.**  A shard that keeps dying under fresh
leases is presumed poisoned.  After ``quarantine_after`` failed
attempts it is split in half -- log2 steps isolate a poisoned fault --
and a poisoned *singleton* falls back to the interpreter oracle
(``kernel="interp"``, records stamped degraded), mirroring the
executor's task-level quarantine.  ``max_attempts`` total failures
fail the campaign rather than spin forever.

**Back-pressure.**  Admission is bounded: more than ``queue_limit``
running campaigns raises :class:`BackPressure`, which the HTTP layer
maps to 429 + ``Retry-After``.

**Finalize.**  When every slot is filled the core finishes the
campaign exactly as the local resumable runner does: it emits every
``fault.verdict`` in fault-index order -- only now, so two concurrent
campaigns' verdict streams never interleave -- folds the metrics into
a scoped registry with the bus muted, and the coordinator publishes
report + metrics to the content-addressed
:class:`~repro.service.store.ResultStore` before ``campaign.finished``.
The deterministic projection is byte-identical to ``--jobs 1``.
Identical resubmissions are answered from the store with zero
simulations.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..campaign import Campaign
from ..obs.events import emit_event
from ..parallel.backoff import BackoffPolicy
from ..runtime.journal import Journal, RunDirError
from ..runtime.runner import prepare_run_dir, run_paths
from .protocol import ResolvedCampaign, resolve_campaign
from .store import ResultStore


class BackPressure(RuntimeError):
    """The submission queue is full; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class Shard:
    """One contiguous index range of one campaign's population."""

    shard_id: int
    lo: int
    hi: int
    attempts: int = 0
    state: str = "pending"  # "pending" | "leased"
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    not_before: float = 0.0
    fallback: bool = False

    @property
    def size(self) -> int:
        return self.hi - self.lo


class _Campaign:
    """Coordinator-internal per-campaign state: the lease schedule
    around one :class:`~repro.campaign.Campaign` core."""

    def __init__(
        self,
        key: str,
        resolved: ResolvedCampaign,
        spool_dir: Optional[str],
        journal: Optional[Journal],
    ) -> None:
        self.key = key
        self.resolved = resolved
        self.spool_dir = spool_dir
        self.core = Campaign(resolved.kind, resolved.identity, journal)
        self.shards: Dict[int, Shard] = {}
        self.state = "running"  # "running" | "done" | "failed"
        self.error: Optional[str] = None
        self.report: Optional[Dict[str, Any]] = None
        self.metrics: Optional[Dict[str, Any]] = None
        self.degraded = False
        self.from_store = False
        self.executed = 0  # verdicts absorbed from workers
        self.replayed = 0  # verdicts replayed from the spool journal
        self._next_shard_id = 0

    def next_shard_id(self) -> int:
        self._next_shard_id += 1
        return self._next_shard_id


class Coordinator:
    """Lease-based campaign coordinator over a result store.

    Thread-safe (one reentrant lock around all state); time is always
    an argument so the whole protocol is testable with a fake clock.
    """

    def __init__(
        self,
        root: str,
        *,
        shard_size: int = 64,
        lease_seconds: float = 10.0,
        queue_limit: int = 8,
        quarantine_after: int = 3,
        max_attempts: int = 12,
        backoff: Optional[BackoffPolicy] = None,
        clock: Optional[Any] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1: {shard_size}")
        if lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be > 0: {lease_seconds}"
            )
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1: {queue_limit}")
        if not 1 <= quarantine_after < max_attempts:
            raise ValueError(
                f"need 1 <= quarantine_after < max_attempts, got "
                f"{quarantine_after} / {max_attempts}"
            )
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.store = store or ResultStore(os.path.join(root, "store"))
        self.shard_size = int(shard_size)
        self.lease_seconds = float(lease_seconds)
        self.queue_limit = int(queue_limit)
        self.quarantine_after = int(quarantine_after)
        self.max_attempts = int(max_attempts)
        self.backoff = backoff or BackoffPolicy(
            base=min(0.25, self.lease_seconds / 4), max_delay=5.0
        )
        self._clock = clock or time.monotonic
        self._lock = threading.RLock()
        self._campaigns: Dict[str, _Campaign] = {}
        self._order: List[str] = []
        self._leases: Dict[str, Tuple[str, int]] = {}
        self._lease_seq = 0
        self.stats: Dict[str, int] = {
            "submissions": 0,
            "store_hits": 0,
            "rejected": 0,
            "admitted": 0,
            "leases": 0,
            "heartbeats": 0,
            "expired": 0,
            "absorbed": 0,
            "deduplicated": 0,
            "shards_completed": 0,
            "shards_bisected": 0,
            "shards_quarantined": 0,
            "worker_errors": 0,
            "completed": 0,
            "failed": 0,
        }

    # -- plumbing ----------------------------------------------------

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else float(now)

    def _spool_dir(self, key: str) -> str:
        return os.path.join(self.root, "spool", key)

    def close(self) -> None:
        """Close every open spool journal (shutdown path)."""
        with self._lock:
            for campaign in self._campaigns.values():
                _close_journal(campaign)

    # -- submission --------------------------------------------------

    def submit(
        self, spec: Any, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Admit (or recognize) a campaign; its summary view.

        Raises :class:`~repro.service.protocol.SpecError` for a bad
        spec and :class:`BackPressure` when the queue is full.
        Submission is idempotent: a spec resolving to an identity
        already running returns that campaign; one already stored is
        answered from the store with zero simulations.
        """
        resolved = resolve_campaign(spec)
        key = self.store.key(resolved.identity)
        now = self._now(now)
        with self._lock:
            self.stats["submissions"] += 1
            campaign = self._campaigns.get(key)
            if campaign is not None:
                return self._summary(campaign)
            hit = self.store.get(key, identity=resolved.identity)
            if hit is not None:
                campaign = _Campaign(key, resolved, None, None)
                campaign.state = "done"
                campaign.from_store = True
                campaign.report = hit["report"]
                campaign.metrics = hit["metrics"]
                self._campaigns[key] = campaign
                self._order.append(key)
                self.stats["store_hits"] += 1
                emit_event(
                    "service.store.hit", campaign=key,
                    kind=resolved.kind.name,
                )
                return self._summary(campaign)
            active = sum(
                1 for c in self._campaigns.values()
                if c.state == "running"
            )
            if active >= self.queue_limit:
                self.stats["rejected"] += 1
                retry_after = round(max(1.0, self.lease_seconds), 3)
                emit_event(
                    "service.backpressure", campaign=key,
                    active=active, queue_limit=self.queue_limit,
                )
                raise BackPressure(
                    f"submission queue full ({active}/"
                    f"{self.queue_limit} campaigns running)",
                    retry_after=retry_after,
                )
            campaign = self._admit(key, resolved, now)
            return self._summary(campaign)

    def _admit(
        self, key: str, resolved: ResolvedCampaign, now: float
    ) -> _Campaign:
        paths = run_paths(self._spool_dir(key))
        settings = {
            "shard_size": self.shard_size,
            "lease_seconds": self.lease_seconds,
        }
        resume = os.path.exists(paths.manifest)
        try:
            replay = prepare_run_dir(
                paths, resolved.identity, settings, resume
            )
        except RunDirError:
            # A foreign or corrupt spool under our key: identity is
            # gone, so the only safe resume is from scratch.
            resume = False
        if not resume:
            shutil.rmtree(paths.run_dir, ignore_errors=True)
            replay = prepare_run_dir(
                paths, resolved.identity, settings, False
            )
        campaign = _Campaign(
            key, resolved, paths.run_dir, Journal(paths.journal)
        )
        # Timed-out verdicts stay provisional across coordinator
        # restarts, exactly as in the local runner's resume.
        campaign.core.replay(replay.records)
        campaign.replayed = resolved.total - len(campaign.core.pending())
        self._campaigns[key] = campaign
        self._order.append(key)
        self.stats["admitted"] += 1
        campaign.core.start()
        emit_event(
            "service.campaign.admitted",
            campaign=key,
            kind=resolved.kind.name,
            total=resolved.total,
            replayed=campaign.replayed,
        )
        pending = campaign.core.pending()
        for lo, hi in _carve(pending, self.shard_size):
            shard_id = campaign.next_shard_id()
            campaign.shards[shard_id] = Shard(
                shard_id=shard_id, lo=lo, hi=hi
            )
        if not campaign.shards:
            self._finalize(campaign)
        return campaign

    # -- the lease protocol ------------------------------------------

    def lease(
        self, worker: str, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Hand the oldest available shard to ``worker`` under a
        time-bounded lease, or say when to ask again."""
        now = self._now(now)
        with self._lock:
            self._expire(now)
            best_wait: Optional[float] = None
            for key in self._order:
                campaign = self._campaigns[key]
                if campaign.state != "running":
                    continue
                for shard_id in sorted(campaign.shards):
                    shard = campaign.shards[shard_id]
                    if shard.state != "pending":
                        continue
                    if shard.not_before > now:
                        wait = shard.not_before - now
                        if best_wait is None or wait < best_wait:
                            best_wait = wait
                        continue
                    return self._grant(campaign, shard, worker, now)
            if best_wait is None:
                best_wait = min(1.0, self.lease_seconds / 2)
            # Round *up* to the millisecond: a client sleeping exactly
            # retry_after must land at-or-past the earliest not_before.
            return {
                "lease": None,
                "retry_after": math.ceil(best_wait * 1000.0) / 1000.0,
            }

    def _grant(
        self,
        campaign: _Campaign,
        shard: Shard,
        worker: str,
        now: float,
    ) -> Dict[str, Any]:
        self._lease_seq += 1
        lease_id = f"L{self._lease_seq}"
        shard.state = "leased"
        shard.lease_id = lease_id
        shard.worker = worker
        shard.deadline = now + self.lease_seconds
        self._leases[lease_id] = (campaign.key, shard.shard_id)
        self.stats["leases"] += 1
        emit_event(
            "service.shard.leased",
            campaign=campaign.key,
            shard=shard.shard_id,
            attempt=shard.attempts,
            worker=worker,
            fallback=shard.fallback,
        )
        return {
            "lease": lease_id,
            "campaign": campaign.key,
            "shard": shard.shard_id,
            "lo": shard.lo,
            "hi": shard.hi,
            "attempt": shard.attempts,
            "lease_seconds": self.lease_seconds,
            "spec": dict(campaign.resolved.spec),
            "kernel": (
                "interp" if shard.fallback
                else campaign.resolved.spec["kernel"]
            ),
            "fallback": shard.fallback,
        }

    def heartbeat(
        self, lease_id: Any, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Extend a live lease.  Expiry wins ties: a heartbeat landing
        exactly at the deadline finds the lease already gone."""
        now = self._now(now)
        with self._lock:
            self._expire(now)
            self.stats["heartbeats"] += 1
            located = self._leases.get(lease_id)
            if located is None:
                return {
                    "ok": False,
                    "reason": "unknown or expired lease",
                }
            key, shard_id = located
            shard = self._campaigns[key].shards.get(shard_id)
            if shard is None or shard.lease_id != lease_id:
                self._leases.pop(lease_id, None)
                return {
                    "ok": False,
                    "reason": "unknown or expired lease",
                }
            shard.deadline = now + self.lease_seconds
            return {"ok": True, "lease_seconds": self.lease_seconds}

    def _expire(self, now: float) -> None:
        for key in list(self._order):
            campaign = self._campaigns[key]
            if campaign.state != "running":
                continue
            for shard in list(campaign.shards.values()):
                if shard.state != "leased" or now < shard.deadline:
                    continue
                self._release(
                    campaign, shard, now, "expired",
                    "service.lease.expired", worker=shard.worker,
                )

    def _release(
        self,
        campaign: _Campaign,
        shard: Shard,
        now: float,
        stat: str,
        event: str,
        **payload: Any,
    ) -> None:
        """A lease ended without a result: the shard goes back to
        pending with one more attempt, under the retry policy."""
        self._leases.pop(shard.lease_id, None)
        shard.state = "pending"
        shard.lease_id = None
        shard.worker = None
        shard.attempts += 1
        self.stats[stat] += 1
        emit_event(
            event,
            campaign=campaign.key,
            shard=shard.shard_id,
            attempt=shard.attempts,
            **payload,
        )
        self._retry(campaign, shard, now)

    def _retry(
        self, campaign: _Campaign, shard: Shard, now: float
    ) -> None:
        """Post-failure policy: back off, bisect, fall back, or fail."""
        if shard.attempts >= self.max_attempts:
            self._fail(
                campaign,
                f"shard {shard.shard_id} [{shard.lo},{shard.hi}) "
                f"failed {shard.attempts} attempts",
            )
            return
        if shard.attempts >= self.quarantine_after and shard.size > 1:
            # Presumed poisoned: split in half.  The halves inherit
            # the attempt count, so a still-poisoned half re-bisects
            # after a single further failure -- log2(size) steps to
            # isolate one poisoned fault -- while the healthy half
            # simply completes.
            del campaign.shards[shard.shard_id]
            mid = (shard.lo + shard.hi) // 2
            children = []
            for lo, hi in ((shard.lo, mid), (mid, shard.hi)):
                child = Shard(
                    shard_id=campaign.next_shard_id(),
                    lo=lo,
                    hi=hi,
                    attempts=shard.attempts - 1,
                    not_before=now + self.backoff.delay(
                        shard.attempts,
                        key=f"{campaign.key}:{shard.shard_id}:{lo}",
                    ),
                )
                campaign.shards[child.shard_id] = child
                children.append(child.shard_id)
            self.stats["shards_bisected"] += 1
            emit_event(
                "service.shard.bisected",
                campaign=campaign.key,
                shard=shard.shard_id,
                children=children,
            )
            return
        if shard.attempts >= self.quarantine_after and not shard.fallback:
            # A poisoned singleton: re-run it on the interpreter
            # oracle and stamp the verdict degraded -- the service
            # analogue of the executor's task quarantine.
            shard.fallback = True
            self.stats["shards_quarantined"] += 1
            emit_event(
                "service.shard.quarantined",
                campaign=campaign.key,
                shard=shard.shard_id,
                index=shard.lo,
            )
        shard.not_before = now + self.backoff.delay(
            shard.attempts,
            key=f"{campaign.key}:{shard.shard_id}",
        )

    # -- shard results -----------------------------------------------

    def report_shard(
        self, payload: Any, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Absorb a worker's shard result (or failure report).

        Absorption is slot-idempotent: only still-empty fault indices
        accept records, so late zombie reports deduplicate cleanly --
        ``accepted`` is False when nothing new landed.
        """
        now = self._now(now)
        if not isinstance(payload, dict):
            return {"accepted": False, "reason": "malformed payload"}
        with self._lock:
            self._expire(now)
            campaign = self._campaigns.get(payload.get("campaign"))
            if campaign is None:
                return {
                    "accepted": False, "reason": "unknown campaign",
                }
            if campaign.state != "running":
                self.stats["deduplicated"] += 1
                return {
                    "accepted": False,
                    "reason": f"campaign already {campaign.state}",
                }
            shard = campaign.shards.get(payload.get("shard"))
            error = payload.get("error")
            if error is not None:
                if (
                    shard is not None
                    and shard.state == "leased"
                    and shard.lease_id == payload.get("lease")
                ):
                    self._release(
                        campaign, shard, now, "worker_errors",
                        "service.shard.failed", error=str(error)[:200],
                    )
                return {"accepted": False, "reason": "failure recorded"}
            absorbed = campaign.core.absorb(payload.get("records") or ())
            campaign.executed += absorbed
            self.stats["absorbed"] += absorbed
            self._sweep_completed(campaign)
            if absorbed == 0:
                self.stats["deduplicated"] += 1
            if not campaign.shards and not campaign.core.pending():
                self._finalize(campaign)
            return {
                "accepted": absorbed > 0,
                "absorbed": absorbed,
                "state": campaign.state,
            }

    def _sweep_completed(self, campaign: _Campaign) -> None:
        """Retire every shard whose whole range is filled -- however
        the records got there (its own lease, a zombie, a sibling)."""
        for shard in list(campaign.shards.values()):
            slots = campaign.core.slots[shard.lo:shard.hi]
            if not all(v is not None for v in slots):
                continue
            if shard.lease_id is not None:
                self._leases.pop(shard.lease_id, None)
            del campaign.shards[shard.shard_id]
            self.stats["shards_completed"] += 1
            emit_event(
                "service.shard.completed",
                campaign=campaign.key,
                shard=shard.shard_id,
            )

    # -- completion --------------------------------------------------

    def _fail(self, campaign: _Campaign, reason: str) -> None:
        campaign.state = "failed"
        campaign.error = reason
        for shard in campaign.shards.values():
            if shard.lease_id is not None:
                self._leases.pop(shard.lease_id, None)
        campaign.shards.clear()
        _close_journal(campaign)
        self.stats["failed"] += 1
        emit_event(
            "service.campaign.failed",
            campaign=campaign.key,
            reason=reason,
        )

    def _finalize(self, campaign: _Campaign) -> None:
        def publish(result: Any, metrics: Dict[str, Any]) -> None:
            campaign.report = result.to_json_dict()
            campaign.metrics = metrics
            self.store.put(
                campaign.key, campaign.resolved.identity,
                campaign.report, metrics,
            )

        # A "detached" fold: the metrics belong to the store entry, and
        # the telemetry replay's coverage.snapshot events stay off the
        # bus, so the projection matches a registry-less `--jobs 1` run.
        result = campaign.core.finish("detached", publish)
        campaign.degraded = result.degraded
        campaign.state = "done"
        _close_journal(campaign)
        if campaign.spool_dir is not None:
            # The result is published; the spool has nothing left to
            # protect.
            shutil.rmtree(campaign.spool_dir, ignore_errors=True)
        self.stats["completed"] += 1
        emit_event(
            "service.campaign.stored",
            campaign=campaign.key,
            executed=campaign.executed,
            replayed=campaign.replayed,
        )

    # -- introspection -----------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        """Advance time-driven transitions (the server's ticker calls
        this so leases expire even with no request traffic)."""
        with self._lock:
            self._expire(self._now(now))

    def _summary(self, campaign: _Campaign) -> Dict[str, Any]:
        done = campaign.state == "done"
        report = campaign.report if done else None
        return {
            "campaign": campaign.key,
            "kind": campaign.resolved.kind.name,
            "state": campaign.state,
            "total": campaign.resolved.total,
            "filled": (
                campaign.resolved.total if done
                else campaign.resolved.total - len(campaign.core.pending())
            ),
            "executed": campaign.executed,
            "replayed": campaign.replayed,
            "cached": campaign.from_store,
            "degraded": campaign.degraded,
            "error": campaign.error,
            "shards": len(campaign.shards),
            "coverage": (
                report.get("coverage") if report is not None else None
            ),
        }

    def campaign_view(
        self, key: Any, include_report: bool = True
    ) -> Optional[Dict[str, Any]]:
        """One campaign's full view (None for an unknown key)."""
        with self._lock:
            campaign = self._campaigns.get(key)
            if campaign is None:
                return None
            view = self._summary(campaign)
            if include_report and campaign.state == "done":
                view["report"] = campaign.report
            return view

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The service-wide ``/status`` document."""
        now = self._now(now)
        with self._lock:
            campaigns = [
                self._summary(self._campaigns[key])
                for key in self._order
            ]
            leased = {}
            for key, shard_id in self._leases.values():
                shard = self._campaigns[key].shards.get(shard_id)
                if shard is not None and shard.worker:
                    leased[shard.worker] = (
                        leased.get(shard.worker, 0) + 1
                    )
            return {
                "service": {
                    "queue_limit": self.queue_limit,
                    "lease_seconds": self.lease_seconds,
                    "shard_size": self.shard_size,
                    "store_root": self.store.root,
                },
                "campaigns": campaigns,
                "workers": leased,
                "stats": dict(self.stats),
            }


def _close_journal(campaign: _Campaign) -> None:
    if campaign.core.journal is not None:
        campaign.core.journal.close()
        campaign.core.journal = None


def _carve(
    pending: List[int], shard_size: int
) -> List[Tuple[int, int]]:
    """Contiguous runs of pending indices, chunked at ``shard_size``.

    After a spool replay the pending set can be sparse; shards stay
    contiguous ``[lo, hi)`` ranges so they describe themselves in two
    integers on the wire.
    """
    ranges: List[Tuple[int, int]] = []
    run_start: Optional[int] = None
    previous = None
    for index in pending:
        if run_start is None:
            run_start = previous = index
            continue
        if index == previous + 1:
            previous = index
            continue
        ranges.extend(_chunk(run_start, previous + 1, shard_size))
        run_start = previous = index
    if run_start is not None:
        ranges.extend(_chunk(run_start, previous + 1, shard_size))
    return ranges


def _chunk(
    lo: int, hi: int, shard_size: int
) -> List[Tuple[int, int]]:
    return [
        (start, min(start + shard_size, hi))
        for start in range(lo, hi, shard_size)
    ]
