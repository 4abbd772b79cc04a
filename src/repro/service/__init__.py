"""The fault-tolerant campaign service.

Scales the paper's validation campaigns past one process *without
weakening any guarantee the single-process runtime makes*: a
chaos-harassed multi-worker service run produces the byte-identical
report, metrics and deterministic event projection as an
uninterrupted serial run -- the differential suite pins it.

The pieces:

* :mod:`repro.service.protocol` -- campaign specs, deterministic
  resolution to a fault-domain kind, and shard simulation into the
  kind's journal records.
* :mod:`repro.service.coordinator` -- a lease scheduler over the
  :class:`~repro.campaign.Campaign` core: lease-based sharding with
  heartbeats and expiry, verdict absorption into the core's
  first-write-wins slots (what makes at-least-once delivery safe),
  jittered-backoff retries, quarantine-and-bisect for poisoned
  shards, bounded admission with back-pressure, spool journaling, and
  the content-addressed cross-run result store.  The core assembles
  the result, metrics and event stream exactly as a local run does.
* :mod:`repro.service.store` -- campaign results keyed by manifest
  identity digest; crash-safe staged-directory publishes; identical
  resubmissions answered with zero simulations.
* :mod:`repro.service.server` / :mod:`repro.service.worker` /
  :mod:`repro.service.client` -- the HTTP shim (``repro serve``), the
  expendable worker loop (``repro shard-worker``), and the
  back-pressure-aware client (``repro submit``).
"""

from .client import (
    ServiceError,
    campaign_view,
    request_json,
    submit_campaign,
    wait_for_campaign,
)
from .coordinator import BackPressure, Coordinator, Shard
from .protocol import (
    ResolvedCampaign,
    SpecError,
    normalize_spec,
    resolve_campaign,
    simulate_shard,
)
from .server import ServiceServer
from .store import ResultStore, store_key
from .worker import ShardWorker

__all__ = [
    "BackPressure",
    "Coordinator",
    "ResolvedCampaign",
    "ResultStore",
    "ServiceError",
    "ServiceServer",
    "Shard",
    "ShardWorker",
    "SpecError",
    "campaign_view",
    "normalize_spec",
    "request_json",
    "resolve_campaign",
    "simulate_shard",
    "store_key",
    "submit_campaign",
    "wait_for_campaign",
]
