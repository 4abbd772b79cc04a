"""Deterministic parallel execution for fault campaigns.

Fault-injection campaigns are embarrassingly parallel: every mutant is
simulated independently against the same test set, and only the
per-mutant verdicts matter.  This package provides the worker-pool
engine the campaign layers (:mod:`repro.faults.campaign` and
:mod:`repro.validation.harness`) route through:

* :func:`parallel_map` -- chunked fan-out over a
  ``ProcessPoolExecutor`` with a deterministic in-process fallback,
  per-task wall-clock timeouts and bounded retries.  Results always
  come back in submission order, so campaign results are byte-identical
  regardless of worker count.
* :class:`CampaignCache` -- a memo cache keyed by
  (machine, fault, test-set) fingerprints that lets repeated sweeps
  skip re-simulating unchanged mutants.
"""

from .backoff import BackoffPolicy
from .cache import (
    CampaignCache,
    battery_fingerprint,
    global_cache,
    inputs_fingerprint,
    machine_fingerprint,
)
from .executor import (
    TaskOutcome,
    TaskTimeout,
    batch_unit,
    default_jobs,
    install_task_wrapper,
    parallel_map,
    parallel_map_batched,
    run_task_inline,
)

__all__ = [
    "BackoffPolicy",
    "CampaignCache",
    "TaskOutcome",
    "TaskTimeout",
    "batch_unit",
    "battery_fingerprint",
    "default_jobs",
    "global_cache",
    "inputs_fingerprint",
    "install_task_wrapper",
    "machine_fingerprint",
    "parallel_map",
    "parallel_map_batched",
    "run_task_inline",
]
