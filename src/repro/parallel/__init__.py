"""Deterministic parallel execution for fault campaigns.

Fault-injection campaigns are embarrassingly parallel: every mutant is
simulated independently against the same test set, and only the
per-mutant verdicts matter.  This package provides the worker-pool
engine the campaign sweeps (:mod:`repro.faults.campaign`,
:mod:`repro.validation.harness` and :mod:`repro.rtl.faults`) route
through:

* :func:`parallel_map` -- chunked fan-out over a
  ``ProcessPoolExecutor`` with a deterministic in-process fallback,
  per-task wall-clock timeouts and bounded retries.  Results always
  come back in submission order, so campaign results are byte-identical
  regardless of worker count.
* :func:`parallel_map_batched` -- the same map over batches of
  consecutive items, one outcome per batch: its ``index`` is the
  batch's first item, an ``ok`` outcome's ``value`` holds one result
  per item, and a batch that raised or timed out failed for all of
  its items (:func:`batch_spans` gives each batch's item range).
  Every campaign sweep dispatches through it and settles the outcomes
  batch by batch; the kernel picks only the batch body.
* :func:`machine_fingerprint`, :func:`inputs_fingerprint`,
  :func:`battery_fingerprint` and :func:`fault_digest` -- the
  structural fingerprints campaign identities are made of.
"""

from .backoff import BackoffPolicy
from .executor import (
    TaskOutcome,
    TaskTimeout,
    batch_spans,
    batch_unit,
    default_jobs,
    install_task_wrapper,
    parallel_map,
    parallel_map_batched,
    run_task_inline,
)
from .fingerprints import (
    battery_fingerprint,
    fault_digest,
    inputs_fingerprint,
    machine_fingerprint,
)

__all__ = [
    "BackoffPolicy",
    "TaskOutcome",
    "TaskTimeout",
    "batch_spans",
    "batch_unit",
    "battery_fingerprint",
    "default_jobs",
    "fault_digest",
    "inputs_fingerprint",
    "install_task_wrapper",
    "machine_fingerprint",
    "parallel_map",
    "parallel_map_batched",
    "run_task_inline",
]
