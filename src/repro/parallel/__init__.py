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
  consecutive items, one outcome per item.  Every campaign sweep
  dispatches through it; the kernel picks only the batch body.
* :func:`machine_fingerprint`, :func:`inputs_fingerprint` and
  :func:`battery_fingerprint` -- the structural fingerprints campaign
  identities are made of.
"""

from .backoff import BackoffPolicy
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
from .fingerprints import (
    battery_fingerprint,
    inputs_fingerprint,
    machine_fingerprint,
)

__all__ = [
    "BackoffPolicy",
    "TaskOutcome",
    "TaskTimeout",
    "batch_unit",
    "battery_fingerprint",
    "default_jobs",
    "inputs_fingerprint",
    "install_task_wrapper",
    "machine_fingerprint",
    "parallel_map",
    "parallel_map_batched",
    "run_task_inline",
]
