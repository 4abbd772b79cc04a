"""Crash-tolerant campaign runtime.

Large validation campaigns run for hours on machines that get
rebooted, preempted and OOM-killed; a campaign that cannot survive
that is a campaign nobody trusts on real workloads.  This package
adds the three pieces the paper's methodology needs to run unattended:

* :mod:`repro.runtime.journal` -- checksummed write-ahead journal and
  run-directory manifest (a verdict counts only once journaled).
* :mod:`repro.runtime.runner` -- journaled, resumable campaign
  drivers: the :class:`~repro.campaign.Campaign` core plus a journal
  (replay, slice, append, fsync), whose resumed reports, metrics and
  event projections are byte-identical to uninterrupted runs.
* :mod:`repro.runtime.chaos` -- deterministic failure injection
  (worker SIGKILLs, hangs, task errors, corrupt results) used by the
  test suite to *prove* the first two under fire.

Graceful kernel degradation (quarantine + interpreter-oracle re-run)
is the sweeps' shared loop, :func:`repro.campaign.settle`; this
package surfaces it through the ``degraded`` result flags and the
``runtime.*`` metrics namespace.
"""

from .chaos import (
    ChaosError,
    ChaosPlan,
    ChaoticTask,
    ShardChaosPlan,
    chaos_scope,
    parse_plan,
    parse_shard_plan,
)
from .journal import (
    FORMAT_VERSION,
    JOURNAL_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    REPORT_NAME,
    Journal,
    JournalReplay,
    ManifestMismatch,
    RunDirError,
    atomic_write_json,
    check_manifest,
    fsync_dir,
    read_manifest,
    write_manifest,
)
from .runner import (
    DEFAULT_SLICE,
    BugCampaignRun,
    CampaignRun,
    ReplayedMismatch,
    ResumeStats,
    RunPaths,
    dlx_campaign_identity,
    fsm_campaign_identity,
    run_bug_campaign_resumable,
    run_campaign_resumable,
    run_paths,
    watch_snapshot,
)

__all__ = [
    "FORMAT_VERSION",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "REPORT_NAME",
    "DEFAULT_SLICE",
    "BugCampaignRun",
    "CampaignRun",
    "ChaosError",
    "ChaosPlan",
    "ChaoticTask",
    "Journal",
    "JournalReplay",
    "ManifestMismatch",
    "ReplayedMismatch",
    "ResumeStats",
    "RunDirError",
    "RunPaths",
    "ShardChaosPlan",
    "atomic_write_json",
    "chaos_scope",
    "check_manifest",
    "dlx_campaign_identity",
    "fsm_campaign_identity",
    "fsync_dir",
    "parse_plan",
    "parse_shard_plan",
    "read_manifest",
    "run_bug_campaign_resumable",
    "run_campaign_resumable",
    "run_paths",
    "watch_snapshot",
    "write_manifest",
]
