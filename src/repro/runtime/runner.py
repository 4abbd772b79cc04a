"""Journaled, resumable campaign runs.

The plain campaign drivers (:func:`repro.faults.run_campaign`,
:func:`repro.validation.run_bug_campaign`) hold all state in memory: a
``SIGKILL`` at fault 9,999 of 10,000 loses everything.  The runners
here are the same :class:`~repro.campaign.Campaign` core plus a run
directory with a manifest and a checksummed write-ahead journal:

* A verdict **counts only once journaled** -- slices of pending faults
  are swept, each filled slot is appended to the journal, and the
  journal is fsynced before the runner moves on.  Killing the process
  at any instant loses at most one in-flight slice.  The core emits
  the ``fault.verdict`` events of the filled prefix after each fsynced
  slice, so a live progress view advances mid-run.
* **Resume replays the journal** (dropping torn/corrupt lines by
  checksum) into the verdict slots, verifies the manifest still
  matches the run's identity (machine/test fingerprints, fault
  digest, kernel, timeout), and re-simulates only the empty slots.
* The final ``report.json`` and ``metrics.json`` are **byte-identical
  to an uninterrupted run**: verdicts are order-kept by fault index,
  timed-out verdicts are journaled as *provisional* and re-run on
  resume (wall-clock timeouts are environment facts, not properties
  of the mutant), and the metrics dump is the deterministic subset
  only.  The
  event stream of a resumed run projects to the uninterrupted run's
  too: replayed slots emit their verdicts like swept ones.

Degradation (quarantined tasks re-run on the interpreter oracle) is
inherited from the sweeps; it changes no verdict and therefore no
report byte, but it flips the result's ``degraded`` flag, which the
CLI turns into exit status 3.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..campaign import Campaign, check_kernel
from ..dlx.buggy import BUG_CATALOG, BugEntry
# sweep_verdicts stays importable here: perfbench/layers.py wraps it.
from ..faults.campaign import FsmKind, sweep_verdicts  # noqa: F401
from ..faults.inject import Fault, all_single_faults
from ..obs import span
from ..obs.events import emit_event
from ..parallel import (
    battery_fingerprint,
    inputs_fingerprint,
    machine_fingerprint,
)
from ..parallel.fingerprints import _digest
from ..validation.harness import DlxKind, ReplayedMismatch  # noqa: F401
from .journal import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    REPORT_NAME,
    Journal,
    JournalReplay,
    RunDirError,
    atomic_write_json,
    check_manifest,
    read_manifest,
    write_manifest,
)

#: Verdicts per journal slice: one sweep + one fsync per slice.  Small
#: enough that a crash re-simulates little, large enough that the
#: fsync cost stays invisible next to the simulations.
DEFAULT_SLICE = 64


def fsm_campaign_identity(
    spec: Any,
    test: Sequence[Any],
    population: Sequence[Fault],
    kernel: str,
    timeout: Optional[float],
) -> Dict[str, Any]:
    """The manifest identity of an FSM campaign: everything a verdict
    depends on (and nothing scheduling-dependent -- ``jobs``,
    ``retries`` and slice sizes are settings, not identity).  Shared between the
    run-dir manifest and the service's content-addressed result store,
    so both address the same work by the same digest."""
    return {
        "kind": "fsm",
        "machine": spec.name,
        "machine_fingerprint": machine_fingerprint(spec),
        "test_fingerprint": inputs_fingerprint(tuple(test)),
        "fault_count": len(population),
        "fault_digest": _digest(repr(f) for f in population),
        "kernel": kernel,
        "timeout": timeout,
    }


def dlx_campaign_identity(
    tests: Sequence[Tuple],
    catalog: Sequence[BugEntry],
    test_name: str,
    kernel: str,
    timeout: Optional[float],
) -> Dict[str, Any]:
    """The manifest identity of a DLX bug-catalog campaign (see
    :func:`fsm_campaign_identity`)."""
    return {
        "kind": "dlx",
        "test_name": test_name,
        "battery_fingerprint": battery_fingerprint(
            [(p, dict(d) if d else None, o) for p, d, o in tests]
        ),
        "catalog_count": len(catalog),
        "catalog_digest": _digest(
            f"{entry.name}:{entry.bugs!r}" for entry in catalog
        ),
        "kernel": kernel,
        "timeout": timeout,
    }


@dataclass(frozen=True)
class ResumeStats:
    """What a (possibly resumed) run did and did not re-simulate."""

    #: Verdicts accepted straight from the journal.
    replayed: int = 0
    #: Journaled-but-provisional entries (timeouts) re-simulated.
    provisional: int = 0
    #: Torn/corrupt journal lines dropped during replay.
    dropped: int = 0
    #: Verdicts simulated (fresh or re-run) by this invocation.
    executed: int = 0


@dataclass(frozen=True)
class RunPaths:
    """The files of one run directory."""

    run_dir: str
    manifest: str
    journal: str
    report: str
    metrics: str


def run_paths(run_dir: str) -> RunPaths:
    run_dir = os.fspath(run_dir)
    return RunPaths(
        run_dir=run_dir,
        manifest=os.path.join(run_dir, MANIFEST_NAME),
        journal=os.path.join(run_dir, JOURNAL_NAME),
        report=os.path.join(run_dir, REPORT_NAME),
        metrics=os.path.join(run_dir, METRICS_NAME),
    )


def prepare_run_dir(
    paths: RunPaths,
    identity: Dict[str, Any],
    settings: Dict[str, Any],
    resume: bool,
) -> JournalReplay:
    """Initialize (fresh) or verify (resume) a run directory -- a
    local run's or a service campaign's spool; returns the journal
    replay (empty for a fresh run)."""
    if resume:
        manifest = read_manifest(paths.manifest)
        check_manifest(manifest, identity)
        return Journal.replay(paths.journal)
    if os.path.exists(paths.manifest):
        raise RunDirError(
            f"run directory {paths.run_dir!r} already holds a campaign "
            f"(manifest present); pass resume=True to continue it or "
            f"choose a fresh directory"
        )
    os.makedirs(paths.run_dir, exist_ok=True)
    write_manifest(paths.manifest, identity, settings)
    return JournalReplay(records=(), dropped=0)


def _slices(indices: Sequence[int], size: int) -> List[List[int]]:
    size = max(1, int(size))
    return [
        list(indices[i:i + size]) for i in range(0, len(indices), size)
    ]


def _write_outputs(
    paths: RunPaths, report: Dict[str, Any], metrics: Dict[str, Any]
) -> None:
    """Write metrics.json and report.json atomically.

    ``metrics`` is the deterministic dump of the campaign's own scoped
    metrics fold, so the files depend only on the verdicts -- not on
    worker count, not on how many times the run was killed and
    resumed, and not on any registry the caller installed.

    Each file lands via temp file + ``os.replace``
    (:func:`~repro.runtime.journal.atomic_write_json`), so a crash
    mid-write can never leave a torn report; metrics go first and the
    report last, because the report's appearance is the commit marker
    ``watch_snapshot`` (and anything tailing the run dir) keys on --
    when it exists, everything else does too.
    """
    atomic_write_json(paths.metrics, metrics)
    atomic_write_json(paths.report, report)


@dataclass(frozen=True)
class CampaignRun:
    """A finished (possibly resumed) journaled campaign run: the FSM
    result or the DLX bug-catalog result, with its run accounting."""

    result: Any
    stats: ResumeStats
    paths: RunPaths


#: The DLX runner's return type (one class serves both kinds).
BugCampaignRun = CampaignRun


def _run_journaled(
    campaign: Campaign,
    run_dir: str,
    resume: bool,
    slice_size: int,
    **options: Any,
) -> CampaignRun:
    """Fill ``campaign`` from its run directory: replay the journal,
    then sweep the empty slots in fsynced slices, flushing verdict
    events after each; finish with report.json and metrics.json."""
    paths = run_paths(run_dir)
    settings = {
        "jobs": options["jobs"], "retries": options["retries"],
        "slice_size": slice_size,
    }
    replay = prepare_run_dir(paths, campaign.identity, settings, resume)
    campaign.start()
    provisional = campaign.replay(replay.records)
    pending = campaign.pending()
    replayed = campaign.total - len(pending)
    if resume:
        emit_event(
            "run.resumed",
            replayed=replayed,
            provisional=provisional,
            dropped=replay.dropped,
            pending=len(pending),
        )
    campaign.flush()
    journaled = replayed
    with Journal(paths.journal) as journal:
        campaign.journal = journal
        for chunk in _slices(pending, slice_size):
            campaign.sweep(chunk, **options)
            campaign.flush()
            journaled += len(chunk)
            emit_event(
                "journal.flushed",
                entries=len(chunk),
                journaled=journaled,
                total=campaign.total,
            )
    campaign.journal = None
    result = campaign.finish(
        "scoped",
        lambda result, metrics: _write_outputs(
            paths, result.to_json_dict(), metrics
        ),
    )
    return CampaignRun(
        result=result,
        stats=ResumeStats(
            replayed=replayed,
            provisional=provisional,
            dropped=replay.dropped,
            executed=len(pending),
        ),
        paths=paths,
    )


def run_campaign_resumable(
    spec: Any,
    inputs: Sequence[Any],
    faults: Optional[Sequence[Fault]] = None,
    *,
    run_dir: str,
    resume: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    slice_size: int = DEFAULT_SLICE,
) -> CampaignRun:
    """:func:`repro.faults.run_campaign` with a journaled run dir.

    Identity (manifest-pinned, resume-enforced): machine structure,
    test set, fault population, kernel and timeout -- everything a
    verdict depends on.  ``jobs``/``retries``/``slice_size`` are
    recorded but may change across resumes; verdicts are independent
    of them by the differential guarantee (a run interrupted at one
    worker count resumes byte-identically at any other).
    """
    check_kernel(kernel)
    population = (
        all_single_faults(spec) if faults is None else list(faults)
    )
    test = tuple(inputs)
    identity = fsm_campaign_identity(spec, test, population, kernel, timeout)
    with span(
        "runtime.campaign",
        machine=spec.name,
        faults=len(population),
        resume=resume,
    ):
        return _run_journaled(
            Campaign(FsmKind(spec, test, population), identity),
            run_dir, resume, slice_size,
            jobs=jobs, timeout=timeout, retries=retries, kernel=kernel,
        )


def run_bug_campaign_resumable(
    tests: Sequence[Tuple],
    catalog: Sequence[BugEntry] = BUG_CATALOG,
    test_name: str = "test-set",
    *,
    run_dir: str,
    resume: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    slice_size: int = DEFAULT_SLICE,
) -> CampaignRun:
    """:func:`repro.validation.run_bug_campaign` with a journaled run
    dir; same journal/resume semantics as the FSM runner."""
    check_kernel(kernel)
    catalog = list(catalog)
    identity = dlx_campaign_identity(
        tests, catalog, test_name, kernel, timeout
    )
    with span(
        "runtime.bugcampaign",
        test_name=test_name,
        catalog=len(catalog),
        resume=resume,
    ):
        return _run_journaled(
            Campaign(DlxKind(tests, catalog, test_name), identity),
            run_dir, resume, slice_size,
            jobs=jobs, timeout=timeout, retries=retries, kernel=kernel,
        )


# --------------------------------------------------------------------
# Run-directory inspection (``repro watch``)
# --------------------------------------------------------------------


def watch_snapshot(run_dir: str) -> Dict[str, Any]:
    """One point-in-time view of a (possibly still running) run dir.

    Safe to take while a runner is writing: the manifest is immutable
    after creation, the journal replay drops torn trailing lines by
    checksum, and ``report.json`` only appears (atomically) once the
    run finished.  Raises :class:`RunDirError` if there is no manifest
    -- everything else about the directory may legitimately be missing
    mid-run.
    """
    paths = run_paths(run_dir)
    manifest = read_manifest(paths.manifest)
    identity = manifest.get("identity") or {}
    total = identity.get("fault_count", identity.get("catalog_count"))
    try:
        replay = Journal.replay(paths.journal)
    except OSError:
        replay = JournalReplay(records=(), dropped=0)
    seen: Dict[int, Dict[str, Any]] = {}
    for record in replay.records:
        index = record.get("i")
        if isinstance(index, int):
            seen[index] = record
    # A timed-out verdict is journaled detected (by crash), so it counts
    # among `detected`, as in the report and the progress model.
    detected = sum(1 for r in seen.values() if r.get("detected"))
    timed_out = sum(1 for r in seen.values() if r.get("timed_out"))
    degraded = sum(1 for r in seen.values() if r.get("degraded"))
    snapshot: Dict[str, Any] = {
        "run_dir": paths.run_dir,
        "identity": identity,
        "settings": manifest.get("settings") or {},
        "total": total,
        "journaled": len(seen),
        "detected": detected,
        "escaped": len(seen) - detected,
        "timed_out": timed_out,
        "degraded": degraded,
        "dropped": replay.dropped,
        "phase": "running",
        "coverage": None,
    }
    if isinstance(total, int) and total:
        snapshot["progress"] = len(seen) / total
    try:
        with open(paths.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = None
    if isinstance(report, dict):
        snapshot["phase"] = "done"
        snapshot["coverage"] = report.get("coverage")
    return snapshot
