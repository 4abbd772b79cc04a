"""Bench-history tracking: schema-versioned ``BENCH_<name>.json``.

Every benchmark emits one machine-readable record per run.  PR 2
introduced the files but wrote them to whatever the current working
directory happened to be, so the perf trajectory never accumulated.
This module gives them a stable home and a history:

* :func:`record_bench` appends a schema-versioned *entry* (data plus
  git SHA, whether tracked files differed from it, host fingerprint,
  UTC timestamp) to ``BENCH_<name>.json``
  in :func:`default_bench_dir` -- the repo root by default,
  ``BENCH_JSON_DIR`` to redirect (e.g. a CI artifacts folder).
  Legacy single-run files are upgraded in place.
* :func:`find_regressions` is the gate: it compares the latest entry
  against the previous one, metric by metric, and flags any
  ``*_seconds`` measurement that got more than ``threshold`` (default
  20%) slower.  Counts and sizes are context, not gated.
* :func:`host_probe` times a fixed piece of pure-Python work when an
  entry is recorded (``host_probe_seconds``); when both entries carry
  one, the gate compares seconds per probe second, so a host that is
  slower for an hour does not read as a slower program.
* ``repro bench-report`` renders the trajectory table and runs the
  gate (report-only by default; ``--check`` turns regressions into a
  non-zero exit for CI).

Entries are compared *within one file on one machine*; the host
fingerprint is recorded so a trajectory crossing hardware can be
discounted rather than flagged.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: Version of the on-disk BENCH_<name>.json schema.
BENCH_SCHEMA = 2

#: Keep at most this many entries per benchmark file.
MAX_ENTRIES = 100

#: Flag a timing metric that slowed down by more than this fraction.
DEFAULT_THRESHOLD = 0.20


def default_bench_dir() -> str:
    """Where ``BENCH_*.json`` files live.

    ``BENCH_JSON_DIR`` wins when set; otherwise the enclosing repo
    root (the nearest ancestor of the CWD holding ``pyproject.toml``
    or ``.git``), falling back to the CWD itself.
    """
    env = os.environ.get("BENCH_JSON_DIR")
    if env:
        return env
    probe = os.getcwd()
    while True:
        if os.path.exists(os.path.join(probe, "pyproject.toml")) or (
            os.path.exists(os.path.join(probe, ".git"))
        ):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.getcwd()
        probe = parent


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current commit SHA, or None outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether tracked files differ from HEAD (staged or not), or None
    outside a usable git checkout.  An entry recorded from uncommitted
    changes is not a measurement of its ``git_sha``.  The top-level
    ``BENCH_*.json`` ledgers themselves do not count: a benchmark run
    appends to them, and that must not mark the next entry dirty."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no",
             "--", ":(top,exclude,glob)BENCH_*.json"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


#: Runs of the probe loop per :func:`host_probe`; the median counts.
PROBE_RUNS = 5


def _probe_once() -> float:
    """Seconds for one fixed loop: the mean of dict updates with
    small-integer arithmetic (the interpreter-bound kind of work) and
    ANDs of 1024-bit words (the netlist kernel's kind), a few
    milliseconds in all."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(40_000):
        key = i & 255
        table[key] = table.get(key, 0) + i * i % 7
    word = (1 << 1024) // 3
    words = [word >> (i & 63) ^ i for i in range(2048)]
    acc = 0
    for i in range(25_000):
        acc ^= words[i * 40503 & 2047] & words[i & 2047]
    return (time.perf_counter() - start) / 2


def host_probe() -> float:
    """The host's speed now, as the median seconds of
    :data:`PROBE_RUNS` runs of a fixed loop: a benchmark's seconds
    over the probe's compare across host speeds."""
    runs = sorted(_probe_once() for _ in range(PROBE_RUNS))
    return runs[len(runs) // 2]


def host_fingerprint() -> Dict[str, Any]:
    """A small, stable description of the machine the bench ran on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": cpus,
    }


def _normalize(doc: Dict[str, Any], name: str) -> Dict[str, Any]:
    """Coerce any historical file layout to the schema-2 shape."""
    if isinstance(doc, dict) and isinstance(doc.get("entries"), list):
        doc.setdefault("schema", BENCH_SCHEMA)
        doc.setdefault("bench", name)
        return doc
    # Legacy (schema-1) single-run file: {"bench", "title", "data"}.
    entry: Dict[str, Any] = {
        "title": doc.get("title") if isinstance(doc, dict) else None,
        "data": doc.get("data", {}) if isinstance(doc, dict) else {},
        "git_sha": None,
        "host": None,
        "recorded_at": None,
    }
    return {"schema": BENCH_SCHEMA, "bench": name, "entries": [entry]}


def bench_path(name: str, out_dir: Optional[str] = None) -> str:
    return os.path.join(
        out_dir or default_bench_dir(), f"BENCH_{name}.json"
    )


def load_bench(path: str) -> Dict[str, Any]:
    """Load one BENCH file, normalized to the schema-2 shape."""
    with open(path) as handle:
        doc = json.load(handle)
    name = os.path.basename(path)
    if name.startswith("BENCH_") and name.endswith(".json"):
        name = name[len("BENCH_"):-len(".json")]
    return _normalize(doc, name)


def record_bench(
    name: str,
    title: str,
    data: Optional[Dict[str, Any]] = None,
    out_dir: Optional[str] = None,
    max_entries: int = MAX_ENTRIES,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Append one run's entry to ``BENCH_<name>.json``; returns the
    path written.  Creates the file (and directory) when missing and
    upgrades legacy single-run files in place.

    ``meta`` records run *configuration* (lane widths, population
    sizes -- anything a later reader needs to interpret the numbers)
    next to the measured ``data``; it is never consulted by the
    regression gate, which only compares ``*_seconds`` keys in
    ``data``.  ``host_probe_seconds`` is :func:`host_probe` taken as
    the entry is recorded."""
    path = bench_path(name, out_dir)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if os.path.exists(path):
        try:
            doc = load_bench(path)
        except (OSError, ValueError):
            doc = {"schema": BENCH_SCHEMA, "bench": name, "entries": []}
    else:
        doc = {"schema": BENCH_SCHEMA, "bench": name, "entries": []}
    entry = {
        "title": title,
        "data": dict(data or {}),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "host": host_fingerprint(),
        "host_probe_seconds": host_probe(),
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
    }
    if meta:
        entry["meta"] = dict(meta)
    entries = list(doc.get("entries", []))
    entries.append(entry)
    doc = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "entries": entries[-max(1, int(max_entries)):],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_bench_dir(directory: str) -> Dict[str, Dict[str, Any]]:
    """Every readable ``BENCH_*.json`` under ``directory``, by name."""
    histories: Dict[str, Dict[str, Any]] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return histories
    for fname in names:
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        path = os.path.join(directory, fname)
        try:
            doc = load_bench(path)
        except (OSError, ValueError):
            continue
        histories[doc["bench"]] = doc
    return histories


def seconds_metrics(data: Dict[str, Any]) -> Dict[str, float]:
    """The gate-relevant subset of a data dict: numeric ``*_seconds``."""
    return {
        key: float(value)
        for key, value in data.items()
        if key.endswith("_seconds")
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


@dataclass(frozen=True)
class Regression:
    """One timing metric that slowed beyond the threshold."""

    bench: str
    metric: str
    before: float
    after: float
    #: The later entry's host probe over the earlier one's (1.0 unless
    #: both carry a probe): how much slower the host itself ran.
    host_ratio: float = 1.0

    @property
    def ratio(self) -> float:
        """The slowdown at equal host speed."""
        if not self.before:
            return float("inf")
        return self.after / (self.before * self.host_ratio)

    def __str__(self) -> str:
        host = (
            f", host {self.host_ratio:.2f}x"
            if self.host_ratio != 1.0 else ""
        )
        return (
            f"{self.bench}.{self.metric}: {self.before:.4f}s -> "
            f"{self.after:.4f}s ({self.ratio:.2f}x{host})"
        )


def _host_ratio(before: Dict[str, Any], after: Dict[str, Any]) -> float:
    """``after``'s host probe over ``before``'s, or 1.0 when either
    entry lacks a usable probe (raw seconds then compare as they are)."""
    old = before.get("host_probe_seconds")
    new = after.get("host_probe_seconds")
    if isinstance(old, (int, float)) and isinstance(new, (int, float)) \
            and old > 0 and new > 0:
        return new / old
    return 1.0


def find_regressions(
    doc: Dict[str, Any], threshold: float = DEFAULT_THRESHOLD
) -> List[Regression]:
    """Latest-vs-previous timing regressions for one bench history.

    Compares each ``*_seconds`` metric of the newest entry against the
    entry before it; a metric more than ``threshold`` slower (and at
    least a millisecond in absolute terms, so noise on microsecond
    measurements never trips the gate) is flagged.  When both entries
    carry ``host_probe_seconds``, the newest entry's seconds are first
    scaled to the earlier entry's host speed: seconds per probe second
    are compared.
    """
    entries = doc.get("entries", [])
    if len(entries) < 2:
        return []
    host_ratio = _host_ratio(entries[-2], entries[-1])
    before = seconds_metrics(entries[-2].get("data", {}))
    after = seconds_metrics(entries[-1].get("data", {}))
    regressions: List[Regression] = []
    for metric in sorted(set(before) & set(after)):
        old, new = before[metric], after[metric]
        if old <= 0:
            continue
        if new / host_ratio - old > max(0.001, threshold * old):
            regressions.append(
                Regression(
                    bench=doc.get("bench", "?"),
                    metric=metric,
                    before=old,
                    after=new,
                    host_ratio=host_ratio,
                )
            )
    return regressions


def render_trajectory(
    histories: Dict[str, Dict[str, Any]],
    metrics_per_bench: int = 3,
) -> str:
    """The bench trajectory as an aligned text table.

    One block per benchmark: the entries in chronological order with
    timestamp, short SHA (``<sha>+`` when recorded from a checkout whose
    tracked files differed from it) and up to ``metrics_per_bench``
    timing metrics (newest entry decides which ones are interesting).
    """
    if not histories:
        return "(no BENCH_*.json files found)\n"
    lines: List[str] = []
    for name in sorted(histories):
        doc = histories[name]
        entries = doc.get("entries", [])
        if not entries:
            continue
        latest = seconds_metrics(entries[-1].get("data", {}))
        chosen = sorted(latest)[: max(1, metrics_per_bench)]
        lines.append(f"{name} ({len(entries)} entries)")
        header = f"  {'recorded_at':<22} {'sha':<9}"
        for metric in chosen:
            header += f" {metric[-18:]:>18}"
        lines.append(header)
        for entry in entries:
            stamp = entry.get("recorded_at") or "-"
            sha = (entry.get("git_sha") or "-")[:8]
            if entry.get("git_dirty"):
                sha += "+"
            row = f"  {stamp:<22} {sha:<9}"
            data = seconds_metrics(entry.get("data", {}))
            for metric in chosen:
                value = data.get(metric)
                row += (
                    f" {value:>18.4f}" if value is not None
                    else f" {'-':>18}"
                )
            lines.append(row)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
