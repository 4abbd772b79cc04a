"""Checksummed write-ahead journal and run-directory manifest.

A campaign run directory is the crash-tolerance contract on disk::

    run-dir/
      manifest.json   # what this run *is*: identity + settings
      journal.jsonl   # one checksummed record per counted verdict
      report.json     # final campaign report (atomic, written last)
      metrics.json    # deterministic metrics dump (atomic)

The journal is append-only JSONL with a per-line checksum::

    <sha16> <canonical-json>\n

where ``sha16`` is the first 16 hex digits of the SHA-256 of the
canonical JSON text.  A verdict *counts* only once its line is in the
journal (the runner fsyncs once per slice), so the failure model is
simple: killing the process at any instant loses at most the last
in-flight slice, and the torn or corrupt tail lines fail their
checksum and are dropped -- re-simulated, never guessed -- on replay.

The manifest is written atomically (temp file + ``os.replace``) before
the first verdict and pins the run's identity: model fingerprints,
fault-population digest, kernel and timeout.  Resume refuses to mix
journals across identities -- replaying a journal produced by a
different machine, test set or kernel would silently fabricate
verdicts.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Journal/manifest format version; bumped on incompatible changes.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
REPORT_NAME = "report.json"
METRICS_NAME = "metrics.json"


class RunDirError(RuntimeError):
    """A run directory is unusable: missing or corrupt manifest, a
    fresh run pointed at an initialized directory, and similar."""


class ManifestMismatch(RunDirError):
    """Resume refused: the journal on disk belongs to a different run
    identity (machine, test set, fault population, kernel, ...)."""


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def encode_record(record: Dict[str, Any]) -> str:
    """One journal line (checksum + canonical JSON, no newline)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{_checksum(text)} {text}"


def decode_line(line: str) -> Optional[Dict[str, Any]]:
    """The record a journal line holds, or None when the line is
    torn/corrupt (bad shape, bad checksum, bad JSON, non-object)."""
    line = line.rstrip("\n")
    if not line:
        return None
    parts = line.split(" ", 1)
    if len(parts) != 2 or _checksum(parts[1]) != parts[0]:
        return None
    try:
        record = json.loads(parts[1])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


@dataclass(frozen=True)
class JournalReplay:
    """A journal read back: the valid records (in write order) and how
    many torn/corrupt lines were dropped along the way."""

    records: Tuple[Dict[str, Any], ...]
    dropped: int


class Journal:
    """Append-only checksummed JSONL journal.

    ``append`` buffers; ``sync`` flushes *and* fsyncs, which is the
    moment the appended records start to count.  The runner calls
    ``sync`` once per verdict slice -- one fsync per slice keeps the
    durability cost amortized.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        self._handle.write(encode_record(record) + "\n")

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    @staticmethod
    def replay(path: str) -> JournalReplay:
        """Read a journal back, dropping torn/corrupt lines.

        A missing journal is an empty one (a run killed before its
        first sync).  Records come back in write order; the campaign
        core fills each index's slot from its first non-provisional
        record (a timed-out verdict is provisional and re-run, so its
        re-journaled verdict is the one that counts).
        """
        if not os.path.exists(path):
            return JournalReplay(records=(), dropped=0)
        records = []
        dropped = 0
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                record = decode_line(line)
                if record is None:
                    if line.strip():
                        dropped += 1
                    continue
                records.append(record)
        return JournalReplay(records=tuple(records), dropped=dropped)


def fsync_dir(directory: str) -> None:
    """Best-effort fsync of a directory, making a just-completed
    ``os.replace`` inside it survive power loss (no-op where
    directories cannot be opened, e.g. Windows)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str, obj: Any) -> None:
    """Write ``obj`` as pretty JSON via temp file + ``os.replace``.

    Readers (and a resumed run) therefore only ever see a complete
    file or no file -- never a half-written report.  The temp file is
    uniquely named (``mkstemp`` in the target directory), so two
    concurrent writers -- a resumed runner racing a service finalize,
    two processes sharing a result store -- can never clobber each
    other's half-written bytes: last ``os.replace`` wins atomically.
    The directory is fsynced after the replace so the rename itself
    is on disk before the caller treats the write as committed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(directory)


def write_manifest(
    path: str, identity: Dict[str, Any], settings: Dict[str, Any]
) -> None:
    """Atomically write the run manifest (identity + settings)."""
    atomic_write_json(
        path,
        {
            "format": FORMAT_VERSION,
            "identity": identity,
            "settings": settings,
        },
    )


def read_manifest(path: str) -> Dict[str, Any]:
    """Load a manifest; raises :class:`RunDirError` when missing or
    unparsable (a corrupt manifest means the run's identity is gone,
    so resuming would be guesswork)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise RunDirError(
            f"cannot resume: no readable manifest at {path!r} ({exc})"
        ) from exc
    except ValueError as exc:
        raise RunDirError(
            f"cannot resume: manifest {path!r} is not valid JSON ({exc})"
        ) from exc
    if not isinstance(manifest, dict):
        raise RunDirError(
            f"cannot resume: manifest {path!r} is not a JSON object"
        )
    return manifest


def check_manifest(
    manifest: Dict[str, Any], identity: Dict[str, Any]
) -> None:
    """Refuse identity drift between a journal and the resuming run."""
    if manifest.get("format") != FORMAT_VERSION:
        raise ManifestMismatch(
            f"cannot resume: journal format {manifest.get('format')!r} "
            f"!= supported format {FORMAT_VERSION}"
        )
    recorded = manifest.get("identity")
    if not isinstance(recorded, dict):
        raise ManifestMismatch("cannot resume: manifest has no identity")
    if recorded != identity:
        keys = sorted(
            k
            for k in set(recorded) | set(identity)
            if recorded.get(k) != identity.get(k)
        )
        detail = ", ".join(
            f"{k}: recorded {recorded.get(k)!r} != current "
            f"{identity.get(k)!r}"
            for k in keys
        )
        raise ManifestMismatch(
            f"cannot resume: run identity changed ({detail})"
        )
