"""Content-addressed, crash-safe, cross-run campaign result store.

A finished campaign is stored under the SHA-256 of its canonical
manifest identity (machine/test fingerprints, fault digest, kernel,
timeout -- everything that pins the *verdicts*; never jobs, retries or
chaos, which are settings).  Two consequences:

* **Resubmission is free.**  An identical submission hashes to the
  same key and is answered from the store with zero simulations.
* **A stored result can never lie about what it is.**  ``get``
  re-checks the stored identity against the requested one, so a hash
  collision (or a corrupted entry) reads as a miss, never as a wrong
  answer.

Writes are crash-safe the same way the journal's ``atomic_write_json``
is, one level up: the entry is staged as a complete directory
(``identity.json`` + ``report.json`` + ``metrics.json``, each itself
written tmp+fsync+rename) and published with one atomic
:func:`os.replace` of the directory.  A reader sees a whole entry or
no entry; a crash mid-stage leaves only garbage under ``tmp/`` that
the next :class:`ResultStore` construction sweeps away.  Concurrent
writers race benignly: ``os.replace`` onto an existing entry fails,
the loser discards its staging directory, and both end up pointing at
one (byte-identical -- that is the determinism contract) result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from typing import Any, Dict, Optional

from ..runtime.journal import atomic_write_json, fsync_dir

IDENTITY_NAME = "identity.json"
REPORT_NAME = "report.json"
METRICS_NAME = "metrics.json"


def store_key(identity: Dict[str, Any]) -> str:
    """The content address of a campaign: SHA-256 over the canonical
    JSON encoding of its manifest identity."""
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Campaign results keyed by identity digest, on disk.

    Layout: ``root/<key[:2]>/<key>/{identity,report,metrics}.json``
    (fan-out on the first byte keeps any one directory small), plus a
    ``root/tmp/`` staging area whose contents are disposable.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._tmp = os.path.join(root, "tmp")
        # Leftover staging directories are crash debris, never data.
        shutil.rmtree(self._tmp, ignore_errors=True)
        os.makedirs(self._tmp, exist_ok=True)
        self._stage_ids = itertools.count()

    key = staticmethod(store_key)

    def entry_dir(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key)

    def report_path(self, key: str) -> str:
        """Where an entry's report bytes live (for byte-level diffs)."""
        return os.path.join(self.entry_dir(key), REPORT_NAME)

    def __contains__(self, key: str) -> bool:
        return os.path.isfile(
            os.path.join(self.entry_dir(key), REPORT_NAME)
        )

    def get(
        self, key: str, identity: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key`` or None.

        When the caller supplies the identity it resolved, the stored
        identity must match it exactly -- a mismatch (collision,
        corruption, or a tampered entry) is a miss, not an answer.
        """
        entry = self.entry_dir(key)
        try:
            with open(os.path.join(entry, IDENTITY_NAME)) as handle:
                stored_identity = json.load(handle)
            with open(os.path.join(entry, REPORT_NAME)) as handle:
                report = json.load(handle)
            with open(os.path.join(entry, METRICS_NAME)) as handle:
                metrics = json.load(handle)
        except (OSError, ValueError):
            return None
        if identity is not None and stored_identity != identity:
            return None
        return {
            "identity": stored_identity,
            "report": report,
            "metrics": metrics,
        }

    def put(
        self,
        key: str,
        identity: Dict[str, Any],
        report: Dict[str, Any],
        metrics: Dict[str, Any],
    ) -> bool:
        """Publish an entry; False when ``key`` was already present
        (first write wins -- with byte-identical results, ties are
        indistinguishable anyway)."""
        final = self.entry_dir(key)
        if os.path.isdir(final):
            return False
        staging = os.path.join(
            self._tmp, f"{key}.{os.getpid()}.{next(self._stage_ids)}"
        )
        os.makedirs(staging)
        try:
            atomic_write_json(
                os.path.join(staging, IDENTITY_NAME), identity
            )
            atomic_write_json(os.path.join(staging, REPORT_NAME), report)
            atomic_write_json(
                os.path.join(staging, METRICS_NAME), metrics
            )
            os.makedirs(os.path.dirname(final), exist_ok=True)
            os.replace(staging, final)
        except OSError:
            # Lost the publish race (or the filesystem refused): the
            # entry that exists is byte-identical, discard ours.
            shutil.rmtree(staging, ignore_errors=True)
            return False
        fsync_dir(os.path.dirname(final))
        return True

    def keys(self) -> list:
        """Every stored key (directory scan; test/debug helper)."""
        found = []
        try:
            fans = os.listdir(self.root)
        except OSError:
            return found
        for fan in fans:
            if fan == "tmp" or len(fan) != 2:
                continue
            fan_dir = os.path.join(self.root, fan)
            if not os.path.isdir(fan_dir):
                continue
            for key in os.listdir(fan_dir):
                if key.startswith(fan) and key in self:
                    found.append(key)
        return sorted(found)
