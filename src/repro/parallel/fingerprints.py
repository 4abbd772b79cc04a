"""Structural fingerprints of what a campaign verdict depends on.

A campaign's identity -- the manifest a run directory pins and the key
the service's result store addresses -- names the specification
machine and the test set (or the DLX test battery) by fingerprint.
Fingerprints are SHA-256 digests over deterministic ``repr`` forms.
Machine fingerprints cover the initial state and the full transition
relation (not the name), so two structurally identical machines share
an identity while any edit to a transition changes it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Sequence


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "backslashreplace"))
        h.update(b"\x00")
    return h.hexdigest()


def machine_fingerprint(machine: Any) -> str:
    """Structural fingerprint of a Mealy machine (initial + delta)."""
    return _digest(
        [repr(machine.initial)] + [repr(t) for t in machine.transitions]
    )


def inputs_fingerprint(inputs: Sequence[Any]) -> str:
    """Fingerprint of a test-input sequence."""
    return _digest(repr(x) for x in inputs)


def battery_fingerprint(
    tests: Sequence[Any],
) -> str:
    """Fingerprint of a DLX test battery (program/data/oracle triples)."""
    parts = []
    for program, data, oracle in tests:
        parts.append(repr(tuple(program)))
        parts.append(repr(tuple(sorted(data.items())) if data else ()))
        parts.append(repr(tuple(oracle) if oracle is not None else None))
    return _digest(parts)
