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
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..core.errors import OutputError, TransferError

#: Parts hashed per ``update``: one joined string per chunk instead of
#: two ``update`` calls per part, without holding a whole population's
#: text at once.
_CHUNK = 1024


def _digest(parts: Iterable[str]) -> str:
    """SHA-256 over an iterable of strings, each followed by a NUL
    (order-sensitive): the one digest behind every fingerprint and the
    run manifest's fault-population and bug-catalog digests.  Each
    part's bytes are its UTF-8 encoding with lone surrogates escaped
    (``backslashreplace``), which encodes code point by code point, so
    hashing a chunk of parts joined by NULs feeds the same bytes."""
    h = hashlib.sha256()
    parts = iter(parts)
    while True:
        chunk = list(islice(parts, _CHUNK))
        if not chunk:
            return h.hexdigest()
        chunk.append("")  # the last part's NUL
        h.update("\x00".join(chunk).encode("utf-8", "backslashreplace"))


def machine_fingerprint(machine: Any) -> str:
    """Structural fingerprint of a Mealy machine (initial + delta)."""
    return _digest(
        [repr(machine.initial)] + [repr(t) for t in machine.transitions]
    )


def inputs_fingerprint(inputs: Sequence[Any]) -> str:
    """Fingerprint of a test-input sequence."""
    return _digest(map(repr, inputs))


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


def fault_digest(population: Iterable[Any]) -> str:
    """``_digest(repr(f) for f in population)``, the run manifest's
    fault-population digest, byte for byte and without the dataclass
    ``__repr__`` wrapper of every fault.

    An :class:`~repro.core.errors.OutputError` or
    :class:`~repro.core.errors.TransferError` is printed in its
    dataclass form with each field object printed once per call.  The
    memo is keyed by object identity, because equal values can print
    differently (``1``, ``True`` and ``1.0``; ``0.0`` and ``-0.0``;
    ``(1,)`` and ``(True,)``); it keeps every object it printed alive,
    so no identity is reused while the call runs.  Any other fault
    type, subclasses included, is printed with plain ``repr``.
    """
    return _digest(_fault_reprs(population))


def _fault_reprs(population: Iterable[Any]) -> Iterator[str]:
    memo: Dict[int, str] = {}
    printed: List[Any] = []

    def show(value: Any) -> str:
        text = memo.get(id(value))
        if text is None:
            text = memo[id(value)] = repr(value)
            printed.append(value)
        return text

    # The head ``Name(src=..., inp=..., field=`` is printed once per run
    # of faults of one type at one (identical) site.
    site: Tuple[Any, Any, Any] = (None, None, None)
    head = ""
    for fault in population:
        kind = type(fault)
        if kind is OutputError:
            field, value = "wrong_out", fault.wrong_out
        elif kind is TransferError:
            field, value = "wrong_dst", fault.wrong_dst
        else:
            yield repr(fault)
            continue
        src, inp = fault.src, fault.inp
        if kind is not site[0] or src is not site[1] or inp is not site[2]:
            site = (kind, src, inp)
            head = (
                f"{kind.__name__}(src={show(src)}, inp={show(inp)}, {field}="
            )
        yield f"{head}{show(value)})"
