"""Pins what run directories and the result store key on.

A journaled run directory pins its campaign's identity in its
manifest, and the result store addresses a finished campaign by
``store_key(identity)``.  So the bytes of
:func:`~repro.runtime.runner.fsm_campaign_identity` and
:func:`~repro.runtime.runner.dlx_campaign_identity` decide whether a
run directory written earlier still resumes and whether a store filled
earlier still answers.  The digests below cover the FSM identity of
every tour, W, Wp and HSI campaign of the canonical models, the
``examples/corpus`` machines and seeded random machines (large enough
that their populations span several hashing chunks), under both
kernels, with and without a timeout, and the DLX identity of the
directed battery.  A change that moves them invalidates every store
and run directory written before it; an intended one updates them and
says why in CHANGES.md.

The fault digest is the digest of the faults' ``repr`` forms, in
population order; the property test holds any faster encoding of it
to that definition, on values that compare equal but print
differently.
"""

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import KERNELS
from repro.core.errors import OutputError, TransferError
from repro.core.generate import random_mealy
from repro.corpus import load_corpus
from repro.corpus.suite import BENCH_SUITES, build_test
from repro.dlx.buggy import BUG_CATALOG
from repro.models import CANONICAL_MODELS, counter
from repro.parallel.fingerprints import _digest
from repro.runtime.runner import dlx_campaign_identity, fsm_campaign_identity
from repro.service.store import store_key
from repro.tour import SuiteError
from repro.validation.harness import DIRECTED_TEST_NAME, directed_battery

FSM_IDENTITIES_DIGEST = (
    "bc48051723feb818fb6689e3968a55903bd4990a48fc6c4df892da0b24c6ef1d"
)
DLX_IDENTITIES_DIGEST = (
    "0ab99debb3f2c75d6632c0a61e20fc27adf1bdfd7949f1fdb1ff81da100ba5b1"
)

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "corpus"

TIMEOUTS = (None, 2.5)


def _machines():
    for name in sorted(CANONICAL_MODELS):
        yield CANONICAL_MODELS[name]()
    for entry in load_corpus(str(CORPUS)):
        if entry.runnable:
            yield entry.machine
    for seed in range(3):
        rng = random.Random(seed)
        yield random_mealy(rng, 20 + 4 * seed, 3, 2 + seed,
                           name=f"random{seed}")


def _fsm_lines():
    for machine in _machines():
        for suite in BENCH_SUITES:
            try:
                run_machine, test, population = build_test(
                    machine, suite, "cpp", 0
                )
            except SuiteError as exc:
                yield f"{machine.name} {suite} {type(exc).__name__}"
                continue
            for kernel in KERNELS:
                for timeout in TIMEOUTS:
                    identity = fsm_campaign_identity(
                        run_machine, test, population, kernel, timeout
                    )
                    yield (
                        f"{machine.name} {suite} {kernel} {timeout} "
                        f"{len(population)} {store_key(identity)}"
                    )


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_fsm_campaign_identities_are_pinned():
    assert _sha(_fsm_lines()) == FSM_IDENTITIES_DIGEST


def test_dlx_campaign_identities_are_pinned():
    battery = directed_battery()
    lines = [
        f"{kernel} {timeout} " + store_key(dlx_campaign_identity(
            battery, BUG_CATALOG, DIRECTED_TEST_NAME, kernel, timeout
        ))
        for kernel in KERNELS
        for timeout in TIMEOUTS
    ]
    assert _sha(lines) == DLX_IDENTITIES_DIGEST


def _reference_digest(parts):
    """The digest's definition: each part's UTF-8 bytes (lone
    surrogates escaped) followed by a NUL."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "backslashreplace"))
        h.update(b"\x00")
    return h.hexdigest()


def test_digest_is_its_definition_across_chunk_boundaries():
    alphabet = ["a", "\x00", "\ud800", "\udfff", "é", "\U0001f600", ""]
    rng = random.Random(7)
    for count in (0, 1, 1023, 1024, 1025, 2048, 3000):
        parts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            for _ in range(count)
        ]
        assert _digest(parts) == _reference_digest(parts)
        assert _digest(iter(parts)) == _reference_digest(parts)


class _Opaque:
    """A fault type that is not a dataclass."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Opaque<{self.tag!r}>"


class _Renamed(OutputError):
    """A subclass prints under its own name."""


@dataclass(frozen=True)
class _Quiet(TransferError):
    def __repr__(self):
        return "quiet"


#: Values that compare equal in pairs but print differently, lone
#: surrogates among them.
_VALUES = [
    1, True, 1.0, 0, False, 0.0, -0.0, (1,), (True,), (1.0,),
    "\ud800", "\udcff", "s\ud83d", "x", "é", None, ("a", 0), ("a", -0.0),
]

_value = st.sampled_from(_VALUES) | st.text(max_size=3)

_fault = st.one_of(
    st.builds(OutputError, _value, _value, _value),
    st.builds(TransferError, _value, _value, _value),
    st.builds(_Opaque, _value),
    st.builds(_Renamed, _value, _value, _value),
    st.builds(_Quiet, _value, _value, _value),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_fault, max_size=40))
def test_fault_digest_is_the_digest_of_reprs(population):
    identity = fsm_campaign_identity(
        counter(1), ("0", "1"), population, "compiled", None
    )
    assert identity["fault_digest"] == _digest(
        repr(f) for f in population
    )
    assert identity["fault_count"] == len(population)


def test_fault_digest_spans_chunks():
    rng = random.Random(11)
    population = [
        rng.choice((OutputError, TransferError))(
            rng.choice(_VALUES), rng.choice(_VALUES), rng.choice(_VALUES)
        )
        for _ in range(2500)
    ]
    identity = fsm_campaign_identity(
        counter(1), (), population, "interp", 2.5
    )
    assert identity["fault_digest"] == _reference_digest(
        repr(f) for f in population
    )
