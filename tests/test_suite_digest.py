"""Pins the test cases of every W, Wp and HSI suite.

One digest covers the sequences each of the three methods generates,
at ``extra_states`` 0 and 1, for the canonical models, the runnable
machines of ``examples/corpus`` and seeded random machines, and the
exception type of each generation that fails.  Any change to a
transition cover, an identification set, an extension set or the
order the generators visit them moves the digest; an intended one
updates it and says why in CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

from repro.core.generate import random_mealy
from repro.corpus import load_corpus
from repro.models import CANONICAL_MODELS
from repro.tour import SUITE_METHODS, FaultDomain, generate_suite

SUITES_DIGEST = (
    "32663d201a6fa85682406a11f6875b565d9ad1f502307096fcadda755a1437e6"
)

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "corpus"


def _machines():
    for name in sorted(CANONICAL_MODELS):
        yield CANONICAL_MODELS[name]()
    for entry in load_corpus(str(CORPUS)):
        if entry.runnable:
            yield entry.machine
    for seed in range(24):
        rng = random.Random(seed)
        yield random_mealy(
            rng, rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 3),
            name=f"random{seed}",
        )


def _suite_lines():
    for machine in _machines():
        for method in SUITE_METHODS:
            for extra in (0, 1):
                try:
                    suite = generate_suite(
                        machine, method, FaultDomain(extra_states=extra)
                    )
                    cases = repr(suite.sequences)
                except Exception as exc:  # noqa: BLE001 - the type is pinned
                    cases = type(exc).__name__
                yield f"{machine.name} {method} +{extra} {cases}"


def test_suite_sequences_are_pinned():
    digest = hashlib.sha256(
        "\n".join(_suite_lines()).encode()
    ).hexdigest()
    assert digest == SUITES_DIGEST
