"""Pins the walks the test sets are built from, and their coverage.

One digest covers every tour builder's walk and ``canonical_minimal``'s
transitions on the canonical models and on seeded random machines
(every third with one transition leaked into an absorbing sink, so the
builders' failure paths run too), the exception type of each failure,
and the coverage replays of every canonical model's cpp tour:
``coverage_profile`` and ``CoverageTelemetry``'s visit counts, first
visits and snapshots.  Any change to a walk, a tie-break, a failure or
a replay moves the digest; an intended one updates it and says why in
CHANGES.md.
"""

import hashlib
import random

from repro.core.coverage import coverage_profile
from repro.core.generate import random_mealy
from repro.core.mealy import MealyMachine
from repro.models import CANONICAL_MODELS
from repro.obs import CoverageTelemetry
from repro.tour import (
    canonical_minimal,
    checking_tour,
    greedy_rural_transitions,
    state_tour,
    transition_tour,
)

WALKS_DIGEST = (
    "635ee4f4c6311d9a7616a499b49544228e1b05789da19bc8456bd9e54bb8f9e7"
)

BUILDERS = (
    ("state", lambda m: state_tour(m).transitions),
    ("checking", lambda m: checking_tour(m).transitions),
    ("cpp", lambda m: transition_tour(m, "cpp").transitions),
    ("greedy", lambda m: transition_tour(m, "greedy").transitions),
    ("rural", lambda m: greedy_rural_transitions(m, m.transitions[::2])),
    ("canonical", lambda m: canonical_minimal(m).transitions),
)


def _leaky(machine, rng):
    """``machine`` with one transition redirected into an absorbing
    sink, so it is no longer strongly connected."""
    transitions = machine.transitions
    leak = transitions[rng.randrange(len(transitions))]
    leaky = MealyMachine(machine.initial, name=machine.name + "-leaky")
    for t in transitions:
        dst = "sink" if t == leak else t.dst
        leaky.add_transition(t.src, t.inp, t.out, dst)
    for inp in sorted(machine.inputs):
        leaky.add_transition("sink", inp, "o0", "sink")
    return leaky


def _machines():
    for name in sorted(CANONICAL_MODELS):
        yield CANONICAL_MODELS[name]()
    for seed in range(48):
        rng = random.Random(seed)
        machine = random_mealy(
            rng, rng.randint(1, 7), rng.randint(1, 3), rng.randint(1, 3),
            name=f"random{seed}",
        )
        yield _leaky(machine, rng) if seed % 3 == 2 else machine


def _walk_lines():
    for machine in _machines():
        for label, build in BUILDERS:
            try:
                walk = repr(list(build(machine)))
            except Exception as exc:  # noqa: BLE001 - the type is pinned
                walk = type(exc).__name__
            yield f"{machine.name} {label} {walk}"
    for name in sorted(CANONICAL_MODELS):
        machine = CANONICAL_MODELS[name]()
        inputs = transition_tour(machine).inputs
        yield f"{name} profile {coverage_profile(machine, inputs)!r}"
        telemetry = CoverageTelemetry(machine, snapshot_every=3)
        telemetry.feed_all(inputs)
        yield f"{name} visits {list(telemetry.visit_counts.items())!r}"
        yield f"{name} firsts {list(telemetry.first_visit.items())!r}"
        snapshots = [
            (step, sorted(map(repr, report.covered)), len(report.total))
            for step, report in telemetry.snapshots
        ]
        yield f"{name} snapshots {snapshots!r}"


def walks_digest():
    return hashlib.sha256("\n".join(_walk_lines()).encode()).hexdigest()


def test_walks_match_pinned_digest():
    assert walks_digest() == WALKS_DIGEST
