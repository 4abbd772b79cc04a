"""Pins what the W/Wp/HSI construction computes on its way to a suite.

``tests/test_suite_digest.py`` pins the suites of minimal machines.
This file adds the machines that exercise the rest of the path:
seeded machines with a cloned (equivalent) state, whose clone may emit
outputs that compare equal to the original's but print differently
(``1``/``True``/``1.0``), and machines with an unreachable state that
owns an input and an output no reachable state has.  On these the
quotient of :func:`~repro.tour.canonical_minimal` merges states and
drops part of the alphabet.  The digests cover:

* the sequences of every W, Wp and HSI suite at ``extra_states`` 0
  and 1, and ``canonical_minimal`` itself;
* ``equivalence_classes``, ``is_minimal``, ``minimize``,
  ``distinguishability_matrix`` (keys in order) and every pair's
  shortest distinguishing sequence, on the same machines and on an
  incomplete one;
* the identification machinery (``access_sequences``, the covers,
  ``characterization_set``, ``state_identifiers`` and
  ``harmonized_state_identifiers``) called on the machines directly.

Blocks and frozenset states are printed as ``repr``-sorted lists, so
the digests do not depend on the hash seed.  The exact error texts of
the preconditions are pinned one by one.  An intended change updates
a digest and says why in CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

import pytest

from repro.core import (
    MealyError,
    MealyMachine,
    distinguishability_matrix,
    equivalence_classes,
    is_minimal,
    minimize,
    shortest_distinguishing_sequence,
)
from repro.core.distinguish import _pair_distance_table
from repro.core.generate import random_mealy
from repro.corpus import load_corpus
from repro.models import CANONICAL_MODELS
from repro.tour import (
    RESET,
    SUITE_METHODS,
    FaultDomain,
    SuiteError,
    access_sequences,
    canonical_minimal,
    characterization_set,
    generate_suite,
    harmonized_state_identifiers,
    reset_harness,
    state_cover,
    state_identifiers,
    transition_cover,
)

SUITES_DIGEST = (
    "e693685ece99730eb7f22022146922dde2fa416b9b6a2bad627ac65ebebfbf3b"
)
PARTITIONS_DIGEST = (
    "e1dc1af59f3fa662bde226729b3065777bc1c0f27a5396d0260b6665eded4bef"
)
IDENTIFIERS_DIGEST = (
    "e09b867602a3bb362e897955e81d9a75f19475c8f67b0cddef53343d63d268e3"
)

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "corpus"


def _cloned(seed):
    """A random machine plus an equivalent copy of one state that some
    transitions into the original now enter instead.  On odd seeds the
    outputs are ints and the clone emits ``True``/``1.0`` for ``1``;
    the clone's name sorts after the original's on seeds 0 and 1 and
    before it on seeds 2 and 3."""
    rng = random.Random(100 + seed)
    base = random_mealy(rng, 5 + seed, 2 + seed % 2, 2)
    victim = rng.choice(sorted(base.states))
    clone = victim + "c" if seed < 2 else "a" + victim

    def out(value, cloned):
        if seed % 2 == 0:
            return value
        number = int(value[1:])
        if cloned and number == 1:
            return True if seed == 1 else 1.0
        return number

    m = MealyMachine(base.initial, name=f"cloned{seed}")
    redirected = False
    for t in base.transitions:
        dst = t.dst
        if dst == victim and (not redirected or rng.random() < 0.5):
            dst, redirected = clone, True
        m.add_transition(t.src, t.inp, out(t.out, False), dst)
    for t in base.transitions_from(victim):
        m.add_transition(clone, t.inp, out(t.out, True), t.dst)
    return m


def _unreachable(seed):
    """A random machine plus a state nothing enters.  It owns an input
    and an output no reachable state has, so the machine as given is
    incomplete; its reachable part is complete."""
    rng = random.Random(200 + seed)
    base = random_mealy(rng, 4 + seed, 2, 2)
    m = base.copy(name=f"unreachable{seed}")
    m.add_transition("ghost", "i0", "o9", base.initial)
    m.add_transition("ghost", "zz", "o0", rng.choice(sorted(base.states)))
    return m


def _single_block():
    """Every state emits one output: the quotient has one state."""
    return random_mealy(random.Random(300), 5, 2, 1, name="single-block")


def _incomplete():
    """A random machine with every fourth transition removed."""
    base = random_mealy(random.Random(400), 7, 3, 2, name="incomplete")
    m = MealyMachine(base.initial, name="incomplete")
    for s in base.states:
        m.add_state(s)
    for k, t in enumerate(base.transitions):
        if k % 4 != 3:
            m.add_transition(t.src, t.inp, t.out, t.dst)
    return m


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
    for seed in range(4):
        yield _cloned(seed)
    for seed in range(3):
        yield _unreachable(seed)
    yield _single_block()
    yield _incomplete()


def _show(value):
    """``value`` printed independently of the hash seed."""
    if isinstance(value, frozenset):
        return repr(sorted(value, key=_show))
    if isinstance(value, tuple):
        return "(" + ", ".join(_show(v) for v in value) + ")"
    return repr(value)


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type and text are pinned
        return f"{type(exc).__name__}: {exc}"


def _machine_text(m):
    return (
        f"{m.name} {_show(m.initial)} "
        + " ".join(
            f"{_show(t.src)}-{t.inp!r}/{t.out!r}->{_show(t.dst)}"
            for t in sorted(m.transitions, key=lambda t: _show((t.src, t.inp)))
        )
    )


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _suite_lines():
    for machine in _machines():
        yield _attempt(lambda: _machine_text(canonical_minimal(machine)))
        for method in SUITE_METHODS:
            for extra in (0, 1):
                cases = _attempt(lambda: repr(generate_suite(
                    machine, method, FaultDomain(extra_states=extra)
                ).sequences))
                yield f"{machine.name} {method} +{extra} {cases}"


def _partition_lines():
    for machine in _machines():
        yield machine.name
        yield _show(tuple(equivalence_classes(machine)))
        yield f"minimal={is_minimal(machine)}"
        yield _attempt(lambda: _machine_text(minimize(machine)))
        matrix = distinguishability_matrix(machine)
        yield repr(list(matrix.items()))
        table = _pair_distance_table(machine)
        for a, b in matrix:
            yield repr(shortest_distinguishing_sequence(
                machine, a, b, table=table
            ))
            yield repr(shortest_distinguishing_sequence(
                machine, b, a, table=table
            ))


def _identifier_lines():
    for machine in _machines():
        yield machine.name
        yield repr(list(access_sequences(machine).items()))
        yield _attempt(lambda: repr(state_cover(machine)))
        yield _attempt(lambda: repr(transition_cover(machine)))
        yield _attempt(lambda: repr(characterization_set(machine)))
        yield _attempt(lambda: repr(list(state_identifiers(machine).items())))
        yield _attempt(lambda: repr(list(
            harmonized_state_identifiers(machine).items()
        )))


def test_suites_and_quotients_are_pinned():
    assert _digest(_suite_lines()) == SUITES_DIGEST


def test_partitions_and_pair_tables_are_pinned():
    assert _digest(_partition_lines()) == PARTITIONS_DIGEST


def test_identification_machinery_is_pinned():
    assert _digest(_identifier_lines()) == IDENTIFIERS_DIGEST


def _lasso():
    """``a -x/0-> b -x/1-> c -x/0-> a``; ``y`` loops back to ``a``
    with output 0 from ``a`` and ``b`` and is undefined at ``c``."""
    return MealyMachine.from_transitions("a", [
        ("a", "x", 0, "b"), ("a", "y", 0, "a"),
        ("b", "x", 1, "c"), ("b", "y", 0, "a"),
        ("c", "x", 0, "a"),
    ], name="lasso")


def _twins():
    """``p`` and ``q`` are equivalent; ``r`` is not."""
    return MealyMachine.from_transitions("p", [
        ("p", "x", 0, "r"), ("p", "y", 0, "q"),
        ("q", "x", 0, "r"), ("q", "y", 0, "q"),
        ("r", "x", 1, "p"), ("r", "y", 1, "r"),
    ], name="twins")


class TestErrorTexts:
    @pytest.mark.parametrize("method", SUITE_METHODS)
    def test_incomplete_machine(self, method):
        with pytest.raises(SuiteError) as info:
            generate_suite(_lasso(), method)
        assert str(info.value) == (
            "lasso: suite generation needs an input-complete machine "
            "(over its valid-input alphabet); 1 undefined (state, input) "
            "pairs, e.g. ('c', 'y').  Wrap with make_complete() or "
            "restrict the alphabet."
        )

    def test_non_minimal_characterization_set(self):
        with pytest.raises(SuiteError) as info:
            characterization_set(_twins())
        assert str(info.value) == (
            "twins: states 'p' and 'q' are equivalent; no "
            "characterization set exists.  Minimize the machine first."
        )

    def test_non_minimal_state_identifiers(self):
        with pytest.raises(SuiteError) as info:
            state_identifiers(_twins())
        assert str(info.value) == (
            "twins: states 'p' and 'q' are equivalent; no "
            "characterization set exists.  Minimize the machine first."
        )

    def test_non_minimal_harmonized_identifiers(self):
        with pytest.raises(SuiteError) as info:
            harmonized_state_identifiers(_twins())
        assert str(info.value) == (
            "twins: states 'p' and 'q' are equivalent; no harmonized "
            "identifiers exist.  Minimize the machine first."
        )

    def test_charset_that_cannot_separate(self):
        with pytest.raises(SuiteError) as info:
            state_identifiers(_twins(), charset=(("x",),))
        assert str(info.value) == (
            "twins: characterization set cannot separate 'p' from "
            "['q']; machine is not minimal"
        )

    def test_reset_collision(self):
        spec = MealyMachine.from_transitions(
            0, [(0, RESET, "z", 0), (0, "x", "o", 0)], name="clash"
        )
        with pytest.raises(SuiteError) as info:
            reset_harness(spec)
        assert str(info.value) == (
            "clash: reset symbol '__reset__' collides with the input "
            "alphabet; pass a different reset token"
        )

    def test_charset_on_an_incomplete_machine(self):
        # From 'a', ('x', 'y') runs a -> b -> a; from 'b' it reaches
        # 'c', which has no 'y'.
        with pytest.raises(MealyError) as info:
            state_identifiers(_lasso(), charset=(("x", "y"),))
        assert str(info.value) == "lasso: no transition from 'c' on 'y'"

    def test_charset_on_an_incomplete_machine_from_the_state_itself(self):
        # 'a' is identified first, and its own walk of ('x', 'x', 'y')
        # ends at 'c'.
        with pytest.raises(MealyError) as info:
            state_identifiers(_lasso(), charset=(("x", "x", "y"),))
        assert str(info.value) == "lasso: no transition from 'c' on 'y'"

    def test_charset_on_an_incomplete_machine_that_needs_no_walk_there(self):
        # ('x', 'x') separates all three states, so the undefined 'y'
        # at 'c' is never walked.
        idents = state_identifiers(_lasso(), charset=(("x", "x"), ("y",)))
        assert idents == {
            "a": (("x", "x"),), "b": (("x", "x"),), "c": (("x", "x"),),
        }
