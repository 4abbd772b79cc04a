"""Brute-force properties of the two pair analyses.

``analyze_forall_k`` (Definition 5's horizon) and
``distinguishability_matrix`` (the classical shortest distinguishing
lengths) each have one implementation; these properties check both
against exhaustive enumeration of input words on machines small enough
to enumerate: at most five states and two or three inputs.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.distinguish import (
    analyze_forall_k,
    distinguishability_matrix,
    equal_output_pairs_at,
    forall_k_distinguishable_bruteforce,
)
from repro.core.mealy import MealyMachine

SETTINGS = settings(max_examples=100, deadline=None)
seeds = st.integers(min_value=0, max_value=10**6)

#: Largest number of input words one brute-force horizon may enumerate.
MAX_WORDS = 3**6


def build_machine(seed: int, complete: bool = True) -> MealyMachine:
    """A random machine of 2-5 states over 2-3 inputs and 2-6 outputs;
    an incomplete one drops about a fifth of its (state, input) moves."""
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    inputs = ["a", "b", "c"][: rng.randint(2, 3)]
    outputs = [f"o{i}" for i in range(rng.randint(2, 6))]
    m = MealyMachine(states[0], name=f"rand{seed}")
    for s in states:
        m.add_state(s)
        for i in inputs:
            if not complete and rng.random() < 0.2:
                continue
            m.add_transition(s, i, rng.choice(outputs), rng.choice(states))
    return m


def distinct_pairs(machine):
    states = sorted(machine.states, key=repr)
    return [(a, b) for i, a in enumerate(states) for b in states[i + 1:]]


def shortest_word_length(machine, a, b, limit):
    """Length of the shortest input word, among all words of length up
    to ``limit``, on which ``a`` and ``b`` emit different outputs while
    both states have a transition at every step; None when there is
    none.  Depth-first over every word, dropping only the extensions
    that cannot tell the states apart sooner: an undefined step, two
    runs that have reached the same state, or a word no shorter than
    the best found."""
    inputs = sorted(machine.inputs, key=repr)
    best = None

    def walk(sa, sb, depth):
        nonlocal best
        for inp in inputs:
            if best is not None and depth + 1 >= best:
                return
            ta = machine.transition(sa, inp)
            tb = machine.transition(sb, inp)
            if ta is None or tb is None:
                continue
            if ta.out != tb.out:
                best = depth + 1
            elif ta.dst != tb.dst and depth + 1 < limit:
                walk(ta.dst, tb.dst, depth + 1)

    walk(a, b, 0)
    return best


def machine_and_report(seed: int, horizon: bool):
    """The first complete machine from ``seed`` on whose analysis finds
    a horizon (``horizon``) or finds none; about half of all draws
    qualify either way."""
    for offset in range(100):
        m = build_machine(seed + offset)
        report = analyze_forall_k(m)
        if (report.k is not None) == horizon:
            return m, report
    raise AssertionError(f"no draw from seed {seed} qualifies")


def fails_at(machine, pair, k):
    return not forall_k_distinguishable_bruteforce(machine, *pair, k)


class TestForallKHorizon:
    @SETTINGS
    @given(seed=seeds)
    def test_integer_k_is_the_least_horizon(self, seed):
        m, report = machine_and_report(seed, horizon=True)
        k = report.k
        assume(len(m.inputs) ** k <= MAX_WORDS)
        pairs = distinct_pairs(m)
        assert report.residual_pairs == frozenset()
        assert all(
            forall_k_distinguishable_bruteforce(m, a, b, k)
            for a, b in pairs
        )
        if k >= 1:
            assert any(fails_at(m, pair, k - 1) for pair in pairs)

    @SETTINGS
    @given(seed=seeds)
    def test_residual_pairs_are_never_distinguished(self, seed):
        m, report = machine_and_report(seed, horizon=False)
        assert report.residual_pairs
        horizon = min(report.rounds, 6)
        for pair in report.residual_pairs:
            assert fails_at(m, pair, horizon), pair

    @SETTINGS
    @given(seed=seeds, max_k=st.integers(0, 5))
    def test_max_k_caps_the_search(self, seed, max_k):
        """The iteration runs to its fixed point or to ``max_k`` rounds,
        whichever comes first; a cut-off run reports no horizon and the
        pairs still equal after ``max_k`` rounds."""
        m = build_machine(seed)
        full = analyze_forall_k(m)
        capped = analyze_forall_k(m, max_k=max_k)
        assert capped.rounds == min(full.rounds, max_k)
        if full.rounds <= max_k:
            assert capped == full
        else:
            assert capped.k is None
            assert capped.residual_pairs == frozenset(
                equal_output_pairs_at(m, max_k)
            )


class TestMatrix:
    @SETTINGS
    @given(seed=seeds, complete=st.booleans())
    def test_entries_are_shortest_word_lengths(self, seed, complete):
        m = build_machine(seed, complete=complete)
        n = len(m.states)
        limit = n * (n - 1) // 2
        matrix = distinguishability_matrix(m)
        assert sorted(matrix) == distinct_pairs(m)
        for (a, b), length in matrix.items():
            assert length == shortest_word_length(m, a, b, limit), (a, b)
