"""Distinguishability analysis (Definition 5 and Theorem 1's hypothesis).

Definition 5 of the paper: a state ``s1`` is **forall-k-distinguishable**
from ``s2`` if *all* input sequences of length ``k`` distinguish them,
i.e. for every length-``k`` input sequence the two states produce
output sequences that differ in at least one position.  This is a much
stronger property than the classical (exists-a-sequence)
distinguishability of FSM testing theory, and it is exactly what lets
a transition tour expose transfer errors: whatever ``k`` transitions
the tour happens to take after exciting the error, the corrupted state
will betray itself.

The analysis is a fixed-point computation over state pairs.  Define

    Eq_0(u, v)  =  true                                (empty sequence)
    Eq_j(u, v)  =  exists input i such that
                   out(u, i) == out(v, i)  and  Eq_{j-1}(d(u,i), d(v,i))

``Eq_j(u, v)`` holds iff some length-``j`` input sequence produces
*identical* outputs from ``u`` and ``v`` at every step.  Then ``u`` is
forall-k-distinguishable from ``v`` iff ``not Eq_k(u, v)``.  The sets
``Eq_j`` shrink monotonically with ``j`` (a prefix of an
identical-output sequence is identical-output), so the computation
reaches a fixed point in at most ``|S|^2`` iterations; pairs still
equal at the fixed point are never forall-k-distinguishable for any k.

Each analysis here has one implementation: the fixed point, whose
``Eq_j`` step :func:`equal_output_pairs_at` and :func:`analyze_forall_k`
share, and the classical pair-distance table behind
:func:`distinguishability_matrix` and the shortest distinguishing
sequences the W/Wp/HSI suites are built from.  A brute-force oracle
validates the fixed point in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .mealy import Input, MealyMachine, State, sequences

Pair = Tuple[State, State]


def _canonical(a: State, b: State) -> Pair:
    """Order a state pair deterministically (the relation is symmetric)."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


class DistinguishabilityError(Exception):
    """Raised when the machine does not meet analysis preconditions."""


def _require_complete(machine: MealyMachine) -> None:
    missing = machine.undefined_pairs()
    if missing:
        raise DistinguishabilityError(
            f"{machine.name}: forall-k analysis needs an input-complete "
            f"machine (over its valid-input alphabet); "
            f"{len(missing)} undefined (state, input) pairs, "
            f"e.g. {missing[0]!r}.  Wrap with make_complete() or restrict "
            f"the alphabet."
        )


def _all_pairs(states: List[State]) -> Set[Pair]:
    """``Eq_0``: every unordered distinct pair of ``states`` (sorted)."""
    return {
        _canonical(a, b)
        for idx, a in enumerate(states)
        for b in states[idx + 1:]
    }


def _eq_step(
    machine: MealyMachine, inputs: List[Input], current: Set[Pair]
) -> Set[Pair]:
    """One step of the recurrence: ``Eq_j`` from ``current = Eq_{j-1}``."""
    nxt: Set[Pair] = set()
    for (a, b) in current:
        for inp in inputs:
            da, oa = machine.step(a, inp)
            db, ob = machine.step(b, inp)
            if oa != ob:
                continue
            if da == db or _canonical(da, db) in current:
                nxt.add((a, b))
                break
    return nxt


def equal_output_pairs_at(
    machine: MealyMachine, k: int
) -> Set[Pair]:
    """The set ``Eq_k``: unordered state pairs joined by some
    length-``k`` input sequence with identical outputs throughout.

    ``k`` may be larger than the fixed-point depth; the iteration stops
    early once the set stabilizes (by monotonicity the result is then
    valid for every larger ``k``).
    """
    _require_complete(machine)
    inputs = sorted(machine.inputs, key=repr)
    current = _all_pairs(sorted(machine.states, key=repr))
    for _round in range(k):
        nxt = _eq_step(machine, inputs, current)
        if nxt == current:
            return current
        current = nxt
    return current


def forall_k_distinguishable(
    machine: MealyMachine, s1: State, s2: State, k: int
) -> bool:
    """Definition 5: do *all* length-``k`` sequences distinguish s1, s2?

    Equal states are never distinguishable from themselves; ``k == 0``
    is distinguishable for no pair (the empty sequence produces equal,
    empty output sequences).
    """
    if s1 == s2:
        return False
    if k <= 0:
        return False
    return _canonical(s1, s2) not in equal_output_pairs_at(machine, k)


def forall_k_distinguishable_bruteforce(
    machine: MealyMachine, s1: State, s2: State, k: int
) -> bool:
    """Brute-force oracle for :func:`forall_k_distinguishable`.

    Enumerates every length-``k`` input sequence and checks the output
    sequences differ.  Exponential; used to validate the fixed-point
    analysis on small machines in the test suite.
    """
    if s1 == s2 or k <= 0:
        return False
    for seq in sequences(machine.inputs, k):
        if machine.output_sequence(seq, start=s1) == machine.output_sequence(
            seq, start=s2
        ):
            return False
    return True


@dataclass
class ForallKReport:
    """Result of whole-machine forall-k-distinguishability analysis.

    Attributes
    ----------
    k:
        The smallest horizon at which every distinct state pair is
        forall-k-distinguishable, or None when no horizon works (some
        pair admits arbitrarily long identical-output sequences).
    residual_pairs:
        Pairs that are *not* forall-k-distinguishable at the fixed
        point.  Empty iff ``k`` is not None.  These pairs are the
        counterexamples to Theorem 1's hypothesis: a transfer error
        diverting control between such a pair may escape a transition
        tour.
    rounds:
        Number of fixed-point iterations performed.
    """

    k: Optional[int]
    residual_pairs: FrozenSet[Pair]
    rounds: int

    @property
    def holds(self) -> bool:
        """True iff the machine satisfies Definition 5 for some k."""
        return self.k is not None


def analyze_forall_k(
    machine: MealyMachine, max_k: Optional[int] = None
) -> ForallKReport:
    """Find the least ``k`` making *all* distinct state pairs
    forall-k-distinguishable.

    Runs the ``Eq_j`` iteration to its fixed point (or to ``max_k``).
    If the fixed point still contains pairs, no finite ``k`` works and
    the report carries those residual pairs as diagnostics.  Machines
    too large for explicit pair sets have the symbolic twin over their
    netlist, :func:`repro.bdd.distinguish.analyze_forall_k_symbolic`.
    """
    _require_complete(machine)
    states = sorted(machine.states, key=repr)
    inputs = sorted(machine.inputs, key=repr)
    current = _all_pairs(states)
    bound = max_k if max_k is not None else len(states) * len(states) + 1
    rounds = 0
    while rounds < bound:
        if not current:
            return ForallKReport(k=rounds, residual_pairs=frozenset(), rounds=rounds)
        nxt = _eq_step(machine, inputs, current)
        rounds += 1
        if nxt == current:
            # Fixed point with residual pairs: no k suffices.
            return ForallKReport(
                k=None, residual_pairs=frozenset(current), rounds=rounds
            )
        current = nxt
    if not current:
        return ForallKReport(k=rounds, residual_pairs=frozenset(), rounds=rounds)
    return ForallKReport(k=None, residual_pairs=frozenset(current), rounds=rounds)


def _pair_distance_table(machine: MealyMachine) -> Dict[Pair, Optional[int]]:
    """Shortest exists-distinguishing length for *every* unordered
    distinct state pair, computed in one shared layered fixpoint.

    Layer 1 holds pairs split immediately by some (mutually defined)
    input; layer ``d`` adds pairs with an identical-output move into an
    earlier layer.  One sweep prices the whole triangle -- the
    per-query BFS this replaces re-explored the same pair graph from
    scratch for each of the ``n(n-1)/2`` queries.  The one
    implementation of the pair distances: the W/Wp/HSI suite
    generators, :func:`shortest_distinguishing_sequence` and
    :func:`distinguishability_matrix` all read this table.
    """
    states = sorted(machine.states, key=repr)
    inputs = sorted(machine.inputs, key=repr)
    table: Dict[Pair, Optional[int]] = {
        _canonical(a, b): None
        for idx, a in enumerate(states)
        for b in states[idx + 1:]
    }
    for pair in table:
        a, b = pair
        for inp in inputs:
            ta = machine.transition(a, inp)
            tb = machine.transition(b, inp)
            if ta is not None and tb is not None and ta.out != tb.out:
                table[pair] = 1
                break
    d = 2
    changed = True
    while changed:
        changed = False
        for pair, known in table.items():
            if known is not None:
                continue
            a, b = pair
            for inp in inputs:
                ta = machine.transition(a, inp)
                tb = machine.transition(b, inp)
                if ta is None or tb is None or ta.out != tb.out:
                    continue
                if ta.dst == tb.dst:
                    continue
                succ = table[_canonical(ta.dst, tb.dst)]
                if succ is not None and succ < d:
                    table[pair] = d
                    changed = True
                    break
        d += 1
    return table


def shortest_distinguishing_sequence(
    machine: MealyMachine,
    s1: State,
    s2: State,
    table: Optional[Dict[Pair, Optional[int]]] = None,
) -> Optional[Tuple[Input, ...]]:
    """Classical distinguishability: the shortest input sequence on
    which ``s1`` and ``s2`` produce different outputs, or None if the
    states are output-equivalent.

    Walks the shared pair-distance table greedily (first input, in
    sorted order, that steps one layer closer), which reconstructs the
    lexicographically-least shortest sequence -- the same sequence the
    per-pair BFS this replaces returned.  Pass ``table`` (from
    :func:`_pair_distance_table`) to amortize the fixpoint across many
    queries; by default one is computed on demand.  This is the
    *exists* flavour used in conformance testing (and by UIO
    computation); note the contrast with Definition 5's *forall*
    flavour above.
    """
    if s1 == s2:
        return None
    if table is None:
        table = _pair_distance_table(machine)
    remaining = table.get(_canonical(s1, s2))
    if remaining is None:
        return None
    inputs = sorted(machine.inputs, key=repr)
    a, b = s1, s2
    sequence: List[Input] = []
    while remaining:
        for inp in inputs:
            ta = machine.transition(a, inp)
            tb = machine.transition(b, inp)
            if ta is None or tb is None:
                continue
            if remaining == 1:
                if ta.out != tb.out:
                    sequence.append(inp)
                    return tuple(sequence)
                continue
            if ta.out != tb.out or ta.dst == tb.dst:
                continue
            succ = table[_canonical(ta.dst, tb.dst)]
            if succ == remaining - 1:
                sequence.append(inp)
                a, b = ta.dst, tb.dst
                remaining = succ
                break
        else:  # pragma: no cover - table invariant: a step always exists
            raise AssertionError(
                f"{machine.name}: pair distance table inconsistent at "
                f"({a!r}, {b!r})"
            )
    return tuple(sequence)


def distinguishability_matrix(
    machine: MealyMachine,
) -> Dict[Pair, Optional[int]]:
    """For every unordered distinct state pair, the length of the
    shortest distinguishing sequence (None when equivalent).

    A diagnostic / reporting helper: the max over the matrix is the
    classical distinguishing bound, a lower bound on any usable
    forall-k horizon.  This is :func:`_pair_distance_table`, the table
    the W/Wp/HSI suite generators build their sequences from.
    """
    return _pair_distance_table(machine)


def observability_deficit(
    machine: MealyMachine, report: Optional[ForallKReport] = None
) -> List[Pair]:
    """State pairs that block Definition 5 and hence Theorem 1.

    These pairs are the machine-level manifestation of Requirement 5's
    concern: state that "interacts with subsequent inputs" but is not
    observable.  The prescribed fix is to make more state observable
    (enrich the outputs) -- see
    :func:`repro.core.abstraction.observe_state_component`.
    """
    if report is None:
        report = analyze_forall_k(machine)
    return sorted(report.residual_pairs, key=repr)
