"""Mealy machines: the formal substrate for test models.

The paper regards the design implementation as a Mealy machine
(Section 4.1), and derives the *test model* from it by abstracting
state and input space.  This module provides:

* :class:`MealyMachine` -- a deterministic Mealy machine with
  hashable states, inputs and outputs.
* :class:`NondetMealyMachine` -- a Mealy machine whose transitions may
  carry *sets* of (next-state, output) pairs.  The paper notes that
  because many implementation transitions map onto one test-model
  transition, "the test model may have non-deterministic outputs";
  this class models exactly that.
* Product construction, reachability, completeness checks and
  input/output sequence execution -- the operations every other layer
  (tours, distinguishability, fault injection) builds on.

States, inputs and outputs may be any hashable Python objects; strings
and tuples are typical.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

State = Hashable
Input = Hashable
Output = Hashable


@dataclass(frozen=True)
class Transition:
    """A single labelled edge ``src --inp/out--> dst`` of a Mealy machine.

    Transitions are the unit of coverage in this library: a *transition
    tour* is an input sequence whose induced run traverses every
    :class:`Transition` of the machine at least once, and the error
    model of the paper (Definitions 1-4) attaches errors to
    transitions.
    """

    src: State
    inp: Input
    out: Output
    dst: State

    def relabel(self, out: Output = None, dst: State = None) -> "Transition":
        """Return a copy with ``out`` and/or ``dst`` replaced.

        Used by the fault injector to build output-error and
        transfer-error mutants of a machine.
        """
        new_out = self.out if out is None else out
        new_dst = self.dst if dst is None else dst
        return Transition(self.src, self.inp, new_out, new_dst)


class MealyError(Exception):
    """Raised on structurally invalid machines or undefined steps."""


class MealyMachine:
    """A deterministic Mealy machine ``M = (S, I, O, delta, lambda, s0)``.

    The machine need not be input-complete: a (state, input) pair with
    no transition is simply undefined, which models the paper's use of
    *input don't-cares* ("not all combinations are allowed due to
    invalid instructions", Section 7.2).  Methods that need totality
    (e.g. product machines for distinguishability) state their
    requirements explicitly.

    Parameters
    ----------
    initial:
        The initial state.  It is added to the state set implicitly.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(self, initial: State, name: str = "mealy") -> None:
        self.name = name
        self.initial = initial
        self._states: Set[State] = {initial}
        self._inputs: Set[Input] = set()
        self._outputs: Set[Output] = set()
        # (state, input) -> Transition
        self._delta: Dict[Tuple[State, Input], Transition] = {}
        # state -> {input: Transition}; kept in sync by add_transition
        # so per-state queries are O(out-degree), not O(|delta|).
        self._succ: Dict[State, Dict[Input, Transition]] = {}
        self._succ_sorted: Dict[State, Tuple[Transition, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_state(self, state: State) -> State:
        """Add ``state`` to the state set (idempotent) and return it."""
        self._states.add(state)
        return state

    def add_transition(
        self, src: State, inp: Input, out: Output, dst: State
    ) -> Transition:
        """Add the transition ``src --inp/out--> dst``.

        Raises
        ------
        MealyError
            If a *different* transition is already defined on
            ``(src, inp)``; determinism is enforced at construction
            time.  Re-adding an identical transition is permitted.
        """
        t = Transition(src, inp, out, dst)
        key = (src, inp)
        existing = self._delta.get(key)
        if existing is not None and existing != t:
            raise MealyError(
                f"{self.name}: duplicate transition on {key}: "
                f"have {existing}, got {t}"
            )
        self._delta[key] = t
        self._succ.setdefault(src, {})[inp] = t
        self._succ_sorted.pop(src, None)
        self._states.add(src)
        self._states.add(dst)
        self._inputs.add(inp)
        self._outputs.add(out)
        return t

    @classmethod
    def from_transitions(
        cls,
        initial: State,
        transitions: Iterable[Tuple[State, Input, Output, State]],
        name: str = "mealy",
    ) -> "MealyMachine":
        """Build a machine from ``(src, inp, out, dst)`` tuples."""
        m = cls(initial, name=name)
        for src, inp, out, dst in transitions:
            m.add_transition(src, inp, out, dst)
        return m

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def states(self) -> FrozenSet[State]:
        """The set of all states (reachable or not)."""
        return frozenset(self._states)

    @property
    def inputs(self) -> FrozenSet[Input]:
        """The input alphabet (inputs appearing on some transition)."""
        return frozenset(self._inputs)

    @property
    def outputs(self) -> FrozenSet[Output]:
        """The output alphabet (outputs appearing on some transition)."""
        return frozenset(self._outputs)

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """All transitions, in a deterministic order."""
        return tuple(
            self._delta[k] for k in sorted(self._delta, key=repr)
        )

    def __len__(self) -> int:
        return len(self._states)

    def num_transitions(self) -> int:
        """Number of defined transitions."""
        return len(self._delta)

    def transition(self, state: State, inp: Input) -> Optional[Transition]:
        """The transition on ``(state, inp)``, or None if undefined."""
        return self._delta.get((state, inp))

    def transitions_from(self, state: State) -> Tuple[Transition, ...]:
        """All transitions leaving ``state``, deterministically ordered."""
        cached = self._succ_sorted.get(state)
        if cached is None:
            cached = tuple(
                sorted(self._succ.get(state, {}).values(), key=repr)
            )
            self._succ_sorted[state] = cached
        return cached

    def defined_inputs(self, state: State) -> FrozenSet[Input]:
        """Inputs on which a transition is defined at ``state``."""
        return frozenset(self._succ.get(state, {}))

    def is_complete(self, alphabet: Optional[Iterable[Input]] = None) -> bool:
        """True iff every state has a transition on every input.

        ``alphabet`` defaults to :attr:`inputs`.  Completeness (over the
        *valid* input set) is assumed by the distinguishability
        analysis; test models with don't-cares are complete over their
        restricted alphabet of valid inputs.
        """
        alpha = frozenset(alphabet) if alphabet is not None else self.inputs
        return all(
            (s, i) in self._delta for s in self._states for i in alpha
        )

    def undefined_pairs(self) -> List[Tuple[State, Input]]:
        """(state, input) pairs with no transition, over :attr:`inputs`."""
        return [
            (s, i)
            for s in sorted(self._states, key=repr)
            for i in sorted(self._inputs, key=repr)
            if (s, i) not in self._delta
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, state: State, inp: Input) -> Tuple[State, Output]:
        """Apply one input; return ``(next_state, output)``.

        Raises
        ------
        MealyError
            If no transition is defined on ``(state, inp)``.
        """
        t = self._delta.get((state, inp))
        if t is None:
            raise MealyError(
                f"{self.name}: no transition from {state!r} on {inp!r}"
            )
        return t.dst, t.out

    def run(
        self, inputs: Sequence[Input], start: Optional[State] = None
    ) -> Tuple[List[Output], State]:
        """Run an input sequence; return (output sequence, final state)."""
        state = self.initial if start is None else start
        outs: List[Output] = []
        for inp in inputs:
            state, out = self.step(state, inp)
            outs.append(out)
        return outs, state

    def output_sequence(
        self, inputs: Sequence[Input], start: Optional[State] = None
    ) -> Tuple[Output, ...]:
        """The output sequence produced by ``inputs`` (convenience)."""
        outs, _final = self.run(inputs, start=start)
        return tuple(outs)

    def trace(
        self, inputs: Sequence[Input], start: Optional[State] = None
    ) -> List[Transition]:
        """The transitions traversed by an input sequence, in order."""
        state = self.initial if start is None else start
        path: List[Transition] = []
        for inp in inputs:
            t = self._delta.get((state, inp))
            if t is None:
                raise MealyError(
                    f"{self.name}: no transition from {state!r} on {inp!r}"
                )
            path.append(t)
            state = t.dst
        return path

    # ------------------------------------------------------------------
    # Reachability and structure
    # ------------------------------------------------------------------
    def reachable_states(self, start: Optional[State] = None) -> Set[State]:
        """States reachable from ``start`` (default: the initial state)."""
        root = self.initial if start is None else start
        seen: Set[State] = {root}
        work = deque([root])
        while work:
            s = work.popleft()
            for t in self._succ.get(s, {}).values():
                if t.dst not in seen:
                    seen.add(t.dst)
                    work.append(t.dst)
        return seen

    def restrict_to_reachable(self) -> "MealyMachine":
        """A copy containing only states reachable from the initial state."""
        reach = self.reachable_states()
        m = MealyMachine(self.initial, name=self.name)
        for s in reach:
            m.add_state(s)
        for (s, _i), t in self._delta.items():
            if s in reach:
                m.add_transition(t.src, t.inp, t.out, t.dst)
        return m

    def is_strongly_connected(self) -> bool:
        """True iff the transition graph is strongly connected.

        Strong connectivity (over reachable states) is what guarantees
        that a single closed transition tour exists; the Chinese
        postman formulation assumes it.
        """
        states = sorted(self._states, key=repr)
        if not states:
            return True
        fwd: Dict[State, List[State]] = {s: [] for s in states}
        rev: Dict[State, List[State]] = {s: [] for s in states}
        for t in self._delta.values():
            fwd[t.src].append(t.dst)
            rev[t.dst].append(t.src)

        def bfs(adj: Dict[State, List[State]]) -> Set[State]:
            seen = {states[0]}
            work = deque([states[0]])
            while work:
                s = work.popleft()
                for d in adj[s]:
                    if d not in seen:
                        seen.add(d)
                        work.append(d)
            return seen

        return len(bfs(fwd)) == len(states) and len(bfs(rev)) == len(states)

    def degree_imbalance(self) -> Dict[State, int]:
        """out-degree minus in-degree per state.

        Nonzero imbalances are what the Chinese-postman augmentation
        must repair before an Eulerian circuit (minimum tour) exists.
        """
        bal: Dict[State, int] = {s: 0 for s in self._states}
        for t in self._delta.values():
            bal[t.src] += 1
            bal[t.dst] -= 1
        return bal

    # ------------------------------------------------------------------
    # Composition and comparison
    # ------------------------------------------------------------------
    def product(self, other: "MealyMachine") -> "MealyMachine":
        """Synchronous product, outputs paired componentwise.

        The product runs both machines on the same input and outputs
        the pair of their outputs; it is the standard vehicle for
        equivalence checking and for the distinguishability analysis
        of Definition 5.  Only (state, input) pairs defined in *both*
        machines yield product transitions.
        """
        prod = MealyMachine(
            (self.initial, other.initial),
            name=f"({self.name}x{other.name})",
        )
        work = deque([(self.initial, other.initial)])
        seen = {(self.initial, other.initial)}
        while work:
            s1, s2 = work.popleft()
            common = self.defined_inputs(s1) & other.defined_inputs(s2)
            for inp in sorted(common, key=repr):
                d1, o1 = self.step(s1, inp)
                d2, o2 = other.step(s2, inp)
                prod.add_transition((s1, s2), inp, (o1, o2), (d1, d2))
                if (d1, d2) not in seen:
                    seen.add((d1, d2))
                    work.append((d1, d2))
        return prod

    def equivalent_to(
        self, other: "MealyMachine", max_depth: Optional[int] = None
    ) -> Optional[Tuple[Input, ...]]:
        """Check trace equivalence; return a distinguishing sequence or None.

        Performs a BFS over the product of reachable state pairs; the
        first pair producing different outputs on a common input yields
        the (shortest) distinguishing input sequence, which is returned.
        Returns None when the machines are equivalent over common
        defined inputs (up to ``max_depth``, if given).

        This is the library's "golden model comparison": a faulted
        implementation is detected exactly when this returns a sequence.
        """
        start = (self.initial, other.initial)
        # Each queue entry: (pair, input sequence reaching it)
        work: deque = deque([(start, ())])
        seen = {start}
        while work:
            (s1, s2), prefix = work.popleft()
            if max_depth is not None and len(prefix) > max_depth:
                continue
            common = self.defined_inputs(s1) & other.defined_inputs(s2)
            for inp in sorted(common, key=repr):
                d1, o1 = self.step(s1, inp)
                d2, o2 = other.step(s2, inp)
                if o1 != o2:
                    return prefix + (inp,)
                nxt = (d1, d2)
                if nxt not in seen:
                    seen.add(nxt)
                    work.append((nxt, prefix + (inp,)))
        return None

    def rename_states(
        self, mapping: Callable[[State], State]
    ) -> "MealyMachine":
        """A copy with every state renamed through ``mapping``.

        ``mapping`` must be injective on the state set; a
        :class:`MealyError` is raised otherwise (a non-injective map is
        an *abstraction* and belongs in
        :mod:`repro.core.abstraction`, which handles the induced
        nondeterminism).
        """
        images: Dict[State, State] = {}
        for s in self._states:
            img = mapping(s)
            images[s] = img
        if len(set(images.values())) != len(images):
            raise MealyError(
                f"{self.name}: rename_states mapping is not injective"
            )
        m = MealyMachine(images[self.initial], name=self.name)
        for s in self._states:
            m.add_state(images[s])
        for t in self._delta.values():
            m.add_transition(images[t.src], t.inp, t.out, images[t.dst])
        return m

    def copy(self, name: Optional[str] = None) -> "MealyMachine":
        """A structural copy of this machine."""
        m = MealyMachine(self.initial, name=name or self.name)
        for s in self._states:
            m.add_state(s)
        for t in self._delta.values():
            m.add_transition(t.src, t.inp, t.out, t.dst)
        return m

    def __eq__(self, other: object) -> bool:
        if self is other:
            # Memo lookups (weak-keyed on the machine) compare a key
            # with itself: answer without walking the tables.
            return True
        if not isinstance(other, MealyMachine):
            return NotImplemented
        return (
            self.initial == other.initial
            and self._states == other._states
            and self._delta == other._delta
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return (
            f"MealyMachine({self.name!r}, states={len(self._states)}, "
            f"inputs={len(self._inputs)}, "
            f"transitions={len(self._delta)})"
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """A Graphviz dot rendering (for documentation and debugging)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        lines.append(f'  __start [shape=point]; __start -> "{self.initial}";')
        for t in self.transitions:
            lines.append(
                f'  "{t.src}" -> "{t.dst}" [label="{t.inp}/{t.out}"];'
            )
        lines.append("}")
        return "\n".join(lines)


class NondetMealyMachine:
    """A Mealy machine whose (state, input) pairs map to *sets* of
    (next-state, output) alternatives.

    Section 4.1: "Since multiple transitions in the implementation,
    with possibly different outputs, may map to the same transition in
    the test model, the test model may have non-deterministic outputs."
    Quotient machines produced by :mod:`repro.core.abstraction` are of
    this type; Requirement 1 (uniform output errors) is checked against
    the amount of output nondeterminism they exhibit.
    """

    def __init__(self, initial: State, name: str = "nondet-mealy") -> None:
        self.name = name
        self.initial = initial
        self._states: Set[State] = {initial}
        self._inputs: Set[Input] = set()
        self._moves: Dict[Tuple[State, Input], Set[Tuple[State, Output]]] = {}

    def add_move(
        self, src: State, inp: Input, out: Output, dst: State
    ) -> None:
        """Add the alternative ``src --inp/out--> dst``."""
        self._moves.setdefault((src, inp), set()).add((dst, out))
        self._states.add(src)
        self._states.add(dst)
        self._inputs.add(inp)

    @property
    def states(self) -> FrozenSet[State]:
        return frozenset(self._states)

    @property
    def inputs(self) -> FrozenSet[Input]:
        return frozenset(self._inputs)

    def moves(self, state: State, inp: Input) -> FrozenSet[Tuple[State, Output]]:
        """The set of (next-state, output) alternatives on (state, inp)."""
        return frozenset(self._moves.get((state, inp), ()))

    def num_moves(self) -> int:
        """Total number of (src, inp, out, dst) alternatives."""
        return sum(len(v) for v in self._moves.values())

    def outputs_on(self, state: State, inp: Input) -> FrozenSet[Output]:
        """The set of possible outputs on (state, inp)."""
        return frozenset(o for (_d, o) in self._moves.get((state, inp), ()))

    def is_output_deterministic(self) -> bool:
        """True iff every (state, input) pair has at most one output.

        This is the executable core of Requirement 1: if the quotient
        test model is output-deterministic then an output error on an
        abstract transition is *uniform* -- it shows up for every
        concrete history ending in that transition.
        """
        return all(
            len({o for (_d, o) in alts}) <= 1
            for alts in self._moves.values()
        )

    def output_nondeterministic_pairs(
        self,
    ) -> List[Tuple[State, Input, FrozenSet[Output]]]:
        """All (state, input) pairs with more than one possible output.

        These are precisely the places where the abstraction has merged
        histories that Requirement 1 says must stay distinguishable --
        the "abstracting too much" diagnostic of Section 6.3.
        """
        bad = []
        for (s, i), alts in sorted(self._moves.items(), key=repr):
            outs = frozenset(o for (_d, o) in alts)
            if len(outs) > 1:
                bad.append((s, i, outs))
        return bad

    def is_deterministic(self) -> bool:
        """True iff every (state, input) has exactly one alternative."""
        return all(len(alts) == 1 for alts in self._moves.values())

    def determinize_outputs(self) -> "MealyMachine":
        """Convert to a deterministic :class:`MealyMachine`.

        Raises
        ------
        MealyError
            If any (state, input) pair has more than one alternative.
        """
        m = MealyMachine(self.initial, name=self.name)
        for s in self._states:
            m.add_state(s)
        for (s, i), alts in self._moves.items():
            if len(alts) != 1:
                raise MealyError(
                    f"{self.name}: nondeterministic on ({s!r}, {i!r})"
                )
            (dst, out), = alts
            m.add_transition(s, i, out, dst)
        return m

    def __repr__(self) -> str:
        return (
            f"NondetMealyMachine({self.name!r}, "
            f"states={len(self._states)}, moves={self.num_moves()})"
        )


def make_complete(
    machine: MealyMachine,
    sink_output: Output = "trap",
    sink_state: State = "__trap__",
) -> MealyMachine:
    """Return an input-complete version of ``machine``.

    Undefined (state, input) pairs are redirected to a trap state that
    loops on every input with ``sink_output``.  Used when an analysis
    (e.g. the product-based distinguishability check) needs totality
    but the model has input don't-cares.
    """
    m = machine.copy(name=machine.name + "+trap")
    missing = m.undefined_pairs()
    if not missing:
        return m
    m.add_state(sink_state)
    for s, i in missing:
        m.add_transition(s, i, sink_output, sink_state)
    for i in sorted(machine.inputs, key=repr):
        m.add_transition(sink_state, i, sink_output, sink_state)
    return m


def sequences(alphabet: Iterable[Input], length: int) -> Iterator[Tuple[Input, ...]]:
    """All input sequences of exactly ``length`` over ``alphabet``.

    Deterministically ordered; used by brute-force oracles in the test
    suite and by the exhaustive definition-level distinguishability
    check.
    """
    alpha = sorted(set(alphabet), key=repr)
    return itertools.product(alpha, repeat=length)
