"""High-level test-set generation from test models (Figure 1's
"Test Set Generator" box).

This module wraps the tour algorithms into a single interface that
produces :class:`Tour` objects -- input sequences with their coverage
pedigree -- directly from Mealy machines:

* :func:`transition_tour` -- the paper's test set: every transition at
  least once, either optimally (Chinese postman) or greedily.
* :func:`state_tour` -- the weaker baseline of the related work
  (Iwashita et al.): every state at least once.
* :func:`checking_tour` -- the conformance-testing strengthening:
  every transition followed by a UIO confirmation of its destination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.coverage import is_state_tour, is_transition_tour
from ..core.mealy import Input, MealyMachine, State, Transition
from ..obs import get_registry, span
from .greedy import (
    _path_between,
    _shortest_walk,
    greedy_transition_transitions,
    random_walk_transitions,
)
from .postman import PostmanError, chinese_postman_transitions
from .uio import uio_sequence


@dataclass(frozen=True)
class Tour:
    """A generated test sequence with its provenance.

    Attributes
    ----------
    machine_name:
        The test model this tour was generated for.
    method:
        Generation method ("cpp", "greedy", "state", "checking",
        "random").
    start:
        The state the tour starts from.
    inputs:
        The test set proper -- the input sequence to simulate.
    transitions:
        The transition sequence the inputs induce on the test model.
    """

    machine_name: str
    method: str
    start: State
    inputs: Tuple[Input, ...]
    transitions: Tuple[Transition, ...]

    def __len__(self) -> int:
        return len(self.inputs)

    def covers_transitions(self, machine: MealyMachine) -> bool:
        """True iff this tour is a transition tour of ``machine``.

        A machine with no transitions is covered vacuously -- there is
        nothing to traverse -- and the verdict is returned explicitly
        rather than left to empty-set iteration inside the coverage
        report (which would raise on a stale non-empty tour instead of
        answering the coverage question).
        """
        if machine.num_transitions() == 0:
            return True
        return is_transition_tour(machine, self.inputs, start=self.start)

    def covers_states(self, machine: MealyMachine) -> bool:
        """True iff this tour visits every reachable state.

        Vacuously true when the machine has at most one state (the
        start state covers it, whatever the inputs); stated explicitly
        for the same reason as :meth:`covers_transitions`.
        """
        if len(machine.states) <= 1 or machine.num_transitions() == 0:
            # With no transitions only the start state is reachable,
            # and it is visited by construction.
            return True
        return is_state_tour(machine, self.inputs, start=self.start)

    def outputs(self, machine: MealyMachine) -> Tuple:
        """Expected (specification) outputs along the tour."""
        return machine.output_sequence(self.inputs, start=self.start)


def _from_transitions(
    machine: MealyMachine,
    method: str,
    start: State,
    transitions: Sequence[Transition],
) -> Tour:
    tour = Tour(
        machine_name=machine.name,
        method=method,
        start=start,
        inputs=tuple(t.inp for t in transitions),
        transitions=tuple(transitions),
    )
    reg = get_registry()
    if reg.enabled:
        reg.gauge(
            "tour.length", model=machine.name, method=method
        ).set(len(tour))
        reg.counter("tour.generated_total", method=method).inc()
    return tour


def transition_tour(
    machine: MealyMachine,
    method: str = "cpp",
    start: Optional[State] = None,
) -> Tour:
    """Generate a transition tour of ``machine``.

    ``method`` selects the generator:

    * ``"cpp"`` -- minimum-length tour via the directed Chinese
      postman reduction (Section 6.5).
    * ``"greedy"`` -- unvisited-first heuristic; longer tours, but
      needs only forward simulation.

    The returned tour starts at ``start`` (default: the initial state)
    and, for both methods, ends back there.
    """
    root = machine.initial if start is None else start
    with span(
        "tour.generate", model=machine.name, method=method
    ) as sp:
        if method == "cpp":
            trans = chinese_postman_transitions(machine, start=root)
        elif method == "greedy":
            trans = greedy_transition_transitions(machine, start=root)
        else:
            raise ValueError(f"unknown tour method {method!r}")
        sp.set(length=len(trans))
    return _from_transitions(machine, method, root, trans)


def state_tour(
    machine: MealyMachine, start: Optional[State] = None
) -> Tour:
    """A walk visiting every reachable state at least once.

    Greedy nearest-unvisited-state strategy.  This is the baseline
    coverage criterion of the related work; the coverage-comparison
    benchmark shows how many transition-level errors it leaves
    untested.
    """
    reachable = machine.restrict_to_reachable()
    root = reachable.initial if start is None else start
    unvisited = set(reachable.states) - {root}
    state = root
    walk: List[Transition] = []
    with span("tour.generate", model=machine.name, method="state"):
        while unvisited:
            # Walk to the nearest unvisited state (any of them).
            path = _shortest_walk(
                reachable, state, lambda t: t.dst in unvisited
            )
            if path is None:
                raise PostmanError(
                    f"{machine.name}: states "
                    f"{sorted(unvisited, key=repr)} "
                    f"unreachable from {state!r}"
                )
            for t in path:
                walk.append(t)
                state = t.dst
                unvisited.discard(state)
    return _from_transitions(machine, "state", root, walk)


def checking_tour(
    machine: MealyMachine,
    start: Optional[State] = None,
    uio_max_len: int = 8,
) -> Tour:
    """A conformance-style tour: each transition, then a UIO check.

    For every transition ``t`` the tour traverses ``t`` and immediately
    afterwards a UIO sequence of ``t.dst``, confirming the destination
    state.  This is the Aho-Dahbura construction the paper cites as
    [1]; it detects transfer errors *without* the Definition 5
    hypothesis, at the price of a longer tour -- the trade the
    benchmarks quantify.

    Raises
    ------
    PostmanError
        If some reachable state lacks a UIO of length <= ``uio_max_len``
        (the construction is then inapplicable); the message names the
        first such state in ``repr`` order.  UIOs are searched on the
        reachable part: an unreachable state is never confirmed and
        never needs telling apart.
    """
    root = machine.initial if start is None else start
    reachable = machine.restrict_to_reachable()
    uios = {}
    for s in sorted(reachable.states, key=repr):
        seq = uio_sequence(reachable, s, max_len=uio_max_len)
        if seq is None:
            raise PostmanError(
                f"{machine.name}: state {s!r} has no UIO sequence of "
                f"length <= {uio_max_len}; checking tour inapplicable"
            )
        uios[s] = seq
    walk: List[Transition] = []
    state = root
    pending = set(reachable.transitions)
    while pending:
        path = _shortest_walk(machine, state, pending.__contains__)
        if path is None:
            raise PostmanError(
                f"{machine.name}: cannot reach remaining transitions"
            )
        for t in path[:-1]:
            walk.append(t)
            state = t.dst
        t = path[-1]
        walk.append(t)
        pending.discard(t)
        state = t.dst
        # Append the UIO confirmation of the destination.  Transitions
        # traversed *inside* a UIO segment stay pending: the
        # construction requires each transition to be followed by its
        # own destination's UIO, so incidental coverage does not count.
        for inp in uios[state]:
            u = machine.transition(state, inp)
            if u is None:
                raise PostmanError(
                    f"{machine.name}: UIO of {state!r} undefined at {inp!r}"
                )
            walk.append(u)
            state = u.dst
    if state != root:
        for t in _path_between(machine, state, root):
            walk.append(t)
    return _from_transitions(machine, "checking", root, walk)


def random_tour(
    machine: MealyMachine,
    length: int,
    seed: int = 0,
    start: Optional[State] = None,
) -> Tour:
    """A random-walk test set of the given length (weakest baseline)."""
    root = machine.initial if start is None else start
    rng = random.Random(seed)
    trans = random_walk_transitions(machine, length, rng, start=root)
    return _from_transitions(machine, "random", root, trans)
