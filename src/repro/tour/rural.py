"""Rural Chinese postman tours: cover only a *required* edge subset.

The Aho-Dahbura-Lee-Uyar conformance-test formulation ([1] in the
paper) asks for a minimum tour covering a required subset of edges
(e.g. transitions followed by their UIO check sequences), with the
rest of the graph available for free travel.  The general rural
postman problem is NP-hard; this module provides

* :func:`greedy_rural_transitions` -- nearest-required-edge heuristic,
  always valid;
* :func:`rural_lower_bound` -- the trivial ``|required|`` bound used by
  tests and benchmarks to measure heuristic quality.

Within this library rural tours back the conformance-testing example
and provide "cover only the transitions touching feature X" selective
regression test sets.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..core.mealy import MealyMachine, State, Transition
from .greedy import _path_between, _shortest_walk
from .postman import PostmanError


def greedy_rural_transitions(
    machine: MealyMachine,
    required: Iterable[Transition],
    start: Optional[State] = None,
    close_tour: bool = True,
) -> List[Transition]:
    """A closed walk covering every transition in ``required``.

    Repeatedly walks the shortest path to the nearest uncovered
    required transition and traverses it.  Non-required transitions
    may be used freely for travel and count toward the tour length.

    Raises
    ------
    PostmanError
        If a required transition is unreachable or the walk cannot
        close.
    ValueError
        If a required transition does not belong to the machine.
    """
    required = list(required)
    # Validate in argument order, so the error names the same
    # transition whatever order a set of them iterates in.
    for t in required:
        if machine.transition(t.src, t.inp) != t:
            raise ValueError(f"required transition {t} not in {machine.name}")
    want: Set[Transition] = set(required)
    root = machine.initial if start is None else start
    state = root
    tour: List[Transition] = []
    while want:
        path = _shortest_walk(machine, state, want.__contains__)
        if path is None:
            raise PostmanError(
                f"{machine.name}: cannot reach any of {len(want)} "
                f"remaining required transitions from {state!r}"
            )
        for t in path:
            want.discard(t)
            tour.append(t)
            state = t.dst
    if close_tour and state != root:
        tour.extend(_path_between(machine, state, root))
    return tour


def rural_lower_bound(required: Iterable[Transition]) -> int:
    """Trivial lower bound: every required transition is traversed once."""
    return len(set(required))
