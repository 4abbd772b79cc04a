"""Directed Chinese Postman tours over Mealy machines (Section 6.5).

"It is known that the problem of finding a minimum cost transition
tour corresponds directly to the Chinese postman problem, which can be
solved in polynomial time."  This module is that solver for the
directed case:

1. every transition of the (reachable, strongly connected) machine is
   an edge of unit cost;
2. a minimum-cost flow duplicates edges until every state's in- and
   out-degree balance (the duplications are the re-traversals the tour
   cannot avoid);
3. an Eulerian circuit of the augmented multigraph is a minimum-length
   transition tour.

The optimal tour length is ``#transitions + min-cost flow value``;
comparing it against the greedy heuristic quantifies the paper's
remark that their 1069M-step tour over 123M transitions was "not an
optimal tour".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.mealy import MealyError, MealyMachine, State, Transition
from .eulerian import Edge, eulerian_circuit
from .mincostflow import FlowError, MinCostFlow


class PostmanError(Exception):
    """Raised when no closed tour can exist (e.g. not strongly connected)."""


def edge_imbalances(machine: MealyMachine) -> Dict[State, int]:
    """in-degree minus out-degree per state (postman supplies).

    A state with positive imbalance has more arrivals than departures,
    so a closed tour must leave it via duplicated edges; negative
    imbalance is the symmetric demand.  States are keyed in ``repr``
    order: the flow solver breaks ties between equally distant demand
    nodes by this order, and a frozenset's iteration order would make
    the tour depend on the hash seed.
    """
    bal: Dict[State, int] = {s: 0 for s in sorted(machine.states, key=repr)}
    for t in machine.transitions:
        bal[t.src] -= 1
        bal[t.dst] += 1
    return bal


def minimum_duplications(
    machine: MealyMachine,
) -> Tuple[Dict[Transition, int], int]:
    """The cheapest edge-duplication multiset balancing the machine.

    Returns ``(copies, total)`` where ``copies[t]`` is how many extra
    times transition ``t`` must be traversed and ``total`` is their
    sum -- the exact overhead of the optimal tour over the
    transition count.
    """
    supplies = {
        s: b for s, b in edge_imbalances(machine).items() if b != 0
    }
    if not supplies:
        return {}, 0
    capacity = sum(b for b in supplies.values() if b > 0)
    net = MinCostFlow()
    for t in machine.transitions:
        net.add_arc(t.src, t.dst, capacity=capacity, cost=1.0, tag=t)
    try:
        flows = net.solve(supplies)
    except FlowError as exc:
        raise PostmanError(
            f"{machine.name}: cannot balance degrees -- {exc}"
        ) from exc
    copies: Dict[Transition, int] = dict(flows)
    return copies, sum(copies.values())


def chinese_postman_transitions(
    machine: MealyMachine, start: Optional[State] = None
) -> List[Transition]:
    """A minimum-length closed transition tour, as a transition list.

    The machine is first restricted to its reachable part; it must be
    strongly connected there (a closed tour visiting every transition
    cannot exist otherwise).

    Raises
    ------
    PostmanError
        If the reachable machine is not strongly connected.
    """
    reachable = machine.restrict_to_reachable()
    if not reachable.is_strongly_connected():
        raise PostmanError(
            f"{machine.name}: reachable part is not strongly connected; "
            f"no closed transition tour exists"
        )
    root = reachable.initial if start is None else start
    copies, _total = minimum_duplications(reachable)
    edges: List[Edge] = []
    for t in reachable.transitions:
        edges.append((t.src, t.dst, (t, 0)))
        for copy_idx in range(copies.get(t, 0)):
            edges.append((t.src, t.dst, (t, copy_idx + 1)))
    circuit = eulerian_circuit(edges, root)
    return [tag[0] for (_src, _dst, tag) in circuit]


def optimal_tour_length(machine: MealyMachine) -> int:
    """Length of the minimum transition tour (without constructing it).

    Equals ``#reachable transitions + minimum duplications``; the lower
    bound ``#transitions`` is met exactly when the transition graph is
    already Eulerian.
    """
    reachable = machine.restrict_to_reachable()
    if not reachable.is_strongly_connected():
        raise PostmanError(
            f"{machine.name}: reachable part is not strongly connected"
        )
    _copies, total = minimum_duplications(reachable)
    return reachable.num_transitions() + total
