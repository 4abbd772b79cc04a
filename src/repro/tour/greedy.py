"""Greedy (unvisited-first) transition tours.

This is the on-the-fly style of tour used by Ho et al. and by the
paper's own SIS-based generator ("This is not an optimal tour"): from
the current state, take an uncovered outgoing transition if one
exists, otherwise walk a shortest path to the nearest state that still
has uncovered outgoing transitions.  No global optimization, O(|E|^2)
worst case, but requires only forward simulation -- which is why it
composes with implicit (BDD) traversal where the full edge list never
materializes.

The TOUR benchmark compares its tour lengths against the optimal
Chinese-postman tours from :mod:`repro.tour.postman`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..core.mealy import MealyMachine, State, Transition
from ..obs import get_registry, span
from .postman import PostmanError


def _compute_next_hop_field(
    sources,
    rev_adj: Dict[State, List[Transition]],
) -> Dict[State, Transition]:
    """Multi-source reverse BFS: for every state that can reach some
    source, the first forward transition of a shortest path there.

    ``sources`` are states that still have uncovered outgoing
    transitions.  The field is a DAG pointing toward the nearest
    source (distance strictly decreases along hops), so walking it
    always terminates at a source -- possibly a stale one, which the
    caller detects and triggers a recompute.
    """
    field: Dict[State, Transition] = {}
    seen = set(sources)
    work = deque(sorted(seen, key=repr))
    while work:
        v = work.popleft()
        for t in rev_adj.get(v, ()):
            if t.src not in seen:
                seen.add(t.src)
                field[t.src] = t
                work.append(t.src)
    reg = get_registry()
    if reg.enabled:
        reg.counter("tour.greedy.field_rebuilds").inc()
        reg.counter("tour.greedy.field_states_expanded").inc(len(seen))
    return field


def greedy_transition_transitions(
    machine: MealyMachine,
    start: Optional[State] = None,
    close_tour: bool = True,
) -> List[Transition]:
    """A transition tour built by the unvisited-first heuristic.

    Walks uncovered transitions eagerly; when stuck, follows a
    next-hop field (multi-source reverse BFS toward all states with
    uncovered work) that is recomputed lazily -- only when the walk
    arrives at a state whose uncovered transitions have been exhausted
    since the field was built.  This amortizes the detour search to
    roughly O(E) per field rebuild instead of a fresh BFS per step,
    which is what makes tours over ~10^5-transition test models (the
    DLX case study) tractable.

    If ``close_tour`` is set the walk finally returns to the start
    state so the result is a closed tour comparable with the
    Chinese-postman output.

    Raises
    ------
    PostmanError
        If some reachable transition can never be covered (machine not
        strongly connected on its reachable part).
    """
    reachable = machine.restrict_to_reachable()
    root = reachable.initial if start is None else start
    # Per-state stacks of uncovered transitions (reverse-sorted so that
    # pop() yields a deterministic order) and reverse adjacency for the
    # next-hop field.
    uncovered: Dict[State, List[Transition]] = {}
    rev_adj: Dict[State, List[Transition]] = {}
    total = 0
    for s in reachable.states:
        outs = reachable.transitions_from(s)
        if outs:
            uncovered[s] = sorted(outs, key=repr, reverse=True)
            total += len(outs)
        for t in outs:
            rev_adj.setdefault(t.dst, []).append(t)
    for lst in rev_adj.values():
        lst.sort(key=repr)

    reg = get_registry()
    c_covered = reg.counter("tour.greedy.edges_covered")
    c_detour = reg.counter("tour.greedy.detour_steps")
    g_remaining = reg.gauge("tour.greedy.edges_remaining")
    tour: List[Transition] = []
    state = root
    remaining = total
    field: Optional[Dict[State, Transition]] = None
    with span("tour.greedy", model=machine.name, transitions=total):
        while remaining:
            g_remaining.set(remaining)
            bucket = uncovered.get(state)
            if bucket:
                t = bucket.pop()
                if not bucket:
                    del uncovered[state]
                remaining -= 1
                c_covered.inc()
                tour.append(t)
                state = t.dst
                continue
            # Stuck: walk the next-hop field toward the nearest state
            # with uncovered work, rebuilding it when it has gone stale.
            if field is None or (state not in field):
                field = _compute_next_hop_field(uncovered.keys(), rev_adj)
                if state not in field and state not in uncovered:
                    raise PostmanError(
                        f"{machine.name}: state {state!r} cannot reach "
                        f"the {remaining} uncovered transitions; "
                        f"machine is not strongly connected"
                    )
            while state not in uncovered:
                hop = field.get(state)
                if hop is None:
                    # Arrived at a stale (exhausted) source: rebuild.
                    field = _compute_next_hop_field(
                        uncovered.keys(), rev_adj
                    )
                    hop = field.get(state)
                    if hop is None:
                        raise PostmanError(
                            f"{machine.name}: state {state!r} cannot "
                            f"reach the {remaining} uncovered transitions"
                        )
                tour.append(hop)
                c_detour.inc()
                state = hop.dst
    if close_tour and state != root:
        back = _path_between(reachable, state, root)
        tour.extend(back)
    return tour


def _shortest_walk(
    machine: MealyMachine,
    start: State,
    goal: Callable[[Transition], bool],
) -> Optional[List[Transition]]:
    """The shortest walk from ``start`` whose last transition satisfies
    ``goal``, or None when no such walk exists.

    The one breadth-first search under every nearest-target tour
    builder.  Each state's transitions are scanned in their sorted
    order, so ties between equally short walks break the same way in
    every process, whatever the hash seed.
    """
    parent: Dict[State, Transition] = {}
    seen = {start}
    work = deque([start])
    while work:
        s = work.popleft()
        for t in machine.transitions_from(s):
            if goal(t):
                path = [t]
                while s != start:
                    back = parent[s]
                    path.append(back)
                    s = back.src
                path.reverse()
                return path
            if t.dst not in seen:
                seen.add(t.dst)
                parent[t.dst] = t
                work.append(t.dst)
    return None


def _path_between(
    machine: MealyMachine, src: State, dst: State
) -> List[Transition]:
    """Shortest transition path from ``src`` to ``dst`` (BFS)."""
    if src == dst:
        return []
    path = _shortest_walk(machine, src, lambda t: t.dst == dst)
    if path is None:
        raise PostmanError(f"{machine.name}: no path from {src!r} to {dst!r}")
    return path


def random_walk_transitions(
    machine: MealyMachine,
    length: int,
    rng,
    start: Optional[State] = None,
) -> List[Transition]:
    """A uniform random walk of the given length (baseline test set).

    The weakest comparator in the coverage-baseline benchmark: random
    functional vectors, the methodology the paper is trying to improve
    on ("high computational requirements due to the large number of
    test vectors needed").
    """
    state = machine.initial if start is None else start
    walk: List[Transition] = []
    for _step in range(length):
        options = machine.transitions_from(state)
        if not options:
            break
        t = rng.choice(options)
        walk.append(t)
        state = t.dst
    return walk
