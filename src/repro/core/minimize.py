"""Mealy-machine minimization and state equivalence.

Partition-refinement (Moore/Hopcroft style) minimization for
deterministic Mealy machines.  Minimization matters to the methodology
in two ways:

* A test model with equivalent states can never satisfy Definition 5
  (equivalent states are indistinguishable by *any* sequence), so the
  minimized machine is the right object to run
  :func:`repro.core.distinguish.analyze_forall_k` on.
* The quotient construction here is the degenerate, behaviour-
  preserving end of the abstraction spectrum of Section 6 -- it merges
  only states the specification itself cannot tell apart.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from .mealy import MealyError, MealyMachine, State


def _output_rows(dense, members: Sequence[int]) -> List[List[int]]:
    """``members`` (dense state indices, ascending) grouped by output
    row, blocks in order of first appearance.  Rows are tuples of the
    transitions' own outputs (``None`` where undefined), so states are
    grouped by ``==`` exactly as their outputs compare."""
    out, n = dense.out, dense.n_inputs
    by_row: Dict[tuple, List[int]] = {}
    for s in members:
        by_row.setdefault(tuple(out[s * n:s * n + n]), []).append(s)
    return list(by_row.values())


def _refine(dense, members: Sequence[int]) -> List[List[int]]:
    """The coarsest partition of ``members`` (dense state indices,
    ascending, closed under transitions) into behavioural equivalence
    classes, over the rows of the :class:`~repro.kernel.mealy_kernel
    .DenseMealy` table ``dense``.

    Moore refinement from the output-row partition: a round splits
    each block by its members' successor blocks, sub-blocks in order
    of first appearance and members ascending, until a round splits
    nothing.
    """
    nxt, n = dense.nxt, dense.n_inputs
    blocks = _output_rows(dense, members)
    # One slot past the states holds -1, so an undefined successor
    # (index -1) reads it: its block is "undefined".
    block_of = [-1] * (len(dense.states) + 1)
    while True:
        for b, block in enumerate(blocks):
            for s in block:
                block_of[s] = b
        refined: List[List[int]] = []
        for block in blocks:
            if len(block) == 1:
                refined.append(block)
                continue
            by_sig: Dict[tuple, List[int]] = {}
            for s in block:
                sig = tuple([block_of[d] for d in nxt[s * n:s * n + n]])
                by_sig.setdefault(sig, []).append(s)
            refined.extend(by_sig.values())
        if len(refined) == len(blocks):
            return blocks
        blocks = refined


def initial_partition(machine: MealyMachine) -> List[FrozenSet[State]]:
    """Split states by their output row (output per input).

    Two states land in the same initial block iff they produce the same
    output on every input; refinement then separates states whose
    successors diverge.
    """
    from ..kernel.mealy_kernel import dense_mealy

    dense = dense_mealy(machine)
    return [
        frozenset(dense.states[s] for s in block)
        for block in _output_rows(dense, range(len(dense.states)))
    ]


def _classes(dense) -> List[List[int]]:
    """Every state's equivalence class over the dense table ``dense``
    (:func:`_refine`, members ascending), classes sorted by the
    ``repr`` of their members' list: the order of
    :func:`equivalence_classes`."""
    states = dense.states
    return sorted(
        _refine(dense, range(len(states))),
        key=lambda block: repr([states[s] for s in block]),
    )


def _quotient(
    dense,
    blocks: Sequence[Sequence[int]],
    names: Sequence[State],
    name: str,
) -> MealyMachine:
    """The machine whose state ``names[c]`` is the equivalence class
    ``blocks[c]`` of the dense table ``dense`` (dense state indices,
    ascending; together the classes cover the initial state and are
    closed under transitions).

    Each class moves as its first member ``blocks[c][0]``, the
    ``repr``-least: the members agree on every successor class and, up
    to ``==``, on every output, and the first member decides which of
    equal outputs that print differently (``1``/``True``/``1.0``) the
    quotient keeps.  Transitions are added class by class in the order
    of their first members, each class's in input order: the order in
    which a scan of the transitions sorted by ``repr`` meets them.
    """
    nxt, out, width, inputs = dense.nxt, dense.out, dense.n_inputs, dense.inputs
    class_of = [-1] * len(dense.states)
    for c, block in enumerate(blocks):
        for s in block:
            class_of[s] = c
    result = MealyMachine(names[class_of[dense.initial]], name=name)
    for state in names:
        result.add_state(state)
    for c in sorted(range(len(blocks)), key=lambda c: blocks[c][0]):
        src = names[c]
        row = blocks[c][0] * width
        for i in range(width):
            d = nxt[row + i]
            if d >= 0:
                result.add_transition(
                    src, inputs[i], out[row + i], names[class_of[d]]
                )
    return result


def equivalence_classes(machine: MealyMachine) -> List[FrozenSet[State]]:
    """The coarsest partition of states into behavioural equivalence
    classes.

    Classical partition refinement (:func:`_refine`) over the Mealy
    kernel's dense table: start from the output-row partition and
    split blocks whose members transition to different blocks on some
    input, until stable.  Blocks are returned sorted by the ``repr``
    of their ``repr``-sorted members.
    """
    from ..kernel.mealy_kernel import dense_mealy

    dense = dense_mealy(machine)
    return [
        frozenset(dense.states[s] for s in block) for block in _classes(dense)
    ]


def are_equivalent(machine: MealyMachine, s1: State, s2: State) -> bool:
    """True iff ``s1`` and ``s2`` are behaviourally equivalent."""
    for block in equivalence_classes(machine):
        if s1 in block:
            return s2 in block
    raise MealyError(f"{s1!r} is not a state of {machine.name}")


def minimize(machine: MealyMachine) -> MealyMachine:
    """The minimal machine equivalent to ``machine``.

    States are first restricted to the reachable set, then merged by
    behavioural equivalence.  Resulting states are frozensets of
    original states (the equivalence classes), which keeps the quotient
    map visible to callers.  Each class moves as its ``repr``-least
    member (:func:`_quotient`).
    """
    from ..kernel.mealy_kernel import dense_mealy

    dense = dense_mealy(machine)
    reach = sorted(dense.state_index[s] for s in machine.reachable_states())
    blocks = _refine(dense, reach)
    names = [frozenset(dense.states[s] for s in block) for block in blocks]
    return _quotient(dense, blocks, names, machine.name + "-min")


def is_minimal(machine: MealyMachine) -> bool:
    """True iff every state is reachable and no two are equivalent."""
    reach = machine.reachable_states()
    if reach != set(machine.states):
        return False
    return all(len(block) == 1 for block in equivalence_classes(machine))
