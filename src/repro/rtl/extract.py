"""FSM extraction: netlist -> Mealy machine (the VIS step).

The paper used VIS "to convert the Verilog description to an FSM
description".  This module does the same for our netlists, explicitly:
one breadth-first search of the reachable state space over the valid
input combinations, on value tuples, labelled as a
:class:`~repro.core.mealy.MealyMachine` whose states are register
valuations, inputs are primary-input valuations, and outputs are
primary-output valuations -- or numbered (``packed``).

Input don't-cares (Section 7.2: "not all combinations are allowed due
to invalid instructions and relationships between datapath outputs
modeled as primary inputs") enter as a ``valid`` predicate -- either a
Python callable over the input assignment or an :class:`Expr`
constraint; only valid combinations are enumerated, which is what cut
the paper's input space from 2^25 to 8228.

Explicit extraction is exponential in latches by nature; the
``max_states`` guard turns runaway models into a clear error, and the
symbolic path (:mod:`repro.bdd.symbolic_fsm`) covers what explicit
enumeration cannot -- the crossover the BDD benchmark measures.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.mealy import MealyMachine
from .expr import Expr, evaluate
from .netlist import Netlist

InputAssignment = Dict[str, bool]
ValidSpec = Union[Expr, Callable[[Mapping[str, bool]], bool], None]


class ExtractionError(Exception):
    """Raised when extraction exceeds its state budget."""


def _as_predicate(valid: ValidSpec) -> Callable[[Mapping[str, bool]], bool]:
    if valid is None:
        return lambda env: True
    if isinstance(valid, Expr):
        return lambda env: evaluate(valid, env)
    return valid


def input_assignments(
    netlist: Netlist, valid: ValidSpec = None
) -> List[InputAssignment]:
    """All valid primary-input assignments, deterministically ordered.

    Enumerates the full 2^n cube filtered by ``valid``; the length of
    the result over 2^n is the Section 7.2 "valid combinations"
    statistic at explicit scale.
    """
    names = list(netlist.inputs)
    predicate = _as_predicate(valid)
    result: List[InputAssignment] = []
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if predicate(env):
            result.append(env)
    return result


def state_key(state: Mapping[str, bool]) -> Tuple[Tuple[str, bool], ...]:
    """Canonical hashable form of a register valuation."""
    return tuple(sorted(state.items()))


def assignment_key(env: Mapping[str, bool]) -> Tuple[Tuple[str, bool], ...]:
    """Canonical hashable form of an input or output valuation."""
    return tuple(sorted(env.items()))


class PackedMachine(MealyMachine):
    """A numbered extraction and its decode tables: ``input_vectors``
    maps an input label ``"i<n>"`` to the assignment it stands for
    (keys sorted), ``output_values`` an output token to its values in
    :attr:`~repro.rtl.netlist.Netlist.output_names` order."""

    input_vectors: Dict[str, Dict[str, bool]]
    output_values: Dict[int, Tuple[bool, ...]]


def extract_mealy(
    netlist: Netlist,
    valid: ValidSpec = None,
    inputs: Optional[Iterable[InputAssignment]] = None,
    max_states: int = 200_000,
    name: Optional[str] = None,
    packed: bool = False,
) -> MealyMachine:
    """Enumerate the reachable FSM of ``netlist`` from its reset state.

    Evaluation uses the compiled-code simulator
    (:mod:`repro.rtl.compile`), which the test suite cross-checks
    against the interpreting :meth:`~repro.rtl.netlist.Netlist.step`.

    Parameters
    ----------
    valid:
        Input-validity constraint (expression or predicate); ignored
        when ``inputs`` is given.
    inputs:
        An explicit collection of input assignments to drive, when the
        caller already knows the valid set (e.g. the reduced
        instruction format of the DLX test model).
    max_states:
        Abort threshold -- explicit extraction on a model that needs
        implicit traversal should fail loudly, not hang.  Exactly
        ``max_states`` reachable states pass.
    packed:
        When False (default) states/inputs/outputs are canonical
        ``(name, value)`` tuples -- self-describing, for interactive
        use -- added in breadth-first order.  When True the result is a
        :class:`PackedMachine` of numbers (states ``int``, the reset
        state 0; inputs ``"i<n>"``; outputs ``int``), cheap for tours
        to hash; the input values must then be bools.

    Returns
    -------
    MealyMachine
        The reachable machine from the reset state.
    """
    keys, states, outputs, rows = _search(netlist, valid, inputs, max_states)
    name = name or netlist.name + "-fsm"
    if packed:
        return _numbered(keys, states, outputs, rows, name)
    regs, outs = netlist.register_names, netlist.output_names
    state_labels = [state_key(dict(zip(regs, s))) for s in states]
    output_labels = [assignment_key(dict(zip(outs, o))) for o in outputs]
    machine = MealyMachine(state_labels[0], name=name)
    for src, row in zip(state_labels, rows):
        for key, (out, dst) in zip(keys, row):
            machine.add_transition(
                src, key, output_labels[out], state_labels[dst]
            )
    return machine


def reachable_state_count(
    netlist: Netlist,
    valid: ValidSpec = None,
    inputs: Optional[Iterable[InputAssignment]] = None,
    max_states: int = 200_000,
) -> int:
    """Number of explicitly reachable states: :func:`extract_mealy`'s
    search, counted."""
    return len(_search(netlist, valid, inputs, max_states)[1])


def _search(
    netlist: Netlist, valid: ValidSpec, inputs: Optional[Iterable], max_states: int
) -> Tuple[list, list, list, list]:
    """Breadth-first search from the reset state: the distinct input
    keys in the caller's order, the states (register-value tuples) in
    order of discovery, the distinct output tuples, and per state, per
    key, ``(output index, successor index)``."""
    from .compile import compile_positional_step

    if inputs is None:
        inputs = input_assignments(netlist, valid)
    keys = list(dict.fromkeys(map(assignment_key, inputs)))
    names = netlist.inputs
    vectors = [tuple(map(dict(key).__getitem__, names)) for key in keys]
    step = compile_positional_step(netlist)
    states = [tuple(reg.init for reg in netlist.registers.values())]
    state_ids = {states[0]: 0}
    output_ids: Dict[Tuple[bool, ...], int] = {}
    rows = []
    for state in states:  # grows as the search discovers states
        row = []
        for vector in vectors:
            nxt, out = step(state, vector)
            dst = state_ids.get(nxt)
            if dst is None:
                if len(states) >= max_states:
                    raise ExtractionError(
                        f"{netlist.name}: more than {max_states} reachable "
                        f"states; use symbolic traversal instead"
                    )
                dst = state_ids[nxt] = len(states)
                states.append(nxt)
            row.append((output_ids.setdefault(out, len(output_ids)), dst))
        rows.append(row)
    return keys, states, list(output_ids), rows


def _numbered(keys, states, outputs, rows, name: str) -> PackedMachine:
    """The searched machine, numbered as the DLX tour-model digests
    pin: the reset state 0, then each transition's state, input, output
    and successor on first appearance, over the transitions in ``repr``
    order of their ``(register-value tuple, input key)``.

    That order costs one sort of the states and one of the inputs.
    ``repr`` order of equal-length bool tuples is tuple order: they
    first differ at ``"False" < "True"``, after the same text.  So the
    walk is state-major.  The input keys of one netlist share their
    names, so they too first differ at a value, at the same offset:
    the first state walked numbers every input, in ``repr`` order."""
    machine = PackedMachine(0, name=name)
    by_repr = sorted(range(len(keys)), key=lambda j: repr(keys[j]))
    labels = {j: f"i{n}" for n, j in enumerate(by_repr)}
    machine.input_vectors = {labels[j]: dict(keys[j]) for j in by_repr}
    state_no = {0: 0}
    output_no: Dict[int, int] = {}
    for src in sorted(range(len(states)), key=states.__getitem__):
        token = state_no.setdefault(src, len(state_no))
        for j in by_repr:
            out, dst = rows[src][j]
            machine.add_transition(
                token,
                labels[j],
                output_no.setdefault(out, len(output_no)),
                state_no.setdefault(dst, len(state_no)),
            )
    machine.output_values = {t: outputs[o] for o, t in output_no.items()}
    return machine
