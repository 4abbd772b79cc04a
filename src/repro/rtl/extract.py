"""FSM extraction: netlist -> Mealy machine (the VIS step).

The paper used VIS "to convert the Verilog description to an FSM
description".  This module does the same for our netlists, explicitly:
a breadth-first enumeration of the reachable state space over the
valid input combinations, producing a
:class:`~repro.core.mealy.MealyMachine` whose states are register
valuations, inputs are primary-input valuations, and outputs are
primary-output valuations.

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
from collections import deque
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
        implicit traversal should fail loudly, not hang.
    packed:
        When False (default) states/inputs/outputs are canonical
        ``(name, value)`` tuples -- self-describing, for interactive
        use.  When True they are bare value tuples in declaration
        order (register order for states, :attr:`Netlist.output_names`
        order for outputs), an order of magnitude cheaper to hash on
        large extractions; inputs stay canonical.

    Returns
    -------
    MealyMachine
        The reachable machine from the reset state.
    """
    from .compile import compile_step

    step = compile_step(netlist)
    vectors = (
        [dict(v) for v in inputs]
        if inputs is not None
        else input_assignments(netlist, valid)
    )
    vector_keys = [assignment_key(v) for v in vectors]
    reg_names = list(netlist.register_names)
    out_names = list(netlist.output_names)

    def pack_state(values: Mapping[str, bool]):
        if packed:
            return tuple(bool(values[n]) for n in reg_names)
        return state_key(values)

    def pack_out(values: Mapping[str, bool]):
        if packed:
            return tuple(bool(values[n]) for n in out_names)
        return assignment_key(values)

    reset = netlist.reset_state()
    machine = MealyMachine(
        pack_state(reset), name=name or netlist.name + "-fsm"
    )
    seen = {machine.initial}
    work = deque([dict(reset)])
    while work:
        state = work.popleft()
        src = pack_state(state)
        for vec, vkey in zip(vectors, vector_keys):
            nxt, outs = step(state, vec)
            dst = pack_state(nxt)
            machine.add_transition(src, vkey, pack_out(outs), dst)
            if dst not in seen:
                if len(seen) >= max_states:
                    raise ExtractionError(
                        f"{netlist.name}: more than {max_states} reachable "
                        f"states; use symbolic traversal instead"
                    )
                seen.add(dst)
                work.append(nxt)
    return machine


def reachable_state_count(
    netlist: Netlist,
    valid: ValidSpec = None,
    inputs: Optional[Iterable[InputAssignment]] = None,
    max_states: int = 200_000,
) -> int:
    """Number of explicitly reachable states (cheaper than full
    extraction when only the count is needed: outputs are skipped)."""
    from .compile import compile_step

    step = compile_step(netlist)
    vectors = (
        [dict(v) for v in inputs]
        if inputs is not None
        else input_assignments(netlist, valid)
    )
    reg_names = list(netlist.register_names)
    init = netlist.reset_state()
    seen = {tuple(init[n] for n in reg_names)}
    work = deque([dict(init)])
    while work:
        state = work.popleft()
        for vec in vectors:
            nxt, _outs = step(state, vec)
            key = tuple(nxt[n] for n in reg_names)
            if key not in seen:
                if len(seen) >= max_states:
                    raise ExtractionError(
                        f"{netlist.name}: more than {max_states} states"
                    )
                seen.add(key)
                work.append(nxt)
    return len(seen)
