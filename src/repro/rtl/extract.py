"""FSM extraction: netlist -> Mealy machine (the VIS step).

The paper used VIS "to convert the Verilog description to an FSM
description".  This module does the same for our netlists, explicitly:
one breadth-first search of the reachable state space over the valid
input combinations, labelled as a
:class:`~repro.core.mealy.MealyMachine` whose states are register
valuations, inputs are primary-input valuations, and outputs are
primary-output valuations -- or numbered (``packed``).  The search
steps its queue one (state, vector) pair at a time on bools while the
queue is narrow and, from the first time it is wide, in chunks of
queued pairs on lane words; both regimes find the same states in the
same order.

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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

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
        instruction format of the DLX test model).  The netlist reads
        each value's truth, as :meth:`~repro.rtl.netlist.Netlist.step`
        does, so register and output values are bools; the input
        labels keep the caller's values.
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
    found = _search(netlist, valid, inputs, max_states)
    name = name or netlist.name + "-fsm"
    if packed:
        return _numbered(*found, name)
    keys, states, outputs, outs, dsts = found
    regs = netlist.register_names
    state_labels = [state_key(dict(zip(regs, map(bool, s)))) for s in states]
    output_labels = [
        assignment_key(dict(zip(netlist.output_names, o))) for o in outputs
    ]
    machine = MealyMachine(state_labels[0], name=name)
    pairs = iter(zip(outs, dsts))
    for src in state_labels:
        for key, (out, dst) in zip(keys, pairs):
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


#: The search steps one state at a time on the bool render while fewer
#: than this many (state, input vector) pairs wait in its queue; from
#: the first time as many wait, it steps the rest of its queue on lane
#: words.  A deep, narrow search never gets there: a counter's queue
#: holds one state, and word passes would cost it several times the
#: time and a second compile (METHODOLOGY section 11 has the
#: measurements).
_WIDE_PAIRS = 1024

#: Most lanes in one word of the wide regime.  Past a few thousand the
#: width hardly moves the search's time, and wider words only hold
#: more text at once.
_WORD_LANES = 16384

#: Bytes of 0 and 1 to the digits of a base-2 literal, and back.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _search(
    netlist: Netlist, valid: ValidSpec, inputs: Optional[Iterable], max_states: int
) -> Tuple[list, list, List[Tuple[bool, ...]], List[int], List[int]]:
    """Breadth-first search from the reset state: the distinct input
    keys in the caller's order, the states in order of discovery, the
    distinct output tuples, and per (state, key) pair in that order,
    its output index and its successor index.

    While fewer than :data:`_WIDE_PAIRS` (state, vector) pairs wait,
    each state steps through the bool render, one vector at a time.
    From the first time as many wait, each chunk of queued states times
    every vector steps as one lane word, to the end of the search.  A
    chunk holds only states already queued and numbers what it finds in
    (state, vector) order behind them, so both regimes give the same
    search.  A state is its register values in ``register_names``
    order: a tuple of bools in the narrow stretch, the ``bytes`` of its
    0s and 1s once the search is wide (both sort alike)."""
    from .compile import compile_positional_step, compile_positional_words

    if inputs is None:
        inputs = input_assignments(netlist, valid)
    keys = list(dict.fromkeys(map(assignment_key, inputs)))
    names = netlist.inputs
    vectors = [
        tuple(map(bool, map(dict(key).__getitem__, names))) for key in keys
    ]
    step = compile_positional_step(netlist)
    states: list = [tuple(reg.init for reg in netlist.registers.values())]
    state_ids = {states[0]: 0}
    output_ids: Dict[Any, int] = {}
    outs: List[int] = []
    dsts: List[int] = []
    n_vec = len(vectors)
    done = 0
    # The queue grows as the search runs.
    while done < len(states) and (len(states) - done) * n_vec < _WIDE_PAIRS:
        state = states[done]
        done += 1
        for vector in vectors:
            nxt, out = step(state, vector)
            dst = state_ids.get(nxt)
            if dst is None:
                if len(states) >= max_states:
                    raise _too_many(netlist, max_states)
                dst = state_ids[nxt] = len(states)
                states.append(nxt)
            dsts.append(dst)
            outs.append(output_ids.setdefault(out, len(output_ids)))
    if done < len(states):
        # Wide: word passes read and write bytes, so re-key what was found.
        words = compile_positional_words(netlist)
        states = list(map(bytes, states))
        state_ids = dict(zip(states, range(len(states))))
        output_ids = {bytes(out): n for out, n in output_ids.items()}
        per_chunk = max(1, _WORD_LANES // n_vec)
        while done < len(states):
            chunk = states[done:done + per_chunk]
            done += len(chunk)
            nexts, found = _word_pass(words, chunk, vectors, len(names))
            for nxt in nexts:
                dst = state_ids.get(nxt)
                if dst is None:
                    dst = state_ids[nxt] = len(states)
                    states.append(nxt)
                dsts.append(dst)
            if len(states) > max_states:
                raise _too_many(netlist, max_states)
            outs.extend(
                [output_ids.setdefault(out, len(output_ids)) for out in found]
            )
    return keys, states, [tuple(map(bool, out)) for out in output_ids], outs, dsts


def _too_many(netlist: Netlist, max_states: int) -> ExtractionError:
    return ExtractionError(
        f"{netlist.name}: more than {max_states} reachable "
        f"states; use symbolic traversal instead"
    )


def _word_pass(
    words: Callable, chunk: List[bytes], vectors: List[tuple], n_inputs: int
) -> Tuple[List[bytes], List[bytes]]:
    """Step every (state, vector) pair of ``chunk`` times ``vectors``
    in one call of the lane-word step, and return each pair's
    successor and output in (state, vector) order, as ``bytes`` of 0s
    and 1s.

    Lane ``j * n + i`` carries state ``i`` of the ``n`` in the chunk
    under vector ``j``: a register's word is its column over the chunk
    repeated once per vector, and an input's word sets the ``n`` lanes
    of each vector that drives it.  The words are transposed through
    base-2 text, as :func:`~repro.kernel.netlist_kernel._input_columns`
    reads vector columns: all of a chunk's rows joined become one
    column literal per register, and all result words printed one after
    another hold each lane's key at a stride of the lane count."""
    n, n_vec = len(chunk), len(vectors)
    lanes = n * n_vec
    width = len(chunk[0])
    rows = b"".join(chunk).translate(_TO_DIGITS)
    last = (n - 1) * width
    repeat = int(("0" * (n - 1) + "1") * n_vec, 2)
    state = [int(rows[last + r::-width], 2) * repeat for r in range(width)]
    inputs = [
        int("".join(("1" if v[k] else "0") * n for v in reversed(vectors)), 2)
        for k in range(n_inputs)
    ]
    results = words(state, inputs, (1 << lanes) - 1)
    # Lane l of a word is its digit lanes - 1 - l; pairs go state-major.
    starts = [
        lanes - 1 - j * n - i for i in range(n) for j in range(n_vec)
    ]
    keys = []
    for result in results:
        text = "".join(f"{w:0{lanes}b}" for w in result)
        bits = text.encode("ascii").translate(_FROM_DIGITS)
        keys.append([bits[s::lanes] for s in starts])
    return keys[0], keys[1]


def _numbered(keys, states, outputs, outs, dsts, name: str) -> PackedMachine:
    """The searched machine, numbered as the DLX tour-model digests
    pin: the reset state 0, then each transition's state, input, output
    and successor on first appearance, over the transitions in ``repr``
    order of their ``(register-value tuple, input key)``.

    That order costs one sort of the states and one of the inputs.
    ``repr`` order of equal-length bool tuples is tuple order, which is
    the order of their bytes: they first differ at ``"False" <
    "True"``, after the same text.  So the walk is state-major.  The
    input keys of one netlist share their names, so they too first
    differ at a value, at the same offset: the first state walked
    numbers every input, in ``repr`` order.  The walk meets each
    (state, input) pair once."""
    by_repr = sorted(range(len(keys)), key=lambda j: repr(keys[j]))
    labels = [f"i{n}" for n in range(len(keys))]
    n_vec = len(keys)
    state_no = {0: 0}
    output_no: Dict[int, int] = {}
    rows = []
    for src in sorted(range(len(states)), key=states.__getitem__):
        token = state_no.setdefault(src, len(state_no))
        base = src * n_vec
        for label, j in zip(labels, by_repr):
            rows.append((
                token,
                label,
                output_no.setdefault(outs[base + j], len(output_no)),
                state_no.setdefault(dsts[base + j], len(state_no)),
            ))
    machine = PackedMachine.from_distinct_transitions(0, rows, name=name)
    machine.input_vectors = {
        label: dict(keys[j]) for label, j in zip(labels, by_repr)
    }
    machine.output_values = {t: outputs[o] for o, t in output_no.items()}
    return machine
