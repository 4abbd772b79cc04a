"""Mealy machine -> synchronous netlist synthesis (binary encoding).

The corpus loader goes netlist -> FSM (extraction); this module is the
inverse arrow: any deterministic Mealy machine becomes a bit-level
:class:`~repro.rtl.netlist.Netlist` whose registers binary-encode the
state, whose primary inputs binary-encode the input symbol, and whose
primary outputs binary-encode the output symbol.  Two things fall out:

* **Corpus circuits from models.**  ``to_blif(machine_to_netlist(m))``
  turns any zoo machine -- in particular the protocol-class models --
  into a BLIF circuit, so the benchmark corpus can be *grown* from the
  model library as well as ingested from files, and the
  netlist -> FSM -> netlist round-trip becomes testable.
* **Activity-sparse kernel workloads.**  A W/Wp suite flattened over
  the synthesized netlist (reset-separated short sequences, see
  :func:`suite_vectors`) is exactly the event-sparse vector shape the
  dirty-set kernel is built for: after every reset the surviving
  mutants re-converge with the golden circuit and go quiescent, so
  dense per-cycle simulation does work that event-driven simulation
  skips.  ``benchmarks/bench_kernel.py`` measures that head-to-head.

Encoding contract (all deterministic, ``PYTHONHASHSEED``-independent):
states, inputs and outputs are each sorted by ``repr`` and assigned
dense binary codes, except that the initial state always takes code 0
so the netlist's all-zero reset state *is* the machine's initial
state.  The optional ``reset`` input forces the next state to code 0
regardless of the current symbol, mirroring the suite generators'
reliable-reset assumption at the bit level.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.mealy import MealyMachine
from ..rtl.expr import Expr, FALSE, _substituter, and_, not_, or_, var
from ..rtl.netlist import Netlist


def _codes(symbols, width: int) -> Dict[object, int]:
    ordered = sorted(symbols, key=repr)
    return {sym: idx for idx, sym in enumerate(ordered)}


def _width(count: int) -> int:
    return max(1, math.ceil(math.log2(max(2, count))))


def _minterm(bits: Sequence[str], value: int) -> Expr:
    """The conjunction asserting the named bits spell ``value``
    (bit 0 is the least significant)."""
    literals: List[Expr] = []
    for i, name in enumerate(bits):
        literals.append(var(name) if (value >> i) & 1 else not_(var(name)))
    return and_(*literals)


class SynthesizedMachine:
    """A netlist encoding of a Mealy machine plus its symbol tables.

    Attributes
    ----------
    netlist:
        The synthesized circuit.  Registers ``st0..st{k-1}`` hold the
        state code, inputs ``in0..`` the input-symbol code (plus the
        ``reset`` input when requested), outputs ``out0..`` the
        output-symbol code.
    state_codes / input_codes / output_codes:
        Symbol -> integer code, as encoded.
    """

    def __init__(
        self,
        netlist: Netlist,
        state_codes: Dict[object, int],
        input_codes: Dict[object, int],
        output_codes: Dict[object, int],
        input_bits: Tuple[str, ...],
        reset_input: Optional[str],
    ) -> None:
        self.netlist = netlist
        self.state_codes = state_codes
        self.input_codes = input_codes
        self.output_codes = output_codes
        self.input_bits = input_bits
        self.reset_input = reset_input

    def encode_input(self, symbol: object) -> Dict[str, bool]:
        """The primary-input assignment driving one input symbol."""
        code = self.input_codes[symbol]
        vec = {
            name: bool((code >> i) & 1)
            for i, name in enumerate(self.input_bits)
        }
        if self.reset_input is not None:
            vec[self.reset_input] = False
        return vec

    def reset_vector(self) -> Dict[str, bool]:
        """The assignment that pulses ``reset`` (all data bits low)."""
        if self.reset_input is None:
            raise ValueError(
                f"{self.netlist.name}: synthesized without a reset input"
            )
        vec = {name: False for name in self.input_bits}
        vec[self.reset_input] = True
        return vec


def machine_to_netlist(
    machine: MealyMachine,
    name: Optional[str] = None,
    reset_input: Optional[str] = None,
) -> SynthesizedMachine:
    """Binary-encode a deterministic Mealy machine as a netlist.

    The machine must be input-complete (every state defines every
    input symbol); undefined behaviour would otherwise be silently
    invented by the encoding.  Input codes beyond the alphabet (when
    the alphabet size is not a power of two) are unconstrained --
    campaign vectors produced by :meth:`SynthesizedMachine.
    encode_input` never drive them.
    """
    if machine.undefined_pairs():
        missing = machine.undefined_pairs()[:3]
        raise ValueError(
            f"{machine.name}: machine_to_netlist needs an "
            f"input-complete machine; missing e.g. {missing}"
        )
    state_codes = _codes(machine.states, 0)
    # The initial state must own code 0: registers reset to all-zero.
    zero_owner = next(
        s for s, c in state_codes.items() if c == 0
    )
    state_codes[zero_owner] = state_codes[machine.initial]
    state_codes[machine.initial] = 0
    input_codes = _codes(machine.inputs, 0)
    output_codes = _codes(machine.outputs, 0)
    n_state = _width(len(state_codes))
    n_in = _width(len(input_codes))
    n_out = _width(len(output_codes))

    net = Netlist(name or machine.name + "-net")
    in_bits = tuple(f"in{i}" for i in range(n_in))
    for bit in in_bits:
        net.add_input(bit)
    if reset_input is not None:
        net.add_input(reset_input)
    st_bits = tuple(f"st{i}" for i in range(n_state))
    for bit in st_bits:
        net.add_register(bit, init=False)

    next_terms: List[List[Expr]] = [[] for _ in range(n_state)]
    out_terms: List[List[Expr]] = [[] for _ in range(n_out)]
    for t in machine.transitions:
        fire = and_(
            _minterm(st_bits, state_codes[t.src]),
            _minterm(in_bits, input_codes[t.inp]),
        )
        dst_code = state_codes[t.dst]
        for i in range(n_state):
            if (dst_code >> i) & 1:
                next_terms[i].append(fire)
        out_code = output_codes[t.out]
        for i in range(n_out):
            if (out_code >> i) & 1:
                out_terms[i].append(fire)
    for i, bit in enumerate(st_bits):
        expr = or_(*next_terms[i]) if next_terms[i] else FALSE
        if reset_input is not None:
            expr = and_(not_(var(reset_input)), expr)
        net.set_next(bit, expr)
    for i in range(n_out):
        net.add_output(
            f"out{i}",
            or_(*out_terms[i]) if out_terms[i] else FALSE,
        )
    net.validate()
    return SynthesizedMachine(
        net, state_codes, input_codes, output_codes, in_bits, reset_input
    )


def merge_netlists(
    parts: Sequence[Tuple[str, Netlist]],
    name: str = "merged",
) -> Netlist:
    """Combine independent netlists into one circuit, prefix-renamed.

    Every sub-circuit keeps its own inputs, registers and outputs
    under ``<prefix><net>`` names; there is no cross-block wiring, so
    the merged circuit simulates all blocks in lockstep.  This is the
    builder behind the "protocol farm" workloads: many controller
    blocks side by side, of which a test phase exercises one while the
    rest idle -- the activity-sparse shape the dirty-set kernel skips.
    Prefixes must make all names collision-free (``add_input`` /
    ``add_register`` raise otherwise).
    """
    merged = Netlist(name)
    for prefix, net in parts:
        for n in net.inputs:
            merged.add_input(prefix + n)
        for reg in net.registers.values():
            merged.add_register(prefix + reg.name, init=reg.init)
    for prefix, net in parts:
        rename = _substituter({
            n: var(prefix + n) for n in (*net.inputs, *net.register_names)
        })
        for reg in net.registers.values():
            merged.set_next(prefix + reg.name, rename(reg.next))
        for out, expr in net.outputs.items():
            merged.add_output(prefix + out, rename(expr))
    merged.validate()
    return merged


def suite_vectors(
    synth: SynthesizedMachine,
    sequences: Sequence[Sequence[object]],
) -> List[Mapping[str, bool]]:
    """Flatten suite sequences into netlist vectors, reset-separated.

    One reset pulse precedes every test case (including the first, so
    each case starts from the initial state regardless of history) --
    the W/Wp-shaped, activity-sparse workload of the dirty-vs-dense
    benchmark.
    """
    vectors: List[Mapping[str, bool]] = []
    for seq in sequences:
        vectors.append(synth.reset_vector())
        vectors.extend(synth.encode_input(sym) for sym in seq)
    return vectors
