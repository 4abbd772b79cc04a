"""Structural abstraction transforms on netlists (Sections 6.1, 7.1).

Each function takes a netlist and returns a *new* netlist implementing
one of the abstraction moves the paper applies while deriving the DLX
test model (Figure 3(b)):

* :func:`free_registers` -- turn registers into primary inputs: the
  datapath-removal move ("communication signals between the abstract
  model and the parts abstracted out are now considered as
  input/output signals").
* :func:`inline_registers` -- remove synchronizing latches by fusing
  a register's next-state logic into its fanout (the "no synchronizing
  latches for outputs" step).
* :func:`remove_outputs` + :func:`sweep` -- drop observables that do
  not affect control and garbage-collect the logic cones that die.
* :func:`reencode_onehot` -- re-encode a one-hot register group in
  binary (the "1-hot to binary encoding" step).
* :func:`constant_registers` -- tie registers to constants (used to
  shrink a register file from 32 to 4 entries by pinning high address
  bits to zero).

All transforms are *transition-preserving* in the Section 6.1 sense on
the bits they keep, which the test suite checks by simulating the
original and transformed netlists side by side.

Every transform builds its result through one helper, ``_rebuild``,
and every substituting one rewrites all kept roots under one mapping
through one memo (:func:`~repro.rtl.expr._substituter`): logic that
several registers or outputs share is rebuilt once and stays one
object in the result, so the netlists along a derivation stay DAGs
instead of unfolding into trees.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .expr import (
    Const,
    Expr,
    FALSE,
    Var,
    and_,
    bv_const,
    const,
    not_,
    or_,
    _substituter,
    substitute,
    support,
)
from .netlist import Netlist, NetlistError, Register


class TransformError(Exception):
    """Raised when a transform's preconditions fail."""


def free_registers(netlist: Netlist, names: Iterable[str]) -> Netlist:
    """Turn the named registers into primary inputs.

    Their next-state logic is deleted; every reference to them now
    reads an externally driven bit.  This is the core datapath-removal
    abstraction: the freed bits become "status signals from the
    datapath" that the test generator treats as free inputs, and the
    logic that only fed those registers can subsequently be swept.
    """
    targets = _existing_registers(netlist, names)
    return _rebuild(
        netlist, inputs=[*netlist.inputs, *targets], drop=set(targets)
    )


def inline_registers(netlist: Netlist, names: Iterable[str]) -> Netlist:
    """Remove the named registers by substituting their next-state
    logic into every reader (de-synchronization).

    Semantically this moves the register's readers one cycle earlier
    on those paths -- the "no synchronizing latches for outputs" move,
    valid when the latch exists only to align output timing.

    Raises
    ------
    TransformError
        If the named registers form a combinational cycle among
        themselves (inlining would not terminate) or feed their own
        next-state.
    """
    targets = _existing_registers(netlist, names)
    regs = netlist.registers
    # Resolve substitution order: a target may feed another target.
    resolved: Dict[str, Expr] = {}
    remaining = dict.fromkeys(targets)
    while remaining:
        progressed = False
        for name in list(remaining):
            nxt = regs[name].next
            if nxt is None:
                raise TransformError(f"register {name!r} undriven")
            deps = support(nxt) & set(remaining)
            if deps:
                continue
            resolved[name] = substitute(nxt, resolved)
            del remaining[name]
            progressed = True
        if not progressed:
            raise TransformError(
                f"registers {sorted(remaining)} form a cycle; cannot inline"
            )
    return _rebuild(netlist, _substituter(resolved), drop=resolved)


def remove_outputs(netlist: Netlist, names: Iterable[str]) -> Netlist:
    """Drop the named primary outputs (observables not affecting
    control).  Combine with :func:`sweep` to delete their logic."""
    drop = set(names)
    missing = drop - set(netlist.output_names)
    if missing:
        raise TransformError(f"no such outputs: {sorted(missing)}")
    return _rebuild(
        netlist,
        outputs=[n for n in netlist.output_names if n not in drop],
    )


def keep_outputs(netlist: Netlist, names: Iterable[str]) -> Netlist:
    """Keep only the named outputs (complement of remove_outputs)."""
    keep = set(names)
    missing = keep - set(netlist.output_names)
    if missing:
        raise TransformError(f"no such outputs: {sorted(missing)}")
    return remove_outputs(
        netlist, [n for n in netlist.output_names if n not in keep]
    )


def sweep(netlist: Netlist) -> Netlist:
    """Delete registers outside every output's and every surviving
    register's fan-in cone, and inputs no longer referenced.

    The garbage collection that realizes "removing certain state
    elements ... and all of the logic associated with only that part":
    after outputs are dropped or registers freed, the cones that fed
    only them die here.
    """
    live = netlist.cone_of(netlist.output_names)
    # Keep inputs that remain referenced (after register pruning).
    used_bits = set()
    for name in live:
        nxt = netlist.registers[name].next
        if nxt is not None:
            used_bits |= support(nxt)
    for expr in netlist.outputs.values():
        used_bits |= support(expr)
    return _rebuild(
        netlist,
        inputs=[inp for inp in netlist.inputs if inp in used_bits],
        drop=set(netlist.register_names) - live,
    )


def constant_registers(
    netlist: Netlist, values: Mapping[str, bool]
) -> Netlist:
    """Tie the named registers to constants and propagate.

    The "4 registers instead of 32" move: pinning the high bits of
    every register-address field to 0 shrinks the effective register
    file without touching any other structure.  The tied registers
    disappear; their readers see constants, and constant folding
    shrinks the logic.
    """
    targets = _existing_registers(netlist, values)
    mapping: Dict[str, Expr] = {
        name: const(values[name]) for name in targets
    }
    return _rebuild(netlist, _substituter(mapping), drop=mapping)


def constant_inputs(
    netlist: Netlist, values: Mapping[str, bool]
) -> Netlist:
    """Tie the named primary inputs to constants and propagate."""
    drop = set(values)
    missing = drop - set(netlist.inputs)
    if missing:
        raise TransformError(f"no such inputs: {sorted(missing)}")
    mapping: Dict[str, Expr] = {n: const(v) for n, v in values.items()}
    return _rebuild(
        netlist,
        _substituter(mapping),
        inputs=[inp for inp in netlist.inputs if inp not in drop],
    )


def reencode_onehot(
    netlist: Netlist, group: Sequence[str], prefix: str
) -> Netlist:
    """Replace a one-hot register group with a binary-encoded one.

    ``group`` lists registers assumed mutually exclusive with exactly
    one hot at any reachable time (the caller asserts this design
    knowledge, as the paper's authors did).  ``ceil(log2(n))`` new
    registers named ``prefix[i]`` replace them:

    * each old register's readers see the *decode* expression of its
      index;
    * each new bit's next-state is the OR of the old next-state
      expressions (rewritten through the decode map) of the indices
      with that bit set;
    * the initial state is the index of the old register that reset
      to 1.

    Raises
    ------
    TransformError
        If the group is empty, contains unknown registers, or resets
        with a number of hot bits different from one.
    """
    members = list(group)
    if not members:
        raise TransformError("one-hot group is empty")
    _existing_registers(netlist, members)
    regs = netlist.registers
    hot_at_reset = [i for i, n in enumerate(members) if regs[n].init]
    if len(hot_at_reset) != 1:
        raise TransformError(
            f"one-hot group must reset with exactly one hot bit, "
            f"got {len(hot_at_reset)}"
        )
    init_index = hot_at_reset[0]
    width = max(1, math.ceil(math.log2(len(members))))
    new_bits = [f"{prefix}[{i}]" for i in range(width)]

    def decode(index: int) -> Expr:
        literals = []
        for bit in range(width):
            v = Var(new_bits[bit])
            literals.append(v if (index >> bit) & 1 else not_(v))
        return and_(*literals)

    decode_map: Dict[str, Expr] = {
        name: decode(i) for i, name in enumerate(members)
    }
    decoded = _substituter(decode_map)
    # Surviving registers and outputs, with decoded references.
    result = _rebuild(netlist, decoded, drop=decode_map)
    # New binary registers.
    rewritten_nexts = {name: decoded(regs[name].next) for name in members}
    for bit in range(width):
        terms = [
            rewritten_nexts[name]
            for i, name in enumerate(members)
            if (i >> bit) & 1
        ]
        result.add_register(
            new_bits[bit],
            init=bool((init_index >> bit) & 1),
            next=or_(*terms) if terms else FALSE,
        )
    return result


def replace_registers(
    netlist: Netlist, replacements: Mapping[str, Expr]
) -> Netlist:
    """Remove registers that are *functionally redundant* -- equal at
    all reachable times to an expression over other registers -- and
    substitute that expression for every read.

    This is the "remove interlock registers" move of Figure 3(b): the
    interlock unit keeps private copies of destination addresses and
    load flags that mirror the pipeline-stage registers; replacing each
    copy with the mirrored expression removes the latches without
    changing any behaviour.  The equivalence is the caller's assertion
    (the paper: "local transformations that we assume are correct or
    can be easily proved"); the test suite proves it for the DLX model
    by side-by-side simulation.

    Raises
    ------
    TransformError
        If a replacement expression references a register being
        removed (replacements must be over *surviving* bits).
    """
    targets = _existing_registers(netlist, replacements)
    removed = set(targets)
    for name, expr in replacements.items():
        overlap = support(expr) & removed
        if overlap:
            raise TransformError(
                f"replacement for {name!r} references removed registers "
                f"{sorted(overlap)}"
            )
    return _rebuild(netlist, _substituter(dict(replacements)), drop=removed)


def fold_constant_registers(netlist: Netlist) -> Netlist:
    """Remove registers that provably hold a constant forever.

    Sequential constant propagation by greatest fixed point: start by
    assuming *every* register is stuck at its reset value, then evict
    any register whose next-state expression -- with the surviving
    assumptions substituted in -- does not fold to that value.  What
    survives is provably constant by induction over clock cycles.
    This sees through self-holding structures like
    ``next(q) = mux(stall, q, 0)`` with ``init(q) = 0``, which arise
    when an address-field input is tied: the field registers pipeline
    the constant but also hold themselves on stalls.
    """
    assumed: Dict[str, bool] = {
        reg.name: reg.init for reg in netlist.registers.values()
    }
    while True:
        fold = _substituter(
            {name: const(value) for name, value in assumed.items()}
        )
        evicted = []
        for name, value in assumed.items():
            reg = netlist.registers[name]
            assert reg.next is not None
            folded = fold(reg.next)
            if not (isinstance(folded, Const) and folded.value == value):
                evicted.append(name)
        if not evicted:
            break
        for name in evicted:
            del assumed[name]
    if not assumed:
        return netlist
    return constant_registers(netlist, assumed)


def merge_duplicate_registers(netlist: Netlist) -> Netlist:
    """Merge registers with identical reset value and next-state logic.

    Two registers driven by structurally identical expressions from the
    same reset value hold equal values at every cycle; all but one (the
    representative, chosen by name order) are replaced by references to
    it.  Iterates to a fixed point, since a merge can make further
    next-state expressions identical.  This is another of the paper's
    "local transformations that ... make no assumption about the
    overall function of the design".
    """
    current = netlist
    while True:
        groups: Dict[Tuple[bool, Expr], List[str]] = {}
        for reg in current.registers.values():
            assert reg.next is not None
            groups.setdefault((reg.init, reg.next), []).append(reg.name)
        replacements: Dict[str, Expr] = {}
        for (_init, _next), names in groups.items():
            if len(names) < 2:
                continue
            names.sort()
            keeper = names[0]
            for dup in names[1:]:
                replacements[dup] = Var(keeper)
        if not replacements:
            return current
        current = replace_registers(current, replacements)


def rename_bits(netlist: Netlist, mapping: Mapping[str, str]) -> Netlist:
    """Rename inputs/registers/outputs (injective)."""
    if len(set(mapping.values())) != len(mapping):
        raise TransformError("bit rename mapping is not injective")
    rename = _substituter({old: Var(new) for old, new in mapping.items()})

    def nm(name: str) -> str:
        return mapping.get(name, name)

    result = Netlist(netlist.name)
    for inp in netlist.inputs:
        result.add_input(nm(inp))
    for reg in netlist.registers.values():
        nxt = rename(reg.next) if reg.next is not None else None
        result.add_register(nm(reg.name), init=reg.init, next=nxt)
    for out_name, expr in netlist.outputs.items():
        result.add_output(out_name, rename(expr))
    return result


def _rebuild(
    netlist: Netlist,
    rewrite: Optional[Callable[[Expr], Expr]] = None,
    *,
    inputs: Optional[Iterable[str]] = None,
    drop: Container[str] = (),
    outputs: Optional[Iterable[str]] = None,
) -> Netlist:
    """A new netlist of the same name: ``inputs`` (default: the same),
    every register not in ``drop`` and the outputs named in ``outputs``
    (default: all), each register's next state and each output passed
    through ``rewrite`` (default: kept as they are).

    Every substituting transform rewrites with one
    :func:`~repro.rtl.expr._substituter` per mapping, so logic the
    rewritten roots share is rebuilt once and stays shared.
    """
    result = Netlist(netlist.name)
    for inp in netlist.inputs if inputs is None else inputs:
        result.add_input(inp)
    for reg in netlist.registers.values():
        if reg.name in drop:
            continue
        nxt = reg.next
        if rewrite is not None:
            assert nxt is not None
            nxt = rewrite(nxt)
        result.add_register(reg.name, init=reg.init, next=nxt)
    kept = netlist.outputs
    for out_name in kept if outputs is None else outputs:
        expr = kept[out_name]
        result.add_output(
            out_name, expr if rewrite is None else rewrite(expr)
        )
    return result


def _existing_registers(
    netlist: Netlist, names: Iterable[str]
) -> List[str]:
    """Validate that every name is a register; return them as a list."""
    wanted = list(names)
    regs = set(netlist.register_names)
    missing = [n for n in wanted if n not in regs]
    if missing:
        raise TransformError(
            f"{netlist.name}: not registers: {sorted(missing)}"
        )
    return wanted


class AbstractionStep:
    """One named step of an abstraction pipeline (Figure 3(b) rows)."""

    def __init__(self, label: str, apply) -> None:
        self.label = label
        self.apply = apply


def run_pipeline(
    netlist: Netlist, steps: Sequence[AbstractionStep]
) -> List[Tuple[str, Netlist]]:
    """Apply abstraction steps in order; returns [(label, netlist), ...]
    including the initial model as the first entry.

    The result's latch counts are the Figure 3(b) sequence for
    whatever design the pipeline is applied to.
    """
    trail: List[Tuple[str, Netlist]] = [("initial", netlist)]
    current = netlist
    for step in steps:
        current = step.apply(current)
        current.validate()
        trail.append((step.label, current))
    return trail
