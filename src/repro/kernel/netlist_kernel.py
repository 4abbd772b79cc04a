"""Word-parallel compiled netlist simulation.

:func:`repro.rtl.compile.compile_step` removed the tree-walking
overhead for a *single* simulation; this module removes the
per-mutant overhead as well.  The netlist is levelized once into a
flat SSA sequence of machine-word bitwise operations over *bit
slots*, where every slot holds one Python integer whose bit lanes are
independent simulations:

* lane 0 carries the **golden** design;
* lanes 1..N-1 each carry one **stuck-at mutant** (classic
  word-parallel fault simulation: one pass over the vectors
  simulates the golden design plus up to ``lanes - 1`` mutants
  simultaneously).

The lane count is a parameter: Python integers are arbitrary
precision, so a pass is not limited to machine-word width.  The
default is :data:`DEFAULT_LANES` (1023 mutants per pass), and every
campaign runs at it: the width is a parameter of this kernel only.
Per-operation interpreter overhead dominates bigint arithmetic until
words grow to many thousands of bits, so widening lanes converts
per-cycle Python dispatch into bulk bit-parallel work almost for free
-- see METHODOLOGY section 15 for the measured crossover.

A stuck-at fault is a pair of per-slot masks: before every cycle the
faulted slot is rewritten as ``(v & and_mask) | or_mask``, clearing or
setting only the mutant's lane -- every *reader* of the bit sees the
stuck value while the register itself still clocks, exactly the
semantics of :meth:`repro.rtl.faults.StuckAt.apply`.

Detection uses **drop-on-detect masking**: a ``live`` word tracks the
not-yet-detected mutant lanes; each cycle the outputs are xor-compared
against the broadcast golden lane and newly diverging live lanes are
recorded (with their 1-based vector index, matching
:func:`repro.rtl.faults.detects_stuck_at`) and dropped from ``live``.
Dropping cannot change any verdict: lanes are independent bit
positions, a lane is only removed *after* its first divergence is
recorded, and the verdict is exactly "first divergence index" -- see
METHODOLOGY section 11.

On top of wide words the kernel is **event-driven** (``dirty=True``,
the default): a one-lane golden pre-pass records every base slot's
golden value per cycle, each fault site's *activity* mask (cycles
where the stuck value actually disagrees with the golden value) is
derived from it by xor, and a cycle is skipped outright when every
live mutant is quiescent -- no register lane differs from golden and
no live fault site is active.  Awake cycles restrict output compares
and next-state diff tracking to the static fanout cones of the dirty
slots.  Faults whose site cannot reach any output (transitively
through the register graph) are pruned before simulation.  The
soundness argument mirrors drop-on-detect and is spelled out in
METHODOLOGY section 15; the verdicts are byte-identical to the dense
pass and to the interpreter.
"""

from __future__ import annotations

import weakref
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..rtl.expr import And, Const, Expr, Mux, Not, Or, Var, Xor
from ..rtl.faults import StuckAt
from ..rtl.netlist import Netlist, NetlistError

#: Default total lane count (golden lane 0 + 1023 mutant lanes) when a
#: caller passes ``lanes=None``/``"auto"``.  Python ints are arbitrary
#: precision; 1024 lanes keeps per-cycle Python overhead amortized
#: over ~16 machine words while staying far below the point where
#: bigint arithmetic itself becomes the bottleneck.
DEFAULT_LANES = 1024

#: Event-driven (dirty-set) simulation is on by default; ``dirty=False``
#: falls back to the dense every-cycle pass (same verdicts).
DEFAULT_DIRTY = True


class KernelError(Exception):
    """Raised on malformed kernels or unknown expression nodes."""


def resolve_lanes(lanes: object = None) -> int:
    """Normalize a ``lanes`` setting to a total lane count.

    ``None`` and ``"auto"`` select :data:`DEFAULT_LANES`; integers are
    taken as the total lane count (golden lane 0 plus ``lanes - 1``
    mutants) and must be at least 2.
    """
    if lanes is None or lanes == "auto":
        return DEFAULT_LANES
    if isinstance(lanes, bool) or not isinstance(lanes, int):
        raise KernelError(
            f"lane width must be an integer >= 2 or 'auto', got {lanes!r}"
        )
    if lanes < 2:
        raise KernelError(
            f"lane width must be >= 2 (golden lane 0 plus at least "
            f"one mutant), got {lanes}"
        )
    return lanes


def _children(node: Expr) -> Tuple[Expr, ...]:
    if isinstance(node, Not):
        return (node.arg,)
    if isinstance(node, (And, Or)):
        return node.args
    if isinstance(node, Xor):
        return (node.left, node.right)
    if isinstance(node, Mux):
        return (node.sel, node.if_true, node.if_false)
    return ()


def _render(node: Expr, names: Dict[Expr, str]) -> str:
    """One SSA right-hand side in word-bitwise form (``M`` = all-lanes
    mask, so NOT is ``x ^ M`` and MUX is and-or selected)."""
    if isinstance(node, Not):
        return f"{names[node.arg]} ^ M"
    if isinstance(node, And):
        return " & ".join(names[a] for a in node.args)
    if isinstance(node, Or):
        return " | ".join(names[a] for a in node.args)
    if isinstance(node, Xor):
        return f"{names[node.left]} ^ {names[node.right]}"
    if isinstance(node, Mux):
        s = names[node.sel]
        return (
            f"({s} & {names[node.if_true]}) | "
            f"(({s} ^ M) & {names[node.if_false]})"
        )
    raise KernelError(f"unknown expression node {type(node).__name__}")


class CompiledNetlist:
    """A netlist levelized into a flat word-bitwise cycle function.

    The compiled ``_cycle(base, M)`` takes the base slot values
    (inputs then registers, each a lane word) and the all-lanes mask
    ``M`` and returns ``(next_state_words, output_words)`` tuples.
    Common subexpressions are emitted once (structural SSA dedup), so
    shared logic cones are evaluated once per cycle for all lanes.

    ``lanes`` is the total lane count per simulation word (golden
    lane 0 + ``lanes - 1`` mutant lanes; ``None``/``"auto"`` selects
    :data:`DEFAULT_LANES`).  ``dirty`` selects event-driven
    simulation (the default) versus the dense every-cycle pass.
    """

    def __init__(
        self,
        netlist: Netlist,
        lanes: object = None,
        dirty: bool = DEFAULT_DIRTY,
    ) -> None:
        netlist.validate()
        # Weak: the compile memo is keyed weakly on the netlist, and a
        # strong reference from its value would keep the key alive.
        self._netlist = weakref.ref(netlist)
        self.lanes: int = resolve_lanes(lanes)
        #: Mutant lanes per pass (total lanes minus the golden lane).
        self.mutant_lanes: int = self.lanes - 1
        self.dirty: bool = bool(dirty)
        self.input_names: Tuple[str, ...] = netlist.inputs
        self.register_names: Tuple[str, ...] = netlist.register_names
        self.output_names: Tuple[str, ...] = netlist.output_names
        registers = netlist.registers
        self.init_values: Tuple[bool, ...] = tuple(
            registers[n].init for n in self.register_names
        )
        self._next_exprs: Tuple[Expr, ...] = tuple(
            registers[n].next for n in self.register_names  # type: ignore[misc]
        )
        self._output_exprs: Tuple[Expr, ...] = tuple(
            netlist.outputs[n] for n in self.output_names
        )
        self.base_slot: Dict[str, int] = {}
        for name in self.input_names:
            self.base_slot[name] = len(self.base_slot)
        for name in self.register_names:
            self.base_slot[name] = len(self.base_slot)
        self.n_base = len(self.base_slot)
        self.signature = _netlist_signature(netlist)
        self._cycle = self._compile()
        if self.dirty:
            self._compile_cones()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self) -> Callable[[Sequence[int], int], Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        names: Dict[Expr, str] = {}
        lines: List[str] = ["def _cycle(base, M):"]
        for slot in range(self.n_base):
            lines.append(f"    b{slot} = base[{slot}]")

        counter = [0]

        def visit(root: Expr) -> None:
            stack: List[Tuple[Expr, bool]] = [(root, False)]
            while stack:
                node, emitted = stack.pop()
                if node in names:
                    continue
                if isinstance(node, Const):
                    names[node] = "M" if node.value else "0"
                    continue
                if isinstance(node, Var):
                    try:
                        names[node] = f"b{self.base_slot[node.name]}"
                    except KeyError:
                        raise KernelError(
                            f"{self._netlist().name}: unbound bit "
                            f"{node.name!r}"
                        ) from None
                    continue
                if not emitted:
                    stack.append((node, True))
                    stack.extend((k, False) for k in _children(node))
                else:
                    name = f"t{counter[0]}"
                    counter[0] += 1
                    lines.append(f"    {name} = {_render(node, names)}")
                    names[node] = name

        for expr in self._next_exprs:
            visit(expr)
        for expr in self._output_exprs:
            visit(expr)

        def tup(exprs: Tuple[Expr, ...]) -> str:
            if not exprs:
                return "()"
            inner = ", ".join(names[e] for e in exprs)
            return f"({inner},)" if len(exprs) == 1 else f"({inner})"

        lines.append(
            f"    return {tup(self._next_exprs)}, {tup(self._output_exprs)}"
        )
        source = "\n".join(lines)
        namespace: Dict[str, Any] = {}
        exec(
            compile(source, f"<kernel {self._netlist().name}>", "exec"),
            namespace,
        )
        return namespace["_cycle"]

    def _expr_base_slots(self, root: Expr) -> Set[int]:
        """Base slots an expression reads (its combinational support)."""
        slots: Set[int] = set()
        stack: List[Expr] = [root]
        seen: Set[int] = set()
        while stack:
            node = stack.pop()
            key = id(node)
            if key in seen:
                continue
            seen.add(key)
            if isinstance(node, Var):
                # Bound: _compile already rejected unbound bits.
                slots.add(self.base_slot[node.name])
            else:
                stack.extend(_children(node))
        return slots

    def _compile_cones(self) -> None:
        """Static fanout cones for the dirty-set pass.

        ``_reg_cone[s]`` / ``_out_cone[s]`` are bitmasks over register
        / output indices whose expressions combinationally read base
        slot ``s``; ``_observable[s]`` is the transitive closure (a
        slot feeding only registers that never reach an output cannot
        diverge at the outputs, ever -- faults there are pruned before
        simulation).
        """
        n_inputs = len(self.input_names)
        reg_cone = [0] * self.n_base
        out_cone = [0] * self.n_base
        for r, expr in enumerate(self._next_exprs):
            for s in self._expr_base_slots(expr):
                reg_cone[s] |= 1 << r
        for o, expr in enumerate(self._output_exprs):
            for s in self._expr_base_slots(expr):
                out_cone[s] |= 1 << o
        observable = [bool(out_cone[s]) for s in range(self.n_base)]
        changed = True
        while changed:
            changed = False
            for s in range(self.n_base):
                if observable[s]:
                    continue
                fed = reg_cone[s]
                while fed:
                    low = fed & -fed
                    if observable[n_inputs + low.bit_length() - 1]:
                        observable[s] = True
                        changed = True
                        break
                    fed ^= low
        self._reg_cone = reg_cone
        self._out_cone = out_cone
        self._observable = observable

    # ------------------------------------------------------------------
    # Single-lane simulation (differential mirror of Netlist.run)
    # ------------------------------------------------------------------
    def run(
        self,
        input_sequence: Sequence[Mapping[str, bool]],
        state: Optional[Mapping[str, bool]] = None,
    ) -> Tuple[List[Dict[str, bool]], Dict[str, bool]]:
        """Golden-only run with :meth:`Netlist.run` semantics."""
        if state is None:
            word_state = [int(v) for v in self.init_values]
        else:
            try:
                word_state = [
                    int(bool(state[n])) for n in self.register_names
                ]
            except KeyError as exc:
                raise NetlistError(
                    f"{self._netlist().name}: state misses register "
                    f"{exc.args[0]!r}"
                ) from None
        cycle = self._cycle
        n_inputs = len(self.input_names)
        base = [0] * self.n_base
        outs: List[Dict[str, bool]] = []
        for vec in input_sequence:
            for k, name in enumerate(self.input_names):
                try:
                    base[k] = 1 if vec[name] else 0
                except KeyError:
                    raise NetlistError(
                        f"{self._netlist().name}: input {name!r} not driven"
                    ) from None
            base[n_inputs:] = word_state
            nxt, out = cycle(base, 1)
            outs.append(
                {
                    name: bool(bit)
                    for name, bit in zip(self.output_names, out)
                }
            )
            word_state = list(nxt)
        final = {
            name: bool(bit)
            for name, bit in zip(self.register_names, word_state)
        }
        return outs, final

    # ------------------------------------------------------------------
    # Word-parallel stuck-at fault simulation
    # ------------------------------------------------------------------
    def detect_batch(
        self,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
    ) -> List[Optional[int]]:
        """First divergence index (1-based) per fault, or None.

        Byte-identical to ``[detects_stuck_at(netlist, f, vectors)
        for f in faults]``; any number of faults is accepted and
        simulated in word groups of ``self.mutant_lanes`` (the golden
        pre-pass of the dirty-set mode is shared across groups).
        """
        results: List[Optional[int]] = []
        width = self.mutant_lanes
        golden_holder: List[Optional[List[int]]] = [None]
        for lo in range(0, len(faults), width):
            results.extend(
                self._detect_word(
                    vectors, faults[lo:lo + width], _golden=golden_holder
                )
            )
        return results

    def _detect_word(
        self,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
        _golden: Optional[List[Optional[List[int]]]] = None,
    ) -> List[Optional[int]]:
        n = len(faults)
        if n == 0:
            return []
        if n > self.mutant_lanes:
            raise KernelError(
                f"{n} faults exceed the {self.mutant_lanes}-mutant word"
            )
        mask = (1 << (n + 1)) - 1
        and_patch: Dict[int, int] = {}
        or_patch: Dict[int, int] = {}
        for lane, fault in enumerate(faults, start=1):
            slot = self.base_slot.get(fault.bit)
            if slot is None:
                # Same diagnostic as StuckAt.apply on a bad bit name.
                raise ValueError(
                    f"{self._netlist().name}: no bit {fault.bit!r}"
                )
            bit = 1 << lane
            and_patch[slot] = and_patch.get(slot, mask) & ~bit
            if fault.value:
                or_patch[slot] = or_patch.get(slot, 0) | bit
        patches = tuple(
            (slot, and_patch[slot], or_patch.get(slot, 0))
            for slot in sorted(and_patch)
        )
        if self.dirty:
            return self._detect_word_dirty(
                vectors, faults, patches, mask, _golden
            )
        return self._detect_word_dense(vectors, patches, mask, n)

    def _detect_word_dense(
        self,
        vectors: Sequence[Mapping[str, bool]],
        patches: Tuple[Tuple[int, int, int], ...],
        mask: int,
        n: int,
    ) -> List[Optional[int]]:
        """The original every-cycle pass (``dirty=False``)."""
        state = [mask if init else 0 for init in self.init_values]
        live = mask & ~1
        first: List[Optional[int]] = [None] * n
        cycle = self._cycle
        n_inputs = len(self.input_names)
        input_names = self.input_names
        base = [0] * self.n_base
        for idx, vec in enumerate(vectors, start=1):
            for k, name in enumerate(input_names):
                base[k] = mask if vec[name] else 0
            base[n_inputs:] = state
            for slot, and_mask, or_mask in patches:
                base[slot] = (base[slot] & and_mask) | or_mask
            nxt, outs = cycle(base, mask)
            diff = 0
            for word in outs:
                # Lanes whose bit differs from the golden lane-0 bit.
                diff |= (word ^ mask) if (word & 1) else word
            diff &= live
            if diff:
                live &= ~diff
                while diff:
                    low = diff & -diff
                    first[low.bit_length() - 2] = idx
                    diff ^= low
                if not live:
                    break
            state = list(nxt)
        return first

    def _golden_trace(self, vectors: Sequence[Mapping[str, bool]]) -> List[int]:
        """One-lane golden pre-pass: per base slot, a bitmask whose
        bit ``t`` is the slot's golden value entering cycle ``t``."""
        cycle = self._cycle
        n_inputs = len(self.input_names)
        input_names = self.input_names
        state = [int(v) for v in self.init_values]
        base = [0] * self.n_base
        gbits = [0] * self.n_base
        for t, vec in enumerate(vectors):
            bit = 1 << t
            for k, name in enumerate(input_names):
                if vec[name]:
                    base[k] = 1
                    gbits[k] |= bit
                else:
                    base[k] = 0
            base[n_inputs:] = state
            for k in range(n_inputs, self.n_base):
                if base[k]:
                    gbits[k] |= bit
            nxt, _outs = cycle(base, 1)
            state = list(nxt)
        return gbits

    def _detect_word_dirty(
        self,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
        patches: Tuple[Tuple[int, int, int], ...],
        mask: int,
        _golden: Optional[List[Optional[List[int]]]] = None,
    ) -> List[Optional[int]]:
        """Event-driven pass: skip cycles where every live mutant is
        quiescent; restrict compares/diff-tracking to dirty cones.

        Soundness (METHODOLOGY section 15): while the word is *clean*
        (no register lane differs from golden) and no live fault site
        is active (golden value == stuck value), every lane computes
        exactly the golden cycle -- outputs cannot diverge and the
        next state stays clean, so the cycle is skipped without
        simulating it.  On awake cycles, only slots in the fanout
        cones of dirty registers and active sites can differ from
        golden, so compares restricted to those cones see every
        divergence the dense pass sees, at the same cycle.
        """
        n = len(faults)
        first: List[Optional[int]] = [None] * n
        n_cycles = len(vectors)
        if not n_cycles:
            return first
        holder = _golden if _golden is not None else [None]
        if holder[0] is None:
            holder[0] = self._golden_trace(vectors)
        gbits = holder[0]
        all_cycles = (1 << n_cycles) - 1
        observable = self._observable
        live = 0
        # Lanes grouped by (site slot, stuck value): one activity mask
        # per group (cycles where the stuck value disagrees with the
        # golden value -- the only cycles the patch perturbs the lane).
        groups: Dict[Tuple[int, bool], List[int]] = {}
        for lane, fault in enumerate(faults, start=1):
            slot = self.base_slot[fault.bit]
            if not observable[slot]:
                # The site reaches no output, ever: provable escape.
                continue
            live |= 1 << lane
            key = (slot, fault.value)
            entry = groups.get(key)
            if entry is None:
                act = (~gbits[slot] if fault.value else gbits[slot])
                groups[key] = [slot, act & all_cycles, 1 << lane]
            else:
                entry[2] |= 1 << lane
        if not live:
            return first
        sites = list(groups.values())
        reg_cone = self._reg_cone
        out_cone = self._out_cone

        def union_live_sites() -> Tuple[int, int, int]:
            """(activity cycles, register cone, output cone) unioned
            over sites that still carry live lanes.  The cones are a
            per-pass over-approximation of the per-cycle dirty set --
            comparing extra words that provably equal golden costs
            time, never correctness -- recomputed only when lanes die
            so the hot loop stays free of per-site scans."""
            merged = scone_r = scone_o = 0
            for slot, act, lanes_word in sites:
                if lanes_word & live:
                    merged |= act
                    scone_r |= reg_cone[slot]
                    scone_o |= out_cone[slot]
            return merged, scone_r, scone_o

        any_active, site_cone_r, site_cone_o = union_live_sites()
        cycle = self._cycle
        n_inputs = len(self.input_names)
        input_names = self.input_names
        base = [0] * self.n_base
        clean = True
        dirty_regs = 0  # bitmask over register indices differing vs golden
        state: Optional[List[int]] = None
        for t, vec in enumerate(vectors):
            if clean and not ((any_active >> t) & 1):
                continue
            for k, name in enumerate(input_names):
                base[k] = mask if vec[name] else 0
            if clean:
                # Waking from a skipped stretch: every lane equals the
                # golden trajectory, so broadcast the golden state.
                state = [
                    mask if (gbits[s] >> t) & 1 else 0
                    for s in range(n_inputs, self.n_base)
                ]
            base[n_inputs:] = state  # type: ignore[misc]
            for slot, and_mask, or_mask in patches:
                base[slot] = (base[slot] & and_mask) | or_mask
            # Cones of this cycle's potentially-dirty slots: carried
            # register diffs plus the live fault sites.
            cone_r = site_cone_r
            cone_o = site_cone_o
            carried = dirty_regs
            while carried:
                low = carried & -carried
                s = n_inputs + low.bit_length() - 1
                cone_r |= reg_cone[s]
                cone_o |= out_cone[s]
                carried ^= low
            nxt, outs = cycle(base, mask)
            diff = 0
            pending = cone_o
            while pending:
                low = pending & -pending
                word = outs[low.bit_length() - 1]
                diff |= (word ^ mask) if (word & 1) else word
                pending ^= low
            diff &= live
            if diff:
                live &= ~diff
                while diff:
                    low = diff & -diff
                    first[low.bit_length() - 2] = t + 1
                    diff ^= low
                if not live:
                    break
                any_active, site_cone_r, site_cone_o = union_live_sites()
            dirty_regs = 0
            pending = cone_r
            while pending:
                low = pending & -pending
                word = nxt[low.bit_length() - 1]
                if ((word ^ mask) if (word & 1) else word) & live:
                    dirty_regs |= low
                pending ^= low
            if dirty_regs:
                clean = False
                state = list(nxt)
            else:
                clean = True
                state = None
        return first


def _netlist_signature(netlist: Netlist) -> Tuple:
    """Cheap structural fingerprint: expressions are immutable, so
    identity of the referenced trees (kept alive by the compiled
    object's ``_next_exprs`` / ``_output_exprs``) captures any
    mutation through ``set_next`` / ``set_output``."""
    registers = netlist.registers
    return (
        netlist.inputs,
        tuple(
            (r.name, r.init, id(r.next)) for r in registers.values()
        ),
        tuple((n, id(e)) for n, e in netlist.outputs.items()),
    )


_COMPILE_MEMO: "weakref.WeakKeyDictionary[Netlist, Dict[Tuple[int, bool], CompiledNetlist]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_netlist(
    netlist: Netlist,
    lanes: object = None,
    dirty: Optional[bool] = None,
) -> CompiledNetlist:
    """Compile (or fetch the memoized compilation of) ``netlist``.

    The memo is keyed weakly on the netlist object *and* on the
    ``(lanes, dirty)`` configuration -- switching the lane width or
    the dirty-set mode mid-process can never return a stale compiled
    function -- and revalidated against a structural signature, so
    in-place edits recompile while repeated campaigns over one netlist
    compile exactly once per process and configuration.  The compiled
    object is *never* attached to the netlist itself: exec-generated
    functions do not pickle, and a stowaway attribute would silently
    force the parallel executor's in-process fallback.
    """
    lanes = resolve_lanes(lanes)
    dirty = DEFAULT_DIRTY if dirty is None else bool(dirty)
    key = (lanes, dirty)
    per_config = _COMPILE_MEMO.get(netlist)
    if per_config is None:
        per_config = {}
        _COMPILE_MEMO[netlist] = per_config
    signature = _netlist_signature(netlist)
    cached = per_config.get(key)
    if cached is not None and cached.signature == signature:
        return cached
    if any(c.signature != signature for c in per_config.values()):
        # The netlist was rewired in place: every cached width/mode
        # compiled the old structure, so drop them all.
        per_config.clear()
    compiled = CompiledNetlist(netlist, lanes=lanes, dirty=dirty)
    per_config[key] = compiled
    return compiled


def stuck_at_first_divergences(
    golden: Netlist,
    vectors: Sequence[Mapping[str, bool]],
    faults: Sequence[StuckAt],
    *,
    lanes: object = None,
    dirty: Optional[bool] = None,
) -> List[Optional[int]]:
    """Word-parallel counterpart of calling
    :func:`repro.rtl.faults.detects_stuck_at` per fault.

    ``lanes`` selects the total lane count per pass (``None``/
    ``"auto"`` = :data:`DEFAULT_LANES`); ``dirty`` toggles the
    event-driven pass.  Verdicts are byte-identical at every width
    and in both modes.
    """
    return compiled_netlist(golden, lanes=lanes, dirty=dirty).detect_batch(
        vectors, faults
    )
