"""Word-parallel compiled netlist simulation.

The one code generator, :mod:`repro.rtl.compile`, removes the
tree-walking overhead: :func:`~repro.rtl.compile.compile_positional_step`
spells a netlist on Python bools for a *single* simulation.  This module has
the same generator spell it on lane words, which removes the
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
semantics of :meth:`repro.rtl.faults.StuckAt.apply`.  A slot's patch
is dropped once every lane it forces has diverged.

Detection uses **drop-on-detect masking**: a ``live`` word tracks the
not-yet-detected mutant lanes; each cycle the outputs are xor-compared
against the broadcast golden lane and newly diverging live lanes are
recorded (with their 1-based vector index, matching
:func:`repro.rtl.faults.detects_stuck_at`) and dropped from ``live``.
Dropping cannot change any verdict: lanes are independent bit
positions, a lane is only removed *after* its first divergence is
recorded, and the verdict is exactly "first divergence index" -- see
METHODOLOGY section 11.

Each pass runs in one of two modes with byte-identical verdicts.  The
*dense* pass simulates every cycle of every lane word.  The
*event-driven* pass first takes the golden trace -- every base slot's
golden value on every cycle -- from a one-lane pass that splits the
register logic into independent blocks and re-evaluates a block only
on cycles where one of its inputs or registers changed.  Each fault
site's *activity* mask (cycles where the stuck value disagrees with
the golden value) is derived from the trace by xor, and a cycle is
skipped outright when every live mutant is quiescent -- no register
lane differs from golden and no live fault site is active.  Awake
cycles restrict output compares and next-state diff tracking to the
static fanout cones of the dirty slots, and faults whose site cannot
reach any output (transitively through the register graph) are
pruned before simulation.

:func:`stuck_at_first_divergences` picks the mode per pass from what
is known before anything is simulated -- the vectors' input toggle
rate and the netlist's block structure: phase-sparse stimulus on a
netlist of independent blocks runs event-driven, anything else runs
the dense pass and pays for no golden trace.  ``dirty=True`` /
``dirty=False`` force either mode as a reference.  The soundness
arguments and the measured crossover are in METHODOLOGY section 15.
"""

from __future__ import annotations

import weakref
from itertools import islice
from operator import itemgetter, truth
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.events import span
from ..rtl.compile import _compile_function, _lane_words
from ..rtl.expr import Expr, support
from ..rtl.faults import StuckAt
from ..rtl.netlist import Netlist

#: Default total lane count (golden lane 0 + 1023 mutant lanes) when a
#: caller passes ``lanes=None``/``"auto"``.  Python ints are arbitrary
#: precision; 1024 lanes keeps per-cycle Python overhead amortized
#: over ~16 machine words while staying far below the point where
#: bigint arithmetic itself becomes the bottleneck.
DEFAULT_LANES = 1024

#: A pass runs event-driven when less than this share of the input
#: bits changes from one vector to the next and the registers split
#: into more than one block, and dense otherwise (the measurements the
#: rule rests on are in METHODOLOGY section 15).
SPARSE_TOGGLE_RATE = 0.1

#: Maps byte 0 to the digit "0" and every other byte to "1", so a
#: column of truth values becomes a base-2 literal for ``int``.
_BIT_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)

#: Vectors per chunk when input columns are read (256 and 512 read the
#: protocol farm fastest of the sizes measured; larger chunks only
#: hold more rows).
_COLUMN_CHUNK = 256


class KernelError(Exception):
    """Raised on a lane width or a fault word the kernel cannot run."""


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


def _input_columns(
    input_names: Sequence[str], vectors: Sequence[Mapping[str, bool]]
) -> List[int]:
    """Per input, a bitmask whose bit ``t`` is the input's value in
    vector ``t``.  The vectors are read once, in chunks of
    :data:`_COLUMN_CHUNK` rows that are transposed and dropped, so no
    per-cycle rows outlive their chunk."""
    columns = [0] * len(input_names)
    if not input_names:
        return columns
    # itemgetter of a single name returns the bare value, not a tuple:
    # read the first name twice and drop the extra column.
    row = itemgetter(*input_names, input_names[0])
    rest = iter(vectors)
    lo = 0
    while True:
        chunk = list(map(row, islice(rest, _COLUMN_CHUNK)))
        if not chunk:
            return columns
        for k, bits in zip(range(len(input_names)), zip(*chunk)):
            try:
                raw = bytes(bits)
            except (TypeError, ValueError):
                raw = bytes(map(truth, bits))
            columns[k] |= int(raw[::-1].translate(_BIT_DIGITS), 2) << lo
        lo += len(chunk)


def _forcing(
    patches: Tuple[Tuple[int, int, int], ...], live: int
) -> Tuple[Tuple[int, int, int], ...]:
    """The ``(slot, and_mask, or_mask)`` patches that still force a
    live lane.  A patch's lanes are the bits its AND mask clears (its
    OR mask sets only bits the AND mask cleared), and stuck-at-0 and
    stuck-at-1 of one bit share a patch, so it goes only once all of
    its lanes have diverged.  No operation mixes lanes, so a dead
    lane's value never reaches a live lane or a compare."""
    return tuple(p for p in patches if ~p[1] & live)


def _toggle_rate(columns: Sequence[int], n_cycles: int) -> Optional[float]:
    """The share of input bits that differ from the vector before
    (None when there is no input transition to measure)."""
    if not columns or n_cycles < 2:
        return None
    pairs = (1 << (n_cycles - 1)) - 1
    toggles = sum(bin((c ^ (c >> 1)) & pairs).count("1") for c in columns)
    return toggles / (len(columns) * (n_cycles - 1))


class CompiledNetlist:
    """A netlist levelized into a flat word-bitwise cycle function.

    The compiled ``_cycle(base, M)`` takes the base slot values
    (inputs then registers, each a lane word) and the all-lanes mask
    ``M`` and returns ``(next_state_words, output_words)`` tuples.
    Common subexpressions are emitted once (structural SSA dedup), so
    shared logic cones are evaluated once per cycle for all lanes.

    ``lanes`` is the total lane count per simulation word (golden
    lane 0 + ``lanes - 1`` mutant lanes; ``None``/``"auto"`` selects
    :data:`DEFAULT_LANES`).  One compiled object runs both pass
    modes: the fanout cones and the per-block next-state functions of
    the event-driven pass are built on its first event-driven use.
    """

    def __init__(self, netlist: Netlist, lanes: object = None) -> None:
        netlist.validate()
        # Weak: the compile memo is keyed weakly on the netlist, and a
        # strong reference from its value would keep the key alive.
        self._netlist = weakref.ref(netlist)
        self.lanes: int = resolve_lanes(lanes)
        #: Mutant lanes per pass (total lanes minus the golden lane).
        self.mutant_lanes: int = self.lanes - 1
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
        self._cycle = _compile_function(
            "def _cycle(base, M):",
            [f"    b{slot} = base[{slot}]" for slot in range(self.n_base)],
            {name: f"b{slot}" for name, slot in self.base_slot.items()},
            (self._next_exprs, self._output_exprs),
            netlist.name,
            _lane_words,
        )
        #: (registers, inputs) per register block, built with the cones
        #: by :meth:`_build_cones_and_blocks`; each block's one-lane
        #: next-state function is compiled on the first golden pass.
        self._blocks: Optional[List[Tuple[Tuple[int, ...], ...]]] = None
        self._block_steps: Optional[List[Callable[..., Tuple[int, ...]]]] = None

    # ------------------------------------------------------------------
    # Event-driven structure (built on first use)
    # ------------------------------------------------------------------
    def _build_cones_and_blocks(self) -> None:
        """Fanout cones and register blocks for the event-driven pass.

        ``_reg_cone[s]`` / ``_out_cone[s]`` are bitmasks over register
        / output indices whose expressions combinationally read base
        slot ``s``; ``_observable[s]`` is the transitive closure (a
        slot feeding only registers that never reach an output cannot
        diverge at the outputs, ever -- faults there are pruned before
        simulation).

        ``_blocks`` are the connected components of the graph joining
        each register to the registers its next state reads: a block's
        next state depends only on its own registers and its inputs,
        so each block gets its own one-lane next-state function.
        """
        n_inputs = len(self.input_names)
        base_slot = self.base_slot
        supports = [
            {base_slot[name] for name in support(e)} for e in self._next_exprs
        ]
        reg_cone = [0] * self.n_base
        out_cone = [0] * self.n_base
        for r, slots in enumerate(supports):
            for s in slots:
                reg_cone[s] |= 1 << r
        for o, expr in enumerate(self._output_exprs):
            for name in support(expr):
                out_cone[base_slot[name]] |= 1 << o
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

        root = list(range(len(supports)))

        def find(r: int) -> int:
            while root[r] != r:
                root[r] = root[root[r]]
                r = root[r]
            return r

        for r, slots in enumerate(supports):
            for s in slots:
                if s >= n_inputs:
                    a, b = find(r), find(s - n_inputs)
                    root[max(a, b)] = min(a, b)
        members: Dict[int, List[int]] = {}
        for r in range(len(supports)):
            members.setdefault(find(r), []).append(r)
        self._blocks = [
            (
                tuple(regs),
                tuple(sorted(
                    {s for r in regs for s in supports[r] if s < n_inputs}
                )),
            )
            for regs in members.values()
        ]

    def _compile_block(
        self, regs: Sequence[int], ins: Sequence[int]
    ) -> Callable[..., Tuple[int, ...]]:
        """One block's one-lane next-state function ``(state, vec)``:
        ``state`` holds the block's registers, ``vec`` is the vector."""
        n_inputs = len(self.input_names)
        bound = {self.input_names[k]: f"b{k}" for k in ins}
        bound.update({self.register_names[r]: f"b{n_inputs + r}" for r in regs})
        prologue = [
            f"    b{k} = 1 if vec[{self.input_names[k]!r}] else 0" for k in ins
        ]
        prologue.append(
            "    " + "".join(f"b{n_inputs + r}, " for r in regs) + "= state"
        )
        return _compile_function(
            "def _block(state, vec, M=1):", prologue, bound,
            ([self._next_exprs[r] for r in regs],), self._netlist().name,
            _lane_words,
        )

    # ------------------------------------------------------------------
    # Word-parallel stuck-at fault simulation
    # ------------------------------------------------------------------
    def detect_batch(
        self,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
        dirty: Optional[bool] = None,
    ) -> List[Optional[int]]:
        """First divergence index (1-based) per fault, or None.

        Byte-identical to ``[detects_stuck_at(netlist, f, vectors)
        for f in faults]`` in either mode; any number of faults is
        accepted and simulated in word groups of ``self.mutant_lanes``.
        ``dirty=None`` runs the event-driven pass when the vectors'
        input toggle rate is below :data:`SPARSE_TOGGLE_RATE` and the
        registers split into more than one block, and the dense pass
        otherwise; ``True`` / ``False`` force the event-driven / dense
        pass.  The pass is one ``kernel.stuck_at`` span on the event
        bus.
        """
        name = self._netlist().name
        for fault in faults:
            if fault.bit not in self.base_slot:
                # Same diagnostic as StuckAt.apply on a bad bit name,
                # raised before any vector is read, as there.
                raise ValueError(f"{name}: no bit {fault.bit!r}")
        with span(
            "kernel.stuck_at",
            netlist=name,
            faults=len(faults),
            cycles=len(vectors),
        ) as sp:
            columns: List[int] = []
            event = bool(dirty)
            if dirty is not False:
                columns = _input_columns(self.input_names, vectors)
            if dirty is None:
                rate = _toggle_rate(columns, len(vectors))
                sp.set(toggle_rate=rate)
                if rate is not None and rate < SPARSE_TOGGLE_RATE:
                    if self._blocks is None:
                        self._build_cones_and_blocks()
                    event = len(self._blocks or ()) > 1
            sp.set(mode="event" if event else "dense", forced=dirty is not None)
            trace: List[List[int]] = []

            def golden() -> List[int]:
                """The golden trace, taken once and shared by all words."""
                if not trace:
                    gbits, evals = self._golden_trace(vectors, columns)
                    trace.append(gbits)
                    sp.set(block_evals=evals)
                return trace[0]

            results: List[Optional[int]] = []
            width = self.mutant_lanes
            for lo in range(0, len(faults), width):
                results.extend(self._detect_word(
                    vectors, faults[lo:lo + width], golden if event else None
                ))
            return results

    def _detect_word(
        self,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
        golden: Optional[Callable[[], List[int]]] = None,
    ) -> List[Optional[int]]:
        """One lane word: the dense pass, or with ``golden`` (the
        golden trace's supplier) the event-driven one."""
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
            slot = self.base_slot[fault.bit]
            bit = 1 << lane
            and_patch[slot] = and_patch.get(slot, mask) & ~bit
            if fault.value:
                or_patch[slot] = or_patch.get(slot, 0) | bit
        patches = tuple(
            (slot, and_patch[slot], or_patch.get(slot, 0))
            for slot in sorted(and_patch)
        )
        if golden is None:
            return self._detect_word_dense(vectors, patches, mask, n)
        return self._detect_word_event(vectors, faults, patches, mask, golden)

    def _detect_word_dense(
        self,
        vectors: Sequence[Mapping[str, bool]],
        patches: Tuple[Tuple[int, int, int], ...],
        mask: int,
        n: int,
    ) -> List[Optional[int]]:
        """The dense pass: every cycle, every lane."""
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
                patches = _forcing(patches, live)
            state = list(nxt)
        return first

    def _golden_trace(
        self,
        vectors: Sequence[Mapping[str, bool]],
        columns: Sequence[int],
    ) -> Tuple[List[int], int]:
        """Event-driven one-lane golden pass: per base slot, a bitmask
        whose bit ``t`` is the slot's golden value entering cycle
        ``t``, and the number of block evaluations the pass made.

        The input slots are the ``columns``.  Every register block is
        evaluated on cycle 0; after that, only on a cycle where one of
        its inputs changed or where its own state changed on the cycle
        before.  A block whose inputs and registers hold the values
        they had on the cycle before computes the next state it
        computed then, which is the state it holds: skipping it
        changes no bit of the trace (METHODOLOGY section 15).
        """
        if self._blocks is None:
            self._build_cones_and_blocks()
        blocks = self._blocks or []
        if self._block_steps is None:
            self._block_steps = [
                self._compile_block(regs, ins) for regs, ins in blocks
            ]
        n_inputs = len(self.input_names)
        gbits = list(columns) + [0] * len(self.register_names)
        n_cycles = len(vectors)
        evals = 0
        if not n_cycles:
            return gbits, evals
        full = (1 << n_cycles) - 1
        # Bit t (t >= 1): the input differs from its value on cycle t-1.
        changes = [(c ^ (c << 1)) & full for c in columns]
        for (regs, ins), step in zip(blocks, self._block_steps):
            wake = 0
            for k in ins:
                wake |= changes[k]
            state = tuple(int(self.init_values[r]) for r in regs)
            # The cycle on which each register took its current value.
            since = [0] * len(regs)
            t = 0
            while True:
                nxt = step(state, vectors[t])
                evals += 1
                t += 1
                if nxt != state:
                    for j, old in enumerate(state):
                        if old != nxt[j]:
                            if old:
                                gbits[n_inputs + regs[j]] |= (
                                    (1 << t) - (1 << since[j])
                                )
                            since[j] = t
                    state = nxt
                    if t < n_cycles:
                        continue
                    break
                # Held: sleep until the next change of an input.
                rest = wake >> t
                if not rest:
                    break
                t += (rest & -rest).bit_length() - 1
            for j, value in enumerate(state):
                if value:
                    gbits[n_inputs + regs[j]] |= full ^ ((1 << since[j]) - 1)
        return gbits, evals

    def _detect_word_event(
        self,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
        patches: Tuple[Tuple[int, int, int], ...],
        mask: int,
        golden: Callable[[], List[int]],
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
        if self._blocks is None:
            self._build_cones_and_blocks()
        observable = self._observable
        # Lanes grouped by (site slot, stuck value); a site that
        # reaches no output, ever, is a provable escape and stays out.
        site_lanes: Dict[Tuple[int, bool], int] = {}
        for lane, fault in enumerate(faults, start=1):
            slot = self.base_slot[fault.bit]
            if observable[slot]:
                key = (slot, fault.value)
                site_lanes[key] = site_lanes.get(key, 0) | (1 << lane)
        if not site_lanes:
            return first
        gbits = golden()
        all_cycles = (1 << n_cycles) - 1
        live = 0
        # One activity mask per group: the cycles where the stuck value
        # disagrees with the golden value -- the only cycles the patch
        # perturbs the lane.
        sites = []
        for (slot, value), lanes_word in site_lanes.items():
            act = ~gbits[slot] if value else gbits[slot]
            sites.append((slot, act & all_cycles, lanes_word))
            live |= lanes_word
        patches = _forcing(patches, live)
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
                patches = _forcing(patches, live)
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


_COMPILE_MEMO: "weakref.WeakKeyDictionary[Netlist, Dict[int, CompiledNetlist]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_netlist(netlist: Netlist, lanes: object = None) -> CompiledNetlist:
    """Compile (or fetch the memoized compilation of) ``netlist``.

    The memo is keyed weakly on the netlist object *and* on the lane
    width -- switching the width mid-process can never return a stale
    compiled function -- and revalidated against a structural
    signature, so in-place edits recompile while repeated campaigns
    over one netlist compile exactly once per process and width.  One
    compiled object serves both pass modes.  It is *never* attached to
    the netlist itself: exec-generated functions do not pickle, and a
    stowaway attribute would silently force the parallel executor's
    in-process fallback.
    """
    lanes = resolve_lanes(lanes)
    per_width = _COMPILE_MEMO.get(netlist)
    if per_width is None:
        per_width = {}
        _COMPILE_MEMO[netlist] = per_width
    signature = _netlist_signature(netlist)
    cached = per_width.get(lanes)
    if cached is not None and cached.signature == signature:
        return cached
    if any(c.signature != signature for c in per_width.values()):
        # The netlist was rewired in place: every cached width
        # compiled the old structure, so drop them all.
        per_width.clear()
    compiled = CompiledNetlist(netlist, lanes=lanes)
    per_width[lanes] = compiled
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
    ``"auto"`` = :data:`DEFAULT_LANES`).  With ``dirty=None`` the
    kernel picks the dense or the event-driven pass from the vectors'
    input toggle rate; ``dirty=True`` / ``dirty=False`` force the
    event-driven / dense pass as references.  Verdicts are
    byte-identical at every width and in both modes.
    """
    return compiled_netlist(golden, lanes=lanes).detect_batch(
        vectors, faults, dirty
    )
