"""The netlist kernel's event-driven golden pass and its choice of mode.

The event-driven pass takes the golden trace block by block,
re-evaluating a register block only on cycles where one of its inputs
or registers changed.  These properties pin it on merged farms of
random blocks driven phase by phase, the shape the pass is for:

* the event-driven golden trace equals a plain one-lane pass, slot for
  slot, cycle for cycle;
* first divergences are the per-fault interpreter's under the chosen
  mode and under both forced modes;
* the ``kernel.stuck_at`` span reports which mode a pass ran, and the
  choice follows the input's activity.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.synth import merge_netlists
from repro.dlx.testmodel import derive_test_model
from repro.kernel import compiled_netlist, stuck_at_first_divergences
from repro.kernel.netlist_kernel import _input_columns
from repro.obs.events import RingBufferSink, scoped_bus
from repro.rtl.expr import Const, Var, and_, mux, not_, or_, xor_
from repro.rtl.faults import StuckAt, all_stuck_at_faults, detects_stuck_at
from repro.rtl.netlist import Netlist
from tests.test_kernel_differential import SETTINGS, seeds

#: Block shapes: random logic, free-running (no inputs), registers
#: with constant next states, and no registers at all.
SHAPES = ("random", "free", "constant", "combinational")


def build_block(seed: int, shape: str) -> Netlist:
    """A small random block of the given shape."""
    rng = random.Random(seed)
    ins = [] if shape == "free" else [
        f"i{k}" for k in range(rng.randint(1, 3))
    ]
    regs = [] if shape == "combinational" else [
        f"r{k}" for k in range(rng.randint(1, 4))
    ]
    nl = Netlist(f"{shape}{seed}")
    nl.add_inputs(ins)
    for r in regs:
        nl.add_register(r, init=rng.random() < 0.5)
    names = ins + regs

    def expr(depth):
        if not names or depth == 0 or rng.random() < 0.3:
            if not names or rng.random() < 0.15:
                return Const(rng.random() < 0.5)
            return Var(rng.choice(names))
        op = rng.randrange(5)
        if op == 0:
            return not_(expr(depth - 1))
        if op == 1:
            return and_(expr(depth - 1), expr(depth - 1))
        if op == 2:
            return or_(expr(depth - 1), expr(depth - 1))
        if op == 3:
            return xor_(expr(depth - 1), expr(depth - 1))
        return mux(expr(depth - 1), expr(depth - 1), expr(depth - 1))

    for r in regs:
        nl.set_next(
            r, Const(rng.random() < 0.5) if shape == "constant" else expr(3)
        )
    for k in range(rng.randint(1, 2)):
        nl.set_output(f"o{k}", expr(3))
    return nl


def build_farm(seed: int, shapes):
    """Blocks merged side by side, with their input names."""
    blocks = [
        (f"b{k}_", build_block(seed * 7 + k, shape))
        for k, shape in enumerate(shapes)
    ]
    farm = merge_netlists(
        [(prefix, net) for prefix, net in blocks], name="farm"
    )
    return farm, [[prefix + n for n in net.inputs] for prefix, net in blocks]


def phase_vectors(farm, block_inputs, seed: int, phases, flip=0.5):
    """Phase by phase: each phase drives one block, each of whose
    inputs flips with probability ``flip`` per cycle, while every
    other input idles at 0."""
    rng = random.Random(seed)
    vectors = []
    for block, length in phases:
        driven = dict.fromkeys(block_inputs[block % len(block_inputs)], False)
        for _ in range(length):
            for name, value in driven.items():
                driven[name] = (not value) if rng.random() < flip else value
            vec = dict.fromkeys(farm.inputs, False)
            vec.update(driven)
            vectors.append(vec)
    return vectors


def plain_trace(netlist: Netlist, vectors):
    """Per base slot (inputs, then registers), the bitmask of cycles
    on which the slot's golden value is 1, from the interpreter
    (``Netlist.step``: the kernel under test shares its code generator
    with ``compile_positional_step``, so the reference must not)."""
    step = netlist.step
    state = netlist.reset_state()
    names = list(netlist.inputs) + list(netlist.register_names)
    gbits = [0] * len(names)
    for t, vec in enumerate(vectors):
        values = {**vec, **state}
        for slot, name in enumerate(names):
            if values[name]:
                gbits[slot] |= 1 << t
        state, _outs = step(state, vec)
    return gbits


farms = st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4)
phases = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 8)), max_size=6
)


class TestEventGoldenTrace:
    @SETTINGS
    @given(seed=seeds, shapes=farms, vseed=seeds, plan=phases)
    def test_trace_equals_plain_pass(self, seed, shapes, vseed, plan):
        farm, block_inputs = build_farm(seed, shapes)
        vectors = phase_vectors(farm, block_inputs, vseed, plan)
        compiled = compiled_netlist(farm)
        gbits, evals = compiled._golden_trace(
            vectors, _input_columns(compiled.input_names, vectors)
        )
        assert gbits == plain_trace(farm, vectors)
        assert evals <= len(vectors) * len(compiled._blocks)

    @SETTINGS
    @given(seed=seeds, shapes=farms, vseed=seeds, plan=phases)
    def test_every_mode_matches_interpreter(self, seed, shapes, vseed,
                                            plan):
        farm, block_inputs = build_farm(seed, shapes)
        vectors = phase_vectors(farm, block_inputs, vseed, plan)
        faults = all_stuck_at_faults(farm, include_inputs=True)
        ref = [detects_stuck_at(farm, f, vectors) for f in faults]
        for dirty in (None, True, False):
            got = stuck_at_first_divergences(
                farm, vectors, faults, dirty=dirty
            )
            assert got == ref, f"dirty={dirty}"

    def test_empty_and_one_vector_sequences(self):
        farm, block_inputs = build_farm(3, SHAPES)
        faults = all_stuck_at_faults(farm, include_inputs=True)
        compiled = compiled_netlist(farm)
        for vectors in ([], phase_vectors(farm, block_inputs, 4, [(0, 1)])):
            gbits, _evals = compiled._golden_trace(
                vectors, _input_columns(compiled.input_names, vectors)
            )
            assert gbits == plain_trace(farm, vectors)
            ref = [detects_stuck_at(farm, f, vectors) for f in faults]
            for dirty in (None, True, False):
                assert stuck_at_first_divergences(
                    farm, vectors, faults, dirty=dirty
                ) == ref

    def test_bad_bit_raises_before_any_vector_is_read(self):
        """A bad fault bit is the interpreter's ValueError in every
        mode, even when the vectors are malformed too."""
        farm, _inputs = build_farm(5, ("random", "random"))
        faults = [StuckAt("ghost", True)]
        vectors = [{}]
        with pytest.raises(ValueError) as ref:
            detects_stuck_at(farm, faults[0], vectors)
        for dirty in (None, True, False):
            with pytest.raises(ValueError) as got:
                stuck_at_first_divergences(farm, vectors, faults, dirty=dirty)
            assert str(got.value) == str(ref.value), f"dirty={dirty}"

    def test_free_running_block_is_evaluated_every_cycle(self):
        """A toggling register with no inputs changes every cycle, so
        its block must be re-evaluated on every one of them."""
        nl = Netlist("toggle")
        nl.add_register("q", init=False, next=not_(Var("q")))
        nl.set_output("y", Var("q"))
        vectors = [{} for _ in range(9)]
        gbits, evals = compiled_netlist(nl)._golden_trace(vectors, [])
        assert gbits == [0b010101010]
        assert evals == 9
        ref = [detects_stuck_at(nl, f, vectors)
               for f in (StuckAt("q", False), StuckAt("q", True))]
        assert stuck_at_first_divergences(
            nl, vectors, [StuckAt("q", False), StuckAt("q", True)],
            dirty=True,
        ) == ref

    def test_patch_stays_while_a_lane_it_forces_is_live(self):
        """Stuck-at-0 and stuck-at-1 of one bit share their slot's
        patch.  Here each bit's stuck-at-0 lane diverges ten cycles
        before its stuck-at-1 lane, so a pass that dropped the patch
        with the first dead lane would let the stuck-at-1 lane
        escape."""
        nl = Netlist("late")
        nl.add_input("a")
        nl.add_register("q", init=True, next=Var("a"))
        nl.set_output("y", Var("q"))
        vectors = [{"a": t < 10} for t in range(16)]
        faults = all_stuck_at_faults(nl, include_inputs=True)
        ref = [detects_stuck_at(nl, f, vectors) for f in faults]
        first = {(f.bit, f.value): at for f, at in zip(faults, ref)}
        for bit in ("a", "q"):
            assert first[bit, True] - first[bit, False] >= 10, first
        for dirty in (False, True):
            assert stuck_at_first_divergences(
                nl, vectors, faults, dirty=dirty
            ) == ref, f"dirty={dirty}"


def _stuck_at_spans(run):
    with scoped_bus() as bus:
        ring = bus.add_sink(RingBufferSink())
        run()
    return [
        e.payload["args"] for e in ring.events()
        if e.name == "span.end" and e.payload["span"] == "kernel.stuck_at"
    ]


class TestModeChoice:
    def test_dense_activity_runs_dense(self):
        """A DLX trail netlist under uniform random vectors: half the
        input bits toggle every cycle, so the pass runs dense and takes
        no golden trace."""
        _label, net = derive_test_model()[-1]
        rng = random.Random(5)
        vectors = [{n: rng.random() < 0.5 for n in net.inputs}
                   for _ in range(40)]
        faults = all_stuck_at_faults(net)[:6]
        (args,) = _stuck_at_spans(
            lambda: stuck_at_first_divergences(net, vectors, faults)
        )
        assert args["mode"] == "dense" and args["forced"] is False
        assert args["netlist"] == net.name
        assert (args["faults"], args["cycles"]) == (6, 40)
        assert "block_evals" not in args

    def test_one_block_netlist_runs_dense_under_sparse_input(self):
        """The same trail netlist with its inputs held for tens of
        cycles at a time: the toggle rate is sparse, but its registers
        form one block, so the pass still runs dense."""
        _label, net = derive_test_model()[-1]
        rng = random.Random(6)
        vec = {n: rng.random() < 0.5 for n in net.inputs}
        vectors = []
        for _ in range(60):
            vec = {n: (not v) if rng.random() < 0.02 else v
                   for n, v in vec.items()}
            vectors.append(vec)
        faults = all_stuck_at_faults(net)[:6]
        (args,) = _stuck_at_spans(
            lambda: stuck_at_first_divergences(net, vectors, faults)
        )
        assert args["toggle_rate"] < 0.1
        assert args["mode"] == "dense"

    def test_phase_sparse_farm_runs_event_driven(self):
        """Two blocks tested one after the other, their inputs held
        for cycles at a time: while one is driven the other idles, and
        the pass runs event-driven."""
        farm, block_inputs = build_farm(11, ("random", "random"))
        vectors = phase_vectors(
            farm, block_inputs, 12, [(0, 30), (1, 30)], flip=0.1
        )
        faults = all_stuck_at_faults(farm)
        (args,) = _stuck_at_spans(
            lambda: stuck_at_first_divergences(farm, vectors, faults)
        )
        assert args["mode"] == "event" and args["forced"] is False
        assert 0 < args["block_evals"] <= 2 * len(vectors)

    def test_forced_modes_are_reported(self):
        farm, block_inputs = build_farm(13, ("random", "free"))
        vectors = phase_vectors(farm, block_inputs, 14, [(0, 5)])
        faults = all_stuck_at_faults(farm)
        spans = _stuck_at_spans(lambda: [
            stuck_at_first_divergences(farm, vectors, faults, dirty=d)
            for d in (True, False)
        ])
        assert [(a["mode"], a["forced"]) for a in spans] == [
            ("event", True), ("dense", True)
        ]
