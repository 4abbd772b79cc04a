"""Compiled-code simulation vs the interpreting simulator.

The compiled (positional) step function must be bit-identical to
:meth:`Netlist.step` on every netlist and input stream, both stepped
from the interpreter's state each cycle and run on its own state --
checked on the hand-built netlists, on the DLX control and tour
models, and property-style on randomly generated netlists.  Its
lane-word form must give the interpreter's step on every lane.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl import Netlist, NetlistError, and_, mux, not_, or_, var, xor_
from repro.rtl.compile import compile_positional_step, compile_positional_words
from tests.test_rtl_netlist import counter_netlist, toggle_netlist
from tests.test_rtl_transform import onehot_fsm, pipeline_netlist


def random_netlist(rng: random.Random, n_inputs=3, n_regs=4, depth=3):
    """A random closed netlist over the given bit budget."""
    net = Netlist("rand")
    inputs = [net.add_input(f"i{k}") for k in range(n_inputs)]
    regs = [net.add_register(f"r{k}", init=rng.random() < 0.5)
            for k in range(n_regs)]
    bits = inputs + regs

    def expr(level):
        if level == 0 or rng.random() < 0.25:
            return rng.choice(bits)
        kind = rng.randrange(4)
        if kind == 0:
            return and_(expr(level - 1), expr(level - 1))
        if kind == 1:
            return or_(expr(level - 1), expr(level - 1))
        if kind == 2:
            return xor_(expr(level - 1), expr(level - 1))
        return mux(expr(level - 1), expr(level - 1), expr(level - 1))

    for k in range(n_regs):
        net.set_next(f"r{k}", expr(depth))
    for k in range(2):
        net.add_output(f"o{k}", expr(depth))
    return net


def same_operand_gates():
    """Gates of every kind over the same bits: structural dedup must
    key a gate by its type as well as its operands."""
    net = Netlist("same-operands")
    a, b, s = (net.add_input(n) for n in ("a", "b", "s"))
    q = net.add_register("q", init=False, next=xor_(a, b))
    net.add_output("and", and_(a, b))
    net.add_output("or", or_(a, b))
    net.add_output("xor", xor_(a, b))
    net.add_output("mux", mux(s, a, b))
    net.add_output("xum", mux(s, b, a))
    net.add_output("nq", not_(q))
    return net


def free_running():
    """No inputs, one register, one output."""
    net = Netlist("free-running")
    q = net.add_register("q", init=True)
    net.set_next("q", not_(q))
    net.add_output("o", q)
    return net


def combinational():
    """One input, no registers, one output."""
    net = Netlist("combinational")
    net.add_output("o", not_(net.add_input("a")))
    return net


def silent():
    """Two inputs, one register, no outputs."""
    net = Netlist("silent")
    a, b = net.add_input("a"), net.add_input("b")
    net.add_register("q", init=False, next=xor_(a, b))
    return net


FIXED_NETLISTS = [
    counter_netlist(3),
    toggle_netlist(),
    pipeline_netlist(),
    onehot_fsm(),
    same_operand_gates(),
    free_running(),
    combinational(),
    silent(),
]


def assert_run_matches_interpreter(net, rng, cycles):
    """Run the compiled step on its own state and the interpreter on
    its own: every cycle's next state and outputs must agree."""
    step = compile_positional_step(net)
    regs, ins, outs = net.register_names, net.inputs, net.output_names
    state = net.reset_state()
    got_state = tuple(state[n] for n in regs)
    for _cycle in range(cycles):
        vec = {name: rng.random() < 0.5 for name in ins}
        state, want_out = net.step(state, vec)
        got_state, got_out = step(got_state, tuple(vec[n] for n in ins))
        assert got_state == tuple(state[n] for n in regs)
        assert got_out == tuple(want_out[n] for n in outs)


@pytest.mark.parametrize(
    "net", FIXED_NETLISTS, ids=lambda n: n.name
)
def test_compiled_matches_interpreter_fixed(net):
    assert_run_matches_interpreter(net, random.Random(5), 100)


def assert_positional_matches_interpreter(net, rng, cycles):
    """Drive ``net`` with random vectors; the positional step must give
    the interpreter's next state and outputs, in declaration order."""
    step = compile_positional_step(net)
    regs, ins, outs = net.register_names, net.inputs, net.output_names
    state = net.reset_state()
    for _cycle in range(cycles):
        vec = {name: rng.random() < 0.5 for name in ins}
        want_state, want_out = net.step(state, vec)
        got_state, got_out = step(
            tuple(state[n] for n in regs), tuple(vec[n] for n in ins)
        )
        assert got_state == tuple(want_state[n] for n in regs)
        assert got_out == tuple(want_out[n] for n in outs)
        state = want_state


@pytest.mark.parametrize(
    "net", FIXED_NETLISTS, ids=lambda n: n.name
)
def test_positional_matches_interpreter_fixed(net):
    assert_positional_matches_interpreter(net, random.Random(5), 100)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_inputs=st.integers(0, 3),
    n_regs=st.integers(1, 4),
)
def test_positional_matches_interpreter_random(seed, n_inputs, n_regs):
    rng = random.Random(seed)
    net = random_netlist(rng, n_inputs=n_inputs, n_regs=n_regs)
    assert_positional_matches_interpreter(net, rng, 30)


def test_positional_matches_on_dlx_models():
    from repro.dlx.control import build_control_netlist
    from repro.dlx.testmodel import tour_netlist

    rng = random.Random(11)
    for net in (build_control_netlist(), tour_netlist(1)):
        assert_positional_matches_interpreter(net, rng, 50)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_compiled_matches_interpreter_random(seed):
    rng = random.Random(seed)
    assert_run_matches_interpreter(random_netlist(rng), rng, 30)


def test_compiled_matches_on_dlx_control():
    from repro.dlx.control import build_control_netlist

    assert_run_matches_interpreter(
        build_control_netlist(), random.Random(11), 50
    )


def assert_words_match_interpreter(net, rng, lanes):
    """Step ``lanes`` random (state, vector) pairs in one call of the
    lane-word step: every lane must give the interpreter's next state
    and outputs for its pair."""
    words = compile_positional_words(net)
    regs, ins, outs = net.register_names, net.inputs, net.output_names
    pairs = [
        (
            {name: rng.random() < 0.5 for name in regs},
            {name: rng.random() < 0.5 for name in ins},
        )
        for _lane in range(lanes)
    ]

    def word(bits):
        return sum(bit << lane for lane, bit in enumerate(bits))

    nexts, outputs = words(
        [word(state[n] for state, _ in pairs) for n in regs],
        [word(vec[n] for _, vec in pairs) for n in ins],
        (1 << lanes) - 1,
    )
    for lane, (state, vec) in enumerate(pairs):
        want_state, want_out = net.step(state, vec)
        assert [w >> lane & 1 for w in nexts] == [want_state[n] for n in regs]
        assert [w >> lane & 1 for w in outputs] == [want_out[n] for n in outs]


@pytest.mark.parametrize(
    "net", FIXED_NETLISTS, ids=lambda n: n.name
)
def test_positional_words_match_interpreter_fixed(net):
    assert_words_match_interpreter(net, random.Random(5), 100)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_inputs=st.integers(0, 3),
    n_regs=st.integers(1, 4),
    lanes=st.integers(1, 80),
)
def test_positional_words_match_interpreter_random(seed, n_inputs, n_regs, lanes):
    rng = random.Random(seed)
    net = random_netlist(rng, n_inputs=n_inputs, n_regs=n_regs)
    assert_words_match_interpreter(net, rng, lanes)


def test_compiled_validates_netlist():
    net = Netlist("broken")
    net.add_register("q")  # undriven
    with pytest.raises(Exception):
        compile_positional_step(net)


def test_positional_words_validate_netlist():
    net = Netlist("broken")
    net.add_register("q")  # undriven
    with pytest.raises(NetlistError):
        compile_positional_words(net)


def test_compiled_is_faster_than_interpreter():
    """Sanity: the whole point of compilation."""
    import time

    net = pipeline_netlist()
    step = compile_positional_step(net)
    state = net.reset_state()
    vec = {name: False for name in net.inputs}
    values = tuple(state[n] for n in net.register_names)
    inputs = tuple(vec[n] for n in net.inputs)
    n = 3000
    t0 = time.perf_counter()
    for _ in range(n):
        step(values, inputs)
    compiled = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        net.step(state, vec)
    interpreted = time.perf_counter() - t0
    assert compiled < interpreted


def test_shared_tower_compiles_each_gate_once():
    """A subterm shared by several parents is emitted once: a 20-level
    raw ``Xor(e, e)`` tower has 2**20 tree nodes but 20 distinct gates,
    so only a DAG emitter compiles it within the bound."""
    import time

    from repro.rtl.expr import Var, Xor

    net = Netlist("tower")
    net.add_register("q", init=True)
    e = Var("q")
    for _level in range(20):
        e = Xor(e, e)
    net.set_next("q", e)
    net.add_output("o", Var("q"))
    t0 = time.perf_counter()
    step = compile_positional_step(net)
    assert time.perf_counter() - t0 < 1.0
    assert step((True,), ()) == ((False,), (True,))
