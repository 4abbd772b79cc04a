"""Unit tests for repro.rtl.transform: the abstraction moves."""

import itertools

import pytest

from repro.rtl import (
    AbstractionStep,
    Netlist,
    TransformError,
    and_,
    constant_inputs,
    constant_registers,
    extract_mealy,
    free_registers,
    inline_registers,
    keep_outputs,
    mux,
    not_,
    or_,
    reencode_onehot,
    remove_outputs,
    rename_bits,
    run_pipeline,
    sweep,
    var,
    xor_,
)
from repro.rtl.faults import StuckAt


def pipeline_netlist():
    """A miniature 'control + datapath' netlist.

    Control: a request/grant handshake register.  Datapath: a data
    register whose value never influences control.  Output latch:
    a synchronizing register delaying the grant output.
    """
    n = Netlist("mini")
    req = n.add_input("req")
    din = n.add_input("din")
    busy = n.add_register("busy")
    data = n.add_register("data")
    grant_q = n.add_register("grant_q")
    n.set_next("busy", or_(and_(req, not_(busy)), and_(busy, not_(req))))
    n.set_next("data", mux(req, din, data))
    n.set_next("grant_q", and_(req, not_(busy)))
    n.add_output("grant", grant_q)
    n.add_output("dout", data)
    return n


def onehot_fsm():
    """A 3-phase one-hot ring controller with an advance input."""
    n = Netlist("ring")
    adv = n.add_input("adv")
    p0 = n.add_register("p0", init=True)
    p1 = n.add_register("p1")
    p2 = n.add_register("p2")
    n.set_next("p0", mux(adv, p2, p0))
    n.set_next("p1", mux(adv, p0, p1))
    n.set_next("p2", mux(adv, p1, p2))
    n.add_output("phase1", p1)
    return n


class TestFreeRegisters:
    def test_register_becomes_input(self):
        n = pipeline_netlist()
        freed = free_registers(n, ["data"])
        assert "data" in freed.inputs
        assert "data" not in freed.register_names
        assert freed.latch_count() == n.latch_count() - 1
        freed.validate()

    def test_behaviour_preserved_when_driving_freed_value(self):
        """Driving the freed bit with the value the register would have
        held reproduces the original run -- transition preservation."""
        n = pipeline_netlist()
        freed = free_registers(n, ["data"])
        state_n = n.reset_state()
        state_f = freed.reset_state()
        for req, din in [(1, 1), (0, 1), (1, 0), (1, 1)]:
            inputs_f = {"req": req, "din": din, "data": state_n["data"]}
            state_f2, out_f = freed.step(state_f, inputs_f)
            state_n2, out_n = n.step(state_n, {"req": req, "din": din})
            assert out_f == out_n
            state_n, state_f = state_n2, state_f2

    def test_unknown_register_rejected(self):
        with pytest.raises(TransformError):
            free_registers(pipeline_netlist(), ["ghost"])


class TestInlineRegisters:
    def test_output_latch_removal(self):
        n = pipeline_netlist()
        inlined = inline_registers(n, ["grant_q"])
        assert "grant_q" not in inlined.register_names
        inlined.validate()
        # De-synchronized: grant now appears one cycle earlier.
        outs_orig, _s = n.run([{"req": 1, "din": 0}, {"req": 0, "din": 0}])
        outs_new, _s = inlined.run([{"req": 1, "din": 0}, {"req": 0, "din": 0}])
        assert outs_new[0]["grant"] == outs_orig[1]["grant"]

    def test_chained_inline(self):
        n = Netlist("chain")
        i = n.add_input("i")
        a = n.add_register("a", next=i)
        b = n.add_register("b", next=a)
        n.add_output("o", b)
        inlined = inline_registers(n, ["a", "b"])
        assert inlined.latch_count() == 0
        # o is now combinationally i.
        _n, outs = inlined.step({}, {"i": True})
        assert outs["o"] is True

    def test_cycle_rejected(self):
        n = Netlist("cyc")
        a = n.add_register("a")
        b = n.add_register("b")
        n.set_next("a", var("b"))
        n.set_next("b", var("a"))
        with pytest.raises(TransformError):
            inline_registers(n, ["a", "b"])

    def test_self_loop_rejected(self):
        n = Netlist("self")
        q = n.add_register("q")
        n.set_next("q", not_(q))
        with pytest.raises(TransformError):
            inline_registers(n, ["q"])


class TestOutputsAndSweep:
    def test_remove_outputs(self):
        n = pipeline_netlist()
        cut = remove_outputs(n, ["dout"])
        assert cut.output_names == ("grant",)

    def test_keep_outputs(self):
        n = pipeline_netlist()
        cut = keep_outputs(n, ["grant"])
        assert cut.output_names == ("grant",)

    def test_remove_unknown_output(self):
        with pytest.raises(TransformError):
            remove_outputs(pipeline_netlist(), ["nope"])

    def test_sweep_deletes_dead_cone(self):
        n = pipeline_netlist()
        cut = sweep(remove_outputs(n, ["dout"]))
        # data fed only dout; it must be gone, with its din input.
        assert "data" not in cut.register_names
        assert "din" not in cut.inputs
        assert set(cut.register_names) == {"busy", "grant_q"}
        cut.validate()

    def test_sweep_keeps_live_cone(self):
        n = pipeline_netlist()
        swept = sweep(n)
        assert set(swept.register_names) == set(n.register_names)


class TestConstants:
    def test_constant_registers(self):
        n = pipeline_netlist()
        tied = constant_registers(n, {"data": False})
        assert "data" not in tied.register_names
        tied.validate()
        # dout is now constantly False.
        _s, outs = tied.step(tied.reset_state(), {"req": 0, "din": 1})
        assert outs["dout"] is False

    def test_constant_inputs(self):
        n = pipeline_netlist()
        tied = constant_inputs(n, {"din": True})
        assert "din" not in tied.inputs
        tied.validate()

    def test_constant_unknown_input(self):
        with pytest.raises(TransformError):
            constant_inputs(pipeline_netlist(), {"ghost": True})


class TestOnehotReencode:
    def test_latch_reduction(self):
        n = onehot_fsm()
        enc = reencode_onehot(n, ["p0", "p1", "p2"], "ph")
        assert enc.latch_count() == 2
        enc.validate()

    def test_behaviour_preserved(self):
        n = onehot_fsm()
        enc = reencode_onehot(n, ["p0", "p1", "p2"], "ph")
        state_n = n.reset_state()
        state_e = enc.reset_state()
        for adv in [1, 1, 0, 1, 1, 1, 0, 1]:
            state_n, out_n = n.step(state_n, {"adv": adv})
            state_e, out_e = enc.step(state_e, {"adv": adv})
            assert out_e == out_n

    def test_reset_index_encoded(self):
        n = onehot_fsm()
        enc = reencode_onehot(n, ["p0", "p1", "p2"], "ph")
        # p0 (index 0) was hot at reset -> binary 00.
        assert enc.reset_state() == {"ph[0]": False, "ph[1]": False}

    def test_bad_reset_rejected(self):
        n = onehot_fsm()
        n2 = Netlist("bad")
        n2.add_input("adv")
        n2.add_register("p0", init=True)
        n2.add_register("p1", init=True)  # two hot at reset
        n2.set_next("p0", var("p1"))
        n2.set_next("p1", var("p0"))
        with pytest.raises(TransformError):
            reencode_onehot(n2, ["p0", "p1"], "ph")

    def test_empty_group_rejected(self):
        with pytest.raises(TransformError):
            reencode_onehot(onehot_fsm(), [], "ph")

    def test_equivalent_fsms_after_reencode(self):
        n = onehot_fsm()
        enc = reencode_onehot(n, ["p0", "p1", "p2"], "ph")
        m1 = extract_mealy(n)
        m2 = extract_mealy(enc)
        # Same observable behaviour from reset over all input runs of
        # length 6 (exhaustive: 2^6 sequences).
        for seq in itertools.product(
            [(("adv", False),), (("adv", True),)], repeat=6
        ):
            assert m1.output_sequence(seq) == m2.output_sequence(seq)


class TestRenameAndPipeline:
    def test_rename_bits(self):
        n = pipeline_netlist()
        renamed = rename_bits(n, {"busy": "ctrl_busy", "req": "request"})
        assert "ctrl_busy" in renamed.register_names
        assert "request" in renamed.inputs
        renamed.validate()

    def test_rename_noninjective_rejected(self):
        with pytest.raises(TransformError):
            rename_bits(pipeline_netlist(), {"busy": "x", "data": "x"})

    def test_run_pipeline_records_trail(self):
        n = pipeline_netlist()
        steps = [
            AbstractionStep("drop dout", lambda nl: remove_outputs(nl, ["dout"])),
            AbstractionStep("sweep", sweep),
            AbstractionStep(
                "inline grant latch", lambda nl: inline_registers(nl, ["grant_q"])
            ),
        ]
        trail = run_pipeline(n, steps)
        labels = [label for label, _nl in trail]
        counts = [nl.latch_count() for _label, nl in trail]
        assert labels == ["initial", "drop dout", "sweep", "inline grant latch"]
        assert counts == [3, 3, 2, 1]
        assert counts == sorted(counts, reverse=True)


def shared_logic_netlist():
    """Two registers reading one subterm that reads the bits the
    rewrites below target."""
    n = Netlist("shared")
    a, b, w = n.add_inputs(["a", "b", "w"])
    t = n.add_register("t", init=False, next=not_(a))
    shared = xor_(a, and_(b, w, t))
    n.add_register("r1", init=False, next=not_(shared))
    n.add_register("r2", init=True, next=and_(shared, b))
    return n


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda n: StuckAt("w", True).apply(n),
        lambda n: constant_inputs(n, {"w": True}),
        lambda n: inline_registers(n, ["t"]),
    ],
    ids=["stuck-at", "constant-inputs", "inline-registers"],
)
def test_rewrites_keep_shared_logic_shared(rewrite):
    """A rewrite rebuilds logic shared by several roots once: the
    result keeps one object where the source had one, so derived
    netlists stay DAGs instead of unfolding into trees."""
    regs = rewrite(shared_logic_netlist()).registers
    left, right = regs["r1"].next.arg, regs["r2"].next.args[0]
    assert left == right
    assert left is right
