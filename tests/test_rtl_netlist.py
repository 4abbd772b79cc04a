"""Unit tests for repro.rtl.netlist and repro.rtl.extract."""

import pytest

from repro.rtl import (
    Netlist,
    NetlistError,
    Var,
    and_,
    bv_assign,
    extract_mealy,
    input_assignments,
    mux,
    not_,
    or_,
    reachable_state_count,
    state_key,
    var,
    xor_,
)
from repro.rtl.expr import Xor
from repro.rtl.extract import ExtractionError


def counter_netlist(bits=2):
    """An enable-gated up counter with a terminal-count output."""
    n = Netlist(f"ctr{bits}")
    en = n.add_input("en")
    regs = [n.add_register(f"q{i}") for i in range(bits)]
    carry = en
    for i in range(bits):
        n.set_next(f"q{i}", xor_(regs[i], carry))
        carry = and_(carry, regs[i])
    n.add_output("tc", and_(*regs))
    return n


def toggle_netlist():
    """One register toggled by input t; output mirrors the register."""
    n = Netlist("toggle")
    t = n.add_input("t")
    q = n.add_register("q")
    n.set_next("q", xor_(q, t))
    n.add_output("out", q)
    return n


class TestConstruction:
    def test_duplicate_bit_rejected(self):
        n = Netlist()
        n.add_input("a")
        with pytest.raises(NetlistError):
            n.add_input("a")
        with pytest.raises(NetlistError):
            n.add_register("a")

    def test_duplicate_output_rejected(self):
        n = toggle_netlist()
        with pytest.raises(NetlistError):
            n.add_output("out", var("q"))

    def test_set_next_unknown_register(self):
        n = Netlist()
        with pytest.raises(NetlistError):
            n.set_next("q", var("a"))

    def test_validate_undriven_register(self):
        n = Netlist()
        n.add_register("q")
        with pytest.raises(NetlistError):
            n.validate()

    def test_validate_dangling_reference(self):
        n = Netlist()
        n.add_register("q", next=var("ghost"))
        with pytest.raises(NetlistError):
            n.validate()

    def test_validate_dangling_output(self):
        n = toggle_netlist()
        n.add_output("bad", var("ghost"))
        with pytest.raises(NetlistError):
            n.validate()

    def test_stats(self):
        n = counter_netlist(3)
        assert n.stats() == {"latches": 3, "inputs": 1, "outputs": 1}

    def test_validate_ok(self):
        counter_netlist().validate()

    @staticmethod
    def xor_tower(leaf, levels=40):
        """``levels`` nested ``Xor(e, e)``: 2**levels tree paths over
        ``levels + 1`` distinct nodes (raw nodes, so nothing folds)."""
        e = leaf
        for _ in range(levels):
            e = Xor(e, e)
        return e

    def test_validate_visits_shared_subterms_once(self):
        n = Netlist("tower")
        n.add_input("a")
        tower = self.xor_tower(var("a"))
        n.add_register("q", next=tower)
        n.add_output("o", Xor(tower, var("q")))
        n.validate()

    def test_validate_names_first_offending_root(self):
        n = Netlist("bad")
        n.add_input("a")
        n.add_register("q0", next=self.xor_tower(var("a")))
        n.add_register("q1", next=self.xor_tower(var("ghost1")))
        n.add_register("q2")
        n.add_output("o", self.xor_tower(var("ghost2")))
        with pytest.raises(
            NetlistError,
            match=r"^bad: next\(q1\) references undeclared bits "
                  r"\['ghost1'\]$",
        ):
            n.validate()
        n.set_next("q1", var("a"))
        with pytest.raises(
            NetlistError, match="^bad: register 'q2' has no next-state$"
        ):
            n.validate()
        n.set_next("q2", var("q0"))
        with pytest.raises(
            NetlistError,
            match=r"^bad: output 'o' references undeclared bits "
                  r"\['ghost2'\]$",
        ):
            n.validate()


class TestSimulation:
    def test_reset_state(self):
        n = counter_netlist()
        assert n.reset_state() == {"q0": False, "q1": False}

    def test_counting(self):
        n = counter_netlist(2)
        outs, state = n.run([{"en": True}] * 3)
        assert state == {"q0": True, "q1": True}
        assert outs[-1] == {"tc": False}
        outs, state = n.run([{"en": True}] * 4)
        # Mealy output computed before the edge: tc is high when the
        # counter holds 3, i.e. during the 4th cycle.
        assert outs[-1] == {"tc": True}
        assert state == {"q0": False, "q1": False}

    def test_enable_gates(self):
        n = counter_netlist()
        _outs, state = n.run([{"en": False}] * 5)
        assert state == n.reset_state()

    def test_missing_input_raises(self):
        n = counter_netlist()
        with pytest.raises(NetlistError):
            n.step(n.reset_state(), {})

    def test_missing_state_raises(self):
        n = counter_netlist()
        with pytest.raises(NetlistError):
            n.step({}, {"en": True})

    def test_run_from_state(self):
        n = toggle_netlist()
        outs, state = n.run([{"t": True}], state={"q": True})
        assert outs == [{"out": True}]
        assert state == {"q": False}


class TestCone:
    def test_cone_of_output(self):
        n = Netlist("cone")
        n.add_input("i")
        n.add_register("a", next=var("i"))
        n.add_register("b", next=var("a"))
        n.add_register("junk", next=var("junk"))
        n.add_output("o", var("b"))
        assert n.cone_of(["o"]) == {"a", "b"}

    def test_cone_of_register(self):
        n = Netlist("cone")
        n.add_input("i")
        n.add_register("a", next=var("i"))
        n.add_register("b", next=var("a"))
        assert n.cone_of(["b"]) == {"a", "b"}

    def test_cone_unknown_bit(self):
        n = toggle_netlist()
        with pytest.raises(NetlistError):
            n.cone_of(["nope"])

    def test_copy_independent(self):
        n = toggle_netlist()
        c = n.copy()
        c.set_next("q", var("q"))
        assert n.registers["q"].next != c.registers["q"].next


class TestExtraction:
    def test_input_assignments_full_cube(self):
        n = counter_netlist()
        assert len(input_assignments(n)) == 2

    def test_input_assignments_with_predicate(self):
        n = Netlist("two-in")
        n.add_input("a")
        n.add_input("b")
        n.add_register("q", next=var("a"))
        n.add_output("o", var("q"))
        valid = not_(and_(var("a"), var("b")))  # forbid a=b=1
        assert len(input_assignments(n, valid)) == 3

    def test_extract_counter(self):
        n = counter_netlist(2)
        m = extract_mealy(n)
        assert len(m) == 4
        assert m.num_transitions() == 8  # 4 states x 2 input values
        assert m.is_complete()
        # Behaviour check: three enabled steps reach state 3.
        key_en = (("en", True),)
        state = m.initial
        for _ in range(3):
            state, out = m.step(state, key_en)
        assert dict(state) == {"q0": True, "q1": True}

    def test_extract_outputs_match_netlist(self):
        n = counter_netlist(2)
        m = extract_mealy(n)
        state_n = n.reset_state()
        state_m = m.initial
        for en in (True, True, False, True, True):
            state_n, out_n = n.step(state_n, {"en": en})
            state_m, out_m = m.step(state_m, (("en", en),))
            assert dict(out_m) == out_n
            assert dict(state_m) == state_n

    def test_extract_respects_max_states(self):
        n = counter_netlist(4)
        with pytest.raises(ExtractionError):
            extract_mealy(n, max_states=3)

    def test_reachable_state_count(self):
        assert reachable_state_count(counter_netlist(3)) == 8

    def test_reachable_count_with_constraint(self):
        # With enable tied low, only the reset state is reachable.
        n = counter_netlist(3)
        assert reachable_state_count(n, valid=not_(var("en"))) == 1

    def test_explicit_inputs_list(self):
        n = counter_netlist(2)
        m = extract_mealy(n, inputs=[{"en": True}])
        assert m.num_transitions() == 4  # one input per state

    def test_state_key_canonical(self):
        assert state_key({"b": True, "a": False}) == (
            ("a", False),
            ("b", True),
        )
