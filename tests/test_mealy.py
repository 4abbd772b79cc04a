"""Unit tests for repro.core.mealy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mealy import (
    MealyError,
    MealyMachine,
    NondetMealyMachine,
    Transition,
    make_complete,
    sequences,
)


#: States, inputs and outputs, hashed and compared alike or not.
_LABELS = st.sampled_from([0, 1, 2, 3, "a", "b", (0,), ("a", 1)])


def two_state():
    return MealyMachine.from_transitions(
        "a",
        [
            ("a", 0, "x", "b"),
            ("a", 1, "y", "a"),
            ("b", 0, "z", "a"),
            ("b", 1, "w", "b"),
        ],
        name="two",
    )


class TestConstruction:
    def test_initial_state_is_a_state(self):
        m = MealyMachine("s0")
        assert "s0" in m.states

    def test_add_transition_registers_everything(self):
        m = MealyMachine("s0")
        t = m.add_transition("s0", "i", "o", "s1")
        assert t == Transition("s0", "i", "o", "s1")
        assert m.states == {"s0", "s1"}
        assert m.inputs == {"i"}
        assert m.outputs == {"o"}

    def test_duplicate_identical_transition_ok(self):
        m = MealyMachine("s0")
        m.add_transition("s0", "i", "o", "s1")
        m.add_transition("s0", "i", "o", "s1")
        assert m.num_transitions() == 1

    def test_conflicting_transition_rejected(self):
        m = MealyMachine("s0")
        m.add_transition("s0", "i", "o", "s1")
        with pytest.raises(MealyError):
            m.add_transition("s0", "i", "o2", "s1")
        with pytest.raises(MealyError):
            m.add_transition("s0", "i", "o", "s0")

    def test_from_transitions(self):
        m = two_state()
        assert len(m) == 2
        assert m.num_transitions() == 4

    @settings(max_examples=100, deadline=None)
    @given(
        initial=_LABELS,
        rows=st.lists(
            st.tuples(_LABELS, _LABELS, _LABELS, _LABELS),
            unique_by=lambda row: row[:2],
            max_size=30,
        ),
    )
    def test_from_distinct_transitions_fills_the_same_tables(
        self, initial, rows
    ):
        """The tables ``from_transitions`` fills, each in the same
        insertion order."""
        want = MealyMachine.from_transitions(initial, rows, name="n")
        got = MealyMachine.from_distinct_transitions(initial, rows, name="n")
        assert list(got._delta.items()) == list(want._delta.items())
        assert [(s, list(e.items())) for s, e in got._succ.items()] == [
            (s, list(e.items())) for s, e in want._succ.items()
        ]
        assert list(got._states) == list(want._states)
        assert list(got._inputs) == list(want._inputs)
        assert list(got._outputs) == list(want._outputs)
        assert got._succ_sorted == {}
        assert (got.name, got.initial) == ("n", initial)

    def test_add_state_idempotent(self):
        m = MealyMachine("s0")
        m.add_state("s1")
        m.add_state("s1")
        assert m.states == {"s0", "s1"}


class TestExecution:
    def test_step(self):
        m = two_state()
        assert m.step("a", 0) == ("b", "x")
        assert m.step("b", 1) == ("b", "w")

    def test_step_undefined_raises(self):
        m = MealyMachine("s0")
        m.add_transition("s0", 0, "o", "s0")
        with pytest.raises(MealyError):
            m.step("s0", 1)

    def test_run_returns_outputs_and_final(self):
        m = two_state()
        outs, final = m.run([0, 0, 1])
        assert outs == ["x", "z", "y"]
        assert final == "a"

    def test_run_from_start(self):
        m = two_state()
        outs, final = m.run([1], start="b")
        assert outs == ["w"]
        assert final == "b"

    def test_output_sequence(self):
        m = two_state()
        assert m.output_sequence([0, 1]) == ("x", "w")

    def test_trace_matches_run(self):
        m = two_state()
        trace = m.trace([0, 1, 0])
        assert [t.out for t in trace] == list(m.output_sequence([0, 1, 0]))
        assert trace[0].src == "a"
        assert all(
            trace[i].dst == trace[i + 1].src for i in range(len(trace) - 1)
        )

    def test_empty_run(self):
        m = two_state()
        outs, final = m.run([])
        assert outs == []
        assert final == "a"


class TestStructure:
    def test_reachable_states_all(self):
        m = two_state()
        assert m.reachable_states() == {"a", "b"}

    def test_unreachable_state_pruned(self):
        m = two_state()
        m.add_transition("orphan", 0, "o", "a")
        assert "orphan" in m.states
        assert "orphan" not in m.reachable_states()
        r = m.restrict_to_reachable()
        assert "orphan" not in r.states
        assert r.num_transitions() == 4

    def test_strongly_connected(self):
        m = two_state()
        assert m.is_strongly_connected()

    def test_not_strongly_connected(self):
        m = MealyMachine("a")
        m.add_transition("a", 0, "o", "b")
        m.add_transition("b", 0, "o", "b")
        assert not m.is_strongly_connected()

    def test_degree_imbalance_sums_to_zero(self, any_model):
        assert sum(any_model.degree_imbalance().values()) == 0

    def test_is_complete(self):
        m = two_state()
        assert m.is_complete()
        m.add_transition("a", 2, "o", "a")
        assert not m.is_complete()
        assert ("b", 2) in m.undefined_pairs()

    def test_defined_inputs(self):
        m = two_state()
        assert m.defined_inputs("a") == {0, 1}

    def test_transitions_from(self):
        m = two_state()
        froms = m.transitions_from("a")
        assert {t.inp for t in froms} == {0, 1}
        assert all(t.src == "a" for t in froms)


class TestCompositionComparison:
    def test_product_states_and_outputs(self):
        m = two_state()
        p = m.product(m)
        assert p.initial == ("a", "a")
        # Diagonal product of a machine with itself stays diagonal.
        assert all(s1 == s2 for (s1, s2) in p.reachable_states())
        for t in p.transitions:
            o1, o2 = t.out
            assert o1 == o2

    def test_equivalent_to_self(self, any_model):
        assert any_model.equivalent_to(any_model) is None

    def test_equivalent_to_detects_difference(self):
        m1 = two_state()
        m2 = two_state()
        m3 = MealyMachine.from_transitions(
            "a",
            [
                ("a", 0, "x", "b"),
                ("a", 1, "y", "a"),
                ("b", 0, "z", "a"),
                ("b", 1, "DIFFERENT", "b"),
            ],
        )
        assert m1.equivalent_to(m2) is None
        seq = m1.equivalent_to(m3)
        assert seq is not None
        assert m1.output_sequence(seq) != m3.output_sequence(seq)

    def test_distinguishing_sequence_is_shortest(self):
        m1 = two_state()
        m3 = m1.copy()
        # Corrupt a depth-2 output only.
        m3 = MealyMachine.from_transitions(
            "a",
            [
                ("a", 0, "x", "b"),
                ("a", 1, "y", "a"),
                ("b", 0, "CHANGED", "a"),
                ("b", 1, "w", "b"),
            ],
        )
        seq = m1.equivalent_to(m3)
        assert seq == (0, 0)

    def test_rename_states(self):
        m = two_state()
        r = m.rename_states(lambda s: s.upper())
        assert r.initial == "A"
        assert r.states == {"A", "B"}
        assert r.equivalent_to(m) is None  # behaviourally identical

    def test_rename_states_requires_injective(self):
        m = two_state()
        with pytest.raises(MealyError):
            m.rename_states(lambda s: "same")

    def test_copy_is_equal_but_independent(self):
        m = two_state()
        c = m.copy()
        assert c == m
        c.add_transition("a", 9, "new", "b")
        assert c != m

    def test_eq_ignores_name(self):
        m1 = two_state()
        m2 = two_state()
        m2.name = "other"
        assert m1 == m2


class TestNondet:
    def test_add_and_query_moves(self):
        n = NondetMealyMachine("s")
        n.add_move("s", "i", "o1", "s")
        n.add_move("s", "i", "o2", "t")
        assert n.moves("s", "i") == {("s", "o1"), ("t", "o2")}
        assert n.outputs_on("s", "i") == {"o1", "o2"}
        assert n.num_moves() == 2

    def test_output_determinism_detection(self):
        n = NondetMealyMachine("s")
        n.add_move("s", "i", "o", "s")
        n.add_move("s", "i", "o", "t")  # same output, different dst
        assert n.is_output_deterministic()
        assert not n.is_deterministic()
        n.add_move("s", "j", "a", "s")
        n.add_move("s", "j", "b", "s")
        assert not n.is_output_deterministic()
        pairs = n.output_nondeterministic_pairs()
        assert pairs == [("s", "j", frozenset({"a", "b"}))]

    def test_determinize_outputs(self):
        n = NondetMealyMachine("s")
        n.add_move("s", "i", "o", "t")
        n.add_move("t", "i", "p", "s")
        d = n.determinize_outputs()
        assert d.step("s", "i") == ("t", "o")

    def test_determinize_rejects_nondet(self):
        n = NondetMealyMachine("s")
        n.add_move("s", "i", "o", "s")
        n.add_move("s", "i", "o", "t")
        with pytest.raises(MealyError):
            n.determinize_outputs()


class TestHelpers:
    def test_make_complete_adds_trap(self):
        m = MealyMachine("s0")
        m.add_transition("s0", 0, "o", "s1")
        m.add_transition("s1", 0, "o", "s0")
        m.add_transition("s0", 1, "o", "s0")
        total = make_complete(m)
        assert total.is_complete()
        assert "__trap__" in total.states
        # Original behaviour unchanged on defined inputs.
        assert total.step("s0", 0) == ("s1", "o")

    def test_make_complete_noop_when_complete(self, adder):
        total = make_complete(adder)
        assert "__trap__" not in total.states
        assert total.num_transitions() == adder.num_transitions()

    def test_sequences_enumeration(self):
        seqs = list(sequences(["a", "b"], 2))
        assert len(seqs) == 4
        assert ("a", "a") in seqs and ("b", "a") in seqs

    def test_sequences_length_zero(self):
        assert list(sequences(["a"], 0)) == [()]

    def test_to_dot_mentions_transitions(self, lights):
        dot = lights.to_dot()
        assert "digraph" in dot
        assert "green" in dot


class TestCanonicalModels:
    def test_all_models_deterministic_and_connected(self, any_model):
        assert any_model.is_strongly_connected()
        assert any_model.reachable_states() == set(any_model.states)

    def test_all_models_complete(self, any_model):
        assert any_model.is_complete()

    def test_serial_adder_adds(self, adder):
        # 3 + 1 = 0b11 + 0b01: feed LSB first.
        outs, final = adder.run([(1, 1), (1, 0)])
        assert outs == [0, 0]
        assert final == 1  # carry out pending

    def test_counter_wraps(self, counter3):
        outs, final = counter3.run(["up"] * 8)
        assert final == 0
        assert outs[-1] == (0, 1)  # carry on wrap

    def test_shift_register_delays(self, shiftreg3):
        outs, _final = shiftreg3.run([1, 1, 1, 0, 0, 0])
        assert outs == [0, 0, 0, 1, 1, 1]

    def test_vending_machine_vends(self, vending):
        outs, final = vending.run(["n", "n", "n"])
        assert outs[-1] == "vend"
        assert final == 0

    def test_vending_machine_change(self, vending):
        outs, _final = vending.run(["d", "d"])
        assert outs[-1] == "vend+change"

    def test_abp_happy_path(self, abp):
        outs, final = abp.run(["send", "ack0", "send", "ack1"])
        assert outs == ["frame0", "done0", "frame1", "done1"]
        assert final == "wait_msg0"

    def test_abp_retransmit_on_timeout(self, abp):
        outs, final = abp.run(["send", "timeout", "ack0"])
        assert outs == ["frame0", "frame0", "done0"]
