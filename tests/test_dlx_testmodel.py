"""Tests for the test-model derivation (Figure 3(b)) and tour models.

These use module-scoped fixtures because building the models costs
seconds; the heavyweight end-to-end campaign lives in the benchmarks.
"""

import hashlib

import pytest

from repro.bdd import from_netlist, reachable_states
from repro.dlx.control import build_control_netlist
from repro.dlx.isa import Op
from repro.dlx.testmodel import (
    FIG3B_STEPS,
    SMALL_TOUR_OPCODES,
    TOUR_OPCODES,
    build_tour_model,
    derive_test_model,
    final_test_model,
    minimize_tour_model,
    tour_input_constraint,
    tour_model_inputs,
    tour_netlist,
    valid_input_constraint,
    valid_opcodes,
)
from repro.rtl import evaluate
from repro.rtl.extract import ExtractionError


@pytest.fixture(scope="module")
def trail():
    return derive_test_model()


@pytest.fixture(scope="module")
def tiny_model():
    """A deliberately small tour model for in-test tours."""
    return build_tour_model(opcodes=(Op.LW, Op.BEQZ, Op.NOP))


class TestFig3bTrail:
    def test_six_labelled_steps(self, trail):
        labels = [label for label, _net in trail]
        assert labels == [
            "initial",
            "no synchronizing latches for outputs",
            "remove outputs not affecting control logic",
            "fetch controller removed",
            "4 registers instead of 32",
            "1-hot to binary encoding",
            "remove interlock registers",
        ]

    def test_starts_at_160_latches(self, trail):
        assert trail[0][1].latch_count() == 160

    def test_latch_counts_monotone_decreasing(self, trail):
        counts = [net.latch_count() for _label, net in trail]
        assert all(a > b for a, b in zip(counts, counts[1:])), counts

    def test_substantial_total_reduction(self, trail):
        first = trail[0][1].latch_count()
        last = trail[-1][1].latch_count()
        assert last * 2 < first  # more than 2x reduction overall

    def test_every_step_validates(self, trail):
        for _label, net in trail:
            net.validate()

    def test_interaction_state_survives_to_final(self, trail):
        """Requirement 5: destination-register history and PSW flags
        must not be abstracted out (Section 7.1)."""
        final = trail[-1][1]
        regs = set(final.register_names)
        assert any(n.startswith("il_dest_wb") for n in regs)
        assert "psw_zero_q" in regs and "psw_neg_q" in regs
        outs = set(final.output_names)
        assert any(n.startswith("obs_dest") for n in outs)
        assert "obs_psw_zero" in outs

    def test_control_outputs_survive(self, trail):
        final = trail[-1][1]
        outs = set(final.output_names)
        for needed in ("stall[0]", "squash[0]", "fwd_a[0]", "fwd_a[1]"):
            assert needed in outs


class TestBehaviourPreservation:
    def test_steps_preserve_control_outputs(self, trail):
        """Lock-step simulate the initial model and the final model on
        a random input stream; the retained control outputs must agree
        cycle for cycle (transition preservation, Section 6.1/6.2).

        The final model's extra inputs (freed fetch-controller bits)
        are driven at their pinned values; address inputs use the low
        2 bits only (the 4-register reduction's domain)."""
        import random

        rng = random.Random(7)
        initial = trail[0][1]
        # Compare against step 1's output timing: the initial model's
        # outputs are latched (one cycle late), so compare the final
        # model to the *desynchronized* model instead.
        desync = trail[1][1]
        final = trail[-1][1]
        state_d = desync.reset_state()
        state_f = final.reset_state()
        codes = valid_opcodes()
        for _cycle in range(200):
            op = rng.choice(codes)
            fields = {
                "in_rs1": rng.randrange(4),
                "in_rs2": rng.randrange(4),
                "in_rd": rng.randrange(4),
            }
            vec_d = {}
            for i in range(6):
                vec_d[f"in_op[{i}]"] = bool((op >> i) & 1)
            for name, value in fields.items():
                for i in range(5):
                    vec_d[f"{name}[{i}]"] = bool((value >> i) & 1)
            vec_d.update(
                {
                    "data_zero": rng.random() < 0.5,
                    "psw_zero_in": rng.random() < 0.5,
                    "psw_neg_in": rng.random() < 0.5,
                    "mem_ready": True,
                    "icache_ready": True,
                    "fetch_en": rng.random() < 0.9,
                }
            )
            vec_f = {k: v for k, v in vec_d.items() if k in final.inputs}
            for name in final.inputs:
                if name.startswith("fctl_"):
                    vec_f[name] = name == "fctl_run"
            state_d, out_d = desync.step(state_d, vec_d)
            state_f, out_f = final.step(state_f, vec_f)
            for sig in ("stall[0]", "squash[0]", "fwd_a[0]", "fwd_a[1]",
                        "fwd_b[0]", "fwd_b[1]", "branch_taken[0]"):
                assert out_f[sig] == out_d[sig], sig


class TestValidInputs:
    def test_valid_opcode_count(self):
        codes = valid_opcodes()
        assert len(codes) == len(set(codes))
        assert all(0 <= c < 64 for c in codes)
        # A minority of the 64 possible opcodes is valid: the input
        # don't-care source of Section 7.2.
        assert len(codes) < 32

    def test_constraint_accepts_valid_rejects_invalid(self):
        net = final_test_model()
        constraint = valid_input_constraint(net)
        env = {name: False for name in net.inputs}
        env["fetch_en"] = True
        # opcode 0 (R-type) is valid.
        assert evaluate(constraint, env)
        # An unused opcode is invalid.
        used = set(valid_opcodes())
        bad = next(c for c in range(64) if c not in used)
        for i in range(6):
            env[f"in_op[{i}]"] = bool((bad >> i) & 1)
        assert not evaluate(constraint, env)

    def test_idle_cycles_must_be_quiescent(self):
        net = final_test_model()
        constraint = valid_input_constraint(net)
        env = {name: False for name in net.inputs}
        assert evaluate(constraint, env)  # all-zero idle is valid
        env["in_rd[0]"] = True  # junk fields while not fetching
        assert not evaluate(constraint, env)

    def test_symbolic_valid_count_much_smaller_than_cube(self):
        net = final_test_model()
        fsm = from_netlist(
            net, valid=valid_input_constraint(net), partitioned=True
        )
        count = fsm.count_valid_inputs()
        total = 1 << len(fsm.input_bits)
        assert 0 < count < total // 2


class TestTourModel:
    def test_vector_enumeration_counts(self):
        vectors = tour_model_inputs()
        # ADD 8 + ADDI 4 + LW 4 + SW 4 + BEQZ 4 + J 1 + JAL 1 + NOP 1
        # + idle 1 = 28.
        assert len(vectors) == 28
        small = tour_model_inputs(opcodes=SMALL_TOUR_OPCODES)
        assert len(small) < len(vectors)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            tour_model_inputs(opcodes=(Op.SLL,))

    def test_max_states_admits_exactly_its_bound(self):
        opcodes = (Op.BEQZ, Op.NOP)
        model = build_tour_model(opcodes=opcodes, max_states=488)
        assert len(model.machine) == 488
        with pytest.raises(ExtractionError, match="more than 487"):
            build_tour_model(opcodes=opcodes, max_states=487)

    def test_output_values_are_bools_in_output_order(self, tiny_model):
        width = len(tour_netlist().output_names)
        for values in tiny_model.output_values.values():
            assert len(values) == width
            assert all(isinstance(v, bool) for v in values)

    def test_tiny_model_properties(self, tiny_model):
        machine = tiny_model.machine
        assert machine.is_strongly_connected()
        assert machine.reachable_states() == set(machine.states)
        # Complete over its (reduced) input alphabet.
        assert machine.is_complete()

    def test_tiny_model_inputs_decode(self, tiny_model):
        for label, vector in tiny_model.input_vectors.items():
            assert label.startswith("i")
            assert isinstance(vector, dict)
            assert any(k.startswith("in_op") for k in vector)

    def test_minimization_shrinks_and_preserves(self, tiny_model):
        mini = minimize_tour_model(tiny_model)
        assert len(mini.machine) < len(tiny_model.machine)
        # Same observable behaviour on a sample of input words.
        import random

        rng = random.Random(3)
        labels = sorted(tiny_model.input_vectors)
        for _trial in range(20):
            word = [rng.choice(labels) for _ in range(12)]
            assert tiny_model.machine.output_sequence(
                word
            ) == mini.machine.output_sequence(word)

    def test_symbolic_matches_explicit_count(self, tiny_model):
        """Cross-validation: implicit reachability over the tour
        netlist restricted to the tiny vector set equals the explicit
        extraction's state count."""
        net = tour_netlist()
        from repro.rtl.expr import Var, and_, not_, or_

        live = set(net.inputs)
        cubes = []
        for vec in tour_model_inputs(opcodes=(Op.LW, Op.BEQZ, Op.NOP)):
            restricted = {k: v for k, v in vec.items() if k in live}
            lits = [
                Var(n) if v else not_(Var(n))
                for n, v in sorted(restricted.items())
            ]
            cubes.append(and_(*lits))
        fsm = from_netlist(net, valid=or_(*cubes), partitioned=True)
        result = reachable_states(fsm)
        assert result.num_states == len(tiny_model.machine)


def _sha(parts):
    """SHA-256 over NUL-terminated parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def tour_model_digest(model):
    """SHA-256 of a tour model in creation order: the initial state,
    the transitions in the order they were added, each state's
    successor order, and the decode tables in dict order."""
    machine = model.machine
    parts = [repr(machine.initial)]
    parts.extend(map(repr, machine._delta.values()))
    parts.extend(
        repr((state, tuple(row))) for state, row in machine._succ.items()
    )
    parts.extend(map(repr, model.input_vectors.items()))
    parts.extend(map(repr, model.output_values.items()))
    return _sha(parts)


class TestPinnedDerivation:
    """The derivation's exact results, pinned: the rewrites may share
    logic differently and the code generator may spell it differently,
    but neither may change what the trail netlists are or what the
    extracted tour model does."""

    TRAIL_DIGEST = (
        "32d9302e73fc145bc39613f8b160e1699ff1459278220a83be09fad28bac2112"
    )
    TOUR_DIGEST = (
        "38092f990827006509a0654df2d6cf50d89714856609bc04659f5430a54689ad"
    )
    #: ``tour_model_digest`` of perfbench's model (``registers=1``,
    #: SMALL_TOUR_OPCODES): 4,164 states, 29,148 transitions.
    SMALL_TOUR_DIGEST = (
        "4328045bb71aca7324d42f416ed2fef6d002464e9877737bba7cc4c12445fa02"
    )
    #: ``tour_model_digest`` of ``minimize_tour_model(tiny_model)``.
    MINI_TOUR_DIGEST = (
        "44836c6135ac0a646e9b72edc2d5e2d248a15bca3d17a781d1abae76e5277233"
    )

    def test_trail_is_pinned(self, trail):
        parts = []
        for label, net in trail:
            parts.append(label)
            parts.extend(net.inputs)
            parts.extend(
                f"{reg.name} {int(reg.init)} {reg.next!r}"
                for reg in net.registers.values()
            )
            parts.extend(f"{name} {expr!r}" for name, expr in net.outputs.items())
        assert _sha(parts) == self.TRAIL_DIGEST

    def test_tour_model_transitions_are_pinned(self, tiny_model):
        machine = tiny_model.machine
        parts = [repr(machine.initial)]
        parts.extend(map(repr, machine.transitions))
        parts.extend(map(repr, sorted(tiny_model.output_values.items())))
        assert _sha(parts) == self.TOUR_DIGEST

    def test_small_tour_model_is_pinned_in_creation_order(self):
        model = build_tour_model(registers=1, opcodes=SMALL_TOUR_OPCODES)
        assert (len(model.machine), model.machine.num_transitions()) == (
            4164, 29148
        )
        assert tour_model_digest(model) == self.SMALL_TOUR_DIGEST

    def test_minimized_tour_model_is_pinned_in_creation_order(
        self, tiny_model
    ):
        mini = minimize_tour_model(tiny_model)
        assert tour_model_digest(mini) == self.MINI_TOUR_DIGEST
