"""Unit + differential tests for the pipelined DLX implementation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlx.assembler import assemble
from repro.dlx.behavioral import BehavioralDLX, ExecutionError
from repro.dlx.buggy import BUG_CATALOG, catalog_by_mechanism, catalog_by_name
from repro.dlx.pipeline import PipelineBugs, PipelinedDLX
from repro.dlx.programs import (
    DIRECTED_PROGRAMS,
    random_data,
    random_program,
)
from repro.validation import validate


def cosim(program, data=None, **impl_kwargs):
    spec = BehavioralDLX(program, dict(data) if data else None)
    impl = PipelinedDLX(program, dict(data) if data else None, **impl_kwargs)
    return spec.run(), impl.run(), impl


class TestCorrectDesign:
    @pytest.mark.parametrize("name", sorted(DIRECTED_PROGRAMS))
    def test_directed_equivalence(self, name):
        expected, observed, _impl = cosim(DIRECTED_PROGRAMS[name])
        assert expected == observed

    @pytest.mark.parametrize("seed", range(25))
    def test_random_equivalence(self, seed):
        rng = random.Random(seed)
        program = random_program(rng, length=50)
        data = random_data(rng)
        expected, observed, _impl = cosim(program, data)
        assert expected == observed

    def test_load_use_costs_one_stall(self):
        program = assemble(
            "lw r1, 0(r0)\nadd r2, r1, r1\nhalt"
        )
        _e, _o, impl = cosim(program, {0: 21})
        assert impl.regs[2] == 42
        assert sum(t.stall for t in impl.trace) == 1

    def test_independent_load_no_stall(self):
        program = assemble("lw r1, 0(r0)\nadd r2, r3, r3\nhalt")
        _e, _o, impl = cosim(program, {0: 21})
        assert sum(t.stall for t in impl.trace) == 0

    def test_taken_branch_costs_two_squashes(self):
        program = assemble(
            "beqz r0, skip\naddi r1, r0, 1\naddi r2, r0, 2\nskip: halt"
        )
        _e, _o, impl = cosim(program)
        assert impl.regs[1] == 0 and impl.regs[2] == 0
        assert sum(t.squash for t in impl.trace) == 1

    def test_untaken_branch_is_free(self):
        program = assemble(
            "addi r1, r0, 1\nbnez r0, skip\naddi r2, r0, 2\nskip: halt"
        )
        _e, _o, impl = cosim(program)
        assert impl.regs[2] == 2
        assert sum(t.squash for t in impl.trace) == 0

    def test_forwarding_traces(self):
        program = assemble(
            "addi r1, r0, 3\nadd r2, r1, r1\nadd r3, r1, r2\nhalt"
        )
        _e, _o, impl = cosim(program)
        assert any(t.fwd_a == "exmem" for t in impl.trace)
        assert any(t.fwd_b == "memwb" or t.fwd_a == "memwb" for t in impl.trace)

    def test_cpi_between_one_and_two(self):
        _e, _o, impl = cosim(DIRECTED_PROGRAMS["fibonacci"])
        assert 1.0 <= impl.cpi <= 3.0

    def test_max_latency_bounds_requirement2(self):
        """Empirical Requirement 2: every instruction completes within
        k = 6 transitions (5 stages + 1 possible interlock stall)."""
        for name, program in DIRECTED_PROGRAMS.items():
            _e, _o, impl = cosim(program)
            assert impl.max_latency() <= 6, name

    def test_store_then_load_same_address(self):
        program = assemble(
            "addi r1, r0, 9\nsw r1, 4(r0)\nlw r2, 4(r0)\nhalt"
        )
        _e, _o, impl = cosim(program)
        assert impl.regs[2] == 9

    def test_halting_on_the_last_allowed_cycle_is_a_halt(self):
        """A lone HALT retires on cycle 5, so five cycles suffice, as
        one step suffices for the behavioral model; four do not."""
        program = assemble("halt")
        assert len(BehavioralDLX(program).run(max_steps=1)) == 1
        impl = PipelinedDLX(program)
        assert len(impl.run(max_cycles=5)) == 1
        assert impl.cycle_count == 5
        with pytest.raises(ExecutionError, match="within 4 cycles"):
            PipelinedDLX(program).run(max_cycles=4)


class TestBugObservability:
    """Every catalog bug must be (a) detectable by some directed
    program and (b) invisible to programs that avoid its trigger."""

    @pytest.mark.parametrize(
        "entry", BUG_CATALOG, ids=lambda e: e.name
    )
    def test_each_bug_detectable(self, entry):
        detected = False
        for program in DIRECTED_PROGRAMS.values():
            result = validate(program, bugs=entry.bugs)
            if not result.passed:
                detected = True
                break
        assert detected, f"{entry.name} undetectable by directed programs"

    def test_bug_free_config_is_correct(self):
        assert not PipelineBugs().any_active()
        for program in DIRECTED_PROGRAMS.values():
            assert validate(program).passed

    def test_interlock_bug_invisible_without_loads(self):
        program = assemble(
            "addi r1, r0, 1\nadd r2, r1, r1\nhalt"
        )
        entry = catalog_by_name()["interlock_dropped"]
        assert validate(program, bugs=entry.bugs).passed

    def test_squash_bug_invisible_without_taken_branches(self):
        program = assemble(
            "addi r1, r0, 1\nbnez r0, skip\naddi r2, r0, 2\nskip: halt"
        )
        entry = catalog_by_name()["squash_absent"]
        assert validate(program, bugs=entry.bugs).passed

    def test_catalog_indexing(self):
        assert set(catalog_by_name()) == {e.name for e in BUG_CATALOG}
        grouped = catalog_by_mechanism()
        assert sum(len(v) for v in grouped.values()) == len(BUG_CATALOG)
        assert "interlock" in grouped and "bypass" in grouped


class TestOracleInPipeline:
    def test_forced_branch_matches_spec(self):
        program = assemble(
            "addi r1, r0, 5\nbeqz r1, skip\naddi r2, r0, 1\nnop\nskip: halt"
        )
        result = validate(program, branch_oracle=[True])
        assert result.passed  # both sides forced identically

    def test_forcing_changes_path(self):
        program = assemble(
            "addi r1, r0, 5\nbeqz r1, skip\naddi r2, r0, 1\nnop\nskip: halt"
        )
        impl_forced = PipelinedDLX(program, branch_oracle=[True])
        impl_forced.run()
        impl_real = PipelinedDLX(program)
        impl_real.run()
        assert impl_forced.regs[2] == 0
        assert impl_real.regs[2] == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pipeline_equals_spec_property(seed):
    """Differential property: on constructed random programs the
    pipelined implementation is checkpoint-equivalent to the ISA
    interpreter."""
    rng = random.Random(seed)
    program = random_program(rng, length=30)
    data = random_data(rng)
    spec = BehavioralDLX(program, dict(data))
    impl = PipelinedDLX(program, dict(data))
    assert spec.run() == impl.run()
