"""The golden-run sensitization record and the compiled DLX campaign
body that trusts it.

A golden (bug-free) :class:`PipelinedDLX` run records, per bug knob,
the first cycle at which setting that knob alone would change a
pipeline decision.  The compiled bug campaign skips every
co-simulation of a single-knob entry whose knob a test never
sensitized and gives it the golden verdict instead.  These tests pin
the three facts that make it exact:

* soundness -- before its recorded cycle (through halt when none is
  recorded), a single-knob design is in the golden design's state;
* completeness -- every knob has a recording site;
* the compiled campaign's rows equal the interpreter's.
"""

import dataclasses
import random

import pytest

from repro.dlx.assembler import assemble
from repro.dlx.buggy import BUG_CATALOG
from repro.dlx.pipeline import PipelineBugs, PipelinedDLX
from repro.dlx.programs import DIRECTED_PROGRAMS, random_data, random_program
from repro.validation import directed_battery, run_bug_campaign
from repro.validation.harness import Battery, GoldenRun
from repro.validation.report import Mismatch

KNOBS = tuple(f.name for f in dataclasses.fields(PipelineBugs))

#: A program that sensitizes only the two squash knobs: every register
#: is r0, so no bypass or interlock site fires, and it has no store,
#: JAL/JALR or ALU-immediate.
SQUASH_ONLY = assemble(
    "lw r0, 0(r0)\n"
    "add r0, r0, r0\n"
    "beqz r0, skip\n"
    "nop\n"
    "nop\n"
    "skip: add r0, r0, r0\n"
    "halt"
)


def _state(impl):
    """Everything one cycle can change: PC, registers, PSW, latches,
    branch-oracle position, retirements, memory, and the cycle's
    control decisions."""
    return (
        impl.pc, tuple(impl.regs), impl.psw,
        impl.if_id, impl.id_ex, impl.ex_mem, impl.mem_wb,
        impl._branch_index, impl.retired, impl.halted,
        dict(impl.memory), impl.trace[-1], impl.checkpoints[-1:],
    )


def _assert_lockstep(program, data, knob, max_cycles=20_000):
    """Run the golden and the ``knob``-only design in lockstep; they
    must agree after every cycle before the golden run sensitizes
    ``knob``, and through halt when it never does."""
    golden = PipelinedDLX(program, data)
    buggy = PipelinedDLX(program, data, bugs=PipelineBugs(**{knob: True}))
    while not golden.halted:
        assert golden.cycle_count < max_cycles
        golden.cycle()
        buggy.cycle()
        if knob in golden.first_sensitized:
            assert golden.first_sensitized[knob] == golden.cycle_count
            return
        assert _state(buggy) == _state(golden), (knob, golden.cycle_count)
    assert buggy.halted


def _random_tests(count):
    for seed in range(count):
        rng = random.Random(seed)
        yield random_program(rng, length=40), random_data(rng)


class TestSoundness:
    @pytest.mark.parametrize("name", sorted(DIRECTED_PROGRAMS))
    def test_directed_programs(self, name):
        for knob in KNOBS:
            _assert_lockstep(DIRECTED_PROGRAMS[name], None, knob)

    def test_random_programs(self):
        for program, data in _random_tests(60):
            for knob in KNOBS:
                _assert_lockstep(program, data, knob)

    def test_squash_only_program(self):
        for knob in KNOBS:
            _assert_lockstep(SQUASH_ONLY, None, knob)


class TestCompleteness:
    def test_every_knob_recorded_on_some_directed_program(self):
        recorded = set()
        for program in DIRECTED_PROGRAMS.values():
            impl = PipelinedDLX(program)
            impl.run()
            recorded |= set(impl.first_sensitized)
        assert recorded == set(KNOBS)

    def test_squash_only_program_sensitizes_only_squash_knobs(self):
        impl = PipelinedDLX(SQUASH_ONLY)
        impl.run()
        assert set(impl.first_sensitized) == {"no_squash", "squash_only_one"}

    def test_golden_run_keeps_record_and_verdict(self):
        (golden,) = Battery([(SQUASH_ONLY, None, None)]).golden()
        assert golden.mismatch is None
        assert dict(golden.first_sensitized) == {
            "no_squash": 5, "squash_only_one": 5,
        }


class TestReplayedBy:
    crash = Mismatch(0, "crash", "halt", "pipeline did not halt")

    def test_single_unsensitized_knob(self):
        run = GoldenRun((("no_squash", 5),), None)
        assert run.replayed_by(PipelineBugs(disable_interlock=True))

    def test_sensitized_knob(self):
        run = GoldenRun((("no_squash", 5),), None)
        assert not run.replayed_by(PipelineBugs(no_squash=True))

    def test_several_knobs(self):
        run = GoldenRun((), None)
        assert not run.replayed_by(
            PipelineBugs(disable_interlock=True, no_squash=True)
        )

    def test_no_knob(self):
        assert not GoldenRun((), None).replayed_by(PipelineBugs())

    def test_golden_crash(self):
        run = GoldenRun((), self.crash)
        assert not run.replayed_by(PipelineBugs(disable_interlock=True))


def _rows_and_runs(monkeypatch, tests, kernel, jobs=1):
    """The campaign's JSON rows and the bugs of every pipeline run it
    made in this process."""
    runs = []
    original = PipelinedDLX.run

    def counted(self, *args, **kwargs):
        runs.append(self.bugs)
        return original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(PipelinedDLX, "run", counted)
        result = run_bug_campaign(tests, test_name="t", kernel=kernel,
                                  jobs=jobs)
    assert not result.degraded
    return result.to_json_dict(), runs


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(DIRECTED_PROGRAMS))
    def test_each_directed_program(self, monkeypatch, name):
        tests = [(list(DIRECTED_PROGRAMS[name]), None, None)]
        compiled, _ = _rows_and_runs(monkeypatch, tests, "compiled")
        interp, _ = _rows_and_runs(monkeypatch, tests, "interp")
        assert compiled == interp

    def test_directed_battery(self, monkeypatch):
        tests = directed_battery()
        compiled, _ = _rows_and_runs(monkeypatch, tests, "compiled")
        interp, _ = _rows_and_runs(monkeypatch, tests, "interp")
        assert compiled == interp

    def test_mostly_unsensitized_program(self, monkeypatch):
        """Eight of ten entries take the golden verdict: one golden run
        and the two squash entries are all the compiled body simulates,
        with the data image and branch oracle passed through."""
        tests = [(SQUASH_ONLY, {0: 7, 1: 9}, [True])]
        compiled, runs = _rows_and_runs(monkeypatch, tests, "compiled")
        interp, oracle_runs = _rows_and_runs(monkeypatch, tests, "interp")
        assert compiled == interp
        assert len(oracle_runs) == len(BUG_CATALOG)
        assert runs == [
            PipelineBugs(),
            PipelineBugs(squash_only_one=True),
            PipelineBugs(no_squash=True),
        ]
        detected = {row["bug"] for row in compiled["rows"] if row["detected"]}
        assert detected == {"squash_misses_delay_slot", "squash_absent"}

    def test_golden_record_shipped_to_workers(self, monkeypatch):
        tests = [(SQUASH_ONLY, None, None)] + list(directed_battery())
        compiled, _ = _rows_and_runs(monkeypatch, tests, "compiled", jobs=2)
        interp, _ = _rows_and_runs(monkeypatch, tests, "interp")
        assert compiled == interp

    def test_interp_never_runs_the_golden_pipeline(self, monkeypatch):
        _, runs = _rows_and_runs(
            monkeypatch, [(SQUASH_ONLY, None, None)], "interp"
        )
        assert PipelineBugs() not in runs
