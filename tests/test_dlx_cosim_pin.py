"""Pins the bytes the DLX co-simulation records and the stuck-at lane
words can reach.

The co-simulation builds a latch per stage, a ``ControlTrace`` per
cycle and a ``Checkpoint`` and ``PSW`` per retirement; the stuck-at
kernel patches every faulted slot of a lane word each cycle.  Reports
reach those objects only through ``str``/``repr`` and verdicts, so
these digests and texts cover what either loop can change:

* the text of a ``Mismatch`` of every field kind the harness emits;
* the ``repr`` of a checkpoint, a PSW and a control trace entry taken
  from a directed-program run;
* ``run_bug_campaign(...).to_json_dict()`` of the directed battery, of
  40 seeded one-test random batteries and of perfbench's tour program;
* the ``ConcreteTest`` that ``fill_inputs`` makes of that tour;
* the first divergences of every stuck-at fault (inputs included) of
  the seven Figure 3(b) trail netlists under 300 seeded vectors, in
  the forced dense and the forced event-driven pass.

An intended change updates a pin and says why in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from repro.dlx.buggy import BUG_CATALOG
from repro.dlx.pipeline import PipelinedDLX
from repro.dlx.programs import DIRECTED_PROGRAMS, random_data, random_program
from repro.dlx.testmodel import (
    SMALL_TOUR_OPCODES,
    build_tour_model,
    derive_test_model,
    minimize_tour_model,
)
from repro.kernel import stuck_at_first_divergences
from repro.rtl.faults import all_stuck_at_faults
from repro.tour import transition_tour
from repro.validation import (
    compare_streams,
    directed_battery,
    fill_inputs,
    run_bug_campaign,
    validate,
)
from repro.validation.harness import expected_stream

MISMATCH_TEXTS = {
    "instruction": (
        "mismatch at retirement 9: instruction expected 'beqz r1, 5', "
        "observed 'halt'"
    ),
    "pc_after": "mismatch at retirement 3: pc_after expected 4, observed 10",
    "regs": "mismatch at retirement 4: regs expected 'r4=1', observed 'r4=0'",
    "psw": (
        "mismatch at retirement 1: psw expected PSW(zero=True, "
        "negative=False), observed PSW(zero=False, negative=False)"
    ),
    "mem_write": (
        "mismatch at retirement 5: mem_write expected (200, 0), "
        "observed (200, 100)"
    ),
    "length": "mismatch at retirement 64: length expected 65, observed 64",
    "crash": (
        "mismatch at retirement 3: crash expected 'halt', observed "
        "'pipeline did not halt within 7 cycles'"
    ),
}

CHECKPOINT_REPR = (
    "Checkpoint(index=4, instruction=Instruction(op=<Op.SW: 'sw'>, rd=0, "
    "rs1=0, rs2=4, imm=64), pc_after=5, regs=(0, 5, 10, 15, 25, 0, 0, 0, "
    "0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
    "0), psw=PSW(zero=False, negative=False), mem_write=(64, 25))"
)
PSW_REPR = "PSW(zero=False, negative=True)"
TRACE_REPR = (
    "ControlTrace(cycle=4, stall=False, squash=False, fwd_a='exmem', "
    "fwd_b='exmem', fwd_store='none', branch_taken=False, id_valid=True, "
    "ex_valid=True, mem_valid=True, wb_valid=False, ex_is_load=False, "
    "fetched=Instruction(op=<Op.ADD: 'add'>, rd=4, rs1=2, rs2=3, imm=0), "
    "can_fetch=True, ex_a_zero=False)"
)

DIRECTED_DIGEST = "a1db83ccd9f237b0"
#: One per seed 0..39.
RANDOM_DIGESTS = (
    "6f0ec87b4f804d89", "ca4d66c2d04768b1", "d7f600fd801dadf9",
    "1b0c53220d1be044", "8f3a6fa84485168b", "7f1e39aa2cd0429f",
    "08b6014a9aef459c", "9de3c5a02e29a944", "58aa6ba3fc3df3bd",
    "9270532338fcc54c", "4ce8c6baed8bcb9c", "c9df52b6e9388c5a",
    "3bf43e9b4a23f498", "d2e44e5ae81f3845", "b6ce798e9cdf244e",
    "26aed750a6f038cf", "520dcf2857371c50", "375dffc38d36076a",
    "9ae79c325dd3ca96", "768fe31f13d23876", "ed62b04502c45720",
    "9a7886fd5486d09e", "08fada55a6b2d968", "4835cab3c740bad7",
    "d83f5912f4a0312e", "b50a220e4f25809c", "49efb5aac9d5ed03",
    "7b098554345465f4", "1620984138fb4e6a", "5d29d5d0fbece144",
    "3af843bc7dba9dfb", "93e4e35eb7ad9c77", "a79a811dc9cdfea6",
    "61b6122d221b6206", "afef8146dcd45c25", "9cd5f1a7c407e8ac",
    "6663a9efa6c843fe", "210026e5a473d207", "9b17ceb1d0d81958",
    "a5b82f632609464e",
)
TOUR_CAMPAIGN_DIGEST = "8f088560892db3e5"
TOUR_TEST_DIGEST = "4d67f19c1474d412"
#: Per trail netlist, in both forced passes.
TRAIL_DIGESTS = {
    0: "940f79596eaefd8f", 1: "708357035be61548", 2: "c3941eb017351932",
    3: "5cb90a4f455b3a61", 4: "6542088c3f347517", 5: "cfbe77ddde15def4",
    6: "eedad298a272d774",
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _campaign_digest(battery, name, **options) -> str:
    result = run_bug_campaign(
        battery, catalog=BUG_CATALOG, test_name=name, **options
    )
    return _digest(result.to_json_dict())


@pytest.fixture(scope="module")
def tour_test():
    """perfbench's tour program: the greedy tour of the minimized
    one-register small tour model, filled with one register."""
    model = minimize_tour_model(
        build_tour_model(registers=1, opcodes=SMALL_TOUR_OPCODES)
    )
    tour = transition_tour(model.machine, method="greedy")
    return fill_inputs(model.concrete_vectors(tour.inputs), registers=1)


class TestMismatchTexts:
    def test_every_field_kind(self):
        texts = {}
        for row in run_bug_campaign(
            directed_battery(), catalog=BUG_CATALOG, test_name="directed"
        ).rows:
            if row.mismatch is not None:
                texts.setdefault(row.mismatch.field, str(row.mismatch))
        spec = expected_stream(DIRECTED_PROGRAMS["fibonacci"])
        texts["length"] = str(compare_streams(spec, spec[:-1]))
        texts["crash"] = str(
            validate(DIRECTED_PROGRAMS["fibonacci"], max_cycles=7).mismatch
        )
        assert texts == MISMATCH_TEXTS


class TestRecordReprs:
    def test_checkpoint_psw_and_trace(self):
        impl = PipelinedDLX(DIRECTED_PROGRAMS["hazard_stress"])
        impl.run()
        store = next(cp for cp in impl.checkpoints if cp.mem_write)
        assert repr(store) == CHECKPOINT_REPR
        forwarded = next(
            t for t in impl.trace
            if t.fwd_a != "none" and t.fetched is not None
        )
        assert repr(forwarded) == TRACE_REPR
        probe = PipelinedDLX(DIRECTED_PROGRAMS["psw_probe"])
        probe.run()
        negative = next(cp.psw for cp in probe.checkpoints if cp.psw.negative)
        assert repr(negative) == PSW_REPR


class TestBugCampaignDigests:
    def test_directed_battery(self):
        assert _campaign_digest(directed_battery(), "directed") == (
            DIRECTED_DIGEST
        )

    def test_random_one_test_batteries(self):
        digests = []
        for seed in range(40):
            rng = random.Random(seed)
            test = (random_program(rng, length=40), random_data(rng), None)
            digests.append(_campaign_digest([test], f"random {seed}"))
        assert tuple(digests) == RANDOM_DIGESTS

    def test_tour_program(self, tour_test):
        battery = [(
            list(tour_test.program), tour_test.data,
            list(tour_test.branch_oracle),
        )]
        assert _campaign_digest(
            battery, "tour program", kernel="compiled"
        ) == TOUR_CAMPAIGN_DIGEST

    def test_tour_concrete_test(self, tour_test):
        assert _digest([
            [str(instr) for instr in tour_test.program],
            list(tour_test.branch_oracle),
            tour_test.idle_vectors,
        ]) == TOUR_TEST_DIGEST


class TestTrailFirstDivergences:
    @pytest.mark.parametrize("dirty", [False, True])
    def test_every_fault_of_every_trail_netlist(self, dirty):
        digests = {}
        for index, (_label, net) in enumerate(derive_test_model()):
            rng = random.Random(index)
            vectors = [
                {name: rng.random() < 0.5 for name in net.inputs}
                for _ in range(300)
            ]
            faults = all_stuck_at_faults(net, include_inputs=True)
            digests[index] = _digest(stuck_at_first_divergences(
                net, vectors, faults, dirty=dirty
            ))
        assert digests == TRAIL_DIGESTS
