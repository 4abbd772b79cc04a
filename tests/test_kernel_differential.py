"""Differential tests: compiled kernels == tree-walking interpreters.

The compiled kernels in :mod:`repro.kernel` are pure performance
artifacts -- every observable (first divergences, campaign verdicts,
detection latencies, metric dumps, exception types *and messages*)
must match the interpreters byte-for-byte.  These
properties quantify over randomly generated machines, netlists, fault
sets and test sets; machines are built from integer seeds so
hypothesis shrinks the seed while the builder stays deterministic.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.campaign as fault_campaign
import repro.kernel.mealy_kernel as mealy_kernel
import repro.kernel.netlist_kernel as netlist_kernel
from repro.campaign import Campaign
from repro.core.distinguish import (
    _pair_distance_table,
    distinguishability_matrix,
    shortest_distinguishing_sequence,
)
from repro.core.errors import OutputError, TransferError
from repro.core.mealy import MealyMachine
from repro.faults.campaign import FsmKind, run_campaign
from repro.faults.inject import all_single_faults
from repro.faults.simulate import detect_fault, detection_latency
from repro.kernel import (
    compiled_netlist,
    dense_mealy,
    detect_faults_compiled,
    detection_latency_compiled,
    stuck_at_first_divergences,
)
from repro.models import counter
from repro.obs import scoped_registry
from repro.rtl.expr import Const, Var, and_, mux, not_, or_, xor_
from repro.rtl.faults import (
    StuckAt,
    all_stuck_at_faults,
    detects_stuck_at,
    run_stuck_at_campaign,
)
from repro.rtl.netlist import Netlist, NetlistError
from repro.runtime import METRICS_NAME, run_campaign_resumable
from repro.tour import FaultDomain, generate_suite

SETTINGS = settings(max_examples=30, deadline=None)
seeds = st.integers(min_value=0, max_value=10**6)


# ----------------------------------------------------------------------
# Generators (seed-deterministic)
# ----------------------------------------------------------------------

def build_machine(seed: int, complete: bool = True) -> MealyMachine:
    """A small pseudo-random Mealy machine; incomplete machines drop
    ~15% of (state, input) pairs so undefined-step paths get hit."""
    rng = random.Random(seed)
    n_states = rng.randint(2, 6)
    states = [f"s{i}" for i in range(n_states)]
    inputs = ["a", "b", "c"][: rng.randint(1, 3)]
    outputs = ["x", "y", "z"][: rng.randint(2, 3)]
    m = MealyMachine(states[0], name=f"rand{seed}")
    for s in states:
        for i in inputs:
            if not complete and rng.random() < 0.15:
                continue
            m.add_transition(s, i, rng.choice(outputs), rng.choice(states))
    for s in states:
        m.add_state(s)
    return m


def build_test(machine: MealyMachine, seed: int, length: int):
    """An input sequence over the machine's alphabet (not necessarily
    runnable on incomplete machines -- deliberately, to exercise the
    undefined-step error paths)."""
    rng = random.Random(seed)
    alphabet = sorted(machine.inputs, key=repr)
    if not alphabet:
        return ()
    return tuple(rng.choice(alphabet) for _ in range(length))


def build_netlist(seed: int) -> Netlist:
    """A small random two-level-ish netlist over all expression kinds."""
    rng = random.Random(seed)
    ins = [f"i{k}" for k in range(rng.randint(1, 3))]
    regs = [f"r{k}" for k in range(rng.randint(1, 5))]
    names = ins + regs
    nl = Netlist(f"rand{seed}")
    nl.add_inputs(ins)
    for r in regs:
        nl.add_register(r, init=rng.random() < 0.5)

    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.15:
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
        nl.set_next(r, expr(3))
    for k in range(rng.randint(1, 3)):
        nl.set_output(f"o{k}", expr(3))
    return nl


def build_vectors(netlist: Netlist, seed: int, count: int):
    rng = random.Random(seed)
    return [
        {name: rng.random() < 0.5 for name in netlist.inputs}
        for _ in range(count)
    ]


def outcome_of(fn):
    """Normalize a call to (tag, payload) so exception parity is part
    of every differential assertion."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("err", type(exc).__name__, str(exc))


def batch_outcome_of(fn):
    """A call's outcome in the batched kernel's per-fault encoding:
    ``("ok", value)`` or ``("err", "ExcType: message")``."""
    outcome = outcome_of(fn)
    if outcome[0] == "ok":
        return outcome
    return ("err", f"{outcome[1]}: {outcome[2]}")


def invalid_faults(machine: MealyMachine):
    """The five invalid-fault shapes: unknown site state, no-op
    corruption, no-op diversion and a diversion to a non-state."""
    some_state = sorted(machine.states, key=repr)[0]
    some_inp = sorted(machine.inputs, key=repr)[0]
    t = machine.transition(some_state, some_inp)
    return [
        OutputError("ghost", some_inp, "x"),
        TransferError("ghost", some_inp, some_state),
        OutputError(some_state, some_inp, t.out),   # no-op corrupt
        TransferError(some_state, some_inp, t.dst),  # no-op divert
        TransferError(some_state, some_inp, "ghost"),
    ]


class CountedTable(dict):
    """A transition table that counts how often it is compared."""

    compares = 0

    def __eq__(self, other):
        CountedTable.compares += 1
        return dict.__eq__(self, other)

    __hash__ = None


class UncomparableTest(tuple):
    """A test tuple that fails any element-by-element comparison."""

    def __eq__(self, other):
        raise AssertionError("test tuple compared element by element")

    __ne__ = __eq__
    __hash__ = tuple.__hash__


# ----------------------------------------------------------------------
# Dense Mealy compile memo
# ----------------------------------------------------------------------

class TestDenseMealyReplay:
    def test_memo_revalidates_after_mutation(self):
        m = build_machine(7)
        before = dense_mealy(m)
        assert dense_mealy(m) is before
        m.add_state("fresh")
        after = dense_mealy(m)
        assert after is not before
        assert "fresh" in after.states

    def test_memo_entry_dies_with_its_machine(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(mealy_kernel, "_DENSE_MEMO", memo)
        m = build_machine(8)
        dense_mealy(m)
        assert len(memo) == 1
        del m
        gc.collect()
        assert len(memo) == 0


# ----------------------------------------------------------------------
# FSM fault campaigns
# ----------------------------------------------------------------------

class TestMealyFaultVerdicts:
    @SETTINGS
    @given(seed=seeds, tseed=seeds, complete=st.booleans())
    def test_every_single_fault_verdict_identical(self, seed, tseed,
                                                  complete):
        m = build_machine(seed, complete=complete)
        test = build_test(m, tseed, 12)
        faults = list(all_single_faults(m))
        ref = [
            batch_outcome_of(lambda: bool(detect_fault(m, fault, test)))
            for fault in faults
        ]
        got = outcome_of(lambda: detect_faults_compiled(m, test, faults))
        assert got == ("ok", ref), f"rand{seed}"

    @SETTINGS
    @given(seed=seeds, tseed=seeds)
    def test_invalid_faults_raise_identically(self, seed, tseed):
        m = build_machine(seed)
        test = build_test(m, tseed, 6)
        faults = invalid_faults(m)
        ref = [
            batch_outcome_of(lambda: bool(detect_fault(m, fault, test)))
            for fault in faults
        ]
        assert all(tag == "err" for tag, _ in ref)
        assert detect_faults_compiled(m, test, faults) == ref

    @SETTINGS
    @given(seed=seeds, tseed=seeds, complete=st.booleans())
    def test_campaign_kernels_and_jobs_byte_identical(self, seed, tseed,
                                                      complete):
        m = build_machine(seed, complete=complete)
        test = build_test(m, tseed, 10)
        results = [
            outcome_of(lambda: run_campaign(m, test, kernel="interp"))
            for _ in range(1)
        ]
        results.append(
            outcome_of(lambda: run_campaign(m, test, kernel="compiled"))
        )
        results.append(
            outcome_of(
                lambda: run_campaign(m, test, kernel="compiled", jobs=4)
            )
        )
        tags = [r[0] for r in results]
        assert len(set(tags)) == 1
        if tags[0] == "ok":
            ref = results[0][1]
            for _tag, other in results[1:]:
                assert other.detected == ref.detected
                assert other.escaped == ref.escaped
                assert other.machine_name == ref.machine_name
                assert other.test_length == ref.test_length
        else:
            assert len(set(results)) == 1

    def test_campaign_metric_dumps_identical_across_kernels(self):
        m = build_machine(99)
        test = build_test(m, 100, 12)
        dumps = []
        for kernel, jobs in (("interp", 1), ("compiled", 1),
                             ("compiled", 4)):
            with scoped_registry() as reg:
                run_campaign(m, test, kernel=kernel, jobs=jobs)
                dumps.append(reg.deterministic_dump())
        assert dumps[0] == dumps[1] == dumps[2]

    def test_memo_hits_compare_neither_spec_nor_test(self):
        """A compiled campaign with the registry on fetches the dense
        tables and the spec trajectory once per batch and once per
        detected fault; every hit must be O(1): no comparison of the
        spec's transition table, no element-wise test comparison."""
        m = build_machine(5)
        m._delta = CountedTable(m._delta)
        kind = FsmKind(m, build_test(m, 32, 40), all_single_faults(m))
        kind.test = UncomparableTest(kind.test)
        CountedTable.compares = 0
        with scoped_registry() as reg:
            # 8-fault slices: one kernel batch per slice.
            campaign = Campaign(kind)
            campaign.start()
            pending = campaign.pending()
            for lo in range(0, len(pending), 8):
                campaign.sweep(pending[lo:lo + 8], kernel="compiled")
            result = campaign.finish()
            histograms = reg.deterministic_dump()["histograms"]
        assert CountedTable.compares == 0
        assert not result.degraded
        assert result.by_class()["transfer"]["detected"] > 7
        assert "campaign.detection_latency_steps{cls=transfer}" in histograms

    def test_unknown_kernel_rejected(self):
        m = build_machine(1)
        with pytest.raises(ValueError, match="unknown kernel"):
            run_campaign(m, build_test(m, 2, 4), kernel="turbo")
        with pytest.raises(ValueError, match="unknown kernel"):
            run_stuck_at_campaign(build_netlist(1), [], kernel="turbo")


class TestDetectionLatencyTwin:
    @SETTINGS
    @given(seed=seeds, tseed=seeds, complete=st.booleans())
    def test_every_single_fault_latency_identical(self, seed, tseed,
                                                  complete):
        m = build_machine(seed, complete=complete)
        test = build_test(m, tseed, 12)
        for fault in all_single_faults(m):
            ref = outcome_of(lambda: detection_latency(m, fault, test))
            got = outcome_of(
                lambda: detection_latency_compiled(m, fault, test)
            )
            assert ref == got, f"{fault} on rand{seed}"

    @SETTINGS
    @given(seed=seeds, tseed=seeds)
    def test_invalid_faults_raise_identically(self, seed, tseed):
        m = build_machine(seed)
        test = build_test(m, tseed, 6)
        for fault in invalid_faults(m):
            ref = outcome_of(lambda: detection_latency(m, fault, test))
            got = outcome_of(
                lambda: detection_latency_compiled(m, fault, test)
            )
            assert ref == got, repr(fault)

    def test_journaled_wp_metrics_match_interpreter_latency(
        self, tmp_path, monkeypatch
    ):
        machine = counter(3)
        ex = generate_suite(
            machine, "wp", FaultDomain(extra_states=0)
        ).executable(machine)

        def metrics(name):
            run_dir = tmp_path / name
            run_campaign_resumable(
                ex.machine, ex.inputs, list(ex.faults), run_dir=str(run_dir)
            )
            return (run_dir / METRICS_NAME).read_bytes()

        assert fault_campaign.detection_latency is detection_latency_compiled
        twin = metrics("twin")
        monkeypatch.setattr(
            fault_campaign, "detection_latency", detection_latency
        )
        assert metrics("oracle") == twin
        assert b"detection_latency_steps{cls=transfer}" in twin


# ----------------------------------------------------------------------
# Netlist kernels
# ----------------------------------------------------------------------

class TestCompiledNetlist:
    @SETTINGS
    @given(seed=seeds, vseed=seeds)
    def test_first_divergences_identical(self, seed, vseed):
        nl = build_netlist(seed)
        vectors = build_vectors(nl, vseed, 10)
        faults = all_stuck_at_faults(nl, include_inputs=True)
        ref = [detects_stuck_at(nl, f, vectors) for f in faults]
        got = stuck_at_first_divergences(nl, vectors, faults)
        assert ref == got

    def test_word_overflow_batches(self):
        """More faults than lanes in a word forces multiple passes."""
        nl = build_netlist(3)
        vectors = build_vectors(nl, 4, 8)
        base = all_stuck_at_faults(nl, include_inputs=True)
        faults = (base * (126 // len(base) + 1))
        ref = [detects_stuck_at(nl, f, vectors) for f in faults]
        # The legacy machine-word width chunks this into 3 passes; the
        # default width packs it into one.  Both must match per fault.
        assert stuck_at_first_divergences(
            nl, vectors, faults, lanes=64
        ) == ref
        assert stuck_at_first_divergences(nl, vectors, faults) == ref

    @SETTINGS
    @given(seed=seeds, vseed=seeds)
    def test_stuck_at_campaign_kernels_and_jobs_identical(self, seed,
                                                          vseed):
        nl = build_netlist(seed)
        vectors = build_vectors(nl, vseed, 10)
        ref = run_stuck_at_campaign(nl, vectors, kernel="interp")
        for kwargs in ({"kernel": "compiled"},
                       {"kernel": "compiled", "jobs": 4},
                       {"kernel": "interp", "jobs": 4}):
            got = run_stuck_at_campaign(nl, vectors, **kwargs)
            assert got == ref, kwargs

    def test_error_messages_identical(self):
        nl = build_netlist(11)
        vectors = build_vectors(nl, 12, 4)
        comp = compiled_netlist(nl)
        bad_fault = StuckAt("bogus", True)
        assert outcome_of(lambda: bad_fault.apply(nl)) == outcome_of(
            lambda: stuck_at_first_divergences(nl, vectors, [bad_fault])
        )
        faults = all_stuck_at_faults(nl, include_inputs=True)
        undriven = [{}]
        assert outcome_of(
            lambda: [detects_stuck_at(nl, f, undriven) for f in faults]
        ) == outcome_of(lambda: comp.detect_batch(undriven, faults))

    def test_hoisted_run_validation_still_raises(self):
        nl = Netlist("tiny")
        nl.add_input("a")
        nl.add_register("r", init=False, next=Var("a"))
        nl.set_output("o", Var("r"))
        with pytest.raises(NetlistError, match="state misses register"):
            nl.run([{"a": True}], state={})
        with pytest.raises(NetlistError, match="not driven"):
            nl.run([{}])
        undriven = Netlist("undriven")
        undriven.add_register("r", init=False)
        with pytest.raises(NetlistError, match="no next-state"):
            undriven.run([{}])

    def test_compile_memo_entry_dies_with_its_netlist(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(netlist_kernel, "_COMPILE_MEMO", memo)
        nl = build_netlist(23)
        compiled_netlist(nl)
        compiled_netlist(nl, lanes=64)
        assert len(memo) == 1
        del nl
        gc.collect()
        assert len(memo) == 0

    def test_compile_memo_revalidates_on_rewire(self):
        nl = build_netlist(21)
        before = compiled_netlist(nl)
        assert compiled_netlist(nl) is before
        reg = nl.register_names[0]
        nl.set_next(reg, not_(Var(reg)))
        after = compiled_netlist(nl)
        assert after is not before
        vectors = build_vectors(nl, 22, 6)
        faults = all_stuck_at_faults(nl, include_inputs=True)
        assert after.detect_batch(vectors, faults) == [
            detects_stuck_at(nl, f, vectors) for f in faults
        ]


# ----------------------------------------------------------------------
# Pair distances
# ----------------------------------------------------------------------

class TestPairKernels:
    @SETTINGS
    @given(seed=seeds, complete=st.booleans())
    def test_sequences_match_matrix_and_distinguish(self, seed, complete):
        m = build_machine(seed, complete=complete)
        matrix = distinguishability_matrix(m)
        table = _pair_distance_table(m)
        states = sorted(m.states, key=repr)
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                seq = shortest_distinguishing_sequence(m, a, b,
                                                       table=table)
                assert seq == shortest_distinguishing_sequence(m, a, b)
                length = matrix[(a, b)]
                if length is None:
                    assert seq is None
                else:
                    assert seq is not None and len(seq) == length
                    # The reconstructed sequence really distinguishes.
                    assert m.output_sequence(seq, start=a) != \
                        m.output_sequence(seq, start=b)
