"""Tests for structural stuck-at fault injection and the FSM bridge."""

from functools import partial

import pytest

from repro.campaign import per_item
from repro.rtl import Netlist, and_, extract_mealy, not_, or_, var, xor_
from repro.rtl.faults import (
    StuckAt,
    _stuck_detect_task,
    _stuck_interp_task,
    all_stuck_at_faults,
    detects_stuck_at,
    run_stuck_at_campaign,
)
from tests.test_rtl_netlist import counter_netlist, toggle_netlist


class TestInjection:
    def test_stuck_register_readers_see_value(self):
        net = toggle_netlist()
        faulty = StuckAt("q", True).apply(net)
        # Output reads q: stuck high regardless of toggling.
        _s, out = faulty.step(faulty.reset_state(), {"t": False})
        assert out["out"] is True

    def test_stuck_input(self):
        net = counter_netlist(2)
        faulty = StuckAt("en", False).apply(net)
        _outs, state = faulty.run([{"en": True}] * 5)
        assert state == faulty.reset_state()  # never counts

    def test_unknown_bit_rejected(self):
        with pytest.raises(ValueError):
            StuckAt("ghost", True).apply(toggle_netlist())

    def test_population_enumeration(self):
        net = counter_netlist(3)
        faults = all_stuck_at_faults(net)
        assert len(faults) == 6  # 3 registers x 2 polarities
        with_inputs = all_stuck_at_faults(net, include_inputs=True)
        assert len(with_inputs) == 8

    def test_str(self):
        assert str(StuckAt("q0", True)) == "q0/stuck-at-1"


class TestDetection:
    def test_detectable_fault_found(self):
        net = counter_netlist(2)
        vectors = [{"en": True}] * 4  # count to terminal count
        assert detects_stuck_at(net, StuckAt("q0", False), vectors)

    def test_undetectable_without_stimulus(self):
        net = counter_netlist(2)
        vectors = [{"en": False}] * 4  # never counts: q bits silent
        assert detects_stuck_at(net, StuckAt("q0", False), vectors) is None

    def test_campaign_partitions(self):
        net = counter_netlist(2)
        vectors = [{"en": True}] * 8
        result = run_stuck_at_campaign(net, vectors)
        assert result.total == 4
        assert set(result.detected) | set(result.escaped) == set(
            all_stuck_at_faults(net)
        )
        assert result.coverage == 1.0
        assert "stuck-at coverage" in str(result)

    def test_weak_vectors_leave_escapes(self):
        net = counter_netlist(3)
        result = run_stuck_at_campaign(net, [{"en": True}])  # one cycle
        assert result.coverage < 1.0


class TestInterpBatch:
    """The interp sweep steps the golden netlist once per batch; every
    fault's outcome must still be the per-fault oracle's."""

    @staticmethod
    def _outcomes(body, net, vectors, faults):
        """(tag, verdict or the exception line) per fault."""
        return [
            (tag, value if tag == "ok" else value.strip().splitlines()[-1])
            for tag, value in body((net, tuple(vectors)), faults)
        ]

    def _compare(self, net, vectors, faults):
        got = self._outcomes(_stuck_interp_task, net, vectors, faults)
        ref = self._outcomes(
            partial(per_item, _stuck_detect_task), net, vectors, faults
        )
        assert got == ref
        return got

    def test_batch_matches_per_fault_oracle(self):
        net = counter_netlist(3)
        vectors = [{"en": i % 3 != 1} for i in range(12)]
        faults = all_stuck_at_faults(net, include_inputs=True)
        got = self._compare(net, vectors, faults)
        assert {tag for tag, _ in got} == {"ok"}

    def test_malformed_vector_raises_only_for_faults_reaching_it(self):
        """Vector 4 drives no input: a fault detected earlier never
        reaches it, every other fault raises there, as per fault."""
        net = counter_netlist(2)
        vectors = [{"en": True}] * 3 + [{}] + [{"en": True}] * 4
        faults = all_stuck_at_faults(net, include_inputs=True)
        got = self._compare(net, vectors, faults)
        assert ("err", "KeyError: 'en'") in got
        assert any(tag == "ok" for tag, _ in got)


class TestTourBridge:
    def test_tour_vectors_achieve_full_stuck_at_coverage(self):
        """The FSM-level completeness transfers: drive the netlist with
        a transition tour of its extracted machine and every stuck-at
        fault on an observable-cone register is caught."""
        from repro.tour import transition_tour

        net = counter_netlist(3)
        machine = extract_mealy(net)
        tour = transition_tour(machine, method="cpp")
        # Tour inputs are canonical (name, value) tuples -> dicts.
        vectors = [dict(inp) for inp in tour.inputs]
        result = run_stuck_at_campaign(net, vectors)
        assert result.coverage == 1.0, result

    def test_random_vectors_weaker_than_tour(self):
        import random

        rng = random.Random(0)
        net = counter_netlist(4)
        machine = extract_mealy(net)
        from repro.tour import transition_tour

        tour = transition_tour(machine, method="cpp")
        tour_vectors = [dict(inp) for inp in tour.inputs]
        short_random = [
            {"en": rng.random() < 0.5} for _ in range(len(tour_vectors) // 4)
        ]
        full = run_stuck_at_campaign(net, tour_vectors)
        weak = run_stuck_at_campaign(net, short_random)
        assert full.coverage >= weak.coverage
