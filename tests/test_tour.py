"""Unit tests for the tour package: mincostflow, eulerian, postman,
greedy, rural and the tourgen facade."""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.core.coverage import is_state_tour, is_transition_tour
from repro.core.mealy import MealyMachine
from repro.models import counter
from repro.tour import (
    FlowError,
    MinCostFlow,
    PostmanError,
    Tour,
    checking_tour,
    chinese_postman_transitions,
    degree_balance,
    eulerian_circuit,
    greedy_rural_transitions,
    greedy_transition_transitions,
    is_balanced,
    minimum_duplications,
    optimal_tour_length,
    random_tour,
    rural_lower_bound,
    state_tour,
    transition_tour,
    verify_circuit,
)
from repro.tour.eulerian import EulerianError


def _run_with_hash_seed(script, hash_seed):
    """The standard output of ``script`` in a fresh interpreter under
    ``PYTHONHASHSEED=hash_seed``."""
    src = os.path.abspath(
        os.path.join(os.path.dirname(repro.__file__), os.pardir)
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout


class TestMinCostFlow:
    def test_direct_route(self):
        net = MinCostFlow()
        net.add_arc("a", "b", capacity=5, cost=1, tag="ab")
        flows = net.solve({"a": 2, "b": -2})
        assert flows == {"ab": 2}
        assert net.total_cost() == 2

    def test_prefers_cheap_path(self):
        net = MinCostFlow()
        net.add_arc("a", "b", capacity=5, cost=10, tag="direct")
        net.add_arc("a", "m", capacity=5, cost=1, tag="am")
        net.add_arc("m", "b", capacity=5, cost=1, tag="mb")
        flows = net.solve({"a": 1, "b": -1})
        assert flows == {"am": 1, "mb": 1}

    def test_splits_when_capacity_binds(self):
        net = MinCostFlow()
        net.add_arc("a", "b", capacity=1, cost=1, tag="cheap")
        net.add_arc("a", "b", capacity=5, cost=3, tag="dear")
        flows = net.solve({"a": 3, "b": -3})
        assert flows["cheap"] == 1
        assert flows["dear"] == 2

    def test_multiple_sources_sinks(self):
        net = MinCostFlow()
        net.add_arc("s1", "t1", capacity=9, cost=1, tag="a")
        net.add_arc("s1", "t2", capacity=9, cost=5, tag="b")
        net.add_arc("s2", "t2", capacity=9, cost=1, tag="c")
        flows = net.solve({"s1": 1, "s2": 1, "t1": -1, "t2": -1})
        assert flows == {"a": 1, "c": 1}

    def test_unbalanced_supplies_rejected(self):
        net = MinCostFlow()
        net.add_arc("a", "b", capacity=1, cost=1)
        with pytest.raises(FlowError):
            net.solve({"a": 2, "b": -1})

    def test_infeasible_rejected(self):
        net = MinCostFlow()
        net.add_arc("a", "b", capacity=1, cost=1)
        with pytest.raises(FlowError):
            net.solve({"b": 1, "a": -1})  # no arc b->a

    def test_negative_capacity_rejected(self):
        net = MinCostFlow()
        with pytest.raises(ValueError):
            net.add_arc("a", "b", capacity=-1, cost=1)

    def test_zero_supplies_trivial(self):
        net = MinCostFlow()
        net.add_arc("a", "b", capacity=1, cost=1, tag="ab")
        assert net.solve({}) == {}


class TestEulerian:
    def test_simple_cycle(self):
        edges = [("a", "b", 1), ("b", "c", 2), ("c", "a", 3)]
        circuit = eulerian_circuit(edges, "a")
        assert verify_circuit(edges, circuit, "a")

    def test_multigraph_with_parallel_edges(self):
        edges = [
            ("a", "b", "e1"),
            ("a", "b", "e2"),
            ("b", "a", "e3"),
            ("b", "a", "e4"),
        ]
        circuit = eulerian_circuit(edges, "a")
        assert verify_circuit(edges, circuit, "a")

    def test_figure_eight(self):
        edges = [
            ("m", "a", 1),
            ("a", "m", 2),
            ("m", "b", 3),
            ("b", "m", 4),
        ]
        circuit = eulerian_circuit(edges, "m")
        assert verify_circuit(edges, circuit, "m")
        assert len(circuit) == 4

    def test_unbalanced_rejected(self):
        with pytest.raises(EulerianError):
            eulerian_circuit([("a", "b", 1)], "a")

    def test_disconnected_rejected(self):
        edges = [
            ("a", "a", 1),
            ("b", "b", 2),
        ]
        with pytest.raises(EulerianError):
            eulerian_circuit(edges, "a")

    def test_empty_graph(self):
        assert eulerian_circuit([], "a") == []

    def test_start_without_out_edge_rejected(self):
        edges = [("a", "a", 1)]
        with pytest.raises(EulerianError):
            eulerian_circuit(edges, "zzz")

    def test_degree_balance(self):
        edges = [("a", "b", 1), ("b", "a", 2), ("a", "c", 3)]
        bal = degree_balance(edges)
        assert bal == {"a": 1, "b": 0, "c": -1}
        assert not is_balanced(edges)

    def test_deterministic_output(self):
        edges = [("a", "b", i) for i in range(3)] + [
            ("b", "a", i + 10) for i in range(3)
        ]
        c1 = eulerian_circuit(edges, "a")
        c2 = eulerian_circuit(list(edges), "a")
        assert c1 == c2


class TestPostman:
    def test_eulerian_machine_needs_no_duplicates(self, counter3):
        copies, total = minimum_duplications(counter3)
        assert total == 0
        assert optimal_tour_length(counter3) == counter3.num_transitions()

    def test_tour_is_transition_tour(self, any_model):
        trans = chinese_postman_transitions(any_model)
        inputs = [t.inp for t in trans]
        assert is_transition_tour(any_model, inputs)

    def test_tour_is_closed(self, any_model):
        trans = chinese_postman_transitions(any_model)
        assert trans[0].src == any_model.initial
        assert trans[-1].dst == any_model.initial

    def test_tour_length_matches_prediction(self, any_model):
        trans = chinese_postman_transitions(any_model)
        assert len(trans) == optimal_tour_length(any_model)

    def test_optimal_never_shorter_than_edge_count(self, any_model):
        assert optimal_tour_length(any_model) >= any_model.num_transitions()

    def test_unbalanced_machine_gets_duplicates(self):
        # Star: center->a->center, center->b->center, plus an extra
        # center->a edge forcing a duplicate of a->center.
        m = MealyMachine.from_transitions(
            "c",
            [
                ("c", 0, "o", "a"),
                ("c", 1, "o", "a"),
                ("a", 0, "p", "c"),
                ("c", 2, "o", "b"),
                ("b", 0, "q", "c"),
                ("a", 1, "p2", "a"),
                ("b", 1, "q2", "b"),
            ],
        )
        copies, total = minimum_duplications(m)
        assert total >= 1
        trans = chinese_postman_transitions(m)
        assert is_transition_tour(m, [t.inp for t in trans])
        assert len(trans) == m.num_transitions() + total

    def test_not_strongly_connected_rejected(self):
        m = MealyMachine.from_transitions(
            "a", [("a", 0, "o", "b"), ("b", 0, "o", "b")]
        )
        with pytest.raises(PostmanError):
            chinese_postman_transitions(m)
        with pytest.raises(PostmanError):
            optimal_tour_length(m)

    #: Seeded string-state machines (16-40 states, 4 inputs, a ring on
    #: input "a" keeps them strongly connected); prints each cpp tour.
    TOURS_SCRIPT = """
import random
from repro.core.mealy import MealyMachine
from repro.models import counter
from repro.tour import transition_tour

for seed in range(12):
    rng = random.Random(seed)
    n = rng.randint(16, 40)
    states = [f"q{i}" for i in range(n)]
    m = MealyMachine(states[0], name=f"ring{seed}")
    for i, s in enumerate(states):
        for x in "abcd":
            dst = states[(i + 1) % n] if x == "a" else rng.choice(states)
            m.add_transition(s, x, rng.choice("01"), dst)
    print(transition_tour(m, method="cpp").inputs)
"""

    def test_tour_independent_of_hash_seed(self):
        """String states hash differently per process; the tour (and
        so every store key and manifest built from it) must not."""
        tours = [
            _run_with_hash_seed(self.TOURS_SCRIPT, hash_seed)
            for hash_seed in ("0", "2")
        ]
        assert tours[0].count("\n") == 12
        assert tours[0] == tours[1]


class TestGreedy:
    def test_greedy_covers_everything(self, any_model):
        trans = greedy_transition_transitions(any_model)
        assert is_transition_tour(any_model, [t.inp for t in trans])

    def test_greedy_closes_tour(self, any_model):
        trans = greedy_transition_transitions(any_model)
        assert trans[-1].dst == any_model.initial

    def test_greedy_never_beats_optimal(self, any_model):
        greedy_len = len(greedy_transition_transitions(any_model))
        assert greedy_len >= optimal_tour_length(any_model)

    def test_greedy_open_tour_shorter_or_equal(self, fig2_machine):
        open_len = len(
            greedy_transition_transitions(fig2_machine, close_tour=False)
        )
        closed_len = len(greedy_transition_transitions(fig2_machine))
        assert open_len <= closed_len


class TestRural:
    def test_rural_covers_required_only(self, fig2_machine):
        required = [
            t for t in fig2_machine.transitions if t.src in ("s3", "s3p")
        ]
        walk = greedy_rural_transitions(fig2_machine, required)
        walked = set(walk)
        assert set(required) <= walked
        assert len(walk) >= rural_lower_bound(required)

    def test_rural_closes(self, fig2_machine):
        required = [fig2_machine.transition("s3", "b")]
        walk = greedy_rural_transitions(fig2_machine, required)
        assert walk[-1].dst == fig2_machine.initial

    def test_rural_rejects_foreign_transition(self, fig2_machine, adder):
        with pytest.raises(ValueError):
            greedy_rural_transitions(
                fig2_machine, [adder.transitions[0]]
            )

    #: Foreign transitions of one random machine against another.
    FOREIGN_SCRIPT = """
import random
from repro.core.generate import random_mealy
from repro.tour import greedy_rural_transitions

machine = random_mealy(random.Random(1), 3, 2, 2)
other = random_mealy(random.Random(2), 4, 2, 2)
foreign = [
    t for t in other.transitions
    if machine.transition(t.src, t.inp) != t
]
try:
    greedy_rural_transitions(machine, foreign)
except ValueError as exc:
    print(exc)
"""

    def test_foreign_transition_error_independent_of_hash_seed(self):
        """``required`` is validated in argument order, so the error
        names its first foreign transition whatever the hash seed."""
        messages = [
            _run_with_hash_seed(self.FOREIGN_SCRIPT, hash_seed)
            for hash_seed in ("0", "3")
        ]
        assert messages[0] == messages[1] == (
            "required transition Transition(src='s0', inp='i1', "
            "out='o0', dst='s0') not in random\n"
        )

    def test_rural_cheaper_than_full_tour(self, abp):
        required = [abp.transitions[0]]
        walk = greedy_rural_transitions(abp, required)
        full = chinese_postman_transitions(abp)
        assert len(walk) <= len(full)


class TestTourgen:
    def test_transition_tour_cpp(self, any_model):
        tour = transition_tour(any_model, method="cpp")
        assert tour.covers_transitions(any_model)
        assert tour.method == "cpp"
        assert len(tour) == len(tour.inputs) == len(tour.transitions)

    def test_transition_tour_greedy(self, any_model):
        tour = transition_tour(any_model, method="greedy")
        assert tour.covers_transitions(any_model)

    def test_unknown_method_rejected(self, counter3):
        with pytest.raises(ValueError):
            transition_tour(counter3, method="magic")

    def test_tour_outputs_match_machine(self, fig2_machine):
        tour = transition_tour(fig2_machine)
        assert tour.outputs(fig2_machine) == fig2_machine.output_sequence(
            tour.inputs
        )

    def test_state_tour_visits_all_states(self, any_model):
        walk = state_tour(any_model)
        assert walk.covers_states(any_model)

    def test_state_tour_usually_shorter(self, abp):
        assert len(state_tour(abp)) < len(transition_tour(abp))

    def test_random_tour_reproducible(self, fig2_machine):
        t1 = random_tour(fig2_machine, 50, seed=7)
        t2 = random_tour(fig2_machine, 50, seed=7)
        assert t1.inputs == t2.inputs
        t3 = random_tour(fig2_machine, 50, seed=8)
        assert t1.inputs != t3.inputs

    def test_inputs_induce_recorded_transitions(self, any_model):
        tour = transition_tour(any_model)
        assert tuple(any_model.trace(tour.inputs)) == tour.transitions


class TestCheckingTour:
    def test_checking_tour_covers_transitions(self, counter3):
        tour = checking_tour(counter3)
        assert tour.covers_transitions(counter3)
        assert tour.method == "checking"

    def test_checking_tour_longer_than_plain(self, counter3):
        plain = transition_tour(counter3)
        checking = checking_tour(counter3)
        assert len(checking) >= len(plain)

    def test_checking_tour_catches_fig2_fault(self, fig2):
        """The conformance-theory contrast: UIO confirmation detects
        the transfer error that the bare tour can miss."""
        machine, fault = fig2
        from repro.faults.simulate import detect_fault

        tour = checking_tour(machine)
        assert detect_fault(machine, fault, tour.inputs).detected

    def test_unreachable_state_needs_no_uio(self):
        """A state the walk never reaches needs no UIO: an unreachable
        copy of state 0 (so neither has a UIO in the whole machine)
        leaves the tour of the reachable part unchanged."""
        machine = counter(2)
        for t in list(machine.transitions):
            if t.src == 0:
                machine.add_transition("x", t.inp, t.out, t.dst)
        tour = checking_tour(machine)
        reachable = checking_tour(machine.restrict_to_reachable())
        assert len(tour) == 20
        assert tour.transitions == reachable.transitions

    #: A random machine none of whose states has a UIO.
    NO_UIO_SCRIPT = """
import random
from repro.core.generate import random_mealy
from repro.tour import PostmanError, checking_tour

try:
    checking_tour(random_mealy(random.Random(13), 3, 2, 2))
except PostmanError as exc:
    print(exc)
"""

    def test_no_uio_error_independent_of_hash_seed(self):
        """The error names the first state in ``repr`` order that has
        no UIO, whatever order the state set iterates in."""
        messages = [
            _run_with_hash_seed(self.NO_UIO_SCRIPT, hash_seed)
            for hash_seed in ("0", "1")
        ]
        assert messages[0] == messages[1] == (
            "random: state 's0' has no UIO sequence of length <= 8; "
            "checking tour inapplicable\n"
        )
