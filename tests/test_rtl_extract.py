"""Explicit extraction (repro.rtl.extract): pinned results and bounds.

The pins fix what extraction returns on real netlists -- the bundled
corpus BLIFs and the synthesized protocol models -- down to the order
transitions were added in: ``machine_fingerprint`` keys the corpus
result store, and tours walk ``_delta``/``_succ`` in insertion order.
The packed (token-labelled) form must decode to the plain one, and
``max_states`` must admit exactly the states it names in every entry
point.

The search steps a narrow queue one state at a time and a wide one on
lane words.  Each regime, forced, must give what a breadth-first
search over the interpreting :meth:`~repro.rtl.netlist.Netlist.step`
gives, in the same order, and hold every pin.
"""

import contextlib
import hashlib
import os
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.mealy import MealyMachine
from repro.corpus import PROTOCOL_MODELS
from repro.corpus.synth import machine_to_netlist
from repro.parallel import machine_fingerprint
from repro.rtl import Netlist, mux, not_, remove_outputs, xor_
from repro.rtl import extract as extract_module
from repro.rtl.blif import load_blif
from repro.rtl.extract import (
    ExtractionError,
    PackedMachine,
    assignment_key,
    extract_mealy,
    input_assignments,
    reachable_state_count,
    state_key,
)
from tests.test_rtl_compile import (
    combinational,
    free_running,
    random_netlist,
    silent,
)
from tests.test_rtl_netlist import counter_netlist

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "corpus"
)


def walk_order_netlist():
    """Input ``x`` low steps (a, b) through 00 -> 11 -> 01 -> 10 -> 00,
    high holds: the packed walk (states in value order) meets 01 before
    any transition has numbered it, and its first successor is new."""
    net = Netlist("walk-order")
    x = net.add_input("x")
    a = net.add_register("a")
    b = net.add_register("b")
    net.set_next("a", mux(x, a, not_(a)))
    net.set_next("b", mux(x, b, not_(xor_(a, b))))
    net.add_output("o", xor_(a, b))
    return net


def shift_netlist():
    """Input ``x`` through registers ``a`` then ``b`` to output ``o``:
    the search's queue holds one state, then one, then two, so a search
    that goes wide at four waiting pairs first steps two states one at
    a time, and its word passes meet their states and outputs again."""
    net = Netlist("shift")
    x = net.add_input("x")
    a = net.add_register("a", next=x)
    b = net.add_register("b", next=a)
    net.add_output("o", b)
    return net


def pinned_cases():
    """name -> (netlist, extract_mealy keyword arguments): the
    sequential BLIFs of the bundled corpus and the four protocol models
    encoded as netlists, over all their inputs, plus a counter driven
    by caller vectors with an extra key and a duplicate (input labels
    are the callers' own vectors), and one packed extraction whose
    numbering depends on the order of the packed walk."""
    cases = {}
    for base in sorted(os.listdir(CORPUS_DIR)):
        if base.endswith(".blif"):
            net = load_blif(os.path.join(CORPUS_DIR, base))
            if net.latch_count():
                cases[base] = (net, {})
    for name in sorted(PROTOCOL_MODELS):
        net = machine_to_netlist(PROTOCOL_MODELS[name]()).netlist
        cases[name] = (net, {})
    vectors = [{"en": True, "tag": 1}, {"en": False}, {"en": True, "tag": 1}]
    cases["ctr3-vectors"] = (counter_netlist(3), {"inputs": vectors})
    cases["walk-order-packed"] = (walk_order_netlist(), {"packed": True})
    return cases


def insertion_digest(machine):
    """SHA-256 of a machine's initial state, its transitions in the
    order they were added, and each state's successor order."""
    h = hashlib.sha256()
    parts = [repr(machine.initial)]
    parts.extend(map(repr, machine._delta.values()))
    parts.extend(
        repr((state, tuple(row))) for state, row in machine._succ.items()
    )
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


#: name -> (machine_fingerprint, insertion_digest) of ``extract_mealy``.
PINNED = {
    "gray2.blif": (
        "30e9e7c71ce02ca3541c9cf80d813a57fe627867c6fddffca0980071ea2e5943",
        "8d378184c0a75fcb9a79a630e73021881e85d3477d2a409679935f6fae6175dd",
    ),
    "handshake.blif": (
        "adaefecf747cea1a37c800e79599894f1533bfcecc6dbc88778478c260a100ee",
        "4c020808fa222118ce2df9658a17021397c18b927f4ee162d40b05b85c8e6a05",
    ),
    "toggle.blif": (
        "3466a329d1381ae95b1021907475507da0f0bf4bca52c5df43708af20cab127c",
        "5fc6aece73ffa725f99ff74e89e0912f61121862c82777093aab84e8d7e8a22f",
    ),
    "i2c-master": (
        "6d30748785543efc70885d1e3cb3200ec8cdf2040fefce5454b7ef576f23e718",
        "4b39a5b3c4e205b0f10ee659e5e7a01a2092acb5da65d85c7f69307f7fe2fd29",
    ),
    "i2c-slave": (
        "7abd741ce57d5bc591d0e8d5d3db06ce05899a889323de7c43dd612fd965d1e6",
        "df379360b94e58e60a0323b71ade82640ad1ed4fd3f9ed2bbbd3933b0cb1a0bd",
    ),
    "mesi": (
        "91cde19065fbba2e47a13552eac146c0153bcd7e9e516e3cf14673b5e44e8b35",
        "573244cc79604258642020a1582f5d53102fe23e7cb46546eeea6c066dc28e24",
    ),
    "tcp": (
        "32b78706aa5f5e7dd8e18ff7921a9882050ff66c310ce0c79006909e2e3416ad",
        "8e4284335dbb566027e9480111168557ce391b174f689104fb6c91240e9a1ecc",
    ),
    "ctr3-vectors": (
        "34339185c865697e504c224a1211a23daef40770cf3bf6de2fa8e1f8c8585c02",
        "18f085ae376b7345e9b7f45730a94605d83b09c7e5704b010a906d7485d756a4",
    ),
    "walk-order-packed": (
        "bec343c8a37c92a195b48a8d728cf733afdb541d6a4348ea6984011bf8aebb4e",
        "75eb22868050a6b9329648788248af89893c770d823a5dadf90414a50072b1b6",
    ),
}


@pytest.fixture(scope="module")
def cases():
    return pinned_cases()


def test_pins_cover_every_case(cases):
    assert sorted(cases) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_extraction_is_pinned(cases, name):
    net, kwargs = cases[name]
    machine = extract_mealy(net, **kwargs)
    assert (
        machine_fingerprint(machine), insertion_digest(machine)
    ) == PINNED[name]


def assert_packed_decodes_to_plain(net):
    """The packed machine, decoded through its tables, is the plain
    machine: walk both from their initial states in lockstep."""
    plain = extract_mealy(net)
    packed = extract_mealy(net, packed=True)
    assert isinstance(packed, PackedMachine)
    assert packed.initial == 0
    assert sorted(packed.states) == list(range(len(plain)))
    assert packed.num_transitions() == plain.num_transitions()
    assert sorted(packed.output_values) == list(
        range(len(packed.output_values))
    )
    image = {packed.initial: plain.initial}
    walk = [packed.initial]
    for state in walk:  # grows as the walk reaches new states
        for t in packed.transitions_from(state):
            key = assignment_key(packed.input_vectors[t.inp])
            want = plain.transition(image[state], key)
            outs = dict(zip(net.output_names, packed.output_values[t.out]))
            assert dict(want.out) == outs
            if t.dst not in image:
                image[t.dst] = want.dst
                walk.append(t.dst)
            assert image[t.dst] == want.dst
    assert len(set(image.values())) == len(image) == len(plain)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_inputs=st.integers(0, 3),
    n_regs=st.integers(1, 5),
)
def test_count_and_packed_agree_with_extraction(seed, n_inputs, n_regs):
    net = random_netlist(random.Random(seed), n_inputs=n_inputs, n_regs=n_regs)
    assert reachable_state_count(net) == len(extract_mealy(net))
    assert_packed_decodes_to_plain(net)


def test_packed_decodes_on_pinned_netlists(cases):
    for name, (net, kwargs) in cases.items():
        if not kwargs:
            assert_packed_decodes_to_plain(net)


def test_packed_decode_tables_are_pinned():
    machine = extract_mealy(walk_order_netlist(), packed=True)
    assert machine.input_vectors == {"i0": {"x": False}, "i1": {"x": True}}
    assert machine.output_values == {0: (False,), 1: (True,)}


def test_input_free_netlist_extracts():
    net = free_running()
    machine = extract_mealy(net)
    assert (len(machine), machine.num_transitions()) == (2, 2)
    assert machine.inputs == {()}


ENTRY_POINTS = {
    "plain": lambda net, bound: len(extract_mealy(net, max_states=bound)),
    "packed": lambda net, bound: len(
        extract_mealy(net, max_states=bound, packed=True)
    ),
    "count": lambda net, bound: reachable_state_count(net, max_states=bound),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_max_states_admits_exactly_its_bound(entry):
    """A netlist with N reachable states passes at ``max_states=N`` and
    raises at N - 1, with one message for every entry point."""
    extract = ENTRY_POINTS[entry]
    net = counter_netlist(3)
    assert extract(net, 8) == 8
    with pytest.raises(ExtractionError, match="more than 7 reachable states"):
        extract(net, 7)


#: name -> (``_WIDE_PAIRS``, ``_WORD_LANES``): the search's two regimes,
#: each forced, the wide one on words of at most three lanes, and a
#: narrow stretch until four pairs wait, then word passes of at most
#: four lanes.
REGIMES = {
    "narrow": (sys.maxsize, extract_module._WORD_LANES),
    "wide": (1, extract_module._WORD_LANES),
    "tiny-words": (1, 3),
    "switch": (4, 4),
}


@contextlib.contextmanager
def regime(name):
    """Force a regime of the search; yields the lane count of every
    word pass made meanwhile."""
    pairs, lanes = REGIMES[name]
    passes = []
    word_pass = extract_module._word_pass

    def counted(words, chunk, vectors, n_inputs):
        passes.append(len(chunk) * len(vectors))
        return word_pass(words, chunk, vectors, n_inputs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extract_module, "_WIDE_PAIRS", pairs)
        patch.setattr(extract_module, "_WORD_LANES", lanes)
        patch.setattr(extract_module, "_word_pass", counted)
        yield passes


def interpreted(net, vectors):
    """The reachable machine by a breadth-first search over the
    interpreter, labelled and built in the order ``extract_mealy``
    documents: states in order of discovery, each with its inputs in
    the caller's order (duplicates once)."""
    keys = list(dict.fromkeys(map(assignment_key, vectors)))
    reset = {name: reg.init for name, reg in net.registers.items()}
    machine = MealyMachine(state_key(reset), name=net.name + "-fsm")
    queue, seen = [reset], {state_key(reset)}
    for state in queue:  # grows as the search discovers states
        for key in keys:
            nxt, out = net.step(state, dict(key))
            if state_key(nxt) not in seen:
                seen.add(state_key(nxt))
                queue.append(nxt)
            machine.add_transition(
                state_key(state), key, assignment_key(out), state_key(nxt)
            )
    return machine


def numbered(plain, net):
    """``plain`` numbered as ``packed=True`` documents: the reset state
    0, then each transition's state, input, output and successor on
    first appearance, over the transitions in ``repr`` order of their
    (register-value tuple, input key).  Returns the machine and its two
    decode tables."""
    def values(state):
        return tuple(dict(state)[name] for name in net.register_names)

    order = sorted(
        plain._delta.values(), key=lambda t: repr((values(t.src), t.inp))
    )
    states, inputs, outputs = {plain.initial: 0}, {}, {}
    machine = MealyMachine(0)
    for t in order:
        machine.add_transition(
            states.setdefault(t.src, len(states)),
            inputs.setdefault(t.inp, f"i{len(inputs)}"),
            outputs.setdefault(t.out, len(outputs)),
            states.setdefault(t.dst, len(states)),
        )
    input_vectors = {label: dict(key) for key, label in inputs.items()}
    output_values = {
        token: tuple(dict(out)[name] for name in net.output_names)
        for out, token in outputs.items()
    }
    return machine, input_vectors, output_values


def assert_regime_matches_interpreter(net, vectors, name):
    """Plain and packed extraction and the state count, in regime
    ``name``, against the interpreter's search; ``vectors`` None means
    every input assignment.  The forced regime must have run."""
    want = interpreted(net, input_assignments(net) if vectors is None else vectors)
    machine, input_vectors, output_values = numbered(want, net)
    with regime(name) as passes:
        plain = extract_mealy(net, inputs=vectors)
        packed = extract_mealy(net, inputs=vectors, packed=True)
        count = reachable_state_count(net, inputs=vectors)
        reachable_state_count(net, inputs=vectors, max_states=len(want))
        if len(want) > 1:
            with pytest.raises(ExtractionError):
                reachable_state_count(
                    net, inputs=vectors, max_states=len(want) - 1
                )
    assert plain == want
    assert insertion_digest(plain) == insertion_digest(want)
    assert repr(plain.transitions) == repr(want.transitions)
    assert insertion_digest(packed) == insertion_digest(machine)
    assert packed.states == machine.states
    assert packed.inputs == machine.inputs
    assert packed.outputs == machine.outputs
    assert repr(packed.input_vectors) == repr(input_vectors)
    assert repr(packed.output_values) == repr(output_values)
    assert count == len(want)
    if name == "narrow" or not want.num_transitions():
        assert passes == []
    elif name != "switch":
        assert passes
    if name in ("tiny-words", "switch"):
        assert max(passes, default=0) <= max(4, len(want.inputs))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_inputs=st.integers(0, 3),
    n_regs=st.integers(0, 4),
    n_outputs=st.integers(0, 2),
    data=st.data(),
)
def test_every_regime_matches_the_interpreter(
    seed, n_inputs, n_regs, n_outputs, data
):
    """Random netlists under random subsets of their input cube, in
    random order with repeats, as bools or as 0 and 1 -- or the whole
    cube."""
    assume(n_inputs + n_regs)
    net = random_netlist(random.Random(seed), n_inputs=n_inputs, n_regs=n_regs)
    net = remove_outputs(net, net.output_names[n_outputs:])
    cube = input_assignments(net)
    picks = data.draw(
        st.none() | st.lists(st.sampled_from(cube), max_size=2 * len(cube))
    )
    vectors = picks
    if picks is not None and data.draw(st.booleans()):
        vectors = [{k: int(v) for k, v in vec.items()} for vec in picks]
    for name in sorted(REGIMES):
        assert_regime_matches_interpreter(net, vectors, name)


FIXED = {
    "no-inputs": free_running,
    "no-registers": combinational,
    "no-outputs": silent,
    "ctr3": lambda: counter_netlist(3),
    "walk-order": walk_order_netlist,
    "shift": shift_netlist,
}


@pytest.mark.parametrize("vectors", ["all", "empty"])
@pytest.mark.parametrize("net", sorted(FIXED))
@pytest.mark.parametrize("name", sorted(REGIMES))
def test_fixed_netlists_match_the_interpreter(name, net, vectors):
    """Every input assignment, and ``inputs=[]``, which leaves the
    reset state alone, with no transition."""
    assert_regime_matches_interpreter(
        FIXED[net](), None if vectors == "all" else [], name
    )


def test_switch_steps_narrow_then_wide():
    """The switch regime on the shift register runs both regimes, in
    turn, as the differential above relies on."""
    with regime("switch") as passes:
        machine = extract_mealy(shift_netlist())
    assert passes
    assert sum(passes) < machine.num_transitions()


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_pins_hold_in_each_regime(cases, name):
    for case, (net, kwargs) in sorted(cases.items()):
        with regime(name):
            machine = extract_mealy(net, **kwargs)
        assert (
            machine_fingerprint(machine), insertion_digest(machine)
        ) == PINNED[case], case


@pytest.mark.parametrize("name", sorted(REGIMES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_max_states_bound_holds_in_each_regime(entry, name):
    with regime(name) as passes:
        test_max_states_admits_exactly_its_bound(entry)
    assert bool(passes) == (name not in ("narrow", "switch"))


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_labels_are_bools_whatever_the_vectors_hold(name):
    """As :meth:`Netlist.step` reads its inputs: a register and an
    output that follow input ``x`` hold bools, while the input labels
    keep the caller's values."""
    net = Netlist("follow")
    x = net.add_input("x")
    net.add_register("r", next=x)
    net.add_output("o", x)
    vectors = [{"x": 1}, {"x": 0}, {"x": 2}]
    with regime(name):
        plain = extract_mealy(net, inputs=vectors)
        packed = extract_mealy(net, inputs=vectors, packed=True)
    assert sorted(map(repr, plain.states)) == [
        "(('r', False),)", "(('r', True),)"
    ]
    assert sorted(map(repr, plain.outputs)) == [
        "(('o', False),)", "(('o', True),)"
    ]
    assert sorted(map(repr, plain.inputs)) == [
        "(('x', 0),)", "(('x', 1),)", "(('x', 2),)"
    ]
    assert packed.output_values == {0: (False,), 1: (True,)}
    assert repr(packed.output_values) == "{0: (False,), 1: (True,)}"
