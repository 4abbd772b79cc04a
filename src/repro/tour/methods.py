"""Complete test-suite generators: the W, Wp and HSI methods.

The paper's transition tours are complete only under Requirements 2-5
(forall-k-distinguishability of the test model).  The conformance-
testing literature the paper grew out of offers an alternative family
of guarantees with *no* structural requirement on the specification
beyond minimality and input-completeness: the W method (Chow 1978),
the Wp method (Fujiwara et al. 1991) and the HSI method (Petrenko/
Yevtushenko) each produce a finite suite that is **m-complete** -- it
detects *every* faulty implementation drawn from the fault domain of
deterministic machines with at most ``m`` states, not just single
output/transfer faults.  Modern treatments (Huang/Peleska, complete
requirements-based testing; Vaandrager/Melse, new fault domains --
see PAPERS.md) frame all three as instances of one recipe:

    reach every transition  (transition cover ``P``)
    x  guess up to ``m - n`` extra implementation states (``X``)
    x  identify the state you landed in  (``W`` / ``W_s`` / ``H_s``)

This module implements the recipe with an explicit
:class:`FaultDomain` parameter and returns first-class
:class:`TestSuite` objects that plug into the existing campaign
engine: :meth:`TestSuite.executable` flattens the reset-separated
suite into a single input sequence over a reset-augmented harness
machine, so ``run_campaign`` (any ``--jobs``, either ``--kernel``,
journaled or not) consumes suites exactly like tours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.mealy import Input, MealyMachine, State
from ..core.minimize import minimize
from ..obs import get_registry, span
from ..obs.events import emit_event
from .charset import (
    Sequence_,
    SuiteError,
    access_sequences,
    characterization_set,
    drop_prefixes,
    harmonized_state_identifiers,
    require_complete,
    state_cover,
    state_identifiers,
    transition_cover,
)

#: Reserved input symbol that returns the harness machine (and any
#: mutant of it) to the initial state: the executable encoding of the
#: "reliable reset" every W-family method assumes between test cases.
RESET: Input = "__reset__"

#: The reset transition's output.  Identical from every state, so a
#: reset step can never produce a detection by itself -- exactly the
#: per-sequence reset semantics of the abstract suite.
RESET_OUTPUT = "__reset_ok__"

#: Methods understood by :func:`generate_suite` (and the CLI's
#: ``--suite`` flag; ``"tour"`` is handled by the tour generators).
SUITE_METHODS = ("w", "wp", "hsi")

#: Guard against accidental exponential blow-up of the extra-state
#: extension set X = union of I^0..I^e.
_MAX_EXTENSIONS = 100_000


@dataclass(frozen=True)
class FaultDomain:
    """The fault domain a suite is complete for.

    The domain is the set of all deterministic, input-complete Mealy
    machines over the specification's input alphabet with at most
    ``m`` states, where ``m`` resolves to:

    * ``max_states`` when given, else
    * ``n + extra_states`` with ``n`` the size of the minimized
      specification (``extra_states`` defaults to 0: the classical
      "no more states than the spec" domain, which already subsumes
      every single output/transfer fault the campaign engine injects).
    """

    max_states: Optional[int] = None
    extra_states: int = 0

    def resolve(self, n_states: int) -> int:
        """The concrete ``m`` for a specification with ``n_states``
        (minimized) states; raises :class:`SuiteError` if the domain
        cannot contain the specification itself."""
        m = (
            self.max_states
            if self.max_states is not None
            else n_states + self.extra_states
        )
        if m < n_states:
            raise SuiteError(
                f"fault domain max_states={m} is smaller than the "
                f"minimized specification ({n_states} states); no "
                f"implementation in the domain is equivalent to the spec"
            )
        return m


@dataclass(frozen=True)
class ExecutableSuite:
    """A suite lowered onto the campaign engine's native interface.

    Attributes
    ----------
    machine:
        The reset-augmented harness machine (specification plus a
        ``RESET`` input from every state back to the initial state).
    inputs:
        The whole suite as one flat input sequence, test cases
        separated by ``RESET``.
    faults:
        The specification's single-fault population, expressed on
        sites the harness machine shares with the specification --
        reset transitions are never faulted.
    """

    machine: MealyMachine
    inputs: Tuple[Input, ...]
    faults: Tuple[object, ...]


@dataclass(frozen=True)
class TestSuite:
    """A complete test suite with its provenance.

    Attributes
    ----------
    machine_name:
        The specification the suite was generated for.
    method:
        ``"w"``, ``"wp"`` or ``"hsi"``.
    m:
        The resolved fault-domain bound: the suite detects every
        non-equivalent implementation with at most ``m`` states.
    spec_states:
        Size of the minimized specification (``n``); ``m - n`` is the
        number of extra implementation states the suite guards against.
    sequences:
        The test cases, each applied from the initial state after a
        reset, in deterministic (length, repr) order.
    """

    machine_name: str
    method: str
    m: int
    spec_states: int
    sequences: Tuple[Sequence_, ...] = field(repr=False)

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)

    @property
    def total_inputs(self) -> int:
        """Input steps across all test cases, resets excluded."""
        return sum(len(s) for s in self.sequences)

    @property
    def total_steps(self) -> int:
        """Length of the flattened suite (inputs plus separating
        resets) -- the campaign-comparable test-set length."""
        return self.total_inputs + max(0, self.num_sequences - 1)

    def __len__(self) -> int:
        return self.total_steps

    def flat_inputs(self, reset: Input = RESET) -> Tuple[Input, ...]:
        """All test cases joined into one sequence, ``reset``-separated."""
        flat: List[Input] = []
        for i, seq in enumerate(self.sequences):
            if i:
                flat.append(reset)
            flat.extend(seq)
        return tuple(flat)

    def detects(self, spec: MealyMachine, impl: MealyMachine) -> bool:
        """Abstract (per-sequence, reset-between) detection verdict.

        Runs every test case from both machines' initial states and
        compares outputs step by step; an undefined implementation
        step counts as a detection.  This is the reference semantics
        the flattened harness replay is differentially tested against.
        """
        from ..faults.simulate import compare_runs

        return any(
            compare_runs(spec, impl, seq).detected
            for seq in self.sequences
        )

    def executable(
        self, spec: MealyMachine, reset: Input = RESET
    ) -> ExecutableSuite:
        """Lower the suite onto the campaign engine.

        Returns the reset-augmented harness machine, the flat input
        sequence, and the specification's single-fault population
        (the faults' sites all exist on the harness, and the added
        reset transitions are never faulted).  Because the reset
        transition behaves identically in the specification and in
        every mutant, replaying the flat sequence on the harness
        yields verdicts identical to applying the test cases one by
        one with resets in between.
        """
        from ..faults.inject import all_single_faults

        harness = reset_harness(spec, reset=reset)
        return ExecutableSuite(
            machine=harness,
            inputs=self.flat_inputs(reset=reset),
            faults=tuple(all_single_faults(spec)),
        )

    def to_json_dict(self) -> dict:
        """Suite summary for ``--json`` output and benchmarks."""
        return {
            "machine": self.machine_name,
            "method": self.method,
            "fault_domain_max_states": self.m,
            "spec_states": self.spec_states,
            "extra_states": self.m - self.spec_states,
            "sequences": self.num_sequences,
            "total_inputs": self.total_inputs,
            "total_steps": self.total_steps,
        }

    def __str__(self) -> str:
        return (
            f"{self.method} suite for {self.machine_name}: "
            f"{self.num_sequences} test cases, {self.total_inputs} "
            f"inputs ({self.total_steps} steps flattened), complete "
            f"for implementations with <= {self.m} states"
        )


def reset_harness(
    spec: MealyMachine, reset: Input = RESET
) -> MealyMachine:
    """The specification plus a reliable reset input.

    Adds a ``reset`` transition from every state to the initial state,
    all emitting :data:`RESET_OUTPUT`; everything else is copied
    verbatim.  Raises :class:`SuiteError` when the reset symbol
    collides with the specification's input alphabet.
    """
    if reset in spec.inputs:
        raise SuiteError(
            f"{spec.name}: reset symbol {reset!r} collides with the "
            f"input alphabet; pass a different reset token"
        )
    harness = spec.copy(name=spec.name + "+reset")
    for s in sorted(spec.states, key=repr):
        harness.add_transition(s, reset, RESET_OUTPUT, spec.initial)
    return harness


def canonical_minimal(machine: MealyMachine) -> MealyMachine:
    """The minimized reachable quotient with stable integer states.

    Suite construction happens on this machine: it is trace-equivalent
    to the input (so every generated input sequence means the same
    thing on the original), minimal (so characterization sets exist),
    and relabelled ``0..n-1`` in the order of its
    :func:`~repro.tour.charset.access_sequences` (breadth-first over
    sorted inputs) -- which makes the derived suites byte-identical
    across processes regardless of ``PYTHONHASHSEED``.
    """
    reach = machine.restrict_to_reachable()
    require_complete(reach)
    mini = minimize(reach)
    order = {s: i for i, s in enumerate(access_sequences(mini))}
    return mini.rename_states(order.__getitem__)


def _extension_set(
    machine: MealyMachine, extra: int
) -> Tuple[Sequence_, ...]:
    """``X``: every input sequence of length 0..``extra``.

    The traversal set that flushes out implementations hiding up to
    ``extra`` states beyond the specification's.
    """
    inputs = sorted(machine.inputs, key=repr)
    total = sum(len(inputs) ** j for j in range(extra + 1))
    if total > _MAX_EXTENSIONS:
        raise SuiteError(
            f"{machine.name}: extension set for {extra} extra states "
            f"has {total} sequences (> {_MAX_EXTENSIONS}); shrink the "
            f"fault domain"
        )
    ext: List[Sequence_] = []
    for j in range(extra + 1):
        ext.extend(itertools.product(inputs, repeat=j))
    return tuple(ext)


def _identified(
    machine: MealyMachine,
    prefixes: Iterable[Sequence_],
    ext: Sequence[Sequence_],
    families: Mapping[State, Sequence[Sequence_]],
) -> List[Sequence_]:
    """``prefixes . ext``, each followed by every identifier of the
    state it reaches (``families[state]``); one that reaches a state
    with no identifiers is kept alone."""
    raw: List[Sequence_] = []
    for p in prefixes:
        for x in ext:
            _outs, dst = machine.run(p + x)
            family = families[dst]
            if family:
                raw.extend(p + x + w for w in family)
            else:
                raw.append(p + x)
    return raw


def _finish(
    machine_name: str,
    method: str,
    m: int,
    n: int,
    raw: Sequence[Sequence_],
) -> TestSuite:
    suite = TestSuite(
        machine_name=machine_name,
        method=method,
        m=m,
        spec_states=n,
        sequences=drop_prefixes(s for s in raw if s),
    )
    reg = get_registry()
    if reg.enabled:
        reg.gauge(
            "suite.total_steps", model=machine_name, method=method
        ).set(suite.total_steps)
        reg.gauge(
            "suite.sequences", model=machine_name, method=method
        ).set(suite.num_sequences)
        reg.counter("suite.generated_total", method=method).inc()
    return suite


def w_method(
    machine: MealyMachine, domain: FaultDomain = FaultDomain()
) -> TestSuite:
    """The W method: ``P . X . W``.

    Every member of the transition cover, extended by every sequence
    of up to ``m - n`` inputs, followed by every member of the
    characterization set.  Complete for ``domain`` (Chow's theorem):
    any deterministic implementation with at most ``m`` states that is
    not trace-equivalent to the specification fails some test case.
    """
    with span("suite.generate", model=machine.name, method="w") as sp:
        mini = canonical_minimal(machine)
        n = len(mini)
        m = domain.resolve(n)
        cover = transition_cover(mini)
        ext = _extension_set(mini, m - n)
        w_set = characterization_set(mini)
        raw = _identified(
            mini, cover, ext, dict.fromkeys(mini.states, w_set)
        )
        suite = _finish(machine.name, "w", m, n, raw)
        sp.set(sequences=suite.num_sequences, steps=suite.total_steps)
    return suite


def wp_method(
    machine: MealyMachine, domain: FaultDomain = FaultDomain()
) -> TestSuite:
    """The Wp method: full ``W`` on the state cover, per-state
    identifiers on the remaining transitions.

    Phase 1 (``Q . X . W``) verifies that every specification state
    exists and is reached by its access sequence; phase 2
    (``(P - Q) . X . W_s``) checks every transition and identifies its
    destination with the destination's own identification set only --
    shorter than the W method, same fault domain (Fujiwara et al.).
    """
    with span("suite.generate", model=machine.name, method="wp") as sp:
        mini = canonical_minimal(machine)
        n = len(mini)
        m = domain.resolve(n)
        q_cover = state_cover(mini)
        p_cover = transition_cover(mini)
        ext = _extension_set(mini, m - n)
        w_set = characterization_set(mini)
        idents = state_identifiers(mini, charset=w_set)
        raw = _identified(
            mini, q_cover, ext, dict.fromkeys(mini.states, w_set)
        )
        q_set = set(q_cover)
        raw += _identified(
            mini, [r for r in p_cover if r not in q_set], ext, idents
        )
        suite = _finish(machine.name, "wp", m, n, raw)
        sp.set(sequences=suite.num_sequences, steps=suite.total_steps)
    return suite


def suite_outputs(
    suite: TestSuite, spec: MealyMachine
) -> Tuple[Tuple[object, ...], ...]:
    """Expected (specification) outputs per test case -- the oracle a
    simulator compares implementation outputs against."""
    return tuple(spec.output_sequence(seq) for seq in suite.sequences)


def hsi_method(
    machine: MealyMachine, domain: FaultDomain = FaultDomain()
) -> TestSuite:
    """The HSI method: ``P . X . H_s`` with harmonized identifiers.

    Every transition-cover member (the state cover included) is
    extended and then followed by the harmonized identifier family of
    the state it reaches.  Harmonization -- any two families share a
    separating sequence for their pair -- is what keeps the suite
    m-complete even though no state ever answers the full ``W``
    (Petrenko/Yevtushenko; the construction HSI shares with the
    SPY/H-style methods of the related work).
    """
    with span("suite.generate", model=machine.name, method="hsi") as sp:
        mini = canonical_minimal(machine)
        n = len(mini)
        m = domain.resolve(n)
        p_cover = transition_cover(mini)
        ext = _extension_set(mini, m - n)
        raw = _identified(
            mini, p_cover, ext, harmonized_state_identifiers(mini)
        )
        suite = _finish(machine.name, "hsi", m, n, raw)
        sp.set(sequences=suite.num_sequences, steps=suite.total_steps)
    return suite


_GENERATORS = {
    "w": w_method,
    "wp": wp_method,
    "hsi": hsi_method,
}


def generate_suite(
    machine: MealyMachine,
    method: str,
    domain: FaultDomain = FaultDomain(),
) -> TestSuite:
    """Dispatch to :func:`w_method` / :func:`wp_method` /
    :func:`hsi_method` by name (the CLI's ``--suite`` values)."""
    gen = _GENERATORS.get(method)
    if gen is None:
        raise ValueError(
            f"unknown suite method {method!r}: expected one of "
            f"{SUITE_METHODS}"
        )
    suite = gen(machine, domain=domain)
    emit_event(
        "suite.generated",
        machine=machine.name,
        method=method,
        m=suite.m,
        sequences=suite.num_sequences,
        steps=suite.total_steps,
    )
    return suite
