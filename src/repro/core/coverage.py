"""Simulation-coverage measures over test models (Sections 1-2).

The methodology selects test sets by their coverage of the *test
model*: every state at least once (state coverage, as in Iwashita et
al.), or every transition at least once (transition coverage, as in Ho
et al. and this paper).  This module measures both for arbitrary input
sequences, provides tour predicates used throughout the tour
generators' test suites, and a streaming tracker for long simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .mealy import Input, MealyMachine, State, Transition


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of a set of items (states or transitions) by a run.

    Attributes
    ----------
    kind:
        ``"state"`` or ``"transition"``.
    covered:
        Items visited by the run.
    total:
        Items that were coverable (reachable states / transitions of
        the reachable part).
    """

    kind: str
    covered: FrozenSet
    total: FrozenSet

    @property
    def fraction(self) -> float:
        """Covered fraction in [0, 1]; vacuously 1.0 for empty totals."""
        if not self.total:
            return 1.0
        return len(self.covered & self.total) / len(self.total)

    @property
    def missed(self) -> FrozenSet:
        """Coverable items the run never reached."""
        return self.total - self.covered

    @property
    def complete(self) -> bool:
        """True iff every coverable item was covered."""
        return not self.missed

    def __str__(self) -> str:
        return (
            f"{self.kind} coverage: {len(self.covered & self.total)}/"
            f"{len(self.total)} ({self.fraction:.1%})"
        )


def reachable_transitions(
    machine: MealyMachine, start: Optional[State] = None
) -> FrozenSet[Transition]:
    """Transitions whose source state is reachable from ``start``."""
    reach = machine.reachable_states(start=start)
    return frozenset(t for t in machine.transitions if t.src in reach)


def state_coverage(
    machine: MealyMachine,
    inputs: Sequence[Input],
    start: Optional[State] = None,
) -> CoverageReport:
    """State coverage achieved by one input sequence.

    Raises :class:`~repro.core.mealy.MealyError` on an undefined step,
    as :meth:`MealyMachine.trace` does.
    """
    root = machine.initial if start is None else start
    visited = {root}
    visited.update(t.dst for t in machine.trace(inputs, start=root))
    return CoverageReport(
        kind="state",
        covered=frozenset(visited),
        total=frozenset(machine.reachable_states(start=root)),
    )


def transition_coverage(
    machine: MealyMachine,
    inputs: Sequence[Input],
    start: Optional[State] = None,
) -> CoverageReport:
    """Transition coverage achieved by one input sequence."""
    tracker = CoverageTracker(machine, start=start)
    tracker.feed_all(inputs)
    return tracker.transition_report()


def is_transition_tour(
    machine: MealyMachine,
    inputs: Sequence[Input],
    start: Optional[State] = None,
) -> bool:
    """True iff ``inputs`` traverses every reachable transition.

    This is the defining property of the test sets the paper generates
    (Section 6.5); every tour generator's output is validated against
    it.
    """
    return transition_coverage(machine, inputs, start=start).complete


def is_state_tour(
    machine: MealyMachine,
    inputs: Sequence[Input],
    start: Optional[State] = None,
) -> bool:
    """True iff ``inputs`` visits every reachable state.

    The weaker coverage criterion of the related work ([18]); used as
    the baseline in the coverage-comparison benchmark.
    """
    return state_coverage(machine, inputs, start=start).complete


class CoverageTracker:
    """Streaming state/transition coverage accumulator.

    The one streaming replay of a test set.  Feed it one input at a
    time (e.g. while replaying a long test set) and query coverage at
    any point without re-walking the sequence.  Besides the covered
    states it keeps, per transition, the ``visit_counts`` (traversals
    so far) and the ``first_visit`` step (1-based) -- steps, not wall
    time, so the record is deterministic.  :func:`transition_coverage`
    and :func:`coverage_profile` run on it;
    :class:`repro.obs.telemetry.CoverageTelemetry` adds snapshots and
    the metrics fold.
    """

    def __init__(self, machine: MealyMachine, start: Optional[State] = None):
        self._machine = machine
        self._state = machine.initial if start is None else start
        self._start = self._state
        self._states: Set[State] = {self._state}
        self._steps = 0
        self.visit_counts: Dict[Transition, int] = {}
        self.first_visit: Dict[Transition, int] = {}

    @property
    def state(self) -> State:
        """The current state of the tracked run."""
        return self._state

    @property
    def steps(self) -> int:
        """Number of inputs consumed so far."""
        return self._steps

    def feed(self, inp: Input) -> Tuple[State, object]:
        """Advance the run by one input; returns (next_state, output)."""
        t = self._machine.transition(self._state, inp)
        if t is None:
            raise ValueError(
                f"{self._machine.name}: undefined step from "
                f"{self._state!r} on {inp!r}"
            )
        self._steps += 1
        count = self.visit_counts.get(t, 0)
        if count == 0:
            self.first_visit[t] = self._steps
        self.visit_counts[t] = count + 1
        self._state = t.dst
        self._states.add(t.dst)
        return t.dst, t.out

    def feed_all(self, inputs: Iterable[Input]) -> None:
        """Advance the run by a whole input sequence."""
        for inp in inputs:
            self.feed(inp)

    def state_report(self) -> CoverageReport:
        """Coverage of reachable states so far."""
        return CoverageReport(
            kind="state",
            covered=frozenset(self._states),
            total=frozenset(self._machine.reachable_states(start=self._start)),
        )

    def transition_report(self) -> CoverageReport:
        """Coverage of reachable transitions so far."""
        return CoverageReport(
            kind="transition",
            covered=frozenset(self.visit_counts),
            total=reachable_transitions(self._machine, start=self._start),
        )


def coverage_profile(
    machine: MealyMachine,
    inputs: Sequence[Input],
    start: Optional[State] = None,
) -> List[Tuple[int, float, float]]:
    """(step, state-coverage, transition-coverage) after each input.

    The saturation curve this produces is how test-set efficiency is
    visualized: a good tour saturates transition coverage in few steps,
    random vectors crawl.  Consumed by the coverage-study example and
    the baseline benchmark.
    """
    tracker = CoverageTracker(machine, start=start)
    n_states = max(1, len(machine.reachable_states(
        start=machine.initial if start is None else start)))
    n_trans = max(1, len(reachable_transitions(
        machine, start=machine.initial if start is None else start)))
    profile: List[Tuple[int, float, float]] = []
    for step, inp in enumerate(inputs, start=1):
        tracker.feed(inp)
        profile.append(
            (
                step,
                len(tracker._states) / n_states,
                len(tracker.visit_counts) / n_trans,
            )
        )
    return profile
