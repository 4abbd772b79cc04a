"""Live coverage telemetry for tour replay and fault campaigns.

:class:`CoverageTelemetry` is :class:`repro.core.coverage.CoverageTracker`
-- the one streaming replay, with its **per-transition visit counts**
and **first-visit step indices** (steps, not wall time, so the record
is deterministic and survives the jobs=1 vs jobs=N differential
comparison) -- plus incremental
:class:`~repro.core.coverage.CoverageReport` snapshots emitted while
the replay is still running.

:meth:`CoverageTelemetry.finalize` folds the accumulated telemetry
into the metrics registry:

* ``coverage.transitions_total`` / ``coverage.transitions_covered``
  gauges and the ``coverage.fraction`` gauge;
* a ``coverage.visit_count`` histogram (how evenly the test set
  spreads over the transition relation -- a tour visits everything at
  least once, random vectors pile onto hot edges);
* a ``coverage.first_visit_step`` histogram (how fast coverage
  saturates -- the streaming analogue of the saturation curve in
  :func:`repro.core.coverage.coverage_profile`).

Detection latencies (the paper's Requirement 2 ``k``-bound made
empirical) are folded in by :func:`record_detection_latencies`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..core.coverage import (
    CoverageReport,
    CoverageTracker,
    reachable_transitions,
)
from ..core.mealy import Input, MealyMachine, State
from .events import emit_event
from .metrics import STEP_BUCKETS, MetricsRegistry, get_registry


class CoverageTelemetry(CoverageTracker):
    """A :class:`~repro.core.coverage.CoverageTracker` that also
    records coverage snapshots and folds into the metrics registry.

    Parameters
    ----------
    machine:
        The test model being replayed.
    start:
        Start state (default: the machine's initial state).
    snapshot_every:
        When > 0, a :class:`CoverageReport` snapshot is recorded (and
        a ``coverage.snapshot`` event emitted) every that many steps.
    """

    def __init__(
        self,
        machine: MealyMachine,
        start: Optional[State] = None,
        snapshot_every: int = 0,
    ) -> None:
        super().__init__(machine, start=start)
        self._snapshot_every = snapshot_every
        self.snapshots: List[Tuple[int, CoverageReport]] = []
        self._total = reachable_transitions(machine, start=self._start)

    def feed(self, inp: Input) -> Tuple[State, object]:
        """Advance the replay by one input; returns (state, output)."""
        moved = super().feed(inp)
        if (
            self._snapshot_every
            and self._steps % self._snapshot_every == 0
        ):
            self._take_snapshot()
        return moved

    def snapshot(self) -> CoverageReport:
        """Transition coverage achieved so far."""
        return CoverageReport(
            kind="transition",
            covered=frozenset(self.visit_counts),
            total=self._total,
        )

    def _take_snapshot(self) -> None:
        report = self.snapshot()
        self.snapshots.append((self._steps, report))
        # Step-indexed, so deterministic across jobs/kernel.
        emit_event(
            "coverage.snapshot",
            model=self._machine.name,
            step=self._steps,
            covered=len(report.covered & report.total),
            total=len(report.total),
            fraction=round(report.fraction, 6),
        )

    def finalize(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "coverage",
    ) -> CoverageReport:
        """Record the accumulated telemetry as metrics; returns the
        final coverage report."""
        reg = get_registry() if registry is None else registry
        report = self.snapshot()
        if reg.enabled:
            model = self._machine.name
            reg.gauge(f"{prefix}.transitions_total", model=model).set(
                len(report.total)
            )
            reg.gauge(f"{prefix}.transitions_covered", model=model).set(
                len(report.covered & report.total)
            )
            reg.gauge(f"{prefix}.fraction", model=model).set(
                round(report.fraction, 6)
            )
            reg.gauge(f"{prefix}.steps", model=model).set(self._steps)
            visits = reg.histogram(
                f"{prefix}.visit_count", buckets=STEP_BUCKETS, model=model
            )
            firsts = reg.histogram(
                f"{prefix}.first_visit_step",
                buckets=STEP_BUCKETS,
                model=model,
            )
            # Iterate in deterministic (repr) order so float sums are
            # reproducible bit-for-bit.
            for t in sorted(self.visit_counts, key=repr):
                visits.observe(self.visit_counts[t])
            for t in sorted(self.first_visit, key=repr):
                firsts.observe(self.first_visit[t])
        return report


def replay_with_telemetry(
    machine: MealyMachine,
    inputs: Sequence[Input],
    start: Optional[State] = None,
    snapshot_every: int = 0,
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "coverage",
) -> CoverageTelemetry:
    """Replay ``inputs`` through a :class:`CoverageTelemetry` and
    finalize it into the registry; returns the telemetry object."""
    telemetry = CoverageTelemetry(
        machine, start=start, snapshot_every=snapshot_every
    )
    telemetry.feed_all(inputs)
    telemetry.finalize(registry=registry, prefix=prefix)
    return telemetry


def record_detection_latencies(
    latencies_by_class: Mapping[str, Sequence[int]],
    registry: Optional[MetricsRegistry] = None,
    name: str = "campaign.detection_latency_steps",
) -> None:
    """Record per-fault-class detection latencies (in steps).

    ``latencies_by_class`` maps a fault-class label ("output",
    "transfer", ...) to the latencies of its detected faults.  The
    latency is the steps between first excitation of the fault site
    and the first output divergence -- bounded by the certificate's
    ``k`` on certified machines (Theorem 1), which makes this
    histogram the empirical check of the paper's Requirement 2.
    """
    reg = get_registry() if registry is None else registry
    if not reg.enabled:
        return
    for label in sorted(latencies_by_class):
        hist = reg.histogram(name, buckets=STEP_BUCKETS, cls=label)
        for latency in latencies_by_class[label]:
            hist.observe(latency)
