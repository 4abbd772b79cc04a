"""Structural (stuck-at) fault injection on netlists.

The FSM fault model the paper adopts (output/transfer errors) is
deliberately abstract; real RTL defects are structural.  This module
bridges the two: classical single-stuck-at faults on a netlist's bits
are injected topologically, and a fault simulator measures which of
them a test-vector sequence (e.g. a transition tour's input vectors)
distinguishes from the golden netlist at the observable outputs.

Every stuck-at fault induces some combination of output and transfer
errors on the extracted FSM -- so Theorem 1's coverage guarantee over
the FSM fault model transfers to full single-stuck-at coverage on the
control logic, which the test suite checks on small netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..campaign import Campaign, check_kernel, per_item, settle
from ..parallel import batch_unit, parallel_map_batched
from .expr import Expr, const, substitute
from .netlist import Netlist


@dataclass(frozen=True)
class StuckAt:
    """A single stuck-at fault on a named bit.

    ``bit`` may be a primary input or a register output; every reader
    of the bit sees the stuck value.  (Stuck outputs of combinational
    nodes are representable by stuck register/input bits in our
    two-level netlists.)
    """

    bit: str
    value: bool

    def __str__(self) -> str:
        return f"{self.bit}/stuck-at-{int(self.value)}"

    def apply(self, netlist: Netlist) -> Netlist:
        """The faulty netlist: every reader of ``bit`` sees ``value``.

        The bit itself is kept (a stuck register still clocks; its
        output wire is what is shorted), so the state space shape is
        unchanged -- only behaviour differs.
        """
        if self.bit not in set(netlist.inputs) | set(netlist.register_names):
            raise ValueError(f"{netlist.name}: no bit {self.bit!r}")
        mapping: Dict[str, Expr] = {self.bit: const(self.value)}
        faulty = Netlist(f"{netlist.name}+{self}")
        for name in netlist.inputs:
            faulty.add_input(name)
        for reg in netlist.registers.values():
            assert reg.next is not None
            faulty.add_register(
                reg.name, init=reg.init, next=substitute(reg.next, mapping)
            )
        for out_name, expr in netlist.outputs.items():
            faulty.add_output(out_name, substitute(expr, mapping))
        return faulty


def all_stuck_at_faults(
    netlist: Netlist, include_inputs: bool = False
) -> List[StuckAt]:
    """Every single stuck-at-0/1 fault on register bits (and optionally
    primary inputs), deterministically ordered."""
    bits = list(netlist.register_names)
    if include_inputs:
        bits.extend(netlist.inputs)
    return [
        StuckAt(bit, value)
        for bit in bits
        for value in (False, True)
    ]


@dataclass(frozen=True)
class StructuralCampaignResult:
    """Outcome of a stuck-at campaign against one vector sequence."""

    netlist_name: str
    vectors: int
    detected: Tuple[StuckAt, ...]
    escaped: Tuple[StuckAt, ...]
    #: True when a failed task's faults were re-run on the interpreter
    #: oracle; excluded from equality, like ``CampaignResult.degraded``.
    degraded: bool = field(default=False, compare=False)

    @property
    def total(self) -> int:
        return len(self.detected) + len(self.escaped)

    @property
    def coverage(self) -> float:
        if not self.total:
            return 1.0
        return len(self.detected) / self.total

    def __str__(self) -> str:
        return (
            f"{self.netlist_name}: stuck-at coverage "
            f"{len(self.detected)}/{self.total} ({self.coverage:.1%}) "
            f"with {self.vectors} vectors"
        )


def detects_stuck_at(
    golden: Netlist,
    fault: StuckAt,
    vectors: Sequence[Mapping[str, bool]],
) -> Optional[int]:
    """First vector index (1-based) where outputs diverge, else None."""
    from .compile import compile_step

    faulty = fault.apply(golden)
    step_g = compile_step(golden)
    step_f = compile_step(faulty)
    state_g = golden.reset_state()
    state_f = faulty.reset_state()
    for idx, vec in enumerate(vectors, start=1):
        state_g, out_g = step_g(state_g, vec)
        state_f, out_f = step_f(state_f, vec)
        if out_g != out_f:
            return idx
    return None


#: What a stuck-at task shares across faults: the golden netlist and
#: the vectors.
_Shared = Tuple[Netlist, Tuple[Mapping[str, bool], ...]]


def _stuck_detect_task(shared: _Shared, fault: StuckAt) -> Optional[int]:
    """Per-fault interpreter task: the oracle, and through
    :func:`~repro.campaign.per_item` the interp sweep's batch body
    (module-level so workers unpickle it)."""
    golden, vectors = shared
    return detects_stuck_at(golden, fault, vectors)


def _stuck_batch_task(
    shared: _Shared, batch: Sequence[StuckAt]
) -> List[Tuple[str, Optional[int]]]:
    """The compiled sweep's batch body: first divergences for one lane
    word's worth of faults in a single bit-parallel pass over the
    vectors.  The kernel function is looked up at call time, so a
    substitute installed on :mod:`repro.kernel` takes effect."""
    golden, vectors = shared
    from ..kernel import stuck_at_first_divergences

    return [
        ("ok", first)
        for first in stuck_at_first_divergences(golden, vectors, batch)
    ]


class StuckAtCampaignError(RuntimeError):
    """A stuck-at fault the interpreter oracle cannot simulate."""


@dataclass(frozen=True)
class StuckVerdict:
    """One stuck-at fault's verdict: the 1-based index of the first
    vector whose outputs diverge from the golden netlist's (None: the
    fault escaped)."""

    first_divergence: Optional[int]
    degraded: bool = False

    @property
    def detected(self) -> bool:
        return self.first_divergence is not None


class StuckAtKind:
    """The stuck-at faults of a netlist as a campaign fault domain:
    slot ``i`` holds the :class:`StuckVerdict` of ``faults[i]`` under
    ``vectors`` (see :class:`repro.campaign.Campaign`).  Nothing
    journals stuck-at campaigns, so the kind has no records."""

    name = "stuck-at"

    def __init__(
        self,
        golden: Netlist,
        vectors: Sequence[Mapping[str, bool]],
        faults: Sequence[StuckAt],
    ) -> None:
        self.golden = golden
        self.vectors = tuple(vectors)
        self.faults = tuple(faults)
        self.total = len(self.faults)

    def sweep(
        self, indices: List[int], *, jobs: int, kernel: str
    ) -> List[StuckVerdict]:
        from ..kernel import DEFAULT_LANES

        golden, faults = self.golden, [self.faults[i] for i in indices]
        # Surface bad fault targets eagerly (and from the parent
        # process), with the same error apply() would raise.
        known = set(golden.inputs) | set(golden.register_names)
        for fault in faults:
            if fault.bit not in known:
                raise ValueError(f"{golden.name}: no bit {fault.bit!r}")
        shared = (golden, self.vectors)
        body = (
            _stuck_batch_task if kernel == "compiled"
            else partial(per_item, _stuck_detect_task)
        )
        outcomes = parallel_map_batched(
            body, faults, shared=shared, jobs=jobs,
            batch_size=batch_unit(len(faults), jobs, DEFAULT_LANES - 1),
        )
        return settle(
            outcomes, faults,
            make=lambda first, degraded: StuckVerdict(first, degraded),
            timed_out=None,
            oracle=_stuck_detect_task,
            shared=shared,
            describe=lambda fault: {"fault": str(fault)},
            failure=lambda fault, error: StuckAtCampaignError(
                f"stuck-at fault {fault} failed to simulate: {error}"
            ),
        )

    def result(
        self, slots: Sequence[StuckVerdict]
    ) -> StructuralCampaignResult:
        return StructuralCampaignResult(
            netlist_name=self.golden.name,
            vectors=len(self.vectors),
            detected=tuple(
                f for f, v in zip(self.faults, slots) if v.detected
            ),
            escaped=tuple(
                f for f, v in zip(self.faults, slots) if not v.detected
            ),
            degraded=any(v.degraded for v in slots),
        )

    def fold(
        self,
        slots: Sequence[StuckVerdict],
        result: StructuralCampaignResult,
    ) -> None:
        """Stuck-at campaigns record no metrics."""

    def started(self) -> Dict[str, Any]:
        return {
            **self.title(),
            "faults": self.total,
            "vectors": len(self.vectors),
        }

    def title(self) -> Dict[str, Any]:
        return {"netlist": self.golden.name}

    def describe(self, index: int, verdict: StuckVerdict) -> Dict[str, Any]:
        # The first-divergence index is part of the payload: both
        # kernels must agree on it, not just on detected/escaped.
        return {
            "fault": str(self.faults[index]),
            "detected": verdict.detected,
            "first_divergence": verdict.first_divergence,
        }


def run_stuck_at_campaign(
    golden: Netlist,
    vectors: Sequence[Mapping[str, bool]],
    faults: Optional[Sequence[StuckAt]] = None,
    *,
    jobs: int = 1,
    kernel: str = "compiled",
) -> StructuralCampaignResult:
    """Fault-simulate every stuck-at fault against the vector set.

    A :class:`~repro.campaign.Campaign` over :class:`StuckAtKind`: the
    core emits the campaign's events, and a failed task's faults are
    quarantined and re-run on the interpreter oracle (the result's
    ``degraded`` flag records that it happened).

    ``kernel="compiled"`` (default) simulates the golden netlist plus
    one batch of mutants per pass in the bit-lanes of wide integer
    words, at the kernel's default width of
    :data:`~repro.kernel.DEFAULT_LANES` total lanes (see
    :mod:`repro.kernel.netlist_kernel`); ``"interp"`` compiles and
    steps each mutant netlist separately.  Both kernels dispatch the
    same batches of up to ``DEFAULT_LANES - 1`` faults, which ``jobs``
    fans out to worker processes.  Verdicts are byte-identical across
    kernels and job counts.
    """
    check_kernel(kernel)
    population = (
        all_stuck_at_faults(golden) if faults is None else list(faults)
    )
    return Campaign(StuckAtKind(golden, vectors, population)).run(
        jobs=jobs, kernel=kernel
    )
