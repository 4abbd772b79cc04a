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

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..campaign import check_kernel
from ..obs.events import emit_event, get_bus
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


def _stuck_detect_task(
    shared: Tuple[Netlist, Tuple[Mapping[str, bool], ...]], fault: StuckAt
) -> Optional[int]:
    """Per-fault interpreter task (module-level so workers unpickle it)."""
    golden, vectors = shared
    return detects_stuck_at(golden, fault, vectors)


def _stuck_batch_task(
    shared: Tuple[Netlist, Tuple[Mapping[str, bool], ...], object],
    batch: Sequence[StuckAt],
) -> List[Optional[int]]:
    """Word-sized worker task: first divergences for one lane word's
    worth of faults in a single bit-parallel pass over the vectors."""
    golden, vectors, lanes = shared
    from ..kernel import stuck_at_first_divergences

    return stuck_at_first_divergences(golden, vectors, batch, lanes=lanes)


def run_stuck_at_campaign(
    golden: Netlist,
    vectors: Sequence[Mapping[str, bool]],
    faults: Optional[Sequence[StuckAt]] = None,
    *,
    jobs: int = 1,
    kernel: str = "compiled",
    lanes: object = None,
) -> StructuralCampaignResult:
    """Fault-simulate every stuck-at fault against the vector set.

    ``kernel="compiled"`` (default) simulates the golden netlist plus
    ``lanes - 1`` mutants per pass in the bit-lanes of wide integer
    words (see :mod:`repro.kernel.netlist_kernel`; ``lanes=None`` /
    ``"auto"`` selects the kernel default of 1024 total lanes);
    ``"interp"`` compiles and steps each mutant netlist separately.
    ``jobs`` fans word-batches (or single faults, under ``interp``)
    out to worker processes.  Verdicts are byte-identical across
    kernels, job counts, and lane widths.
    """
    check_kernel(kernel)
    population = (
        all_stuck_at_faults(golden) if faults is None else list(faults)
    )
    vec_list = tuple(vectors)
    emit_event(
        "campaign.started",
        netlist=golden.name,
        faults=len(population),
        vectors=len(vec_list),
    )
    divergences: List[Optional[int]]
    if kernel == "compiled":
        from ..kernel import resolve_lanes

        width = resolve_lanes(lanes)
        # Surface bad fault targets eagerly (and from the parent
        # process), with the same error apply() would raise.
        known = set(golden.inputs) | set(golden.register_names)
        for fault in population:
            if fault.bit not in known:
                raise ValueError(f"{golden.name}: no bit {fault.bit!r}")
        if jobs <= 1:
            from ..kernel import stuck_at_first_divergences

            divergences = stuck_at_first_divergences(
                golden, vec_list, population, lanes=width
            )
        else:
            from ..parallel import batch_unit, parallel_map_batched

            outcomes = parallel_map_batched(
                _stuck_batch_task, population,
                shared=(golden, vec_list, width), jobs=jobs,
                batch_size=batch_unit(len(population), jobs, width - 1),
            )
            divergences = [
                outcome.value if outcome.ok
                # A failed batch (e.g. an unpicklable payload edge) is
                # re-run in-process so the authentic exception, if
                # any, surfaces exactly as it would serially.
                else detects_stuck_at(golden, fault, vec_list)
                for fault, outcome in zip(population, outcomes)
            ]
    elif jobs > 1:
        from ..parallel import parallel_map

        outcomes = parallel_map(
            _stuck_detect_task, population,
            shared=(golden, vec_list), jobs=jobs,
        )
        divergences = [
            outcome.value if outcome.ok
            else detects_stuck_at(golden, fault, vec_list)
            for fault, outcome in zip(population, outcomes)
        ]
    else:
        divergences = [
            detects_stuck_at(golden, fault, vec_list)
            for fault in population
        ]
    detected: List[StuckAt] = []
    escaped: List[StuckAt] = []
    bus = get_bus()
    for fault, first in zip(population, divergences):
        if first is not None:
            detected.append(fault)
        else:
            escaped.append(fault)
        if bus.enabled:
            # The first-divergence index is part of the payload: both
            # kernels must agree on it, not just on detected/escaped.
            bus.emit(
                "fault.verdict",
                fault=str(fault),
                detected=first is not None,
                first_divergence=first,
            )
    result = StructuralCampaignResult(
        netlist_name=golden.name,
        vectors=len(vec_list),
        detected=tuple(detected),
        escaped=tuple(escaped),
    )
    emit_event(
        "campaign.finished",
        netlist=golden.name,
        detected=len(detected),
        escaped=len(escaped),
        coverage=round(result.coverage, 6),
    )
    return result
