"""PAR: serial-vs-parallel speedup of the campaign engine.

Two measurements on the DLX bug-catalog sweep (the workload every
later large-scale sweep grows from), plus an FSM-level scaling check:

* **process fan-out** -- the same sweep at ``--jobs 4``.  The speedup
  assertion (>= 2x) runs where it is physically possible, i.e. when at
  least 2 CPUs are usable by this process; on a single-CPU box the
  table is still printed and the differential identity still asserted.
* **differential identity** -- every variant produces rows/results
  byte-identical to the serial sweep; speed never buys a different
  answer.

The DLX battery front-loads hazard-free straight-line programs that no
catalog bug can distinguish, so every entry scans them all before its
detecting test -- the worst case a sweep pays, and the shape where
per-entry work is large enough for process fan-out to amortise.
"""

import random
import time

from conftest import emit

from repro.dlx.buggy import BUG_CATALOG
from repro.dlx.isa import HALT, Instruction, Op
from repro.dlx.programs import (
    DIRECTED_PROGRAMS,
    random_data,
    random_program,
)
from repro.faults import run_campaign
from repro.models import counter
from repro.parallel import default_jobs
from repro.tour import transition_tour
from repro.validation import run_bug_campaign

JOBS = 4


def _straightline(length, stride=6):
    """Hazard-free filler: independent ALU ops, no branches, loads or
    immediates, dependencies never closer than ``stride`` -- benign
    under every catalog bug, so every entry must scan past it."""
    body = [
        Instruction(Op.ADD, rd=1 + (i % stride), rs1=0, rs2=0)
        for i in range(length - 1)
    ]
    return body + [HALT]


def _battery():
    """Benign fillers first (every entry pays for all of them), then
    reproducible random programs, then the directed stressors that
    actually catch each catalog bug."""
    tests = [(_straightline(800), None, None) for _ in range(10)]
    rng = random.Random(1997)
    for _ in range(2):
        tests.append(
            (random_program(rng, length=120), random_data(rng), None)
        )
    tests.extend(
        (list(p), None, None) for p in DIRECTED_PROGRAMS.values()
    )
    return tests


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_dlx_sweep_speedup(benchmark):
    tests = _battery()

    serial, t_serial = _timed(
        lambda: run_bug_campaign(tests, test_name="serial")
    )
    parallel, t_parallel = benchmark.pedantic(
        lambda: _timed(
            lambda: run_bug_campaign(
                tests, test_name="parallel", jobs=JOBS
            )
        ),
        rounds=1,
        iterations=1,
    )

    speedup = t_serial / t_parallel if t_parallel else float("inf")
    cpus = default_jobs()
    emit(
        "PAR: DLX bug-catalog sweep, serial vs parallel",
        [
            f"battery: {len(tests)} tests x {len(BUG_CATALOG)} catalog "
            f"bugs; usable CPUs: {cpus}",
            f"serial (jobs=1):          {t_serial:8.3f}s",
            f"parallel (jobs={JOBS}):       {t_parallel:8.3f}s   "
            f"speedup {speedup:4.2f}x",
            f"coverage: {serial.coverage:.0%}; rows identical at every "
            f"worker count: {serial.rows == parallel.rows}",
        ],
        name="parallel_dlx_sweep",
        data={
            "tests": len(tests),
            "bugs": len(BUG_CATALOG),
            "usable_cpus": cpus,
            "serial_seconds": t_serial,
            "parallel_seconds": t_parallel,
            "speedup": speedup,
            "coverage": serial.coverage,
            "rows_identical": serial.rows == parallel.rows,
        },
    )

    # Determinism is unconditional.
    assert parallel.rows == serial.rows
    assert serial.coverage == 1.0
    # The process-pool win needs real CPUs to land on.
    if cpus >= 2:
        assert speedup >= 2.0, (
            f"jobs={JOBS} only {speedup:.2f}x over serial on {cpus} CPUs"
        )
    else:
        print(
            f"NOTE: only {cpus} usable CPU(s); >=2x process fan-out "
            f"assertion skipped"
        )


def test_fsm_campaign_speedup(benchmark):
    machine = counter(6)  # 64 states, 16384 single-fault mutants
    tour = transition_tour(machine)

    serial, t_serial = _timed(
        lambda: run_campaign(machine, tour.inputs)
    )
    parallel, t_parallel = benchmark.pedantic(
        lambda: _timed(
            lambda: run_campaign(machine, tour.inputs, jobs=JOBS)
        ),
        rounds=1,
        iterations=1,
    )
    speedup = t_serial / t_parallel if t_parallel else float("inf")
    emit(
        "PAR: FSM single-fault campaign (counter-6)",
        [
            f"population: {serial.total} mutants x "
            f"{serial.test_length}-step tour",
            f"serial (jobs=1):    {t_serial:8.3f}s",
            f"parallel (jobs={JOBS}): {t_parallel:8.3f}s   "
            f"speedup {speedup:4.2f}x",
            f"coverage {serial.coverage:.1%}; identical results: "
            f"{serial == parallel}",
        ],
        name="parallel_fsm_campaign",
        data={
            "population": serial.total,
            "test_length": serial.test_length,
            "serial_seconds": t_serial,
            "parallel_seconds": t_parallel,
            "speedup": speedup,
            "coverage": serial.coverage,
            "identical": serial == parallel,
        },
    )
    assert parallel == serial
    # A bare transition tour is not a certified test set; the point
    # here is scale and identity, not completeness.
    assert serial.coverage > 0.99
