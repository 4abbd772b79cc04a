"""SUITE: transition tours vs complete test suites (W / Wp / HSI).

The paper validates with transition tours, which Theorem 1 certifies
against output errors -- but transfer errors can escape a bare tour.
The classical protocol-testing constructions (W, Wp, HSI) buy full
fault-domain completeness at the price of longer tests.  This
benchmark quantifies the trade on the seed machines and on a DLX
instruction-class model, each against its whole single-fault
population, reporting suite size, error coverage and coverage per
test step.

Suites execute through the reset harness on the very same campaign
executor as tours, so the comparison is apples-to-apples: identical
fault populations, identical detection oracle.
"""

from conftest import emit

from repro.dlx.isa import Op
from repro.dlx.testmodel import build_tour_model, minimize_tour_model
from repro.faults import all_single_faults, run_campaign
from repro.models import counter, shift_register, traffic_light, vending_machine
from repro.tour import generate_suite, transition_tour

SEED_MODELS = (
    ("vending", vending_machine),
    ("traffic", traffic_light),
    ("counter3", lambda: counter(3)),
    ("shiftreg3", lambda: shift_register(3)),
)

METHODS = ("tour", "w", "wp", "hsi")


def _dlx_branch_machine():
    """Minimized branch-class tour model (76 states, 456 transitions)."""
    return minimize_tour_model(
        build_tour_model(opcodes=(Op.BEQZ, Op.NOP))
    ).machine


def _measure(machine, method, faults):
    """Run one method's test set against ``faults``; return a row dict.

    For tours the spec machine is exercised directly; for suites the
    reset-harness machine carries the flattened suite.  The fault
    objects name spec transitions only, so they apply to both (the
    harness adds reset transitions but never alters spec ones).
    """
    if method == "tour":
        tour = transition_tour(machine, method="cpp")
        result = run_campaign(
            machine, tour.inputs, faults=list(faults), kernel="compiled"
        )
        sequences, steps = 1, len(tour.inputs)
    else:
        suite = generate_suite(machine, method)
        ex = suite.executable(machine)
        result = run_campaign(
            ex.machine, ex.inputs, faults=list(faults), kernel="compiled"
        )
        sequences, steps = suite.num_sequences, suite.total_steps
    by_class = result.by_class()
    return {
        "sequences": sequences,
        "steps": steps,
        "coverage": result.coverage,
        "output_coverage": by_class["output"]["coverage"],
        "transfer_coverage": by_class["transfer"]["coverage"],
        "coverage_per_100_steps": 100.0 * result.coverage / max(1, steps),
    }


def _table_rows(name, machine, faults, data):
    rows = [
        f"-- {name}: {len(machine.states)} states, "
        f"{machine.num_transitions()} transitions, "
        f"{len(faults)} faults",
        f"{'method':>8} {'seqs':>5} {'steps':>6} {'coverage':>9} "
        f"{'output':>8} {'transfer':>9} {'cov/100 steps':>14}",
    ]
    data[name] = {"faults": len(faults)}
    for method in METHODS:
        row = _measure(machine, method, faults)
        data[name][method] = row
        rows.append(
            f"{method:>8} {row['sequences']:>5} {row['steps']:>6} "
            f"{row['coverage']:>8.1%} {row['output_coverage']:>7.1%} "
            f"{row['transfer_coverage']:>8.1%} "
            f"{row['coverage_per_100_steps']:>14.2f}"
        )
    return rows


def test_suite_method_head_to_head(benchmark):
    """Tour vs W vs Wp vs HSI on the seed machines (exhaustive)."""
    data = {}
    rows = []
    for name, build in SEED_MODELS:
        machine = build()
        faults = all_single_faults(machine)
        rows.extend(_table_rows(name, machine, faults, data))
        # Complete suites must reach full coverage on these minimal,
        # input-complete machines -- that is the completeness theorem.
        for method in ("w", "wp", "hsi"):
            assert data[name][method]["coverage"] == 1.0, (name, method)
    emit(
        "SUITE: tour vs W/Wp/HSI (seed machines, exhaustive faults)",
        rows,
        name="suite_methods",
        data={"seed": data, "dlx": None},
    )
    machine = vending_machine()
    benchmark(lambda: generate_suite(machine, "wp"))


def test_suite_methods_dlx_scale(benchmark):
    """The same head-to-head at DLX instruction-class scale, against
    the whole single-fault population of the 76-state branch model
    (40,128 mutants per method): completeness is a property of the
    whole fault domain, so no sample stands in for it."""
    machine = _dlx_branch_machine()
    faults = all_single_faults(machine)
    data = {}
    rows = [f"fault population {len(faults)}, every fault campaigned"]
    rows.extend(_table_rows("dlx_branch", machine, faults, data))
    emit(
        "SUITE: tour vs W/Wp/HSI (DLX branch-class model, every fault)",
        rows,
        name="suite_methods_dlx",
        data={
            "population": len(faults),
            "dlx_branch": data["dlx_branch"],
        },
    )
    for method in ("w", "wp", "hsi"):
        assert data["dlx_branch"][method]["coverage"] == 1.0, method
    benchmark.pedantic(
        lambda: generate_suite(machine, "hsi"), rounds=1, iterations=1
    )
