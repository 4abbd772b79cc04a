"""KERNEL: compiled simulation kernels vs the tree-walking interpreter.

Four measurements, all at ``jobs=1`` so the speedup is purely the
compilation win (process fan-out is benchmarked separately in
``bench_parallel_campaign.py``):

* **word-parallel stuck-at fault simulation** -- the DLX control
  netlist's full single-stuck-at campaign.  The compiled kernel
  levelizes the netlist once and simulates the golden circuit plus a
  word's worth of mutants per pass in the bit-lanes of wide integer
  words; the interpreter builds and steps each faulty netlist
  separately.  This is the headline: the issue's acceptance bar is
  >= 5x here.
* **lane-width sweep** -- the same netlist against a replicated
  4095-mutant population (the scale of PR 5's extra-state clone
  domains) at 63 / 255 / 1023 / 4095 mutant lanes per pass.  Python
  ints are arbitrary precision, so per-cycle interpreter overhead
  amortizes over ever-wider words; the acceptance bar is a >= 5x
  geomean over the legacy 63-lane width at widths >= 1023.
  ``BENCH_REPORT_ONLY=1`` records the numbers without enforcing the
  speedup floors (identity is always enforced).
* **dense-table FSM fault campaign** -- every single output/transfer
  error on a 32-state counter against one transition tour.  The
  kernel replays the spec trajectory once and answers each mutant
  from visit tables instead of re-simulating lockstep runs.
* **Wp-suite FSM campaign with metrics** -- the same counter's
  reset-separated Wp suite (385 steps, 4096 faults) under a live
  metrics registry, whose fold adds one detection-latency query per
  detected fault.  Both kernels must produce identical verdicts and
  deterministic dumps; outside report-only mode the registry-on
  compiled campaign may cost at most ``MAX_FOLD_RATIO`` times the
  same campaign without a registry.

Every variant asserts byte-identical results before any speed claim:
speed never buys a different answer.
"""

import math
import os
import time

from conftest import emit

from repro.dlx import tour_model_inputs, tour_netlist
from repro.faults import run_campaign
from repro.kernel import DEFAULT_LANES, stuck_at_first_divergences
from repro.models import counter
from repro.obs import scoped_registry
from repro.rtl.faults import (
    all_stuck_at_faults,
    detects_stuck_at,
    run_stuck_at_campaign,
)
from repro.tour import FaultDomain, generate_suite, transition_tour

DLX_VECTORS = 300
MIN_DLX_SPEEDUP = 5.0
#: Mutant-lane widths swept against the replicated population; the
#: first is the legacy PR-3 machine-word width that anchors the
#: speedup claim.
SWEEP_WIDTHS = (63, 255, 1023, 4095)
SWEEP_POPULATION = 4095
MIN_WIDE_GEOMEAN = 5.0
#: Ceiling on a registry-on compiled Wp campaign over the same campaign
#: without a registry: the metrics fold answers each detected fault's
#: latency with a kernel walk, so it must stay a small share.
MAX_FOLD_RATIO = 10.0
#: Repetitions of each short compiled Wp timing; the fastest counts.
FOLD_ROUNDS = 3
REPORT_ONLY = bool(os.environ.get("BENCH_REPORT_ONLY"))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _fastest(fn, rounds):
    runs = [_timed(fn) for _ in range(rounds)]
    return runs[0][0], min(elapsed for _result, elapsed in runs)


def test_compiled_kernel_speedup(benchmark):
    # --- word-parallel stuck-at fault simulation (the headline) ---
    net = tour_netlist()
    base = tour_model_inputs()
    vectors = [base[i % len(base)] for i in range(DLX_VECTORS)]
    faults = all_stuck_at_faults(net)

    interp, t_interp = _timed(
        lambda: run_stuck_at_campaign(
            net, vectors, faults, jobs=1, kernel="interp"
        )
    )
    compiled, t_compiled = benchmark.pedantic(
        lambda: _timed(
            lambda: run_stuck_at_campaign(
                net, vectors, faults, jobs=1, kernel="compiled"
            )
        ),
        rounds=1,
        iterations=1,
    )
    dlx_speedup = t_interp / t_compiled if t_compiled else float("inf")
    dlx_identical = compiled == interp

    # --- lane-width sweep on a replicated clone-scale population ---
    distinct = all_stuck_at_faults(net, include_inputs=True)
    oracle = [detects_stuck_at(net, f, vectors) for f in distinct]
    by_fault = dict(zip(distinct, oracle))
    population = (distinct * (SWEEP_POPULATION // len(distinct) + 1))[
        :SWEEP_POPULATION
    ]
    expected = [by_fault[f] for f in population]
    sweep_seconds = {}
    sweep_identical = True
    for width in SWEEP_WIDTHS:
        got, elapsed = _timed(
            lambda w=width: stuck_at_first_divergences(
                net, vectors, population, lanes=w + 1
            )
        )
        sweep_seconds[width] = elapsed
        sweep_identical = sweep_identical and got == expected
    # Forced dense reference at the default-scale width: on this
    # activity-dense workload the kernel's own choice, timed above,
    # should be the dense pass.
    dense_got, t_dense_1023 = _timed(
        lambda: stuck_at_first_divergences(
            net, vectors, population, lanes=1024, dirty=False
        )
    )
    sweep_identical = sweep_identical and dense_got == expected
    t_legacy = sweep_seconds[SWEEP_WIDTHS[0]]
    wide = [w for w in SWEEP_WIDTHS if w >= 1023]
    wide_geomean = math.exp(
        sum(math.log(t_legacy / sweep_seconds[w]) for w in wide)
        / len(wide)
    )

    # --- dense-table FSM fault campaign ---
    machine = counter(5)  # 32 states, 2048 single-fault mutants
    tour = transition_tour(machine)
    fsm_interp, t_fsm_interp = _timed(
        lambda: run_campaign(machine, tour.inputs, kernel="interp")
    )
    fsm_compiled, t_fsm_compiled = _timed(
        lambda: run_campaign(machine, tour.inputs, kernel="compiled")
    )
    fsm_speedup = (
        t_fsm_interp / t_fsm_compiled if t_fsm_compiled else float("inf")
    )
    fsm_identical = fsm_compiled == fsm_interp

    # --- Wp-suite FSM campaign with the metrics fold ---
    wp = generate_suite(
        machine, "wp", FaultDomain(extra_states=0)
    ).executable(machine)

    def wp_campaign(kernel):
        return run_campaign(
            wp.machine, wp.inputs, list(wp.faults), kernel=kernel
        )

    def wp_campaign_with_metrics(kernel):
        with scoped_registry() as reg:
            return wp_campaign(kernel), reg.deterministic_dump()

    wp_plain, t_wp_plain = _fastest(
        lambda: wp_campaign("compiled"), FOLD_ROUNDS
    )
    (wp_compiled, wp_compiled_dump), t_wp_compiled = _fastest(
        lambda: wp_campaign_with_metrics("compiled"), FOLD_ROUNDS
    )
    (wp_interp, wp_interp_dump), t_wp_interp = _timed(
        lambda: wp_campaign_with_metrics("interp")
    )
    wp_identical = (
        wp_compiled == wp_interp == wp_plain
        and wp_compiled_dump == wp_interp_dump
    )
    fold_ratio = t_wp_compiled / t_wp_plain if t_wp_plain else float("inf")

    emit(
        "KERNEL: compiled simulation kernels vs interpreter (jobs=1)",
        [
            f"DLX stuck-at: {len(faults)} faults x {len(vectors)} vectors "
            f"on {net.name}",
            f"  interp:   {t_interp:8.3f}s",
            f"  compiled: {t_compiled:8.3f}s   speedup {dlx_speedup:6.1f}x"
            f"   identical: {dlx_identical}",
            f"lane sweep: {len(population)} replicated faults x "
            f"{len(vectors)} vectors, first divergences vs interp oracle",
        ]
        + [
            f"  {width:>5} mutant lanes: {sweep_seconds[width]:8.3f}s   "
            f"({t_legacy / sweep_seconds[width]:5.1f}x vs 63 lanes)"
            for width in SWEEP_WIDTHS
        ]
        + [
            f"   1023 lanes, dense: {t_dense_1023:8.3f}s   "
            f"(forced)",
            f"  wide-width geomean (>=1023 lanes): {wide_geomean:5.1f}x"
            f"   identical: {sweep_identical}",
            f"FSM campaign: {fsm_interp.total} mutants x "
            f"{fsm_interp.test_length}-step tour (counter-5)",
            f"  interp:   {t_fsm_interp:8.3f}s",
            f"  compiled: {t_fsm_compiled:8.3f}s   "
            f"speedup {fsm_speedup:6.1f}x   identical: {fsm_identical}",
            f"Wp FSM campaign with metrics: {wp_interp.total} mutants x "
            f"{wp_interp.test_length}-step suite (counter-5)",
            f"  interp + registry:   {t_wp_interp:8.3f}s",
            f"  compiled + registry: {t_wp_compiled:8.3f}s   "
            f"({fold_ratio:4.1f}x the {t_wp_plain:.3f}s plain compiled run)"
            f"   identical: {wp_identical}",
        ],
        name="kernel",
        data={
            "dlx_faults": len(faults),
            "dlx_vectors": len(vectors),
            "dlx_interp_seconds": t_interp,
            "dlx_compiled_seconds": t_compiled,
            "dlx_speedup": dlx_speedup,
            "dlx_identical": dlx_identical,
            "dlx_coverage": interp.coverage,
            **{
                f"dlx_sweep_w{width}_seconds": sweep_seconds[width]
                for width in SWEEP_WIDTHS
            },
            "dlx_sweep_w1023_dense_seconds": t_dense_1023,
            "dlx_sweep_wide_geomean": wide_geomean,
            "dlx_sweep_identical": sweep_identical,
            "fsm_mutants": fsm_interp.total,
            "fsm_interp_seconds": t_fsm_interp,
            "fsm_compiled_seconds": t_fsm_compiled,
            "fsm_speedup": fsm_speedup,
            "fsm_identical": fsm_identical,
            "fsm_wp_steps": wp_interp.test_length,
            "fsm_wp_mutants": wp_interp.total,
            "fsm_wp_plain_compiled_seconds": t_wp_plain,
            "fsm_wp_registry_compiled_seconds": t_wp_compiled,
            "fsm_wp_registry_interp_seconds": t_wp_interp,
            "fsm_wp_registry_ratio": fold_ratio,
            "fsm_wp_identical": wp_identical,
        },
        meta={
            "lane_sweep_mutant_widths": list(SWEEP_WIDTHS),
            "lane_sweep_population": len(population),
            "default_lanes": DEFAULT_LANES,
            "report_only": REPORT_ONLY,
        },
    )

    # Identity is unconditional: the kernels must be drop-in -- at
    # every lane width and in both pass modes.
    assert dlx_identical
    assert fsm_identical
    assert wp_identical
    assert sweep_identical
    if REPORT_ONLY:
        return
    # The word-parallel win is hardware-independent -- a word's worth
    # of mutants per pass vs one netlist walk per mutant.
    assert dlx_speedup >= MIN_DLX_SPEEDUP, (
        f"compiled stuck-at kernel only {dlx_speedup:.1f}x over interp"
    )
    # Widening lanes past the machine word must keep paying: the
    # geomean over the >=1023-lane widths anchors the claim against
    # the legacy 63-lane kernel on a clone-scale population.
    assert wide_geomean >= MIN_WIDE_GEOMEAN, (
        f"wide lanes only {wide_geomean:.1f}x geomean over 63 lanes"
    )
    # The metrics fold must not re-simulate detected faults: its
    # latency queries are kernel walks over the trajectory the sweep
    # already built.
    assert fold_ratio <= MAX_FOLD_RATIO, (
        f"registry-on Wp campaign {fold_ratio:.1f}x the plain one"
    )


#: Copies of each protocol controller in the farm (4 protocols x
#: FARM_COPIES blocks); more blocks = sparser per-phase activity.
FARM_COPIES = 8
FARM_POPULATION = 1023
MIN_SPARSE_SPEEDUP = 1.3


def test_dirty_vs_dense_activity_sparse(benchmark):
    """Activity-sparse workload where the event-driven pass wins.

    The DLX sweep above drives every net every cycle, so there the
    dense pass is the one to beat and the kernel picks it.  This
    benchmark builds the opposite shape -- the one the event-driven
    pass exists for: a "protocol farm" of independent controller blocks
    (the corpus protocol models, replicated) tested phase by phase with
    W/Wp-shaped reset-separated sequences.  During any phase one block
    toggles and the rest idle in self-loops, so the golden trace
    re-evaluates only the driven block, and once a block's mutants are
    detected or quiescent the mutant pass skips whole cycles the dense
    pass must still simulate.  Both passes are forced here
    (``dirty=True`` / ``dirty=False``), and the kernel's own choice
    (``dirty=None``) is timed next to them; all three must give the
    same first divergences.
    """
    from repro.corpus.protocols import PROTOCOL_MODELS
    from repro.corpus.synth import (
        machine_to_netlist,
        merge_netlists,
        suite_vectors,
    )
    from repro.tour import FaultDomain, generate_suite

    blocks = []  # (prefix, synthesized block, wp sequences)
    for name, build in sorted(PROTOCOL_MODELS.items()):
        machine = build()
        synth = machine_to_netlist(machine, reset_input="rst")
        suite = generate_suite(
            machine, "wp", FaultDomain(extra_states=0)
        )
        for copy in range(FARM_COPIES):
            prefix = f"{name.replace('-', '_')}_{copy}_"
            blocks.append((prefix, synth, suite.sequences))
    farm = merge_netlists(
        [(prefix, s.netlist) for prefix, s, _ in blocks],
        name="protocol-farm",
    )

    # Phase-by-phase vectors: each block's flattened Wp suite drives
    # that block's inputs; every other block sees all-zero inputs and
    # sits in its initial-state self-loop.
    idle = {name: False for name in farm.inputs}
    vectors = []
    for prefix, synth, sequences in blocks:
        for vec in suite_vectors(synth, sequences):
            merged_vec = dict(idle)
            for bit, value in vec.items():
                merged_vec[prefix + bit] = value
            vectors.append(merged_vec)

    distinct = all_stuck_at_faults(farm)
    population = (
        distinct * (FARM_POPULATION // len(distinct) + 1)
    )[:FARM_POPULATION]
    dirty_got, t_dirty = benchmark.pedantic(
        lambda: _timed(
            lambda: stuck_at_first_divergences(
                farm, vectors, population, lanes=1024, dirty=True
            )
        ),
        rounds=1,
        iterations=1,
    )
    dense_got, t_dense = _timed(
        lambda: stuck_at_first_divergences(
            farm, vectors, population, lanes=1024, dirty=False
        )
    )
    auto_got, t_auto = _timed(
        lambda: stuck_at_first_divergences(
            farm, vectors, population, lanes=1024
        )
    )
    identical = dirty_got == dense_got == auto_got
    speedup = t_dense / t_dirty if t_dirty else float("inf")

    emit(
        "SPARSE: dirty-set vs dense on a phased protocol farm",
        [
            f"farm: {len(blocks)} blocks ({FARM_COPIES} copies x "
            f"{len(PROTOCOL_MODELS)} protocols), "
            f"{farm.latch_count()} latches, {farm.input_count()} inputs",
            f"workload: {len(vectors)} Wp-shaped vectors, "
            f"{len(population)} stuck-at faults at 1024 lanes",
            f"  dense: {t_dense:8.3f}s",
            f"  dirty: {t_dirty:8.3f}s   speedup {speedup:5.2f}x"
            f"   identical: {identical}",
            f"  kernel's choice: {t_auto:8.3f}s",
        ],
        name="kernel_sparse",
        data={
            "sparse_dense_seconds": t_dense,
            "sparse_dirty_seconds": t_dirty,
            "sparse_auto_seconds": t_auto,
            "sparse_speedup": speedup,
            "sparse_identical": identical,
        },
        meta={
            "blocks": len(blocks),
            "farm_latches": farm.latch_count(),
            "vectors": len(vectors),
            "population": len(population),
            "lanes": 1024,
            "report_only": REPORT_ONLY,
        },
    )
    # Identity first, always: event-driven skipping, and the kernel's
    # choice of pass, must be invisible in the verdicts.
    assert identical
    if REPORT_ONLY:
        return
    # The whole point of the event-driven pass: on phase-sparse suites
    # it must actually beat the dense pass.
    assert speedup >= MIN_SPARSE_SPEEDUP, (
        f"event-driven pass only {speedup:.2f}x over dense on the "
        f"sparse farm"
    )
