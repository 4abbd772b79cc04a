"""Wide-lane differential tests: any width, one answer.

The stuck-at kernel packs a configurable number of lanes into
arbitrary-precision Python ints, and the dirty-set mode skips
quiescent cycles.  The width is a parameter of the netlist kernel
only; every campaign runs at :data:`~repro.kernel.DEFAULT_LANES`.
These properties pin the contract:

* stuck-at first divergences are byte-identical across lane widths
  (2, 63, 64, 257, 1024), both dirty-set modes, and the per-fault
  interpreter -- including exception types and messages;
* campaign results *and* the deterministic event projection (which
  carries first-divergence indices) are invariant under kernel/jobs;
* the batched Mealy kernel agrees with the per-fault path verdict by
  verdict, error string by error string;
* the word-overflow diagnostic reports the configured width, old and
  new;
* the compile memo keys on the lane width so switching it
  mid-process can never return a stale kernel, and one compiled
  object serves both pass modes;
* a torn journaled run resumes byte-identically at another worker
  count, and a run dir whose manifest settings still carry the lane
  width campaigns used to record resumes byte-identically too.
"""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import OutputError, TransferError
from repro.faults import run_campaign
from repro.faults.inject import all_single_faults
from repro.faults.simulate import detect_fault
from repro.kernel import (
    DEFAULT_LANES,
    CompiledNetlist,
    KernelError,
    compiled_netlist,
    detect_faults_compiled,
    resolve_lanes,
    stuck_at_first_divergences,
)
from repro.models import counter
from repro.obs.events import RingBufferSink, scoped_bus
from repro.rtl.expr import and_, not_, or_, var
from repro.rtl.faults import (
    StuckAt,
    all_stuck_at_faults,
    detects_stuck_at,
    run_stuck_at_campaign,
)
from repro.rtl.netlist import Netlist
from repro.runtime import (
    read_manifest,
    run_campaign_resumable,
    run_paths,
    write_manifest,
)
from repro.tour import transition_tour
from tests.test_kernel_differential import (
    SETTINGS,
    build_machine,
    build_netlist,
    build_test,
    build_vectors,
    outcome_of,
    seeds,
)

#: The widths the issue pins: minimal (one mutant), the legacy
#: machine-word boundary and its first overflow, an odd prime, and the
#: new default.
WIDTHS = (2, 63, 64, 257, 1024)


def _projection_bytes(events):
    import json

    from repro.obs.events import deterministic_payloads

    return json.dumps(deterministic_payloads(events), sort_keys=True)


# ----------------------------------------------------------------------
# Stuck-at first divergences across widths and dirty modes
# ----------------------------------------------------------------------

class TestWideWordStuckAt:
    @SETTINGS
    @given(seed=seeds, vseed=seeds)
    def test_every_width_matches_interpreter(self, seed, vseed):
        nl = build_netlist(seed)
        vectors = build_vectors(nl, vseed, 10)
        faults = all_stuck_at_faults(nl, include_inputs=True)
        ref = [detects_stuck_at(nl, f, vectors) for f in faults]
        for lanes in WIDTHS:
            for dirty in (False, True):
                got = stuck_at_first_divergences(
                    nl, vectors, faults, lanes=lanes, dirty=dirty
                )
                assert got == ref, f"lanes={lanes} dirty={dirty}"

    @SETTINGS
    @given(seed=seeds, vseed=seeds)
    def test_bad_bit_raises_identically_at_every_width(self, seed,
                                                       vseed):
        nl = build_netlist(seed)
        vectors = build_vectors(nl, vseed, 4)
        faults = [StuckAt("no-such-bit", True)]
        ref = outcome_of(
            lambda: [detects_stuck_at(nl, f, vectors) for f in faults]
        )
        assert ref[0] == "err"
        for lanes in WIDTHS:
            got = outcome_of(
                lambda lanes=lanes: stuck_at_first_divergences(
                    nl, vectors, faults, lanes=lanes
                )
            )
            assert got == ref, f"lanes={lanes}"

    def test_replicated_population_spans_many_words(self):
        """A clone-scale population forces multi-word chunking at
        every width (2500 faults is ~40 words at the legacy width and
        still 3 words at the default)."""
        nl = build_netlist(20)
        vectors = build_vectors(nl, 21, 12)
        distinct = all_stuck_at_faults(nl, include_inputs=True)
        population = (distinct * (2500 // len(distinct) + 1))[:2500]
        by_fault = {
            f: detects_stuck_at(nl, f, vectors) for f in distinct
        }
        ref = [by_fault[f] for f in population]
        for lanes in (63, 1024):
            for dirty in (False, True):
                got = stuck_at_first_divergences(
                    nl, vectors, population, lanes=lanes, dirty=dirty
                )
                assert got == ref, f"lanes={lanes} dirty={dirty}"

    def test_unobservable_register_is_escaped_everywhere(self):
        """A register no output cone ever reads: the dirty-set
        observability pruning must agree with full simulation that its
        faults escape (verdict None)."""
        nl = Netlist("deadend")
        nl.add_input("a")
        nl.add_register("live", next=var("a"))
        nl.add_register("dead", next=not_(var("dead")))
        nl.set_output("y", var("live"))
        vectors = [{"a": bool(i % 2)} for i in range(8)]
        faults = [StuckAt("dead", True), StuckAt("dead", False),
                  StuckAt("live", True)]
        ref = [detects_stuck_at(nl, f, vectors) for f in faults]
        assert ref[0] is None and ref[1] is None
        for lanes in (2, 64, 1024):
            for dirty in (False, True):
                got = stuck_at_first_divergences(
                    nl, vectors, faults, lanes=lanes, dirty=dirty
                )
                assert got == ref, f"lanes={lanes} dirty={dirty}"


# ----------------------------------------------------------------------
# Campaign and event-stream invariance
# ----------------------------------------------------------------------

class TestCampaignLaneInvariance:
    def test_results_and_projection_invariant(self):
        net = Netlist("toy")
        net.add_input("a")
        net.add_register("q0", next=or_(var("a"), var("q1")))
        net.add_register("q1", next=and_(var("a"), not_(var("q0"))))
        net.set_output("y", or_(var("q0"), var("q1")))
        vectors = [{"a": bool(i % 3 == 0)} for i in range(12)]

        def run(**kwargs):
            with scoped_bus() as bus:
                ring = bus.add_sink(RingBufferSink())
                result = run_stuck_at_campaign(net, vectors, **kwargs)
            return result, _projection_bytes(ring.events())

        base_result, baseline = run(kernel="interp")
        for jobs in (1, 2):
            result, projection = run(kernel="compiled", jobs=jobs)
            assert result == base_result, f"jobs={jobs}"
            assert projection == baseline, f"jobs={jobs}"


# ----------------------------------------------------------------------
# Word-overflow diagnostics
# ----------------------------------------------------------------------

class TestOverflowDiagnostic:
    def _overflowing(self, lanes):
        nl = build_netlist(5)
        vectors = build_vectors(nl, 6, 3)
        fault = all_stuck_at_faults(nl, include_inputs=True)[0]
        compiled = CompiledNetlist(nl, lanes=lanes)
        with pytest.raises(KernelError) as err:
            compiled._detect_word(vectors, [fault] * lanes)
        return str(err.value)

    def test_legacy_width_message_unchanged(self):
        assert self._overflowing(64) == (
            "64 faults exceed the 63-mutant word"
        )

    def test_new_width_message_reports_configured_limit(self):
        assert self._overflowing(258) == (
            "258 faults exceed the 257-mutant word"
        )


# ----------------------------------------------------------------------
# Memoization: one compiled kernel per (netlist, lanes)
# ----------------------------------------------------------------------

class TestCompileMemo:
    def test_same_config_is_cached(self):
        nl = build_netlist(30)
        assert compiled_netlist(nl) is compiled_netlist(nl)
        assert compiled_netlist(nl, lanes=64) is (
            compiled_netlist(nl, lanes=64)
        )

    def test_lane_switch_never_returns_stale_width(self):
        nl = build_netlist(31)
        wide = compiled_netlist(nl, lanes=1024)
        narrow = compiled_netlist(nl, lanes=64)
        assert wide is not narrow
        assert wide.mutant_lanes == 1023
        assert narrow.mutant_lanes == 63
        # Round-tripping back must rehit the wide entry, not recompile
        # or -- worse -- hand back the narrow kernel.
        assert compiled_netlist(nl, lanes=1024) is wide

    def test_one_compiled_object_serves_both_modes(self):
        nl = build_netlist(32)
        vectors = build_vectors(nl, 33, 10)
        faults = all_stuck_at_faults(nl, include_inputs=True)
        compiled = compiled_netlist(nl)
        event = compiled.detect_batch(vectors, faults, dirty=True)
        dense = compiled.detect_batch(vectors, faults, dirty=False)
        assert event == dense
        assert compiled_netlist(nl) is compiled

    def test_rewire_recompiles_every_config(self):
        nl = build_netlist(33)
        wide = compiled_netlist(nl, lanes=1024)
        narrow = compiled_netlist(nl, lanes=64)
        nl.set_output("fresh", var(sorted(nl.inputs)[0]))
        assert compiled_netlist(nl, lanes=1024) is not wide
        assert compiled_netlist(nl, lanes=64) is not narrow


# ----------------------------------------------------------------------
# Lane-width validation
# ----------------------------------------------------------------------

class TestResolveLanes:
    def test_auto_selects_default(self):
        assert resolve_lanes(None) == DEFAULT_LANES
        assert resolve_lanes("auto") == DEFAULT_LANES
        assert resolve_lanes(2) == 2
        assert resolve_lanes(4096) == 4096

    @pytest.mark.parametrize("bad", [0, 1, -5])
    def test_too_narrow_rejected(self, bad):
        with pytest.raises(KernelError, match="golden lane 0"):
            resolve_lanes(bad)

    @pytest.mark.parametrize("bad", [True, 2.5, "wide", "63"])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(KernelError, match="integer >= 2"):
            resolve_lanes(bad)


# ----------------------------------------------------------------------
# Batched Mealy kernel
# ----------------------------------------------------------------------

class TestBatchedMealy:
    @staticmethod
    def _reference(machine, test, faults):
        encoded = []
        for fault in faults:
            try:
                encoded.append(
                    ("ok", bool(detect_fault(machine, fault, test)))
                )
            except Exception as exc:  # noqa: BLE001 - compared below
                encoded.append(
                    ("err", f"{type(exc).__name__}: {exc}")
                )
        return encoded

    @SETTINGS
    @given(seed=seeds, tseed=seeds, complete=st.booleans())
    def test_batch_matches_per_fault_path(self, seed, tseed, complete):
        m = build_machine(seed, complete=complete)
        test = build_test(m, tseed, 12)
        faults = all_single_faults(m)
        ref = self._reference(m, test, faults)
        assert detect_faults_compiled(m, test, faults) == ref

    @SETTINGS
    @given(seed=seeds, tseed=seeds)
    def test_invalid_faults_error_in_lane_not_in_batch(self, seed,
                                                       tseed):
        """One bad fault in a word must poison only its own verdict;
        its error string must match the per-fault exception."""
        m = build_machine(seed)
        test = build_test(m, tseed, 6)
        some_state = sorted(m.states, key=repr)[0]
        some_inp = sorted(m.inputs, key=repr)[0]
        t = m.transition(some_state, some_inp)
        faults = list(all_single_faults(m)) + [
            OutputError("ghost", some_inp, "x"),
            TransferError("ghost", some_inp, some_state),
            OutputError(some_state, some_inp, t.out),   # no-op corrupt
            TransferError(some_state, some_inp, t.dst),  # no-op divert
            TransferError(some_state, some_inp, "ghost"),
        ]
        ref = self._reference(m, test, faults)
        assert detect_faults_compiled(m, test, faults) == ref

    def test_replicated_output_error_batch(self):
        """A fast-path-heavy batch far wider than any machine word."""
        m = build_machine(5)
        test = build_test(m, 43, 16)
        base = [
            f for f in all_single_faults(m)
            if isinstance(f, OutputError)
        ]
        faults = (base * (1500 // len(base) + 1))[:1500]
        ref = self._reference(m, test, faults)
        assert detect_faults_compiled(m, test, faults) == ref


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------

def _outputs(run_dir):
    paths = run_paths(run_dir)
    with open(paths.report, "rb") as r:
        report = r.read()
    with open(paths.metrics, "rb") as m:
        metrics = m.read()
    return report, metrics


class TestResumeAcrossLaneWidths:
    def test_interrupted_wide_run_resumes_at_another_width(
        self, tmp_path
    ):
        """A journal torn mid-line and holding a bad-checksum line,
        written at ``jobs=1``, resumes at ``jobs=2`` byte-identically
        to an uninterrupted run (and matches the plain, unjournaled
        campaign)."""
        machine = counter(4)
        inputs = transition_tour(machine).inputs
        plain = run_campaign(machine, inputs, kernel="compiled")

        ref_dir = str(tmp_path / "ref")
        ref = run_campaign_resumable(
            machine, inputs, run_dir=ref_dir, jobs=1,
        )
        assert ref.result == plain

        run_dir = str(tmp_path / "run")
        first = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, jobs=1, slice_size=16,
        )
        assert first.result == plain
        journal = run_paths(run_dir).journal
        with open(journal) as handle:
            lines = handle.readlines()
        with open(journal, "w") as handle:
            handle.writelines(lines[:10])
            handle.write(
                "feedfacefeedface {\"i\":2,\"detected\":true}\n"
            )
            handle.write(lines[10].rstrip("\n")[:-4])
        resumed = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, resume=True, jobs=2,
        )
        assert resumed.result == plain
        assert resumed.stats.replayed == 10
        assert resumed.stats.dropped == 2
        assert resumed.stats.executed == plain.total - 10
        assert _outputs(run_dir) == _outputs(ref_dir)

    def test_manifest_with_recorded_lane_width_resumes(self, tmp_path):
        """Run dirs written while campaigns recorded ``lanes`` among
        their manifest settings still resume: settings are never
        checked, and the outputs are byte-identical."""
        machine = counter(4)
        inputs = transition_tour(machine).inputs
        ref_dir = str(tmp_path / "ref")
        run_campaign_resumable(machine, inputs, run_dir=ref_dir)

        run_dir = str(tmp_path / "run")
        run_campaign_resumable(
            machine, inputs, run_dir=run_dir, slice_size=16,
        )
        paths = run_paths(run_dir)
        manifest = read_manifest(paths.manifest)
        write_manifest(
            paths.manifest,
            manifest["identity"],
            {**manifest["settings"], "lanes": 1024},
        )
        with open(paths.journal) as handle:
            lines = handle.readlines()
        with open(paths.journal, "w") as handle:
            handle.writelines(lines[:20])
        os.unlink(paths.report)
        os.unlink(paths.metrics)
        resumed = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, resume=True,
        )
        assert resumed.stats.replayed == 20
        assert read_manifest(paths.manifest)["settings"]["lanes"] == 1024
        assert _outputs(run_dir) == _outputs(ref_dir)
