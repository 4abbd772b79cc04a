"""Crash-tolerant runtime: journal, resume, chaos, degradation.

The headline claims under test:

* a verdict counts only once journaled, and replay drops torn or
  corrupt journal lines by checksum;
* a killed campaign resumed with ``--resume`` produces ``report.json``
  and ``metrics.json`` byte-identical to an uninterrupted run, at any
  worker count and under either kernel;
* deterministic chaos (worker SIGKILLs, hangs, task errors, corrupt
  results) never changes a verdict -- the executor fallback and the
  quarantine/degradation path absorb it;
* a campaign that only completed by degrading exits with the distinct
  status 3.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import cli
from repro.core.mealy import MealyMachine
from repro.faults import FaultVerdict, run_campaign, sweep_verdicts
from repro.models import counter
from repro.obs import scoped_registry
from repro.parallel import parallel_map, run_task_inline
from repro.runtime import (
    ChaosPlan,
    Journal,
    ManifestMismatch,
    RunDirError,
    chaos_scope,
    check_manifest,
    parse_plan,
    read_manifest,
    run_bug_campaign_resumable,
    run_campaign_resumable,
    run_paths,
)
from repro.runtime.journal import decode_line, encode_record
from repro.tour import transition_tour


def _tour(machine):
    return transition_tour(machine).inputs


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _outputs(run_dir):
    paths = run_paths(run_dir)
    return _read(paths.report), _read(paths.metrics)


# --------------------------------------------------------------------
# Journal and manifest
# --------------------------------------------------------------------


class TestJournal:
    def test_encode_decode_roundtrip(self):
        record = {"i": 3, "detected": True, "timed_out": False}
        assert decode_line(encode_record(record) + "\n") == record

    @pytest.mark.parametrize("line", [
        "",
        "garbage",
        "deadbeefdeadbeef {\"i\": 1}",       # checksum mismatch
        "0123456789abcdef not-json",
        "xyz",
    ])
    def test_decode_rejects_corruption(self, line):
        assert decode_line(line) is None

    def test_decode_rejects_non_object(self):
        text = json.dumps([1, 2], separators=(",", ":"))
        import hashlib
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert decode_line(f"{digest} {text}") is None

    def test_replay_missing_file_is_empty(self, tmp_path):
        replay = Journal.replay(str(tmp_path / "absent.jsonl"))
        assert replay.records == () and replay.dropped == 0

    def test_replay_drops_corrupt_and_torn_lines(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            for i in range(4):
                journal.append({"i": i})
            journal.sync()
        with open(path, "r+") as handle:
            lines = handle.readlines()
            lines[1] = "deadbeefdeadbeef {\"i\":99}\n"
            handle.seek(0)
            handle.truncate()
            handle.writelines(lines)
            handle.write("0a0a torn-tail-no-newline")
        replay = Journal.replay(path)
        assert [r["i"] for r in replay.records] == [0, 2, 3]
        assert replay.dropped == 2

    def test_manifest_missing_raises(self, tmp_path):
        with pytest.raises(RunDirError):
            read_manifest(str(tmp_path / "manifest.json"))

    def test_manifest_corrupt_raises(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(RunDirError):
            read_manifest(str(path))

    def test_check_manifest_names_the_drifted_key(self):
        manifest = {"format": 1, "identity": {"kernel": "interp"}}
        with pytest.raises(ManifestMismatch, match="kernel"):
            check_manifest(manifest, {"kernel": "compiled"})

    def test_check_manifest_rejects_other_format(self):
        with pytest.raises(ManifestMismatch, match="format"):
            check_manifest({"format": 99, "identity": {}}, {})


# --------------------------------------------------------------------
# Resumable runs == plain runs, byte for byte
# --------------------------------------------------------------------


class TestResumableCampaign:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """Uninterrupted run dir + plain result for counter3."""
        machine = counter()
        inputs = _tour(machine)
        run_dir = str(tmp_path_factory.mktemp("ref") / "run")
        run = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, jobs=1
        )
        plain = run_campaign(machine, inputs, jobs=1)
        return machine, inputs, run_dir, run, plain

    def test_matches_plain_campaign(self, reference):
        _machine, _inputs, _run_dir, run, plain = reference
        assert run.result == plain
        assert run.stats.executed == plain.total
        assert run.stats.replayed == 0

    def test_report_json_matches_result(self, reference):
        _machine, _inputs, run_dir, run, _plain = reference
        report = json.loads(_read(run_paths(run_dir).report))
        assert report == run.result.to_json_dict()

    def test_resume_of_complete_run_executes_nothing(self, reference):
        machine, inputs, run_dir, run, _plain = reference
        before = _outputs(run_dir)
        again = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, resume=True, jobs=2
        )
        assert again.result == run.result
        assert again.stats.executed == 0
        assert again.stats.replayed == run.stats.executed
        assert _outputs(run_dir) == before

    @pytest.mark.parametrize("kernel", ["interp", "compiled"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_interrupted_resume_is_byte_identical(
        self, reference, tmp_path, jobs, kernel
    ):
        machine, inputs, ref_dir, _run, plain = reference
        run_dir = str(tmp_path / "run")
        first = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, jobs=2, kernel=kernel,
            slice_size=16,
        )
        assert first.result == plain
        # Simulate a crash that lost most of the journal, corrupted
        # one surviving line and tore the last one.
        journal = run_paths(run_dir).journal
        with open(journal) as handle:
            lines = handle.readlines()
        with open(journal, "w") as handle:
            handle.writelines(lines[:10])
            handle.write("feedfacefeedface {\"i\":2,\"detected\":true}\n")
            handle.write(lines[10].rstrip("\n")[:-4])
        resumed = run_campaign_resumable(
            machine, inputs, run_dir=run_dir, resume=True, jobs=jobs,
            kernel=kernel,
        )
        assert resumed.result == plain
        assert resumed.stats.replayed == 10
        assert resumed.stats.dropped == 2
        assert resumed.stats.executed == plain.total - 10
        # Byte-identical outputs: across kernels, worker counts and
        # interruption patterns.
        assert _outputs(run_dir) == _outputs(ref_dir)

    def test_fresh_run_refuses_initialized_dir(self, reference):
        machine, inputs, run_dir, _run, _plain = reference
        with pytest.raises(RunDirError, match="resume"):
            run_campaign_resumable(machine, inputs, run_dir=run_dir)

    def test_resume_refuses_identity_drift(self, reference):
        machine, inputs, run_dir, _run, _plain = reference
        with pytest.raises(ManifestMismatch, match="test_fingerprint"):
            run_campaign_resumable(
                machine, list(inputs)[:-1], run_dir=run_dir, resume=True
            )
        with pytest.raises(ManifestMismatch, match="kernel"):
            run_campaign_resumable(
                machine, inputs, run_dir=run_dir, resume=True,
                kernel="interp",
            )

    def test_resume_without_manifest_raises(self, tmp_path):
        machine = counter()
        with pytest.raises(RunDirError, match="manifest"):
            run_campaign_resumable(
                machine, _tour(machine),
                run_dir=str(tmp_path / "nothing"), resume=True,
            )


class TestResumableBugCampaign:
    @pytest.fixture(scope="class")
    def battery(self):
        from repro.dlx.buggy import BUG_CATALOG
        from repro.dlx.programs import DIRECTED_PROGRAMS

        program = next(iter(DIRECTED_PROGRAMS.values()))
        return [(list(program), None, None)], list(BUG_CATALOG[:4])

    def test_interrupted_resume_is_byte_identical(
        self, battery, tmp_path
    ):
        from repro.validation import run_bug_campaign

        tests, catalog = battery
        ref_dir = str(tmp_path / "ref")
        run_bug_campaign_resumable(
            tests, catalog, "bugs", run_dir=ref_dir, jobs=1
        )
        run_dir = str(tmp_path / "run")
        first = run_bug_campaign_resumable(
            tests, catalog, "bugs", run_dir=run_dir, jobs=2,
            slice_size=2,
        )
        plain = run_bug_campaign(tests, catalog, "bugs", jobs=1)
        assert first.result.to_json_dict() == plain.to_json_dict()
        journal = run_paths(run_dir).journal
        with open(journal) as handle:
            lines = handle.readlines()
        with open(journal, "w") as handle:
            handle.writelines(lines[:2])
        resumed = run_bug_campaign_resumable(
            tests, catalog, "bugs", run_dir=run_dir, resume=True, jobs=1
        )
        assert resumed.stats.replayed == 2
        assert resumed.stats.executed == len(catalog) - 2
        assert resumed.result.to_json_dict() == plain.to_json_dict()
        assert _outputs(run_dir) == _outputs(ref_dir)

    def test_resume_refuses_catalog_drift(self, battery, tmp_path):
        tests, catalog = battery
        run_dir = str(tmp_path / "run")
        run_bug_campaign_resumable(
            tests, catalog, "bugs", run_dir=run_dir, jobs=1
        )
        with pytest.raises(ManifestMismatch, match="catalog"):
            run_bug_campaign_resumable(
                tests, catalog[:-1], "bugs", run_dir=run_dir, resume=True
            )


# --------------------------------------------------------------------
# Chaos injection
# --------------------------------------------------------------------


class TestChaosPlan:
    def test_parse_plan(self):
        plan = parse_plan("seed=7, crash=0.25, hang_seconds=2")
        assert plan.seed == 7
        assert plan.crash == 0.25
        assert plan.hang_seconds == 2.0
        assert plan.error == 0.0

    @pytest.mark.parametrize("spec", [
        "frobnicate=1", "crash", "crash=x", "seed=1.5",
    ])
    def test_parse_plan_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_plan(spec)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosPlan(crash=0.8, error=0.8)
        with pytest.raises(ValueError):
            ChaosPlan(crash=-0.1)

    def test_mode_for_is_deterministic_and_total_at_rate_one(self):
        plan = ChaosPlan(seed=3, error=1.0)
        keys = [f"task-{i}" for i in range(20)]
        assert all(plan.mode_for(k) == "error" for k in keys)
        mixed = ChaosPlan(seed=3, crash=0.5, hang=0.5)
        modes = [mixed.mode_for(k) for k in keys]
        assert modes == [mixed.mode_for(k) for k in keys]
        assert set(modes) <= {"crash", "hang"}


class TestChaosCampaigns:
    """No chaos mode may change a verdict."""

    @pytest.fixture(scope="class")
    def baseline(self):
        machine = counter()
        inputs = _tour(machine)
        return machine, inputs, run_campaign(machine, inputs, jobs=1)

    @pytest.mark.parametrize("mode", ["crash", "error", "corrupt"])
    def test_chaos_mode_preserves_verdicts(self, baseline, mode):
        machine, inputs, plain = baseline
        plan = ChaosPlan(seed=11, **{mode: 1.0})
        with chaos_scope(plan):
            result = run_campaign(machine, inputs, jobs=2)
        assert result == plain

    def test_error_chaos_marks_degraded(self, baseline):
        machine, inputs, plain = baseline
        with scoped_registry() as registry:
            with chaos_scope(ChaosPlan(seed=11, error=1.0)):
                result = run_campaign(machine, inputs, jobs=2)
        assert result == plain
        assert result.degraded
        dump = registry.dump()["counters"]
        assert dump.get("runtime.degradations_total", 0) >= 1
        assert dump.get("runtime.quarantined_tasks_total", 0) >= 1
        # ...and none of that leaks into the deterministic dump.
        deterministic = registry.deterministic_dump()["counters"]
        assert not any(k.startswith("runtime.") for k in deterministic)

    def test_serial_runs_never_fire(self, baseline):
        machine, inputs, plain = baseline
        with chaos_scope(ChaosPlan(seed=11, error=1.0)):
            result = run_campaign(machine, inputs, jobs=1)
        assert result == plain
        assert not result.degraded

    def test_hang_chaos_times_out_then_resume_converges(self, tmp_path):
        machine = counter()
        inputs = _tour(machine)
        from repro.faults import all_single_faults

        faults = all_single_faults(machine)[:12]
        ref_dir = str(tmp_path / "ref")
        run_campaign_resumable(
            machine, inputs, faults, run_dir=ref_dir, jobs=1,
            timeout=0.3, kernel="interp",
        )
        run_dir = str(tmp_path / "run")
        plan = ChaosPlan(seed=5, hang=1.0, hang_seconds=5.0)
        with chaos_scope(plan):
            hung = run_campaign_resumable(
                machine, inputs, faults, run_dir=run_dir, jobs=2,
                timeout=0.3, kernel="interp",
            )
        # Every worker task hung past the timeout: all detected-by-
        # timeout, journaled as provisional.
        assert len(hung.result.detected) == len(faults)
        resumed = run_campaign_resumable(
            machine, inputs, faults, run_dir=run_dir, resume=True,
            jobs=2, timeout=0.3, kernel="interp",
        )
        assert resumed.stats.provisional == len(faults)
        assert resumed.stats.replayed == 0
        assert _outputs(run_dir) == _outputs(ref_dir)


# --------------------------------------------------------------------
# Graceful kernel degradation
# --------------------------------------------------------------------


class TestDegradation:
    def test_poisoned_compiled_kernel_degrades_to_interp(
        self, monkeypatch
    ):
        machine = counter()
        inputs = _tour(machine)
        plain = run_campaign(machine, inputs, jobs=1, kernel="interp")

        import repro.kernel

        def poisoned(spec, test, batch):
            raise RuntimeError("kernel poisoned")

        monkeypatch.setattr(
            repro.kernel, "detect_faults_compiled", poisoned
        )
        with scoped_registry() as registry:
            result = run_campaign(
                machine, inputs, jobs=1, kernel="compiled"
            )
        assert result == plain
        assert result.degraded
        counters = registry.dump()["counters"]
        assert counters["runtime.quarantined_tasks_total"] == plain.total

    def test_sweep_verdicts_marks_degraded_entries(self, monkeypatch):
        machine = counter()
        inputs = tuple(_tour(machine))
        from repro.faults import all_single_faults

        faults = all_single_faults(machine)[:5]
        clean = sweep_verdicts(
            machine, inputs, faults, kernel="interp"
        )
        import repro.kernel

        monkeypatch.setattr(
            repro.kernel, "detect_faults_compiled",
            lambda *a: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        degraded = sweep_verdicts(
            machine, inputs, faults, kernel="compiled"
        )
        assert [v.detected for v in degraded] == [
            v.detected for v in clean
        ]
        assert all(v.degraded for v in degraded)
        assert degraded[0] == FaultVerdict(
            detected=clean[0].detected, degraded=True
        )

    def test_dlx_degradation_matches_clean_run(self, monkeypatch):
        from repro.dlx.buggy import BUG_CATALOG
        from repro.dlx.programs import DIRECTED_PROGRAMS
        from repro.validation import harness, run_bug_campaign

        program = next(iter(DIRECTED_PROGRAMS.values()))
        tests = [(list(program), None, None)]
        catalog = list(BUG_CATALOG[:3])
        plain = run_bug_campaign(tests, catalog, "dlx", jobs=1)

        def poisoned(task, shared, batch):
            raise RuntimeError("batch task poisoned")

        # Every batch body fails; the oracle re-run calls
        # _bug_entry_task directly, so the verdicts stay the same.
        monkeypatch.setattr(harness, "per_item", poisoned)
        result = run_bug_campaign(tests, catalog, "dlx", jobs=1)
        assert result.to_json_dict() == plain.to_json_dict()
        assert result.degraded and not plain.degraded

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stuck_at_degradation_matches_interp(self, monkeypatch, jobs):
        import repro.kernel
        from repro.obs.events import RingBufferSink, scoped_bus
        from repro.rtl import Netlist, and_, not_, or_, var
        from repro.rtl.faults import (
            all_stuck_at_faults,
            run_stuck_at_campaign,
        )

        net = Netlist("toy")
        net.add_input("a")
        net.add_register("q0", next=or_(var("a"), var("q1")))
        net.add_register("q1", next=and_(var("a"), not_(var("q0"))))
        net.add_output("y", or_(var("q0"), var("q1")))
        vectors = [{"a": bool(i % 3 == 0)} for i in range(12)]
        faults = all_stuck_at_faults(net, include_inputs=True)
        plain = run_stuck_at_campaign(net, vectors, faults, kernel="interp")

        def poisoned(golden, vectors, batch):
            raise RuntimeError("kernel poisoned")

        monkeypatch.setattr(
            repro.kernel, "stuck_at_first_divergences", poisoned
        )
        with scoped_registry() as registry, scoped_bus() as bus:
            ring = bus.add_sink(RingBufferSink())
            result = run_stuck_at_campaign(net, vectors, faults, jobs=jobs)
        assert result == plain
        assert result.degraded and not plain.degraded
        counters = registry.dump()["counters"]
        assert counters["runtime.quarantined_tasks_total"] == len(faults)
        degraded = [
            event.payload["fault"] for event in ring.events()
            if event.name == "worker.degraded"
        ]
        assert degraded == [str(fault) for fault in faults]


# --------------------------------------------------------------------
# CLI exit codes
# --------------------------------------------------------------------


def _perfect_machine():
    """Two self-loop transitions, output == input: the transition tour
    detects every single fault, so coverage is exactly 1.0."""
    machine = MealyMachine("perfect", name="perfect")
    machine.add_transition("perfect", "0", "0", "perfect")
    machine.add_transition("perfect", "1", "1", "perfect")
    return machine


class TestCliExitCodes:
    def test_campaign_exit_precedence(self):
        assert cli._campaign_exit(True, False) == 0
        assert cli._campaign_exit(False, False) == 1
        assert cli._campaign_exit(False, True) == 1
        assert cli._campaign_exit(True, True) == cli.EXIT_DEGRADED == 3

    def test_clean_complete_campaign_exits_zero(self, monkeypatch):
        monkeypatch.setitem(
            cli.CANONICAL_MODELS, "perfect", _perfect_machine
        )
        assert cli.main(["campaign", "perfect"]) == 0

    def test_degraded_complete_campaign_exits_three(self, monkeypatch):
        monkeypatch.setitem(
            cli.CANONICAL_MODELS, "perfect", _perfect_machine
        )
        code = cli.main([
            "campaign", "perfect", "--jobs", "2", "--kernel", "interp",
            "--chaos", "seed=1,error=1.0",
        ])
        assert code == cli.EXIT_DEGRADED

    def test_incomplete_coverage_dominates_degradation(self):
        code = cli.main([
            "campaign", "counter", "--jobs", "2", "--kernel", "interp",
            "--chaos", "seed=1,error=1.0",
        ])
        assert code == 1

    def test_resume_requires_run_dir(self, capsys):
        assert cli.main(["campaign", "counter", "--resume"]) == 2
        assert "--resume requires --run-dir" in capsys.readouterr().err

    def test_bad_chaos_spec_is_usage_error(self, capsys):
        code = cli.main(["campaign", "counter", "--chaos", "nope=1"])
        assert code == 2
        assert "bad --chaos spec" in capsys.readouterr().err

    def test_resume_without_manifest_is_usage_error(
        self, tmp_path, capsys
    ):
        code = cli.main([
            "campaign", "counter",
            "--run-dir", str(tmp_path / "void"), "--resume",
        ])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_run_dir_reports_accounting_on_stderr(
        self, tmp_path, capsys
    ):
        run_dir = str(tmp_path / "run")
        cli.main(["campaign", "counter", "--run-dir", run_dir])
        first = capsys.readouterr()
        code = cli.main([
            "campaign", "counter", "--run-dir", run_dir, "--resume",
        ])
        second = capsys.readouterr()
        assert code == 1  # counter coverage < 1.0 either way
        assert "replayed 0" in first.err
        assert "replayed 256" in second.err
        # stdout is byte-identical with and without the run dir.
        assert first.out == second.out


# --------------------------------------------------------------------
# Kill -9 the whole process, then resume (subprocess round trip)
# --------------------------------------------------------------------


def _repro_env():
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(repro.__file__), os.pardir)
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _journal_lines(path):
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


def _victim(run_dir):
    """A journaled ``--jobs 2`` campaign to SIGKILL.  The hang chaos
    slows every worker task by 50ms, giving the caller a wide window
    to kill it mid-journal, with pool workers alive."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "counter",
            "--kernel", "interp", "--jobs", "2",
            "--run-dir", run_dir, "--journal-slice", "8",
            "--chaos", "seed=5,hang=1.0,hang_seconds=0.05",
        ],
        env=_repro_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _proc_stat(pid):
    """``(state, ppid, starttime)`` of ``pid`` from ``/proc``, or None
    once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    # The command name is parenthesized and may hold anything.
    fields = data[data.rindex(b")") + 2:].split()
    return fields[0].decode(), int(fields[1]), int(fields[19])


def _children(pid):
    """``{pid: starttime}`` of the processes whose parent is ``pid``."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                found[int(entry)] = stat[2]
    return found


def _running(pid, starttime):
    """Whether ``pid`` is still the process that started at
    ``starttime``, and not a zombie."""
    stat = _proc_stat(pid)
    return stat is not None and stat[2] == starttime and stat[0] != "Z"


class TestKillAndResume:
    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path):
        ref_dir = str(tmp_path / "ref")
        assert cli.main([
            "campaign", "counter", "--kernel", "interp",
            "--run-dir", ref_dir,
        ]) == 1
        run_dir = str(tmp_path / "run")
        journal = run_paths(run_dir).journal
        proc = _victim(run_dir)
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if _journal_lines(journal) >= 8:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            killed = proc.poll() is None
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
        lines = _journal_lines(journal)
        assert lines >= 8, "campaign died before journaling anything"
        if killed:
            assert proc.returncode == -signal.SIGKILL
            assert lines < 256, "kill landed after the campaign finished"
        # Corrupt one journaled verdict for good measure: the checksum
        # catches it and the entry is re-simulated.
        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.write(data.replace(b"true", b"trXe", 1))
            handle.truncate()
        machine = counter()
        resumed = run_campaign_resumable(
            machine, _tour(machine), run_dir=run_dir, resume=True,
            jobs=2, kernel="interp",
        )
        assert resumed.stats.executed > 0
        assert resumed.result.total == 256
        assert _outputs(run_dir) == _outputs(ref_dir)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs /proc"
    )
    def test_sigkilled_campaign_leaves_no_pool_workers(self, tmp_path):
        """A campaign killed while its pool runs takes its workers
        with it: each is gone, or a zombie, within 10 s."""
        proc = _victim(str(tmp_path / "run"))
        workers = {}
        try:
            deadline = time.time() + 60
            while proc.poll() is None and time.time() < deadline:
                workers = _children(proc.pid)
                if len(workers) == 2:  # the whole --jobs 2 pool
                    break
                time.sleep(0.005)
            proc.kill()
            proc.wait(timeout=30)
            assert workers, "the campaign never started a pool"
            deadline = time.time() + 10
            alive = list(workers)
            while alive and time.time() < deadline:
                time.sleep(0.05)
                alive = [
                    pid for pid, start in workers.items()
                    if _running(pid, start)
                ]
            assert not alive, f"pool workers {alive} outlived the campaign"
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
            for pid, start in workers.items():
                if _running(pid, start):
                    os.kill(pid, signal.SIGKILL)


# --------------------------------------------------------------------
# Executor satellites: watchdog timeouts, traceback preservation
# --------------------------------------------------------------------


def _slow_task(item):
    time.sleep(item)
    return item


def _angry_task(item):
    raise ValueError(f"boom on {item}")


class TestWatchdogTimeout:
    def test_timeout_from_non_main_thread(self):
        box = {}

        def body():
            box["outcomes"] = parallel_map(
                _slow_task, [5.0, 0.0], jobs=1, timeout=0.2
            )

        worker = threading.Thread(target=body)
        started = time.perf_counter()
        worker.start()
        worker.join(timeout=30)
        elapsed = time.perf_counter() - started
        assert not worker.is_alive()
        slow, fast = box["outcomes"]
        assert slow.timed_out and not slow.ok
        assert fast.ok and fast.value == 0.0
        assert elapsed < 5, "watchdog did not cut the slow task short"

    def test_non_main_thread_errors_still_propagate(self):
        box = {}

        def body():
            box["outcomes"] = parallel_map(
                _angry_task, ["x"], jobs=1, timeout=5.0
            )

        worker = threading.Thread(target=body)
        worker.start()
        worker.join(timeout=30)
        (outcome,) = box["outcomes"]
        assert outcome.error is not None
        assert "ValueError: boom on x" in outcome.error


class TestTracebackPreservation:
    def test_outcome_error_is_a_formatted_traceback(self):
        (outcome,) = parallel_map(_angry_task, ["y"], jobs=1)
        assert "Traceback (most recent call last)" in outcome.error
        assert "ValueError: boom on y" in outcome.error
        assert "_angry_task" in outcome.error

    def test_inline_rerun_reproduces_error_text_exactly(self):
        (pooled,) = parallel_map(_angry_task, ["z"], jobs=1)
        inline = run_task_inline(_angry_task, None, "z")
        assert inline.error == pooled.error

    def test_chaos_error_carries_traceback(self):
        plan = ChaosPlan(seed=1, error=1.0, parent_pid=-1)
        with chaos_scope(plan):
            (outcome,) = parallel_map(_slow_task, [0.0], jobs=1)
        assert outcome.error is not None
        assert "ChaosError" in outcome.error


class TestJournaledRunInstalledRegistry:
    """A journaled run folds its metrics once, into the run dir's
    ``metrics.json``, and leaves the same fold in the installed
    registry -- what ``repro campaign --run-dir D --metrics m.json``
    writes."""

    def test_installed_registry_matches_plain_run(self, tmp_path):
        from repro.obs.events import RingBufferSink, scoped_bus

        machine = counter()
        inputs = _tour(machine)

        def snapshots(run):
            with scoped_bus() as bus:
                ring = bus.add_sink(RingBufferSink(capacity=100_000))
                with scoped_registry() as registry:
                    run()
            names = [e.name for e in ring.events()]
            return registry.deterministic_dump(), names.count(
                "coverage.snapshot"
            )

        plain, plain_snapshots = snapshots(
            lambda: run_campaign(machine, inputs)
        )
        run_dir = str(tmp_path / "run")
        journaled, journaled_snapshots = snapshots(
            lambda: run_campaign_resumable(machine, inputs, run_dir=run_dir)
        )
        assert plain["gauges"], "plain run folded no metrics"
        assert journaled == plain
        assert journaled_snapshots == plain_snapshots > 0
        with open(run_paths(run_dir).metrics) as handle:
            assert json.load(handle) == plain

    def test_cli_metrics_with_run_dir(self, tmp_path):
        plain_file = tmp_path / "plain.json"
        journaled_file = tmp_path / "journaled.json"
        assert cli.main([
            "campaign", "counter", "--metrics", str(plain_file),
        ]) in (0, 1)
        assert cli.main([
            "campaign", "counter", "--metrics", str(journaled_file),
            "--run-dir", str(tmp_path / "run"),
        ]) in (0, 1)

        def campaign_metrics(path):
            dump = json.loads(path.read_text())
            return sorted(
                name
                for section in dump.values()
                for name in section
                if name.startswith("campaign.")
            )

        assert campaign_metrics(journaled_file) == (
            campaign_metrics(plain_file)
        )
        assert any(
            name.startswith("campaign.coverage")
            for name in campaign_metrics(journaled_file)
        )
