"""Contracts of the campaign core, held at its public entry points.

* The batch contract of a sweep.  :func:`repro.faults.run_campaign`
  dispatches its faults in batches; the compiled body answers one
  ``("ok", verdict)`` or ``("err", traceback)`` per fault.  An
  ``"err"`` item degrades its fault alone, a batch that raises
  degrades exactly its own faults, a batch that answers the wrong
  number of results is an error, and the report never changes.  A
  substitute ``repro.kernel.detect_faults_compiled`` (looked up at
  call time) plays the failing kernel on a corpus machine's Wp
  campaign that spans two batches.
* The slot-index contract of records.  Journal lines, worker shard
  results and ``repro watch`` name a slot by an integer ``"i"``; a
  JSON ``true`` is malformed, not slot 1.
"""

import os
import random

import pytest

import repro.kernel
from repro.campaign import Campaign
from repro.core.generate import random_mealy
from repro.core.kiss import to_kiss
from repro.corpus import load_corpus
from repro.corpus.suite import build_test
from repro.dlx.buggy import BUG_CATALOG
from repro.faults import all_single_faults, run_campaign
from repro.faults.campaign import FsmKind
from repro.models import counter
from repro.obs import scoped_registry
from repro.obs.events import RingBufferSink, scoped_bus
from repro.runtime import (
    Journal,
    run_campaign_resumable,
    run_paths,
    watch_snapshot,
    write_manifest,
)
from repro.tour import transition_tour
from repro.validation.harness import (
    DIRECTED_TEST_NAME,
    BugVerdict,
    DlxKind,
    directed_battery,
)

REAL_KERNEL = repro.kernel.detect_faults_compiled


@pytest.fixture(scope="module")
def wp_campaign(tmp_path_factory):
    """(machine, test, faults, clean result) of the Wp campaign of a
    24-state KISS2 corpus circuit: 1,800 faults, two batches."""
    corpus = tmp_path_factory.mktemp("corpus")
    machine = random_mealy(random.Random(3), 24, 3, 3, name="c24")
    (corpus / "c24.kiss2").write_text(to_kiss(machine).text)
    (entry,) = load_corpus(str(corpus))
    run_machine, test, faults = build_test(entry.machine, "wp", "cpp", 0)
    assert len(faults) > repro.kernel.DEFAULT_LANES
    clean = run_campaign(run_machine, test, faults=faults)
    return run_machine, test, faults, clean


def _substitute(monkeypatch, answer):
    """Install a kernel that records each batch it is given and answers
    ``answer(batch, real_results)``; returns the recorded batches."""
    batches = []

    def kernel(spec, inputs, batch):
        batches.append(tuple(batch))
        return answer(tuple(batch), REAL_KERNEL(spec, inputs, batch))

    monkeypatch.setattr(repro.kernel, "detect_faults_compiled", kernel)
    return batches


def _run(wp_campaign, **options):
    """The campaign under a live registry and bus: (result, repr of
    each degraded fault in order, registry dump)."""
    machine, test, faults, _clean = wp_campaign
    with scoped_registry() as registry, scoped_bus() as bus:
        ring = bus.add_sink(RingBufferSink(capacity=1 << 16))
        result = run_campaign(machine, test, faults=faults, **options)
    degraded = [
        event.payload["fault"] for event in ring.events()
        if event.name == "worker.degraded"
    ]
    return result, degraded, registry.dump()


def _wall_count(dump):
    return dump["histograms"]["campaign.fault_wall_seconds"]["count"]


@pytest.mark.parametrize("timeout", [None, 30.0])
def test_an_err_item_degrades_only_its_fault(
    wp_campaign, monkeypatch, timeout
):
    _machine, _test, faults, clean = wp_campaign
    target = faults[1500]

    def answer(batch, results):
        return [
            ("err", "RuntimeError: poisoned lane\n") if fault is target
            else result
            for fault, result in zip(batch, results)
        ]

    batches = _substitute(monkeypatch, answer)
    result, degraded, dump = _run(wp_campaign, timeout=timeout)
    assert len(batches) == (len(faults) if timeout else 2)
    assert degraded == [repr(target)]
    assert result == clean and result.degraded
    assert result.to_json_dict() == clean.to_json_dict()
    assert dump["counters"]["runtime.quarantined_tasks_total"] == 1
    assert _wall_count(dump) == len(faults) - 1


def test_a_raising_batch_degrades_exactly_its_faults(
    wp_campaign, monkeypatch
):
    _machine, _test, faults, clean = wp_campaign
    target = faults[1500]

    def answer(batch, results):
        if any(fault is target for fault in batch):
            raise RuntimeError("kernel poisoned")
        return results

    batches = _substitute(monkeypatch, answer)
    result, degraded, dump = _run(wp_campaign)
    (poisoned,) = [b for b in batches if any(f is target for f in b)]
    assert 0 < len(poisoned) < len(faults)
    assert degraded == [repr(fault) for fault in poisoned]
    assert result == clean and result.degraded
    assert result.to_json_dict() == clean.to_json_dict()
    counters = dump["counters"]
    assert counters["runtime.quarantined_tasks_total"] == len(poisoned)
    assert _wall_count(dump) == len(faults) - len(poisoned)


def test_a_clean_run_observes_every_fault(wp_campaign, monkeypatch):
    _machine, _test, faults, clean = wp_campaign
    _substitute(monkeypatch, lambda batch, results: results)
    result, degraded, dump = _run(wp_campaign)
    assert degraded == []
    assert result == clean and not result.degraded
    assert "runtime.quarantined_tasks_total" not in dump["counters"]
    assert _wall_count(dump) == len(faults)


@pytest.mark.parametrize(
    "answer, got",
    [
        (lambda batch, results: results[:-1], "{short}"),
        (lambda batch, results: results + results[:1], "{long}"),
        (lambda batch, results: None, "NoneType"),
    ],
    ids=["short", "long", "none"],
)
def test_a_wrong_length_batch_is_an_error(
    wp_campaign, monkeypatch, answer, got
):
    machine, test, faults, _clean = wp_campaign
    batches = _substitute(monkeypatch, answer)
    with pytest.raises(ValueError) as caught:
        run_campaign(machine, test, faults=faults)
    n = len(batches[0])
    got = got.format(short=n - 1, long=n + 1)
    assert str(caught.value) == (
        f"batched task returned {got} results for a {n}-item batch"
    )


class TestBooleanSlotIndex:
    def _fsm(self):
        machine = counter(3)
        return Campaign(FsmKind(
            machine, transition_tour(machine).inputs,
            all_single_faults(machine),
        ))

    def test_absorb_refuses_a_boolean_index(self):
        campaign = self._fsm()
        assert campaign.absorb([{"i": True, "detected": False}]) == 0
        assert campaign.slots[1] is None
        # The genuine record for slot 1 is not refused as a duplicate.
        assert campaign.absorb([{"i": 1, "detected": True}]) == 1
        assert campaign.slots[1].detected

    def test_replay_skips_a_boolean_index(self):
        campaign = self._fsm()
        campaign.replay([{"i": False, "detected": True}])
        assert campaign.pending() == list(range(campaign.total))

    def test_dlx_parse_refuses_a_boolean_index(self):
        kind = DlxKind(directed_battery(), BUG_CATALOG, DIRECTED_TEST_NAME)
        record = kind.record(1, BugVerdict(detected=True, mismatch=None))
        assert kind.parse(record)[0] == 1
        assert kind.parse({**record, "i": True}) is None

    def test_watch_snapshot_skips_a_boolean_index(self, tmp_path):
        paths = run_paths(str(tmp_path))
        write_manifest(
            paths.manifest,
            {"kind": "fsm", "machine": "m", "fault_count": 4},
            {"jobs": 1},
        )
        with Journal(paths.journal) as journal:
            journal.append({"i": 1, "detected": True, "timed_out": False,
                            "degraded": False})
            journal.append({"i": True, "detected": False,
                            "timed_out": False, "degraded": False})
            journal.sync()
        snapshot = watch_snapshot(str(tmp_path))
        assert (snapshot["journaled"], snapshot["detected"]) == (1, 1)


class TestWatchCountsJournaledSlots:
    """``watch_snapshot`` tallies journaled slots: an index outside the
    manifest's count is dropped, the first verdict journaled for a slot
    is the one that counts, and a timed-out verdict counts until the
    re-simulation journaled after it replaces it."""

    @staticmethod
    def _record(index, detected, timed_out=False):
        return {"i": index, "detected": detected, "timed_out": timed_out,
                "degraded": False}

    def _journaled_run(self, tmp_path, records):
        machine = counter(2)
        test = transition_tour(machine).inputs
        faults = all_single_faults(machine)
        run_dir = str(tmp_path / "run")
        run_campaign_resumable(machine, test, faults=faults, run_dir=run_dir)
        paths = run_paths(run_dir)
        os.remove(paths.report)
        os.remove(paths.journal)
        with Journal(paths.journal) as journal:
            for record in records:
                journal.append(record)
            journal.sync()
        return machine, test, faults, run_dir

    def test_out_of_range_and_repeated_records_are_not_counted(
        self, tmp_path
    ):
        machine, test, faults, run_dir = self._journaled_run(tmp_path, [
            self._record(0, True), self._record(70, True),
            self._record(-3, False), self._record(0, False),
        ])
        assert len(faults) == 64
        snapshot = watch_snapshot(run_dir)
        assert (
            snapshot["journaled"], snapshot["detected"], snapshot["escaped"]
        ) == (1, 1, 0)
        assert snapshot["progress"] == 1 / 64
        run = run_campaign_resumable(
            machine, test, faults=faults, run_dir=run_dir, resume=True
        )
        assert (run.stats.replayed, run.stats.executed) == (1, 63)
        assert run.result.to_json_dict() == run_campaign(
            machine, test, faults=faults
        ).to_json_dict()

    def test_a_timed_out_record_gives_way_to_its_re_simulation(
        self, tmp_path
    ):
        _machine, _test, _faults, run_dir = self._journaled_run(tmp_path, [
            self._record(5, True, timed_out=True), self._record(5, False),
            self._record(6, True, timed_out=True),
        ])
        snapshot = watch_snapshot(run_dir)
        assert (
            snapshot["journaled"], snapshot["detected"],
            snapshot["escaped"], snapshot["timed_out"],
        ) == (2, 1, 1, 1)

    def test_without_a_count_only_the_type_is_checked(self, tmp_path):
        paths = run_paths(str(tmp_path))
        write_manifest(paths.manifest, {"kind": "fsm", "machine": "m"},
                       {"jobs": 1})
        with Journal(paths.journal) as journal:
            for record in (self._record(0, True), self._record(70, True),
                           self._record(-3, False), self._record(0, False)):
                journal.append(record)
            journal.sync()
        snapshot = watch_snapshot(str(tmp_path))
        assert (snapshot["journaled"], snapshot["detected"]) == (3, 2)
        assert "progress" not in snapshot
