"""Tests for BENCH_<name>.json history tracking and the regression gate."""

import json
import os
import subprocess

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    Regression,
    bench_path,
    default_bench_dir,
    find_regressions,
    git_dirty,
    git_sha,
    load_bench,
    load_bench_dir,
    record_bench,
    render_trajectory,
    seconds_metrics,
)


class TestRecord:
    def test_creates_schema_versioned_file(self, tmp_path):
        path = record_bench(
            "kernel", "word-parallel sweep",
            {"sweep_seconds": 0.5, "faults": 256},
            out_dir=str(tmp_path),
        )
        assert os.path.basename(path) == "BENCH_kernel.json"
        doc = json.loads(open(path).read())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["bench"] == "kernel"
        (entry,) = doc["entries"]
        assert entry["title"] == "word-parallel sweep"
        assert entry["data"]["sweep_seconds"] == 0.5
        assert "host" in entry and "recorded_at" in entry
        assert entry["host"]["cpus"] >= 1
        assert entry["host_probe_seconds"] > 0
        assert "host_probe_seconds" not in entry["data"]

    def test_appends_history(self, tmp_path):
        for i in range(3):
            record_bench("k", "t", {"sweep_seconds": float(i)},
                         out_dir=str(tmp_path))
        doc = load_bench(bench_path("k", str(tmp_path)))
        assert [e["data"]["sweep_seconds"] for e in doc["entries"]] == [
            0.0, 1.0, 2.0
        ]

    def test_max_entries_truncates_oldest(self, tmp_path):
        for i in range(5):
            record_bench("k", "t", {"i": i}, out_dir=str(tmp_path),
                         max_entries=3)
        doc = load_bench(bench_path("k", str(tmp_path)))
        assert [e["data"]["i"] for e in doc["entries"]] == [2, 3, 4]

    def test_upgrades_legacy_single_run_file(self, tmp_path):
        """PR-2 era files were one flat object; recording on top keeps
        the old measurement as the first history entry."""
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps(
            {"bench": "old", "title": "legacy run",
             "data": {"sweep_seconds": 9.0}}
        ))
        record_bench("old", "new run", {"sweep_seconds": 1.0},
                     out_dir=str(tmp_path))
        doc = load_bench(str(legacy))
        assert doc["schema"] == BENCH_SCHEMA
        assert len(doc["entries"]) == 2
        assert doc["entries"][0]["title"] == "legacy run"
        assert doc["entries"][0]["data"]["sweep_seconds"] == 9.0
        assert doc["entries"][1]["title"] == "new run"

    def test_corrupt_file_restarted(self, tmp_path):
        broken = tmp_path / "BENCH_x.json"
        broken.write_text("{ not json")
        record_bench("x", "t", {"a_seconds": 1.0}, out_dir=str(tmp_path))
        doc = load_bench(str(broken))
        assert len(doc["entries"]) == 1

    def test_default_dir_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        assert default_bench_dir() == str(tmp_path)
        record_bench("envy", "t", {})
        assert os.path.exists(tmp_path / "BENCH_envy.json")

    def test_default_dir_finds_repo_root(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BENCH_JSON_DIR", raising=False)
        root = tmp_path / "repo"
        nested = root / "a" / "b"
        nested.mkdir(parents=True)
        (root / "pyproject.toml").write_text("")
        monkeypatch.chdir(nested)
        assert default_bench_dir() == str(root)


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
         *args],
        cwd=repo, check=True, capture_output=True,
    )


class TestGitStamp:
    """Each entry records whether tracked files differed from the
    commit it names, so an uncommitted change never passes as its
    parent."""

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        (repo / "kernel.py").write_text("FAST = False\n")
        (repo / "notes.txt").write_text("untracked\n")
        _git(repo, "init", "-q")
        _git(repo, "add", "kernel.py")
        _git(repo, "commit", "-q", "-m", "base")
        monkeypatch.chdir(repo)
        return repo

    def _entries(self, repo):
        return load_bench(bench_path("k", str(repo)))["entries"]

    def test_clean_then_dirty(self, repo):
        record_bench("k", "t", {"x_seconds": 1.0}, out_dir=str(repo))
        (repo / "kernel.py").write_text("FAST = True\n")
        record_bench("k", "t", {"x_seconds": 0.5}, out_dir=str(repo))
        first, second = self._entries(repo)
        assert first["git_sha"] == second["git_sha"] == git_sha()
        assert first["git_dirty"] is False
        assert second["git_dirty"] is True
        sha = first["git_sha"][:8]
        lines = render_trajectory(load_bench_dir(str(repo))).splitlines()
        assert f" {sha} " in lines[2] and f"{sha}+" not in lines[2]
        assert f" {sha}+ " in lines[3]

    def test_staged_change_is_dirty(self, repo):
        (repo / "kernel.py").write_text("FAST = True\n")
        _git(repo, "add", "kernel.py")
        assert git_dirty() is True

    def test_untracked_files_and_ledgers_do_not_count(self, repo):
        """Untracked files, and the BENCH ledgers a run appends to,
        leave the checkout clean."""
        record_bench("k", "t", {"x_seconds": 1.0}, out_dir=str(repo))
        _git(repo, "add", "BENCH_k.json")
        _git(repo, "commit", "-q", "-m", "ledger")
        for seconds in (0.9, 0.8):
            record_bench("k", "t", {"x_seconds": seconds},
                         out_dir=str(repo))
        assert [e["git_dirty"] for e in self._entries(repo)] == [
            False, False, False
        ]

    def test_outside_a_checkout(self, tmp_path, monkeypatch):
        outside = tmp_path / "plain"
        outside.mkdir()
        monkeypatch.chdir(outside)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        assert git_dirty() is None
        path = record_bench("k", "t", {}, out_dir=str(outside))
        (entry,) = load_bench(path)["entries"]
        assert entry["git_dirty"] is None
        assert entry["git_sha"] is None


class TestLoadDir:
    def test_loads_only_bench_files(self, tmp_path):
        record_bench("one", "t", {}, out_dir=str(tmp_path))
        record_bench("two", "t", {}, out_dir=str(tmp_path))
        (tmp_path / "BENCH_bad.json").write_text("nope")
        (tmp_path / "other.json").write_text("{}")
        histories = load_bench_dir(str(tmp_path))
        assert sorted(histories) == ["one", "two"]

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_bench_dir(str(tmp_path / "ghost")) == {}


class TestSecondsMetrics:
    def test_filters_to_numeric_seconds(self):
        data = {
            "sweep_seconds": 1.5,
            "steps_seconds": 2,
            "faults": 100,
            "degraded_seconds": True,  # bool is not a timing
            "label_seconds": "fast",
        }
        assert seconds_metrics(data) == {
            "sweep_seconds": 1.5, "steps_seconds": 2.0
        }


class TestRegressionGate:
    def _doc(self, *runs):
        return {
            "schema": BENCH_SCHEMA,
            "bench": "k",
            "entries": [{"title": "t", "data": data} for data in runs],
        }

    def test_flags_slowdown_beyond_threshold(self):
        doc = self._doc({"sweep_seconds": 1.0}, {"sweep_seconds": 1.3})
        (regression,) = find_regressions(doc, threshold=0.2)
        assert regression.metric == "sweep_seconds"
        assert regression.ratio == pytest.approx(1.3)
        assert "1.30x" in str(regression)

    def test_within_threshold_passes(self):
        doc = self._doc({"sweep_seconds": 1.0}, {"sweep_seconds": 1.15})
        assert find_regressions(doc, threshold=0.2) == []

    def test_speedup_never_flagged(self):
        doc = self._doc({"sweep_seconds": 1.0}, {"sweep_seconds": 0.1})
        assert find_regressions(doc) == []

    def test_microsecond_noise_absolute_floor(self):
        """A 50% jump on a 0.1 ms measurement is noise, not a
        regression: the gate requires at least 1 ms of absolute
        slowdown."""
        doc = self._doc({"sweep_seconds": 0.0001},
                        {"sweep_seconds": 0.00015})
        assert find_regressions(doc) == []

    def test_single_entry_has_no_baseline(self):
        doc = self._doc({"sweep_seconds": 1.0})
        assert find_regressions(doc) == []

    def test_compares_latest_vs_previous_only(self):
        doc = self._doc(
            {"sweep_seconds": 9.0},   # ancient slow run
            {"sweep_seconds": 1.0},
            {"sweep_seconds": 1.05},
        )
        assert find_regressions(doc) == []

    def test_counts_are_context_not_gated(self):
        doc = self._doc({"faults": 100}, {"faults": 500})
        assert find_regressions(doc) == []

    def test_ratio_with_zero_baseline(self):
        regression = Regression("k", "m", before=0.0, after=1.0)
        assert regression.ratio == float("inf")

    @staticmethod
    def _probed(*runs):
        """A history of ``(seconds, host_probe_seconds)`` entries; a
        probe of None leaves the entry without one."""
        entries = []
        for seconds, probe in runs:
            entry = {"title": "t", "data": {"sweep_seconds": seconds}}
            if probe is not None:
                entry["host_probe_seconds"] = probe
            entries.append(entry)
        return {"schema": BENCH_SCHEMA, "bench": "k", "entries": entries}

    def test_twice_as_slow_host_is_not_a_regression(self):
        doc = self._probed((1.0, 0.005), (2.0, 0.010))
        assert find_regressions(doc, threshold=0.2) == []

    def test_same_probe_twice_the_seconds_is_a_regression(self):
        doc = self._probed((1.0, 0.005), (2.0, 0.005))
        (regression,) = find_regressions(doc, threshold=0.2)
        assert regression.ratio == pytest.approx(2.0)
        assert regression.host_ratio == pytest.approx(1.0)

    def test_slowdown_beyond_the_hosts_is_flagged_scaled(self):
        doc = self._probed((1.0, 0.005), (3.0, 0.010))
        (regression,) = find_regressions(doc, threshold=0.2)
        assert regression.ratio == pytest.approx(1.5)
        assert "(1.50x, host 2.00x)" in str(regression)

    def test_entries_without_a_probe_compare_raw(self):
        for runs in (
            ((1.0, None), (2.0, 0.010)),
            ((1.0, 0.005), (2.0, None)),
            ((1.0, None), (2.0, None)),
        ):
            (regression,) = find_regressions(self._probed(*runs))
            assert regression.ratio == pytest.approx(2.0)
            assert regression.host_ratio == 1.0
        assert find_regressions(
            self._probed((1.0, None), (1.1, 0.010))
        ) == []


class TestTrajectory:
    def test_renders_entries_and_metrics(self, tmp_path):
        record_bench("kern", "t", {"sweep_seconds": 0.5},
                     out_dir=str(tmp_path))
        record_bench("kern", "t", {"sweep_seconds": 0.6},
                     out_dir=str(tmp_path))
        text = render_trajectory(load_bench_dir(str(tmp_path)))
        assert "kern (2 entries)" in text
        assert "sweep_seconds" in text
        assert "0.5000" in text and "0.6000" in text

    def test_empty(self):
        assert "no BENCH_" in render_trajectory({})


class TestConftestEmit:
    def test_benchmark_emit_records_history(self, tmp_path, monkeypatch):
        """The benchmarks/conftest.py emit() helper routes through
        record_bench with BENCH_JSON_DIR honoured."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_conftest",
            os.path.join(os.path.dirname(__file__), "..",
                         "benchmarks", "conftest.py"),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        module.emit("demo title", ["line"], name="demo",
                    data={"x_seconds": 0.25})
        module.emit("demo title", ["line"], name="demo",
                    data={"x_seconds": 0.30})
        doc = load_bench(str(tmp_path / "BENCH_demo.json"))
        assert len(doc["entries"]) == 2
        assert doc["entries"][-1]["data"]["x_seconds"] == 0.30

    def test_emit_without_name_writes_nothing(self, tmp_path,
                                              monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_conftest2",
            os.path.join(os.path.dirname(__file__), "..",
                         "benchmarks", "conftest.py"),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        module.emit("table only", ["line"])
        assert list(tmp_path.iterdir()) == []
