"""The corpus-wide campaign runner (``repro bench-suite``).

The acceptance bar: the aggregate table over the bundled mini-corpus
is byte-identical across ``--jobs 1/4`` x ``--kernel interp/compiled``
(determinism is a product guarantee, so it is pinned by a
differential), and a second run against the same result store executes
zero simulations while printing the same table.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import load_corpus
from repro.corpus.suite import run_bench_suite
from repro.service.store import ResultStore

BUNDLED = str(
    Path(__file__).resolve().parent.parent / "examples" / "corpus"
)


def _run_cli(capsys, *argv):
    code = main(["bench-suite", BUNDLED, "--no-bench", *argv])
    captured = capsys.readouterr()
    return code, captured.out


class TestDeterministicTable:
    @pytest.mark.parametrize("suite", ["tour", "wp"])
    def test_table_identical_across_jobs_and_kernels(
        self, capsys, suite
    ):
        outputs = {}
        for jobs in ("1", "4"):
            for kernel in ("interp", "compiled"):
                code, out = _run_cli(
                    capsys, "--suite", suite,
                    "--jobs", jobs, "--kernel", kernel,
                )
                assert code == 0
                outputs[(jobs, kernel)] = out
        assert len(set(outputs.values())) == 1

    def test_wp_sweep_is_complete(self, capsys):
        code, out = _run_cli(capsys, "--suite", "wp")
        assert code == 0
        assert "5/5 circuits ran" in out
        assert "(100.0%), 5 complete" in out

    def test_tour_surveys_escapes_without_failing(self, capsys):
        # Figure 2's lesson at corpus scale: plain tours leave
        # transfer escapes, and the sweep reports them as data.
        code, out = _run_cli(capsys, "--suite", "tour")
        assert code == 0
        assert "gaps" in out
        assert "0 complete" in out

    def test_json_rows_deterministic_timing_segregated(self, capsys):
        docs = []
        for jobs in ("1", "4"):
            code = main([
                "bench-suite", BUNDLED, "--no-bench", "--json",
                "--suite", "wp", "--jobs", jobs,
            ])
            assert code == 0
            docs.append(json.loads(capsys.readouterr().out))
        for doc in docs:
            doc.pop("timing")
        assert docs[0] == docs[1]


class TestStoreIntegration:
    def test_second_run_executes_zero_simulations(self, tmp_path):
        entries = load_corpus(BUNDLED)
        store = ResultStore(str(tmp_path / "store"))
        first = run_bench_suite(
            entries, corpus="corpus", suite="wp", store=store
        )
        assert first.executed > 0
        assert first.cached_circuits == 0
        second = run_bench_suite(
            entries, corpus="corpus", suite="wp", store=store
        )
        assert second.executed == 0
        assert second.cached_circuits == len(second.rows)
        assert second.render_table() == first.render_table()

    def test_kernel_is_part_of_the_identity(self, tmp_path):
        entries = load_corpus(BUNDLED)
        store = ResultStore(str(tmp_path / "store"))
        run_bench_suite(
            entries, corpus="corpus", suite="wp",
            kernel="compiled", store=store,
        )
        crossed = run_bench_suite(
            entries, corpus="corpus", suite="wp",
            kernel="interp", store=store,
        )
        # A different kernel is a different claim: no cache hits.
        assert crossed.cached_circuits == 0

    def test_keying_is_by_content_not_suite_name(self, tmp_path):
        # The store is content-addressed on (machine, test,
        # population, kernel): a W sweep after a Wp sweep hits
        # exactly where the two constructions emit the same suite
        # (most small machines) and re-executes where they differ.
        entries = load_corpus(BUNDLED)
        store = ResultStore(str(tmp_path / "store"))
        run_bench_suite(
            entries, corpus="corpus", suite="wp", store=store
        )
        tour = run_bench_suite(
            entries, corpus="corpus", suite="tour", store=store
        )
        # Tour tests and fault populations differ from Wp: no hits.
        assert tour.cached_circuits == 0
        again = run_bench_suite(
            entries, corpus="corpus", suite="w", store=store
        )
        assert again.cached_circuits >= 1


class TestRunRoot:
    def test_per_circuit_run_dirs_and_resume(self, tmp_path, capsys):
        root = tmp_path / "runs"
        code = main([
            "bench-suite", BUNDLED, "--no-bench", "--suite", "hsi",
            "--run-root", str(root),
        ])
        assert code == 0
        first = capsys.readouterr().out
        for name in ("gray2", "handshake", "quad", "toggle",
                     "turnstile"):
            assert (root / name / "journal.jsonl").exists()
            assert (root / name / "report.json").exists()
        code = main([
            "bench-suite", BUNDLED, "--no-bench", "--suite", "hsi",
            "--run-root", str(root), "--resume",
        ])
        assert code == 0
        assert capsys.readouterr().out == first

    def test_resume_requires_run_root(self, capsys):
        assert main(["bench-suite", BUNDLED, "--resume"]) == 2


class TestVerdicts:
    def test_error_rows_fail_the_sweep(self, tmp_path, capsys):
        (tmp_path / "bad.kiss").write_text("junk junk junk junk j\n")
        (tmp_path / "good.blif").write_text(
            Path(BUNDLED, "toggle.blif").read_text()
        )
        code = main(["bench-suite", str(tmp_path), "--no-bench"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error" in out
        assert "parse error" in out

    def test_inapplicable_circuits_are_skipped_not_failed(
        self, tmp_path, capsys
    ):
        # An input-incomplete FSM: W/Wp/HSI constructions do not
        # apply, so the row is 'skipped' and the sweep still passes.
        (tmp_path / "partial.kiss").write_text(
            ".i 1\n.o 1\n.r a\n0 a b 0\n1 a a 0\n0 b a 1\n.e\n"
        )
        (tmp_path / "comb.blif").write_text(
            ".model comb\n.inputs a\n.outputs y\n"
            ".names a y\n1 1\n.end\n"
        )
        (tmp_path / "good.blif").write_text(
            Path(BUNDLED, "toggle.blif").read_text()
        )
        code = main([
            "bench-suite", str(tmp_path), "--no-bench",
            "--suite", "wp",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("skipped") >= 2
        assert "1/3 circuits ran (2 skipped, 0 errors)" in out

    def test_bad_corpus_path_is_usage_error(self, capsys):
        assert main(
            ["bench-suite", "/no/such/corpus", "--no-bench"]
        ) == 2


class TestBenchRecording:
    def test_run_appends_to_bench_history(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        code = main([
            "bench-suite", BUNDLED, "--suite", "wp", "--jobs", "2",
        ])
        assert code == 0
        doc = json.loads(
            (tmp_path / "BENCH_bench_suite.json").read_text()
        )
        entry = doc["entries"][-1]
        assert entry["data"]["circuits"] == 5
        assert entry["data"]["coverage"] == 1.0
        assert entry["data"]["total_seconds"] > 0
        assert entry["meta"]["suite"] == "wp"
        assert entry["meta"]["jobs"] == 2
