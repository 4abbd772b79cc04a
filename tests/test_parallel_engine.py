"""Unit tests for the parallel execution engine and the fingerprints."""

import time

import pytest

from repro.models import counter, vending_machine
from repro.parallel import (
    TaskOutcome,
    default_jobs,
    inputs_fingerprint,
    machine_fingerprint,
    parallel_map,
)


def _square(x):
    return x * x


def _add_shared(shared, x):
    return shared + x


def _flaky(x):
    raise ValueError(f"boom {x}")


def _sleep_forever(_x):
    time.sleep(60)


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, []) == []

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_order_preserved(self, jobs):
        outcomes = parallel_map(_square, list(range(23)), jobs=jobs)
        assert [o.index for o in outcomes] == list(range(23))
        assert [o.value for o in outcomes] == [i * i for i in range(23)]
        assert all(o.ok for o in outcomes)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_shared_context(self, jobs):
        outcomes = parallel_map(
            _add_shared, [1, 2, 3], shared=100, jobs=jobs
        )
        assert [o.value for o in outcomes] == [101, 102, 103]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_captured_not_raised(self, jobs):
        outcomes = parallel_map(_flaky, [7], jobs=jobs)
        (outcome,) = outcomes
        assert not outcome.ok
        assert not outcome.timed_out
        assert "ValueError" in outcome.error and "boom 7" in outcome.error
        assert outcome.attempts == 1

    def test_retries_counted(self):
        outcomes = parallel_map(_flaky, [1], retries=2)
        assert outcomes[0].attempts == 3
        assert "ValueError" in outcomes[0].error

    def test_retry_until_success(self):
        # Closures only work on the in-process path (jobs=1), which is
        # exactly where retry bookkeeping is easiest to observe.
        calls = {"n": 0}

        def eventually(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return x

        outcomes = parallel_map(eventually, [5], retries=5)
        assert outcomes[0].ok and outcomes[0].value == 5
        assert outcomes[0].attempts == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_flags_outcome(self, jobs):
        start = time.perf_counter()
        outcomes = parallel_map(
            _sleep_forever, [0], jobs=jobs, timeout=0.2
        )
        elapsed = time.perf_counter() - start
        (outcome,) = outcomes
        assert outcome.timed_out and not outcome.ok
        assert outcome.error is None
        assert elapsed < 30

    def test_unpicklable_payload_falls_back_to_serial(self):
        # A lambda cannot cross a process boundary; the engine must
        # detect that and still produce correct, ordered results.
        outcomes = parallel_map(lambda x: x + 1, [1, 2, 3], jobs=4)
        assert [o.value for o in outcomes] == [2, 3, 4]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestCampaignCache:
    def test_machine_fingerprint_structural(self):
        a = counter(3)
        b = counter(3)
        assert machine_fingerprint(a) == machine_fingerprint(b)
        assert machine_fingerprint(a) != machine_fingerprint(
            vending_machine()
        )

    def test_inputs_fingerprint_order_sensitive(self):
        assert inputs_fingerprint(("a", "b")) != inputs_fingerprint(
            ("b", "a")
        )
        assert inputs_fingerprint(["a", "b"]) == inputs_fingerprint(
            ("a", "b")
        )
