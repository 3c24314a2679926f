"""Tests for the async job manager and the progress-reporting channel.

The serve-layer HTTP tests (``tests/test_serve.py``) cover the endpoints;
this module covers the machinery underneath: :mod:`repro.api.progress`
scoping semantics, :class:`repro.serve.jobs.JobManager` lifecycle /
backpressure / failure classification and the locked
:meth:`ResponseCache.stats` snapshot.  The process pool under sharded runs
has its own module, ``tests/test_process_pool.py``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import MixerService, SpecRequest, progress_scope
from repro.api.progress import current_callback, report_progress
from repro.api.registry import ExperimentRegistry, ExperimentSpec
from repro.api.request import RequestValidationError
from repro.api.response_cache import ResponseCache
from repro.core.config import MixerDesign
from repro.serve.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JobManager,
    JobQueueFullError,
)

from api_test_helpers import CALLS, EchoResult, echo_registry, open_gate

#: Generous bound for job completion in tests; real runs take milliseconds.
WAIT_S = 30.0


@pytest.fixture()
def manager():
    manager = JobManager(MixerService(registry=echo_registry()),
                         workers=2, queue_limit=4)
    yield manager
    manager.shutdown()


def echo(value: float, **grid) -> SpecRequest:
    return SpecRequest(experiment="echo", grid={"value": value, **grid})


def _decoded(job) -> dict:
    """A done job's result payload (retained as its wire bytes)."""
    return json.loads(job.result)


class TestProgressScope:
    def test_noop_without_scope(self):
        assert current_callback() is None
        report_progress(anything=1)  # must not raise

    def test_scope_routes_and_restores(self):
        seen: list[dict] = []
        with progress_scope(seen.append):
            report_progress(step=1)
            report_progress(step=2, extra="x")
        report_progress(step=3)  # after the scope: dropped
        assert seen == [{"step": 1}, {"step": 2, "extra": "x"}]
        assert current_callback() is None

    def test_nested_scope_shadows_outer(self):
        outer: list[dict] = []
        inner: list[dict] = []
        with progress_scope(outer.append):
            report_progress(level="outer")
            with progress_scope(inner.append):
                report_progress(level="inner")
            report_progress(level="outer-again")
        assert [f["level"] for f in outer] == ["outer", "outer-again"]
        assert [f["level"] for f in inner] == ["inner"]

    def test_observer_errors_are_swallowed(self):
        def bad(_fields: dict) -> None:
            raise ValueError("observer bug")

        with progress_scope(bad):
            report_progress(step=1)  # must not raise

    def test_scopes_are_per_thread(self):
        seen: list[dict] = []
        leaked: list[dict] = []

        def other_thread() -> None:
            with progress_scope(leaked.append):
                time.sleep(0.05)

        thread = threading.Thread(target=other_thread)
        with progress_scope(seen.append):
            thread.start()
            report_progress(mine=True)
            thread.join()
        assert seen == [{"mine": True}]
        assert leaked == []


class TestJobLifecycle:
    def test_submit_wait_done_result_matches_sync(self, manager):
        job = manager.submit(echo(2.5))
        manager.wait(job, timeout=WAIT_S)
        assert job.state == JOB_DONE
        expected = manager.service.submit(echo(2.5)).to_dict()
        assert _decoded(job)["result"] == expected["result"]
        assert _decoded(job)["result_schema"] == "EchoResult"

    def test_retained_result_is_encoded_bytes(self, manager):
        # A finished job keeps one flat wire buffer, not the dict tree.
        job = manager.submit(echo(2.5))
        manager.wait(job, timeout=WAIT_S)
        assert type(job.result) is bytes
        assert job.describe()["result"] == json.loads(job.result)

    def test_describe_shape(self, manager):
        job = manager.submit(echo(1.25))
        manager.wait(job, timeout=WAIT_S)
        payload = job.describe()
        assert payload["state"] == JOB_DONE
        assert payload["kind"] == "spec"
        assert payload["experiments"] == ["echo"]
        assert payload["queued_s"] >= 0.0
        assert payload["running_s"] >= 0.0
        assert payload["result"]["result"]["fields"]["value"] == 1.25
        summary = job.describe(include_result=False)
        assert "result" not in summary

    def test_batch_job_preserves_order(self, manager):
        job = manager.submit_batch([echo(float(v)).to_dict()
                                    for v in (3.0, 1.0, 2.0)])
        manager.wait(job, timeout=WAIT_S)
        assert job.state == JOB_DONE
        values = [entry["result"]["fields"]["value"]
                  for entry in _decoded(job)["responses"]]
        assert values == [3.0, 1.0, 2.0]

    def test_malformed_submit_is_synchronous_validation_error(self, manager):
        with pytest.raises(RequestValidationError):
            manager.submit({"no_experiment": True})
        with pytest.raises(RequestValidationError):
            manager.submit_batch("not-a-list")
        assert manager.stats()["submitted"] == 0

    def test_unknown_experiment_fails_as_validation(self, manager):
        job = manager.submit({"experiment": "fig99"})
        manager.wait(job, timeout=WAIT_S)
        assert job.state == JOB_FAILED
        assert job.error_kind == "validation"
        assert "unknown experiment" in job.error

    def test_runner_exception_fails_as_internal(self, manager):
        job = manager.submit(echo(1.0, fail=True))
        manager.wait(job, timeout=WAIT_S)
        assert job.state == JOB_FAILED
        assert job.error_kind == "internal"
        assert "injected runner failure" in job.error

    def test_progress_visible_while_running(self, manager):
        gate = open_gate("jobs-progress")
        job = manager.submit(echo(4.0, gate="jobs-progress"))
        deadline = time.monotonic() + WAIT_S
        while not job.progress and time.monotonic() < deadline:
            time.sleep(0.005)
        try:
            assert job.state == "running"
            assert job.progress["stage"] == "echo"
            assert job.progress["gate"] == "jobs-progress"
            assert job.result is None
        finally:
            gate.set()
        manager.wait(job, timeout=WAIT_S)
        assert job.state == JOB_DONE
        # The last progress snapshot survives completion for late pollers.
        assert job.progress["checkpoint"] == 1


class TestBackpressure:
    def test_queue_bound_sheds_with_error(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=2)
        gate = open_gate("jobs-shed")
        try:
            running = manager.submit(echo(1.0, gate="jobs-shed"))
            deadline = time.monotonic() + WAIT_S
            while running.state != "running" \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            queued = [manager.submit(echo(float(i))) for i in (2, 3)]
            with pytest.raises(JobQueueFullError):
                manager.submit(echo(9.0))
            stats = manager.stats()
            assert stats["shed"] == 1
            assert stats["queued"] == 2
            assert stats["running"] == 1
        finally:
            gate.set()
        for job in [running, *queued]:
            manager.wait(job, timeout=WAIT_S)
            assert job.state == JOB_DONE
        manager.shutdown()

    def test_finished_jobs_evicted_past_history_limit(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=8, history_limit=2)
        jobs = []
        for value in range(5):
            job = manager.submit(echo(float(value)))
            manager.wait(job, timeout=WAIT_S)
            jobs.append(job)
        # Eviction happens on submit; one more pushes the oldest out.
        trigger = manager.submit(echo(99.0))
        manager.wait(trigger, timeout=WAIT_S)
        with pytest.raises(KeyError):
            manager.get(jobs[0].id)
        assert manager.get(trigger.id) is trigger
        manager.shutdown()


def _wait_running(job, deadline_s: float = WAIT_S) -> None:
    deadline = time.monotonic() + deadline_s
    while job.state != "running" and time.monotonic() < deadline:
        time.sleep(0.002)
    assert job.state == "running"


class TestScheduling:
    def test_each_submit_wakes_an_idle_worker(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=2, queue_limit=4)
        gate = open_gate("wake-idle")
        jobs = []
        try:
            # Each job blocks on the closed gate, so the second can only
            # be running if its submit woke the other, idle worker while
            # the first worker was busy.
            for value in (1.0, 2.0):
                jobs.append(manager.submit(echo(value, gate="wake-idle")))
                _wait_running(jobs[-1])
            assert manager.stats()["running"] == 2
        finally:
            gate.set()
        for job in jobs:
            manager.wait(job, timeout=WAIT_S)
            assert job.state == JOB_DONE
        manager.shutdown()

    def test_cache_stores_one_entry_for_identical_burst(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=16)  # memory LRU on
        gate = open_gate("burst-cache")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="burst-cache"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0)) for _ in range(4)]
            gate.set()
            for job in [blocker, *jobs]:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            # Exactly two stores: the blocker's own entry plus ONE entry
            # for the whole identical burst.  The single worker runs the
            # burst in order, so the first duplicate computes and the
            # other three are answered from memory.
            stats = manager.service.response_cache.stats()
            assert stats["stores"] == 2
            assert stats["memory_hits"] == 3
            assert CALLS["run"] == 2
        finally:
            gate.set()
            manager.shutdown()

    def test_single_worker_starts_jobs_in_submit_order(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=8)
        gate = open_gate("fifo")
        try:
            blocker = manager.submit(echo(9.0, gate="fifo"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(float(value)))
                    for value in (3.0, 1.0, 2.0)]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            starts = [job.started_monotonic for job in [blocker, *jobs]]
            assert starts == sorted(starts)
            assert len(set(starts)) == len(starts)
        finally:
            gate.set()
            manager.shutdown()

    def test_identical_jobs_without_response_cache_each_run_the_engine(self):
        manager = JobManager(
            MixerService(registry=echo_registry(), response_cache=False),
            workers=1, queue_limit=8)
        gate = open_gate("no-dedup")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="no-dedup"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0)) for _ in range(4)]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            # No tier merges identical queued jobs: with the response cache
            # off, each one pays its own engine run.
            assert CALLS["run"] == 5
            payloads = [_decoded(job) for job in jobs]
            for payload in payloads:
                payload.pop("elapsed_s")
                assert payload["source"] == "computed"
            assert all(payload == payloads[0] for payload in payloads)
        finally:
            gate.set()
            manager.shutdown()

    def test_failed_identical_jobs_each_record_their_own_error(self):
        manager = JobManager(
            MixerService(registry=echo_registry(), response_cache=False),
            workers=1, queue_limit=8)
        gate = open_gate("fail-each")
        try:
            blocker = manager.submit(echo(9.0, gate="fail-each"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0, fail=True)) for _ in range(3)]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_FAILED
                assert job.error_kind == "internal"
                assert "injected runner failure" in job.error
                assert job.result is None
            manager.wait(blocker, timeout=WAIT_S)
            stats = manager.stats()
            assert stats["failed"] == 3
            assert stats["completed"] == 1
            assert stats["running"] == 0
            assert stats["queued"] == 0
        finally:
            gate.set()
            manager.shutdown()

    def test_concurrent_jobs_keep_separate_progress(self, manager):
        gates = [open_gate("progress-a"), open_gate("progress-b")]
        jobs = []
        try:
            for name in ("progress-a", "progress-b"):
                jobs.append(manager.submit(echo(1.0, gate=name)))
            deadline = time.monotonic() + WAIT_S
            while not all(job.progress for job in jobs) \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            # Each worker reports into its own job's progress dict only.
            assert [job.progress["gate"] for job in jobs] == \
                ["progress-a", "progress-b"]
            assert jobs[0].progress is not jobs[1].progress
        finally:
            for gate in gates:
                gate.set()
        for job in jobs:
            manager.wait(job, timeout=WAIT_S)
            assert job.state == JOB_DONE

    def test_batch_job_matches_in_process_submit_batch(self):
        designs = [MixerDesign().with_gain_setting(1.0 + 0.002 * index)
                   for index in range(3)]
        requests = [SpecRequest(experiment="echo_batch", design=design,
                                grid={"value": 1.0})
                    for design in designs]
        solo = MixerService(registry=echo_registry(), response_cache=False)
        expected = [response.to_dict()
                    for response in solo.submit_batch(requests)]
        manager = JobManager(
            MixerService(registry=echo_registry(), response_cache=False),
            workers=1, queue_limit=4)
        try:
            job = manager.submit_batch(requests)
            manager.wait(job, timeout=WAIT_S)
            assert job.state == JOB_DONE
            got = _decoded(job)["responses"]
            assert len(got) == len(expected)
            for left, right in zip(got, expected):
                # Wall-clock timing is the only field allowed to differ.
                left.pop("elapsed_s"), right.pop("elapsed_s")
                assert left == right
            assert len({entry["result"]["fields"]["label"]
                        for entry in got}) == 3
        finally:
            manager.shutdown()

    def test_shutdown_finishes_queued_jobs_and_refuses_new_ones(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=4)
        gate = open_gate("shutdown-drain")
        try:
            blocker = manager.submit(echo(9.0, gate="shutdown-drain"))
            _wait_running(blocker)
            queued = [manager.submit(echo(float(value)))
                      for value in (1.0, 2.0)]
            manager.shutdown(wait=False)
            with pytest.raises(RuntimeError, match="shut down"):
                manager.submit(echo(3.0))
            gate.set()
            for job in [blocker, *queued]:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            assert manager.stats()["submitted"] == 3
        finally:
            gate.set()
            for thread in manager._threads:
                thread.join(timeout=WAIT_S)
        assert not any(thread.is_alive() for thread in manager._threads)

    def test_queue_wait_histogram_counts_every_started_job(self, manager):
        jobs = [manager.submit(echo(float(value))) for value in range(3)]
        for job in jobs:
            manager.wait(job, timeout=WAIT_S)
        histogram = manager.stats()["queue_wait_le_s"]
        assert histogram["+Inf"] == 3
        counts = list(histogram.values())
        assert counts == sorted(counts)  # cumulative, ending at +Inf


class TestBatchGrouping:
    def test_batch_runs_each_group_once_in_request_order(self):
        # Misses group by (experiment, resolved grid, workers).  A group
        # runs once: one batch-runner call over its distinct designs, or
        # one runner call per distinct design for a point experiment.
        calls: list[tuple] = []

        def point(design, *, value: float = 1.0, workers=None):
            calls.append(("point", value, workers, 1))
            return EchoResult(label=design.fingerprint()[:12], value=value)

        def batch(designs, *, value: float = 1.0, workers=None):
            calls.append(("batch", value, workers, len(designs)))
            return {fingerprint: EchoResult(label=fingerprint[:12],
                                            value=value)
                    for fingerprint in designs}

        registry = ExperimentRegistry()
        for name, runner, batch_runner in (("point", point, None),
                                           ("batch", point, batch)):
            registry.register(ExperimentSpec(
                name=name, artefact="test fixture", summary="spy",
                runner=runner, result_type=EchoResult,
                report=lambda result: "", default_grid={"value": 1.0},
                accepts_cache=False, batch_runner=batch_runner))
        service = MixerService(registry=registry, response_cache=False)
        base, other = MixerDesign(), MixerDesign().with_gain_setting(1.05)
        members = [(base, 2.0, None), (other, 3.0, None), (other, 2.0, None),
                   (base, 2.0, None), (base, 2.0, 1)]
        for experiment, expected in (
                ("point", [("point", 2.0, None, 1), ("point", 2.0, None, 1),
                           ("point", 3.0, None, 1), ("point", 2.0, 1, 1)]),
                ("batch", [("batch", 2.0, None, 2), ("batch", 3.0, None, 1),
                           ("batch", 2.0, 1, 1)])):
            requests = [SpecRequest(experiment=experiment, design=design,
                                    grid={"value": value}, workers=workers)
                        for design, value, workers in members]
            calls.clear()
            responses = service.submit_batch(requests)
            assert calls == expected
            assert [(response.design_fingerprint, response.result.value)
                    for response in responses] == \
                [(design.fingerprint(), value)
                 for design, value, _ in members]
            assert {response.source for response in responses} == \
                {"computed"}


class TestWaitTimeout:
    def test_timeout_reports_coherent_state(self):
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=4)
        gate = open_gate("wait-timeout")
        try:
            job = manager.submit(echo(1.0, gate="wait-timeout"))
            with pytest.raises(TimeoutError) as excinfo:
                manager.wait(job, timeout=0.05)
            message = str(excinfo.value)
            assert job.id in message
            assert ("queued" in message) or ("running" in message)
        finally:
            gate.set()
            manager.shutdown()


class TestYieldOptProgress:
    def test_iteration_history_streams(self):
        from repro.optimize import run_yield_opt
        from api_test_helpers import ACTIVE_TARGETS

        seen: list[dict] = []
        with progress_scope(seen.append):
            result = run_yield_opt(population=2, iterations=2, num_samples=2,
                                   targets=ACTIVE_TARGETS)
        iteration_frames = [f for f in seen if f.get("stage") == "yield_opt"]
        assert [f["iteration"] for f in iteration_frames] == [1, 2]
        assert [len(f["history"]) for f in iteration_frames] == [1, 2]
        # The streamed history is exactly the result's history, as it grew.
        assert iteration_frames[-1]["history"] == list(result.history)
        assert iteration_frames[-1]["best_yield"] == result.best_yield


class TestResponseCacheStats:
    def test_stats_snapshot_counts(self, tmp_path):
        cache = ResponseCache(tmp_path, lru_size=4)
        entry = {"request_key": "k1", "payload": 1}
        assert cache.load("k1") is None
        cache.store("k1", entry)
        assert cache.load("k1") == (entry, "memory")
        cache.clear_memory()
        assert cache.load("k1") == (entry, "disk")
        stats = cache.stats()
        assert stats == {
            "memory_entries": 1,
            "lru_size": 4,
            "disk_tier": True,
            "memory_hits": 1,
            "disk_hits": 1,
            "misses": 1,
            "stores": 1,
            "corrupt": 0,
            "write_errors": 0,
            "hit_rate": 2 / 3,
        }

    def test_memory_size_and_stats_under_concurrent_traffic(self):
        cache = ResponseCache(lru_size=8)
        stop = threading.Event()

        def writer() -> None:
            index = 0
            while not stop.is_set():
                key = f"k{index % 16}"
                cache.store(key, {"request_key": key})
                cache.load(key)
                index += 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                assert 0 <= cache.memory_size <= 8
                stats = cache.stats()
                assert stats["memory_entries"] <= 8
                assert stats["hit_rate"] <= 1.0
        finally:
            stop.set()
            for thread in threads:
                thread.join()

