"""Tests for the async job manager and the progress-reporting channel.

The serve-layer HTTP tests (``tests/test_serve.py``) cover the endpoints;
this module covers the machinery underneath: :mod:`repro.api.progress`
scoping semantics, :class:`repro.serve.jobs.JobManager` lifecycle /
backpressure / failure classification, the locked
:meth:`ResponseCache.stats` snapshot, and shared process-pool reuse in the
sweep engine.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import MixerService, SpecRequest, progress_scope
from repro.api.progress import current_callback, report_progress
from repro.api.request import RequestValidationError
from repro.api.response_cache import ResponseCache
from repro.serve.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JobManager,
    JobQueueFullError,
)

from repro.core.config import MixerDesign

from api_test_helpers import CALLS, echo_registry, open_gate

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


def batch_echo_request(value: float = 1.0, design: MixerDesign | None = None,
                       **grid) -> SpecRequest:
    return SpecRequest(experiment="echo_batch",
                       design=design if design is not None else MixerDesign(),
                       grid={"value": value, **grid})


def _distinct_designs(count: int) -> list[MixerDesign]:
    return [MixerDesign().with_gain_setting(1.0 + 0.002 * i)
            for i in range(count)]


def _wait_running(job, deadline_s: float = WAIT_S) -> None:
    deadline = time.monotonic() + deadline_s
    while job.state != "running" and time.monotonic() < deadline:
        time.sleep(0.002)
    assert job.state == "running"


class TestCoalescing:
    """The micro-batching drain: what merges, what never does.

    Every test parks the single worker on a gated job first, queues the
    jobs under test while the worker is busy, then releases the gate — so
    the drain always sees the full candidate set and the outcome is
    deterministic, not a race against the coalesce window.
    """

    def _manager(self, **kwargs) -> JobManager:
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("queue_limit", 16)
        return JobManager(
            MixerService(registry=echo_registry(), response_cache=False),
            **kwargs)

    def test_compatible_jobs_merge_into_one_batch_call(self):
        manager = self._manager(coalesce_window_ms=200.0, max_coalesce=3)
        gate = open_gate("coalesce-merge")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="coalesce-merge"))
            _wait_running(blocker)
            jobs = [manager.submit(batch_echo_request(design=design))
                    for design in _distinct_designs(3)]
            gate.set()
            for job in [blocker, *jobs]:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            # One engine call answered all three jobs: the blocker ran the
            # solo runner once, the merged group ran the batch runner once
            # (which evaluates its three designs through the same runner).
            assert CALLS["batch"] == 1
            assert CALLS["run"] == 4
            labels = [_decoded(job)["result"]["fields"]["label"]
                      for job in jobs]
            assert len(set(labels)) == 3  # each job got its own design back
            coalesce = manager.stats()["coalesce"]
            assert coalesce["enabled"] is True
            assert coalesce["coalesced_batches"] == 1
            assert coalesce["coalesced_jobs"] == 3
            assert coalesce["singleflight_hits"] == 0
        finally:
            gate.set()
            manager.shutdown()

    def test_merged_responses_match_solo_submits(self):
        designs = _distinct_designs(3)
        solo = MixerService(registry=echo_registry(), response_cache=False)
        expected = [solo.submit(batch_echo_request(design=design)).to_dict()
                    for design in designs]
        manager = self._manager(coalesce_window_ms=200.0, max_coalesce=3)
        gate = open_gate("coalesce-identity")
        try:
            blocker = manager.submit(echo(9.0, gate="coalesce-identity"))
            _wait_running(blocker)
            jobs = [manager.submit(batch_echo_request(design=design))
                    for design in designs]
            gate.set()
            for job, want in zip(jobs, expected):
                manager.wait(job, timeout=WAIT_S)
                got = _decoded(job)
                # Wall-clock timing is the only field allowed to differ.
                got.pop("elapsed_s"), want.pop("elapsed_s")
                assert got == want
        finally:
            gate.set()
            manager.shutdown()

    def test_incompatible_grids_never_merge(self):
        manager = self._manager(coalesce_window_ms=50.0)
        gate = open_gate("coalesce-grids")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="coalesce-grids"))
            _wait_running(blocker)
            designs = _distinct_designs(2)
            jobs = [manager.submit(batch_echo_request(1.0, designs[0])),
                    manager.submit(batch_echo_request(2.0, designs[1]))]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            assert CALLS["batch"] == 0  # two solo runs, no group formed
            assert manager.stats()["coalesce"]["coalesced_batches"] == 0
        finally:
            gate.set()
            manager.shutdown()

    def test_incompatible_options_never_merge(self):
        manager = self._manager(coalesce_window_ms=50.0)
        gate = open_gate("coalesce-options")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="coalesce-options"))
            _wait_running(blocker)
            designs = _distinct_designs(2)
            # Same experiment, same grid — but one pins workers=2, so the
            # execution-option identity differs and the jobs must not merge.
            jobs = [manager.submit(SpecRequest(experiment="echo_opts",
                                               design=designs[0],
                                               grid={"value": 1.0})),
                    manager.submit(SpecRequest(experiment="echo_opts",
                                               design=designs[1],
                                               grid={"value": 1.0},
                                               workers=2))]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            assert CALLS["batch"] == 0
            assert manager.stats()["coalesce"]["coalesced_batches"] == 0
        finally:
            gate.set()
            manager.shutdown()

    def test_window_zero_disables_coalescing_and_singleflight(self):
        manager = self._manager()  # default window: 0
        gate = open_gate("coalesce-off")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="coalesce-off"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0)) for _ in range(2)]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            # Identical jobs, but with the window at 0 each pays its own
            # engine run — exactly the pre-coalescing behaviour.
            assert CALLS["run"] == 3
            coalesce = manager.stats()["coalesce"]
            assert coalesce["enabled"] is False
            assert coalesce["singleflight_hits"] == 0
            assert coalesce["coalesced_batches"] == 0
        finally:
            gate.set()
            manager.shutdown()

    def test_progress_channels_stay_per_job(self):
        manager = self._manager(coalesce_window_ms=200.0, max_coalesce=2)
        lead_gate = open_gate("coalesce-lead")
        run_gate = open_gate("coalesce-progress")
        try:
            blocker = manager.submit(echo(9.0, gate="coalesce-lead"))
            _wait_running(blocker)
            designs = _distinct_designs(2)
            jobs = [manager.submit(batch_echo_request(
                        design=design, gate="coalesce-progress"))
                    for design in designs]
            lead_gate.set()
            deadline = time.monotonic() + WAIT_S
            while not all(job.progress for job in jobs) \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            # The merged run broadcast its frames into each job's own
            # private progress dict, observable per job id.
            for job in jobs:
                assert job.progress["stage"] == "echo"
            assert jobs[0].progress is not jobs[1].progress
            run_gate.set()
            labels = set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
                labels.add(_decoded(job)["result"]["fields"]["label"])
            assert len(labels) == 2
        finally:
            lead_gate.set()
            run_gate.set()
            manager.shutdown()


class TestSingleflight:
    def _manager(self, response_cache=False, **kwargs) -> JobManager:
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("queue_limit", 16)
        kwargs.setdefault("coalesce_window_ms", 50.0)
        return JobManager(
            MixerService(registry=echo_registry(),
                         response_cache=response_cache),
            **kwargs)

    def test_identical_burst_executes_engine_once(self):
        manager = self._manager()
        gate = open_gate("sf-burst")
        CALLS.clear()
        try:
            blocker = manager.submit(echo(9.0, gate="sf-burst"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0)) for _ in range(4)]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            # Response cache is OFF: only singleflight can explain a single
            # engine run answering four identical jobs.
            assert CALLS["run"] == 2  # the blocker + one for the burst
            assert manager.stats()["coalesce"]["singleflight_hits"] == 3
            results = [job.result for job in jobs]
            for left, right in zip(results, results[1:]):
                # Same payload; shared safely, since the bytes are immutable.
                assert left == right
                assert isinstance(left, bytes)
        finally:
            gate.set()
            manager.shutdown()

    def test_late_identical_arrival_parks_on_inflight_leader(self):
        manager = self._manager(workers=2)
        gate = open_gate("sf-inflight")
        CALLS.clear()
        try:
            leader = manager.submit(echo(5.0, gate="sf-inflight"))
            # Wait for the runner's progress frame, not just state=running:
            # the frame proves the drain window closed and the leader is
            # executing (and therefore registered as in-flight).
            deadline = time.monotonic() + WAIT_S
            while not leader.progress and time.monotonic() < deadline:
                time.sleep(0.002)
            assert leader.progress
            follower = manager.submit(echo(5.0, gate="sf-inflight"))
            deadline = time.monotonic() + WAIT_S
            while manager.stats()["coalesce"]["singleflight_hits"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            # The second worker dequeued the duplicate and parked it on the
            # running leader instead of starting a second engine run.
            assert manager.stats()["coalesce"]["singleflight_hits"] == 1
            gate.set()
            for job in (leader, follower):
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            assert CALLS["run"] == 1
            assert follower.result == leader.result
        finally:
            gate.set()
            manager.shutdown()

    def test_failure_propagates_to_every_waiter(self):
        manager = self._manager()
        gate = open_gate("sf-fail")
        try:
            blocker = manager.submit(echo(9.0, gate="sf-fail"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0, fail=True)) for _ in range(3)]
            gate.set()
            for job in jobs:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_FAILED
                assert job.error_kind == "internal"
                assert "injected runner failure" in job.error
        finally:
            gate.set()
            manager.shutdown()

    def test_cache_stores_one_entry_for_identical_burst(self):
        manager = self._manager(response_cache=None)  # memory LRU on
        gate = open_gate("sf-cache")
        try:
            blocker = manager.submit(echo(9.0, gate="sf-cache"))
            _wait_running(blocker)
            jobs = [manager.submit(echo(5.0)) for _ in range(4)]
            gate.set()
            for job in [blocker, *jobs]:
                manager.wait(job, timeout=WAIT_S)
                assert job.state == JOB_DONE
            # Exactly two stores: the blocker's own entry plus ONE entry
            # for the whole identical burst — the leader stored, the three
            # followers never touched the cache.
            assert manager.service.response_cache.stats()["stores"] == 2
        finally:
            gate.set()
            manager.shutdown()


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


class TestSharedPools:
    def test_reuse_is_bit_identical_and_reuses_executor(self):
        import numpy as np
        from repro.sweep.parallel import (
            ParallelSweepRunner,
            pool_reuse_enabled,
            set_pool_reuse,
            shared_executor,
            shutdown_shared_pools,
        )
        from repro.core.config import MixerDesign

        designs = {"a": MixerDesign(),
                   "b": MixerDesign().with_gain_setting(1.05)}
        runner = ParallelSweepRunner(workers=2, cache=False)
        baseline = runner.run(rf_frequencies=[2.4e9], designs=designs)
        assert not pool_reuse_enabled()
        set_pool_reuse(True)
        try:
            first_pool = shared_executor(2)
            shared = runner.run(rf_frequencies=[2.4e9], designs=designs)
            assert shared_executor(2) is first_pool  # reused, not respawned
            for spec in baseline.spec_names:
                np.testing.assert_array_equal(shared.data[spec],
                                              baseline.data[spec])
        finally:
            set_pool_reuse(False)
            shutdown_shared_pools()
