"""Benchmark: the unified spec-service layer.

Gates for the API redesign:

* the service's **dispatch overhead** must be negligible — a
  :meth:`MixerService.submit` (response cache off) stays within a small
  factor of the direct ``run_*`` call it wraps;
* a **response-cache hit** must be dramatically cheaper than computing —
  >= 50x on the Fig. 8 request (it does no engine work at all; the gate is
  deliberately loose so slow CI boxes pass);
* the cached repeat performs **zero sizing solves**, the request-level
  restatement of the spec-cache acceptance bar.

Timing gates are skipped in smoke mode (``--benchmark-disable``, the CI
configuration), and the ``timing``-marked cache-hit ratio is deselected
unless ``-m timing`` asks for it; the equality and zero-solve assertions
always run.
"""

from __future__ import annotations

import time

import pytest

from conftest import record_comparison

from repro.api import MixerService, SpecRequest, encode
from repro.core.transconductance import sizing_solve_count
from repro.experiments import run_fig8

POINTS = 96
MIN_CACHE_SPEEDUP = 50.0
MAX_DISPATCH_OVERHEAD = 1.5  # service submit vs direct call, same work


def _smoke_mode(request) -> bool:
    return bool(request.config.getoption("--benchmark-disable"))


def _request() -> SpecRequest:
    return SpecRequest(experiment="fig8", grid={"points": POINTS})


class TestServiceDispatch:
    def test_submit_is_bit_identical_to_direct_run(self):
        response = MixerService(response_cache=False).submit(_request())
        assert response.result_payload == encode(run_fig8(points=POINTS))

    def test_dispatch_overhead_is_negligible(self, request):
        if _smoke_mode(request):
            pytest.skip("timing gate runs in calibrated mode only")
        started = time.perf_counter()
        run_fig8(points=POINTS)
        direct_s = time.perf_counter() - started

        service = MixerService(response_cache=False)
        started = time.perf_counter()
        service.submit(_request())
        submit_s = time.perf_counter() - started

        record_comparison("api", "submit/direct overhead",
                          MAX_DISPATCH_OVERHEAD, submit_s / direct_s)
        assert submit_s <= direct_s * MAX_DISPATCH_OVERHEAD + 0.05


class TestResponseCache:
    def test_cached_repeat_speedup_and_zero_solves(self):
        """A cached repeat does zero sizing solves and returns the same payload."""
        service = MixerService()
        first = service.submit(_request())
        assert not first.cached

        solves_before = sizing_solve_count()
        again = service.submit(_request())

        assert sizing_solve_count() == solves_before
        assert again.cached
        assert again.result_payload == first.result_payload

    @pytest.mark.timing
    def test_cached_repeat_speedup(self):
        """A response-cache hit is >= 50x cheaper than the cold compute."""
        service = MixerService()
        started = time.perf_counter()
        service.submit(_request())
        cold_s = time.perf_counter() - started

        started = time.perf_counter()
        assert service.submit(_request()).cached
        warm_s = time.perf_counter() - started

        record_comparison("api", "response-cache speedup (x)",
                          MIN_CACHE_SPEEDUP, cold_s / max(warm_s, 1e-9))
        assert cold_s / max(warm_s, 1e-9) >= MIN_CACHE_SPEEDUP

    def test_benchmark_cached_submit(self, benchmark):
        """pytest-benchmark curve of the hot path (memory-cache hit)."""
        service = MixerService()
        service.submit(_request())
        response = benchmark(service.submit, _request())
        assert response.cached
