"""Benchmark: the unified spec-service layer.

Gates for the API redesign:

* the service's **dispatch adds no engine work** — a
  :meth:`MixerService.submit` (response cache off) makes exactly the
  ``SweepRunner.run`` and ``Mosfet.operating_point`` calls of the direct
  ``run_*`` call it wraps; its wall-clock overhead (within 1.5x) is the
  ``timing``-marked twin;
* a **response-cache hit** must be dramatically cheaper than computing —
  >= 50x on the Fig. 8 request (it does no engine work at all; the gate is
  deliberately loose so slow CI boxes pass);
* the cached repeat performs **zero sizing solves**, the request-level
  restatement of the spec-cache acceptance bar.

The ``timing``-marked wall-clock ratios (dispatch overhead, cache-hit
speedup) are deselected unless ``-m timing`` asks for them; the equality,
work-count and zero-solve assertions always run.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from conftest import record_comparison

from repro.api import MixerService, SpecRequest, encode
from repro.core.transconductance import sizing_solve_count
from repro.devices.mosfet import Mosfet
from repro.experiments import run_fig8
from repro.sweep import SweepRunner

POINTS = 96
MIN_CACHE_SPEEDUP = 50.0
MAX_DISPATCH_OVERHEAD = 1.5  # service submit vs direct call, same work


def _request() -> SpecRequest:
    return SpecRequest(experiment="fig8", grid={"points": POINTS})


def _counting(calls: Counter, key: str, method):
    """``method`` wrapped to count its calls under ``key``."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return method(*args, **kwargs)
    return counted


class TestServiceDispatch:
    def test_submit_is_bit_identical_to_direct_run(self):
        response = MixerService(response_cache=False).submit(_request())
        assert response.result_payload == encode(run_fig8(points=POINTS))

    def test_dispatch_does_only_the_direct_call_work(self, monkeypatch):
        """submit makes exactly the engine calls of the direct run_fig8."""
        calls: Counter = Counter()
        for owner, name in ((SweepRunner, "run"),
                            (Mosfet, "operating_point")):
            monkeypatch.setattr(owner, name, _counting(
                calls, f"{owner.__name__}.{name}", getattr(owner, name)))

        run_fig8(points=POINTS)
        direct = Counter(calls)
        calls.clear()
        MixerService(response_cache=False).submit(_request())

        assert direct["SweepRunner.run"] == 1
        assert direct["Mosfet.operating_point"] > 0
        assert calls == direct

    @pytest.mark.timing
    def test_dispatch_overhead_is_negligible(self):
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
