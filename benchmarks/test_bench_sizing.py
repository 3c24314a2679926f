"""Benchmark: the batched sizing entry point vs the scalar sizing loop.

Sizing a >= 64-design Monte-Carlo population through one
:func:`~repro.core.transconductance.solve_widths` call must return
**bit-identical** widths to the equivalent loop of scalar
:meth:`TransconductanceAmplifier._size_device` solves — the contract that
lets the sweep and waveform engines pre-size design blocks without moving a
single golden pin.  Both entry points call the same closed-form
:func:`~repro.core.transconductance.gm_device_width`, so the identity holds
by construction.  The >= 3x speed gate dates from when the batch path was
an array bisection; it is skipped in smoke mode (``--benchmark-disable``),
while the bit-identity test always runs.

The run is forced cold (``REPRO_SWEEP_CACHE=off``): the on-disk cache
exists precisely to skip these solves, so the comparison must not let a
warm cache answer for either side.  The calibrated ``benchmark``-fixture
case feeds the nightly ``BENCH_<run>.json`` trajectory (the ``sizing``
suite in ``bench.yml``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import record_comparison

from repro.core.transconductance import (
    TransconductanceAmplifier,
    batched_sizing_solve_count,
    solve_widths,
)
from repro.sweep import DeviceSpread, sample_design

#: Monte-Carlo population size for the speedup gate (>= 64 per the issue).
NUM_DESIGNS = 64


def _smoke_mode(request) -> bool:
    return bool(request.config.getoption("--benchmark-disable"))


def _population(design, count: int = NUM_DESIGNS):
    rng = np.random.default_rng(20150901)
    return [sample_design(design, rng, DeviceSpread(), f"mc-{i:03d}")
            for i in range(count)]


def _scalar_widths(records) -> np.ndarray:
    return np.array([TransconductanceAmplifier(record).device.params.width
                     for record in records])


def test_bench_sizing_population_bit_identity(design, monkeypatch) -> None:
    """One batched solve equals the scalar loop bit for bit."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
    records = _population(design)
    scalar = _scalar_widths(records)
    batches = batched_sizing_solve_count()
    batched = solve_widths(records)
    assert batched_sizing_solve_count() == batches + 1
    assert np.array_equal(batched, scalar)


def test_bench_sizing_population_speedup(design, request,
                                         monkeypatch) -> None:
    """Cold-cache gate: one batched solve >= 3x over the scalar loop."""
    if _smoke_mode(request):
        pytest.skip("timing gate skipped in benchmark smoke mode")
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
    records = _population(design)

    start = time.perf_counter()
    _scalar_widths(records)
    scalar_time = time.perf_counter() - start

    start = time.perf_counter()
    solve_widths(records)
    batched_time = time.perf_counter() - start

    speedup = scalar_time / batched_time
    record_comparison(
        "sizing", f"batched/scalar solve speedup ({NUM_DESIGNS}-design MC)",
        ">= 3x", f"{speedup:.1f}x")
    assert speedup >= 3.0, (
        f"batched sizing only {speedup:.1f}x faster "
        f"({scalar_time * 1e3:.0f} ms scalar vs "
        f"{batched_time * 1e3:.0f} ms batched)")


def test_bench_sizing_batched_calibrated(design, benchmark,
                                         monkeypatch) -> None:
    """Calibrated batched-solver datapoint for the perf trajectory."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
    records = _population(design)
    widths = benchmark(solve_widths, records)
    assert widths.shape == (NUM_DESIGNS,)
    assert np.all(widths > 0)
