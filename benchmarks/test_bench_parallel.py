"""Benchmark: sharded parallel sweeps and the on-disk spec cache.

Two acceptance gates from the scale-up work:

* :class:`~repro.sweep.parallel.ParallelSweepRunner` must produce
  **bit-identical** results to the single-process runner on a Monte-Carlo
  design grid, and — given real cores — cut wall-clock by >= 2x;
* a **warm** on-disk cache must skip every sizing bisection (asserted via
  the :func:`~repro.core.transconductance.sizing_solve_count`
  instrumentation) and land >= 2x under the cold run.

The timing gates are skipped in smoke mode (``--benchmark-disable``, the CI
configuration), the parallel gate carries the ``timing`` marker (deselected
unless ``-m timing`` asks for it) and additionally requires >= 2 usable CPUs
— a single-core box can prove correctness of the sharded path but not a
wall-clock win.  The equality assertions always run, pool and all.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import record_comparison

from repro.core.transconductance import sizing_solve_count
from repro.sweep import (
    DeviceSpread,
    ParallelSweepRunner,
    SweepRunner,
    sample_design,
)

#: Monte-Carlo design-axis size for the speedup gate (>= 8 per the issue).
NUM_DESIGNS = 16
RF_GRID_POINTS = 64


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _smoke_mode(request) -> bool:
    return bool(request.config.getoption("--benchmark-disable"))


def _designs(design, count: int):
    rng = np.random.default_rng(20150901)
    return {f"mc-{i:03d}": sample_design(design, rng, DeviceSpread(),
                                         f"mc-{i:03d}")
            for i in range(count)}


def _grid() -> np.ndarray:
    return np.logspace(np.log10(0.5e9), np.log10(6e9), RF_GRID_POINTS)


def test_bench_parallel_equality(design) -> None:
    """Sharded results must match the single-process runner bit for bit."""
    designs = _designs(design, 8)
    single = SweepRunner(design).run(rf_frequencies=_grid(), designs=designs)
    sharded = ParallelSweepRunner(design, workers=4).run(
        rf_frequencies=_grid(), designs=designs)
    for spec in single.spec_names:
        np.testing.assert_array_equal(sharded.data[spec], single.data[spec])


@pytest.mark.timing
def test_bench_parallel_speedup(design, request) -> None:
    """The >= 2x wall-clock gate for sharding the design axis."""
    if _smoke_mode(request):
        pytest.skip("timing gate skipped in benchmark smoke mode")
    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"needs >= 2 usable CPUs to parallelise, have {cpus}")
    workers = min(4, cpus)
    designs = _designs(design, NUM_DESIGNS)

    start = time.perf_counter()
    single = SweepRunner(design).run(rf_frequencies=_grid(), designs=designs)
    single_time = time.perf_counter() - start

    start = time.perf_counter()
    sharded = ParallelSweepRunner(design, workers=workers).run(
        rf_frequencies=_grid(), designs=designs)
    parallel_time = time.perf_counter() - start

    for spec in single.spec_names:
        np.testing.assert_array_equal(sharded.data[spec], single.data[spec])
    speedup = single_time / parallel_time
    record_comparison(
        "parallel", f"{workers}-worker speedup ({NUM_DESIGNS}-design MC)",
        ">= 2x", f"{speedup:.1f}x")
    assert speedup >= 2.0, (
        f"sharded sweep only {speedup:.1f}x faster with {workers} workers "
        f"({single_time * 1e3:.0f} ms single vs {parallel_time * 1e3:.0f} ms)")


def test_bench_cache_warm_skips_sizing_and_speeds_up(design, tmp_path,
                                                     request) -> None:
    """Warm-cache gate: zero sizing bisections and >= 2x over the cold run."""
    designs = _designs(design, 8)

    before = sizing_solve_count()
    start = time.perf_counter()
    cold = SweepRunner(design, cache=tmp_path).run(rf_frequencies=_grid(),
                                                   designs=designs)
    cold_time = time.perf_counter() - start
    cold_solves = sizing_solve_count() - before
    assert cold_solves > 0

    before = sizing_solve_count()
    start = time.perf_counter()
    warm = SweepRunner(design, cache=tmp_path).run(rf_frequencies=_grid(),
                                                   designs=designs)
    warm_time = time.perf_counter() - start
    warm_solves = sizing_solve_count() - before

    # The headline guarantee: a warm cache performs zero sizing bisections.
    assert warm_solves == 0, f"warm run still sized {warm_solves} devices"
    for spec in cold.spec_names:
        np.testing.assert_array_equal(warm.data[spec], cold.data[spec])

    if _smoke_mode(request):
        return  # timing below is meaningless under smoke settings
    speedup = cold_time / warm_time
    record_comparison("cache", "warm/cold speedup (8-design MC)",
                      ">= 2x", f"{speedup:.1f}x")
    assert speedup >= 2.0, (
        f"warm cache only {speedup:.1f}x faster "
        f"({cold_time * 1e3:.0f} ms cold vs {warm_time * 1e3:.0f} ms warm)")
