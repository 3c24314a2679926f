"""Benchmark: the corner-aware yield optimiser (repro.optimize).

The acceptance gates of the yield-search work:

* a search over a >= 64-design population (16 candidates x 4 corners per
  iteration) returns the **same best-design fingerprint for any worker
  count** — the sharded sweep engine must not change the answer;
* once the on-disk spec cache is warm, a repeat of the same search performs
  **zero sizing bisections** (asserted via
  :func:`~repro.core.transconductance.sizing_solve_count`) and returns the
  bit-identical result — iterations are pure array maths;
* given real timing (``-m timing``, not smoke mode), the warm re-run lands
  >= 1.5x under the cold run.

The multi-objective mode carries the same gates: the Pareto front (design
fingerprints, objective vectors, order) must be bit-identical across
worker counts, a warm repeat must solve zero sizings, and the CMA proposal
strategy must reach a fixed target yield in fewer generations than the
shrinking-span baseline on a benched stretch scenario.

The equality and zero-bisection assertions always run; the wall-clock gate
carries the ``timing`` marker (deselected by default) and is skipped in
smoke mode (``--benchmark-disable``, the CI configuration).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import record_comparison

from repro.api import encode
from repro.core.config import MixerMode
from repro.core.transconductance import sizing_solve_count
from repro.optimize import default_targets, run_pareto_opt, run_yield_opt

#: 16 candidates x 4 corners = 64 design records per iteration, the
#: acceptance bar's population floor.  Active-mode-only targets (derived
#: from the canonical default set) halve the per-record sweep cost without
#: changing what the gates prove.
POPULATION = 16
NUM_SAMPLES = 4
ITERATIONS = 2
TARGETS = [target.to_wire() for target in default_targets()
           if target.mode is MixerMode.ACTIVE]
SEARCH = dict(population=POPULATION, iterations=ITERATIONS,
              num_samples=NUM_SAMPLES, targets=TARGETS)


def _smoke_mode(request) -> bool:
    return bool(request.config.getoption("--benchmark-disable"))


def test_bench_optimize_worker_equality() -> None:
    """Any worker count must return the identical search answer."""
    single = run_yield_opt(**SEARCH)
    assert POPULATION * NUM_SAMPLES >= 64
    sharded = run_yield_opt(workers=4, **SEARCH)
    assert sharded.best_fingerprint() == single.best_fingerprint()
    assert encode(sharded) == encode(single)
    record_comparison("yield_opt", "4-worker best fingerprint",
                      "identical", "identical")


def test_bench_optimize_warm_cache_zero_bisections(tmp_path) -> None:
    """Warm-cache gate: a repeated search solves no device sizings at all."""
    before = sizing_solve_count()
    cold = run_yield_opt(cache=str(tmp_path), **SEARCH)
    cold_solves = sizing_solve_count() - before
    assert cold_solves > 0

    before = sizing_solve_count()
    warm = run_yield_opt(cache=str(tmp_path), **SEARCH)
    warm_solves = sizing_solve_count() - before

    # The headline guarantee: iterations are array maths once the cache
    # holds every candidate corner's sizing/bias solution.
    assert warm_solves == 0, f"warm search still sized {warm_solves} devices"
    assert encode(warm) == encode(cold)
    record_comparison("yield_opt", "warm-search sizing bisections",
                      "0", str(warm_solves))


@pytest.mark.timing
def test_bench_optimize_warm_cache_speedup(tmp_path, request) -> None:
    """The warm re-run of a cached search lands >= 1.5x under the cold run."""
    if _smoke_mode(request):
        pytest.skip("timing gate skipped in benchmark smoke mode")
    start = time.perf_counter()
    run_yield_opt(cache=str(tmp_path), **SEARCH)
    cold_time = time.perf_counter() - start
    start = time.perf_counter()
    run_yield_opt(cache=str(tmp_path), **SEARCH)
    warm_time = time.perf_counter() - start
    speedup = cold_time / warm_time
    record_comparison("yield_opt", "warm/cold search speedup",
                      ">= 1.5x", f"{speedup:.1f}x")
    assert speedup >= 1.5, (
        f"warm search only {speedup:.1f}x faster "
        f"({cold_time * 1e3:.0f} ms cold vs {warm_time * 1e3:.0f} ms warm)")


def test_bench_optimize_improves_yield() -> None:
    """The search must never lose the incumbent — and should gain yield."""
    result = run_yield_opt(**SEARCH)
    assert result.best_yield >= result.baseline_yield
    record_comparison("yield_opt", "baseline -> best yield",
                      "monotone", f"{result.baseline_yield:.2f} -> "
                      f"{result.best_yield:.2f}")


def test_bench_optimize_warm_search_timing(benchmark, tmp_path) -> None:
    """Calibrated timing of a warm search (the perf-trajectory datapoint)."""
    small = dict(population=4, iterations=2, num_samples=4, targets=TARGETS)
    run_yield_opt(cache=str(tmp_path), **small)  # warm the cache
    result = benchmark(lambda: run_yield_opt(cache=str(tmp_path), **small))
    assert result.best_yield >= result.baseline_yield


# -- multi-objective (Pareto) gates -------------------------------------------


def test_bench_pareto_worker_front_equality() -> None:
    """The Pareto front must be bit-identical for any worker count.

    Same population floor as the scalar gate (16 candidates x 4 corners =
    64 design records per generation), compared point by point: design
    fingerprints, raw objective vectors, and front order.
    """
    single = run_pareto_opt(**SEARCH)
    assert POPULATION * NUM_SAMPLES >= 64
    sharded = run_pareto_opt(workers=4, **SEARCH)
    assert sharded.front_fingerprints() == single.front_fingerprints()
    assert np.array_equal(sharded.front.objective_matrix(),
                          single.front.objective_matrix())
    assert sharded.front_history == single.front_history
    assert encode(sharded) == encode(single)
    record_comparison("yield_pareto", "4-worker Pareto front",
                      "identical", "identical")


def test_bench_pareto_warm_cache_zero_bisections(tmp_path) -> None:
    """A repeated Pareto search on a warm cache solves no sizings at all."""
    cold = run_pareto_opt(cache=str(tmp_path), **SEARCH)
    before = sizing_solve_count()
    warm = run_pareto_opt(cache=str(tmp_path), **SEARCH)
    warm_solves = sizing_solve_count() - before
    assert warm_solves == 0, f"warm search still sized {warm_solves} devices"
    assert encode(warm) == encode(cold)
    record_comparison("yield_pareto", "warm-search sizing bisections",
                      "0", str(warm_solves))


#: Stretch scenario for the strategy race: the feasible region (>= 30 dB
#: active gain at <= 10 mW) sits outside the reach of a 0.02-span random
#: walk whose steps halve every generation, but inside the reach of a
#: covariance-adapted sampler that grows its step size while progress
#: holds.  Analytic specs only, so the race stays cheap.
STRETCH_TARGETS = [["conversion_gain_db", "active", 30.0, None],
                   ["power_mw", "active", None, 10.0]]
STRETCH = dict(population=POPULATION, iterations=8, num_samples=NUM_SAMPLES,
               targets=STRETCH_TARGETS, search_span=0.02)
TARGET_YIELD = 0.5


def _generations_to(history, target: float) -> int:
    """1-based generation index reaching ``target`` (inf when never)."""
    for index, value in enumerate(history):
        if value >= target:
            return index + 1
    return len(history) + 1


def test_bench_cma_beats_shrinking_span() -> None:
    """CMA must reach the target yield in fewer generations than the
    shrinking-span baseline on the benched stretch population."""
    baseline = run_yield_opt(strategy="shrinking_span", **STRETCH)
    cma = run_yield_opt(strategy="cma", **STRETCH)
    baseline_gens = _generations_to(baseline.history, TARGET_YIELD)
    cma_gens = _generations_to(cma.history, TARGET_YIELD)
    assert cma_gens <= STRETCH["iterations"], (
        f"CMA never reached yield {TARGET_YIELD} "
        f"(history {list(cma.history)})")
    assert cma_gens < baseline_gens, (
        f"CMA took {cma_gens} generations vs baseline {baseline_gens} "
        f"(histories {list(cma.history)} vs {list(baseline.history)})")
    baseline_text = (str(baseline_gens)
                     if baseline_gens <= STRETCH["iterations"] else "never")
    record_comparison("yield_opt", f"generations to {TARGET_YIELD} yield "
                      "(cma vs shrinking_span)",
                      "fewer", f"{cma_gens} vs {baseline_text}")


def test_bench_pareto_warm_search_timing(benchmark, tmp_path) -> None:
    """Calibrated timing of a warm Pareto search (perf-trajectory point)."""
    small = dict(population=4, iterations=2, num_samples=4, targets=TARGETS)
    run_pareto_opt(cache=str(tmp_path), **small)  # warm the cache
    result = benchmark(lambda: run_pareto_opt(cache=str(tmp_path), **small))
    assert result.front.size >= 1
