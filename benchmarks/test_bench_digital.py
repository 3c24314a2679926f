"""Benchmark: batched digital-IF quantization vs the per-width scalar loop.

The acceptance bar from the digital-backend work: on the canonical ADC
bit-width grid the broadcast quantizer path (one
:func:`~repro.digital.engine.evaluate_digital` pass over every width) must
be **bit-identical** to evaluating each width alone, cost one quantization
pass against the loop's one per width, and run at least **3x** faster than
that scalar loop (a ``timing`` gate); a warm digital cache must serve a
re-run with **zero quantization passes** (the counterpart of the waveform
cache's zero-FFT bar).

Both sides are timed on the same pre-tapped analog block (mixer built,
sizing solved, waveform evaluated), so the comparison isolates what the
vectorized backend actually changes: the broadcast quantize/mix/CIC over
the bits axis and the NCO/LO/float-reference work shared across widths.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import record_comparison

from repro.core.config import MixerMode
from repro.digital import (
    DigitalIfRunner,
    digital_if_plan,
    digital_pass_count,
    evaluate_digital,
)

MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)


def _best_of(callable_, repeats: int = 5) -> float:
    """Best-of-N wall time (s); the minimum is the least noisy estimator."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_digital_if_grid(benchmark, design) -> None:
    """Track the full digital_if cell evaluation in the trajectory."""
    plan = digital_if_plan()
    runner = DigitalIfRunner(design)
    runner.run(plan, modes=MODES)  # warm the mixer/sizing/tap memoization
    result = benchmark(runner.run, plan, modes=MODES)
    assert result.shape == (1, len(MODES), len(plan.adc_bits))


def _scalar_loop(plan, block) -> list[dict]:
    """Each ADC width evaluated alone: the loop the batched pass replaces."""
    return [evaluate_digital(plan.with_adc_bits((width,)), block)
            for width in plan.adc_bits]


def _active_block(design, plan):
    return DigitalIfRunner(design).waveform.time_domain(plan.stimulus,
                                                        MixerMode.ACTIVE)


def test_bench_digital_speedup_and_bit_identity(design) -> None:
    """Rows bit-identical, and one batched pass does the loop's work.

    The work-count twin of :func:`test_bench_digital_speedup`: the batched
    pass costs one quantization pass for the whole grid, the scalar loop
    one per ADC width.
    """
    plan = digital_if_plan()
    block = _active_block(design, plan)

    before = digital_pass_count()
    batched = evaluate_digital(plan, block)
    assert digital_pass_count() == before + 1
    before = digital_pass_count()
    solos = _scalar_loop(plan, block)
    assert digital_pass_count() == before + len(plan.adc_bits)

    for row, solo in enumerate(solos):
        for measure in plan.measures:
            assert np.array_equal(batched[measure][row:row + 1],
                                  solo[measure]), (
                f"{measure} differs between the batched pass and the "
                f"{plan.adc_bits[row]}-bit solo evaluation")


@pytest.mark.timing
def test_bench_digital_speedup(design) -> None:
    """The wall-clock gate: the batched pass >= 3x faster than the loop."""
    plan = digital_if_plan()
    block = _active_block(design, plan)

    scalar_time = _best_of(lambda: _scalar_loop(plan, block))
    batched_time = _best_of(lambda: evaluate_digital(plan, block))
    speedup = scalar_time / batched_time
    record_comparison("digital", "batched speedup (ADC bit-width grid)",
                      ">= 3x", f"{speedup:.1f}x")
    assert speedup >= 3.0, (
        f"batched quantization only {speedup:.1f}x faster "
        f"({scalar_time * 1e3:.2f} ms scalar vs "
        f"{batched_time * 1e3:.2f} ms batched)")


def test_bench_digital_warm_cache_zero_passes(design, tmp_path) -> None:
    """A warm digital cache must serve re-runs without re-quantizing."""
    plan = digital_if_plan()
    cold = DigitalIfRunner(design, cache=str(tmp_path))
    first = cold.run(plan, modes=MODES)
    assert cold.cache.stores == len(MODES)

    before = digital_pass_count()
    warm = DigitalIfRunner(design, cache=str(tmp_path))
    second = warm.run(plan, modes=MODES)
    assert digital_pass_count() == before, \
        "warm-cache digital run performed quantization passes"
    assert warm.cache.hits == len(MODES)
    for measure in plan.measures:
        assert np.array_equal(first.data[measure], second.data[measure])
