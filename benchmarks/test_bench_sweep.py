"""Benchmark: vectorized sweep engine vs the scalar per-point path.

The acceptance bar from the sweep-engine work: on a 500-point Fig. 8 RF
grid the vectorized :class:`~repro.sweep.runner.SweepRunner` must produce
arrays equal to the scalar accessor loop to <= 1e-9 and run at least 5x
faster.  Both paths run warm (mixers built, per-mode intermediates
memoized) so the comparison isolates the per-point Python overhead the
engine exists to remove, not the one-off device sizing both share.

The default run asserts the machine-independent half: the sweep evaluates
the gain curve in one ``conversion_gain_db_from`` call per mode where the
scalar loop makes one per point.  The wall-clock ratio carries the
``timing`` marker (deselected unless ``-m timing`` asks for it).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import record_comparison

import repro.core.reconfigurable_mixer as mixer_module
import repro.sweep.runner as runner_module
from repro.core.config import MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.sweep import SweepRunner

GRID_POINTS = 500
IF_FREQUENCY = 5e6
MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)


def _grid() -> np.ndarray:
    return np.logspace(np.log10(0.3e9), np.log10(7e9), GRID_POINTS)


def _scalar_sweep(mixers: dict[MixerMode, ReconfigurableMixer],
                  frequencies: np.ndarray) -> dict[MixerMode, np.ndarray]:
    return {
        mode: np.array([mixers[mode].conversion_gain_db(f, IF_FREQUENCY)
                        for f in frequencies])
        for mode in MODES
    }


def _vectorized_sweep(runner: SweepRunner, frequencies: np.ndarray):
    return runner.run(rf_frequencies=frequencies,
                      if_frequencies=[IF_FREQUENCY], modes=MODES)


def _best_of(callable_, repeats: int = 5) -> float:
    """Best-of-N wall time (s); the minimum is the least noisy estimator."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_sweep_vectorized_fig8_grid(benchmark, design) -> None:
    """Track the vectorized Fig. 8 sweep in the perf trajectory."""
    frequencies = _grid()
    runner = SweepRunner(design, specs=("conversion_gain_db",))
    _vectorized_sweep(runner, frequencies)  # warm the mixer/intermediates
    sweep = benchmark(_vectorized_sweep, runner, frequencies)
    assert sweep.shape == (1, len(MODES), GRID_POINTS, 1)


def _count_gain_evaluations(monkeypatch) -> list:
    """Record every ``conversion_gain_db_from`` call for the rest of the test."""
    calls: list = []
    original = mixer_module.conversion_gain_db_from

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    # The runner imports the helper by name; patch both references.
    monkeypatch.setattr(mixer_module, "conversion_gain_db_from", counting)
    monkeypatch.setattr(runner_module, "conversion_gain_db_from", counting)
    return calls


def _warm_paths(design):
    frequencies = _grid()
    runner = SweepRunner(design, specs=("conversion_gain_db",))
    mixers = {mode: ReconfigurableMixer(design, mode) for mode in MODES}
    # Warm both paths so sizing/bias/intermediates are paid up front.
    return frequencies, runner, mixers, _vectorized_sweep(runner, frequencies)


def test_bench_sweep_speedup_and_equivalence(design, monkeypatch) -> None:
    """The acceptance gate: <= 1e-9 agreement, and >= 5x fewer gain
    evaluations than the scalar loop (one per mode against one per point)."""
    frequencies, runner, mixers, sweep = _warm_paths(design)
    scalar = _scalar_sweep(mixers, frequencies)

    for mode in MODES:
        _, vectorized = sweep.curve("conversion_gain_db", "rf_frequency_hz",
                                    mode=mode)
        worst = float(np.max(np.abs(vectorized - scalar[mode])))
        assert worst <= 1e-9, f"{mode.value}: vectorized drifts by {worst}"

    calls = _count_gain_evaluations(monkeypatch)
    _vectorized_sweep(runner, frequencies)
    sweep_calls = len(calls)
    calls.clear()
    _scalar_sweep(mixers, frequencies)
    scalar_calls = len(calls)
    assert (sweep_calls, scalar_calls) == (len(MODES),
                                           len(MODES) * GRID_POINTS)
    record_comparison("sweep", f"gain evaluations ({GRID_POINTS}-pt fig8)",
                      ">= 5x fewer", f"{scalar_calls // sweep_calls}x fewer")
    assert scalar_calls >= 5 * sweep_calls


@pytest.mark.timing
def test_bench_sweep_speedup(design) -> None:
    """The vectorized sweep runs >= 5x faster than the scalar loop, warm."""
    frequencies, runner, mixers, _ = _warm_paths(design)
    _scalar_sweep(mixers, frequencies)
    scalar_time = _best_of(lambda: _scalar_sweep(mixers, frequencies))
    vector_time = _best_of(lambda: _vectorized_sweep(runner, frequencies))
    speedup = scalar_time / vector_time
    record_comparison("sweep", f"vectorized speedup ({GRID_POINTS}-pt fig8)",
                      ">= 5x", f"{speedup:.1f}x")
    assert speedup >= 5.0, (
        f"vectorized sweep only {speedup:.1f}x faster "
        f"({scalar_time * 1e3:.1f} ms scalar vs {vector_time * 1e3:.1f} ms)")
