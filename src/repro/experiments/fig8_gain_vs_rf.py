"""Fig. 8 — simulated conversion gain of the reconfigurable mixer vs RF frequency.

The paper sweeps the RF frequency from 0.5 to 7 GHz at a fixed 5 MHz IF and
plots the voltage conversion gain of both modes; the quoted numbers are
29.2 dB (active) and 25.5 dB (passive) with -3 dB bands of 1-5.5 GHz and
0.5-5.1 GHz respectively.

The sweep itself runs on the vectorized engine (:mod:`repro.sweep`): one
:class:`~repro.sweep.runner.SweepRunner` call evaluates both modes over the
whole RF grid as array maths, and the curves are read off the labelled
result.  To sweep a different grid or more modes/designs, widen the axes in
:func:`sweep_fig8`'s ``runner.run`` call — see :mod:`repro.sweep` for the
scenario recipe; ``workers=`` / ``cache=`` plug in the parallel runner and
the on-disk spec cache.

Golden regression: ``tests/test_golden_figures.py::TestFig8Golden`` pins the
peak gains, the 2.45 GHz spot gains and the -3 dB band edges of both modes
to 1e-6 dB absolute — any core/sweep refactor that moves the Fig. 8 curves
must be an intentional model change, not drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.experiments.common import design_and_runner
from repro.sweep import SpecCache
from repro.units import ghz, mhz


@dataclass
class Fig8Result:
    """Conversion-gain-vs-RF series for both modes."""

    rf_frequencies_hz: np.ndarray
    active_gain_db: np.ndarray
    passive_gain_db: np.ndarray
    if_frequency_hz: float

    def peak_gain_db(self, mode: MixerMode) -> float:
        """Maximum gain of a mode across the sweep."""
        series = self.active_gain_db if mode is MixerMode.ACTIVE \
            else self.passive_gain_db
        return float(np.max(series))

    def band_edges_hz(self, mode: MixerMode) -> tuple[float, float]:
        """-3 dB band edges of a mode read off the swept curve."""
        series = self.active_gain_db if mode is MixerMode.ACTIVE \
            else self.passive_gain_db
        peak = float(np.max(series))
        above = self.rf_frequencies_hz[series >= peak - 3.0]
        if above.size == 0:
            return float("nan"), float("nan")
        return float(above[0]), float(above[-1])

    def gain_at(self, mode: MixerMode, rf_frequency_hz: float) -> float:
        """Gain of a mode at the sweep point nearest ``rf_frequency_hz``."""
        series = self.active_gain_db if mode is MixerMode.ACTIVE \
            else self.passive_gain_db
        index = int(np.argmin(np.abs(self.rf_frequencies_hz - rf_frequency_hz)))
        return float(series[index])


def sweep_fig8(designs: Mapping[str, MixerDesign],
               rf_start_hz: float = ghz(0.3), rf_stop_hz: float = ghz(7.0),
               points: int = 200, if_frequency_hz: float = mhz(5.0),
               workers: int | None = None,
               cache: SpecCache | str | bool | None = None
               ) -> dict[str, Fig8Result]:
    """The Fig. 8 sweep for many designs as **one** design axis.

    All designs share the grid and run through a single sweep-engine call,
    so ``workers=`` shards the whole population across processes; each
    per-design result is bit-identical to a solo :func:`run_fig8` call (the
    engine fills every (design, mode) cell independently).  This is the
    batch adapter :class:`~repro.api.service.MixerService` fans design
    populations out through.

    The defaults mirror the paper's axis: RF from (just below) 0.5 GHz to
    7 GHz at 5 MHz IF.  ``workers`` / ``cache`` select the parallel runner
    and the on-disk spec cache (both off by default); a single design runs
    inline either way, but a warm cache still skips the sizing solves.
    """
    if points < 10:
        raise ValueError("use at least 10 sweep points")
    if not designs:
        raise ValueError("sweep_fig8 needs at least one design")
    frequencies = np.logspace(np.log10(rf_start_hz), np.log10(rf_stop_hz),
                              points)
    _, runner = design_and_runner(next(iter(designs.values())),
                                  specs=("conversion_gain_db",),
                                  workers=workers, cache=cache)
    sweep = runner.run(rf_frequencies=frequencies,
                       if_frequencies=[if_frequency_hz],
                       modes=(MixerMode.ACTIVE, MixerMode.PASSIVE),
                       designs=dict(designs))
    results: dict[str, Fig8Result] = {}
    for label in designs:
        _, active_gain = sweep.curve("conversion_gain_db", "rf_frequency_hz",
                                     mode=MixerMode.ACTIVE, design=label)
        _, passive_gain = sweep.curve("conversion_gain_db", "rf_frequency_hz",
                                      mode=MixerMode.PASSIVE, design=label)
        results[label] = Fig8Result(
            rf_frequencies_hz=frequencies,
            active_gain_db=active_gain,
            passive_gain_db=passive_gain,
            if_frequency_hz=if_frequency_hz,
        )
    return results


def format_report(result: Fig8Result) -> str:
    """Text rendering of the Fig. 8 series (peak gains and band edges)."""
    lines = ["Fig. 8 — conversion gain vs RF frequency (IF = "
             f"{result.if_frequency_hz / 1e6:.1f} MHz)"]
    for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
        low, high = result.band_edges_hz(mode)
        lines.append(
            f"  {mode.value:>7}: peak {result.peak_gain_db(mode):5.1f} dB, "
            f"gain@2.45GHz {result.gain_at(mode, 2.45e9):5.1f} dB, "
            f"-3 dB band {low / 1e9:.2f}-{high / 1e9:.2f} GHz")
    return "\n".join(lines)


run_fig8 = register_experiment(
    name="fig8",
    artefact="Fig. 8 — conversion gain vs RF frequency",
    summary="Voltage conversion gain of both modes over the RF band",
    batch_runner=sweep_fig8,
    result_type=Fig8Result,
    report=format_report,
).runner
