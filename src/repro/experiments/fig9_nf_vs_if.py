"""Fig. 9 — simulated noise figure and conversion gain vs IF frequency.

The paper plots the DSB noise figure and the conversion gain of both modes
against the IF frequency at a 2.45 GHz RF; the quoted spot values at 5 MHz
are NF 7.6 dB / 10.2 dB and gain 29.2 dB / 25.5 dB, with the passive-mode
flicker corner below 100 kHz.

Both curve families come out of one vectorized
:class:`~repro.sweep.runner.SweepRunner` call (IF axis x both modes, RF
pinned at 2.45 GHz); see :mod:`repro.sweep` for how to extend the grid and
for the ``workers=`` / ``cache=`` options shared by every sweep entry point.

Golden regression: ``tests/test_golden_figures.py::TestFig9Golden`` pins the
5 MHz spot NF and gain of both modes and both flicker corners to 1e-6 —
the passive corner staying below the paper's 100 kHz bound is part of the
pinned behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.experiments.common import design_and_runner
from repro.rf.noise_figure import flicker_corner_from_nf
from repro.sweep import SpecCache
from repro.units import ghz, khz, mhz


@dataclass
class Fig9Result:
    """NF and conversion-gain series vs IF frequency for both modes."""

    if_frequencies_hz: np.ndarray
    active_nf_db: np.ndarray
    passive_nf_db: np.ndarray
    active_gain_db: np.ndarray
    passive_gain_db: np.ndarray
    rf_frequency_hz: float

    def _series(self, mode: MixerMode, kind: str) -> np.ndarray:
        if kind == "nf":
            return self.active_nf_db if mode is MixerMode.ACTIVE \
                else self.passive_nf_db
        return self.active_gain_db if mode is MixerMode.ACTIVE \
            else self.passive_gain_db

    def value_at(self, mode: MixerMode, kind: str, if_frequency_hz: float) -> float:
        """NF (`kind='nf'`) or gain (`kind='gain'`) at the nearest sweep point."""
        series = self._series(mode, kind)
        index = int(np.argmin(np.abs(self.if_frequencies_hz - if_frequency_hz)))
        return float(series[index])

    def flicker_corner_hz(self, mode: MixerMode) -> float:
        """1/f corner read off the swept NF curve (3 dB above the floor)."""
        return flicker_corner_from_nf(self.if_frequencies_hz,
                                      self._series(mode, "nf"))


def sweep_fig9(designs: Mapping[str, MixerDesign],
               if_start_hz: float = khz(10.0), if_stop_hz: float = mhz(100.0),
               points: int = 200, rf_frequency_hz: float = ghz(2.45),
               workers: int | None = None,
               cache: SpecCache | str | bool | None = None
               ) -> dict[str, Fig9Result]:
    """The Fig. 9 sweep for many designs as **one** design axis.

    Same contract as :func:`~repro.experiments.fig8_gain_vs_rf.sweep_fig8`:
    one sweep-engine call over the whole population (``workers=`` shards
    it), per-design results bit-identical to solo :func:`run_fig9` calls.
    """
    if points < 10:
        raise ValueError("use at least 10 sweep points")
    if not designs:
        raise ValueError("sweep_fig9 needs at least one design")
    frequencies = np.logspace(np.log10(if_start_hz), np.log10(if_stop_hz),
                              points)
    _, runner = design_and_runner(
        next(iter(designs.values())),
        specs=("conversion_gain_db", "noise_figure_db"),
        workers=workers, cache=cache)
    sweep = runner.run(rf_frequencies=[rf_frequency_hz],
                       if_frequencies=frequencies,
                       modes=(MixerMode.ACTIVE, MixerMode.PASSIVE),
                       designs=dict(designs))

    def curve(spec: str, mode: MixerMode, label: str) -> np.ndarray:
        _, series = sweep.curve(spec, "if_frequency_hz", mode=mode,
                                design=label)
        return series

    return {
        label: Fig9Result(
            if_frequencies_hz=frequencies,
            active_nf_db=curve("noise_figure_db", MixerMode.ACTIVE, label),
            passive_nf_db=curve("noise_figure_db", MixerMode.PASSIVE, label),
            active_gain_db=curve("conversion_gain_db", MixerMode.ACTIVE, label),
            passive_gain_db=curve("conversion_gain_db", MixerMode.PASSIVE,
                                  label),
            rf_frequency_hz=rf_frequency_hz,
        )
        for label in designs
    }


def format_report(result: Fig9Result) -> str:
    """Text rendering of the Fig. 9 series (spot values and flicker corners)."""
    lines = ["Fig. 9 — NF and conversion gain vs IF frequency (RF = "
             f"{result.rf_frequency_hz / 1e9:.2f} GHz)"]
    for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
        lines.append(
            f"  {mode.value:>7}: NF@5MHz {result.value_at(mode, 'nf', 5e6):5.1f} dB, "
            f"gain@5MHz {result.value_at(mode, 'gain', 5e6):5.1f} dB, "
            f"flicker corner {result.flicker_corner_hz(mode) / 1e3:6.0f} kHz")
    return "\n".join(lines)


run_fig9 = register_experiment(
    name="fig9",
    artefact="Fig. 9 — NF and conversion gain vs IF frequency",
    summary="DSB noise figure and gain of both modes across the IF band",
    batch_runner=sweep_fig9,
    result_type=Fig9Result,
    report=format_report,
).runner
