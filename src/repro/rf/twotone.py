"""Two-tone intermodulation measurements: IM3/IM2 extraction, IIP3/IIP2 fits.

This module reproduces the measurement behind Fig. 10 of the paper.  A
device under test is any callable mapping an input waveform to an output
waveform at a fixed sample rate (behavioural mixers provide exactly that
interface); the analysis applies a two-tone stimulus, reads the fundamental
and intermodulation tone powers off the output spectrum and either

* extrapolates the classic 3:1 / 2:1 slope lines to their intercept
  (:func:`iip3_from_powers`, :func:`iip2_from_powers`), or
* fits the intercept from a full input-power sweep
  (:func:`fit_intercept_point`), which is what the benchmark harness does to
  regenerate the figure.

:func:`measure_two_tone` stays the independent point-by-point reference;
:func:`sweep_two_tone` is a thin wrapper over the batched waveform engine
(:mod:`repro.waveform`), which evaluates the whole power sweep as one
stacked block plus one batched FFT, bit-identical per power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Re-exported for backwards compatibility; the canonical definition (and
# its batched last-axis-is-time contract) lives in repro.rf.signal.
from repro.rf.signal import TwoToneSource, WaveformTransfer, sample_times
from repro.rf.spectrum import Spectrum


@dataclass(frozen=True)
class TwoToneResult:
    """Result of a single two-tone measurement at one input power."""

    input_power_dbm: float
    fundamental_output_dbm: float
    im3_output_dbm: float
    im2_output_dbm: float
    fundamental_frequency: float
    im3_frequency: float
    im2_frequency: float

    @property
    def gain_db(self) -> float:
        """Per-tone gain (output fundamental minus input power)."""
        return self.fundamental_output_dbm - self.input_power_dbm

    @property
    def iip3_dbm(self) -> float:
        """Single-point IIP3 estimate from the 3:1 slope relationship."""
        return iip3_from_powers(self.input_power_dbm,
                                self.fundamental_output_dbm,
                                self.im3_output_dbm)

    @property
    def iip2_dbm(self) -> float:
        """Single-point IIP2 estimate from the 2:1 slope relationship."""
        return iip2_from_powers(self.input_power_dbm,
                                self.fundamental_output_dbm,
                                self.im2_output_dbm)


def intermod_frequencies(f1: float, f2: float, lo_frequency: float | None = None
                         ) -> dict[str, float]:
    """Frequencies of the fundamental, IM3 and IM2 products.

    With ``lo_frequency`` given, everything is referred to the IF band (the
    down-converted frequencies a mixer measurement observes); otherwise the
    RF-band products are returned (an amplifier measurement).
    """
    if f1 <= 0 or f2 <= 0 or f1 == f2:
        raise ValueError("need two distinct positive tone frequencies")
    low, high = sorted((f1, f2))
    im3_low = 2.0 * low - high
    im3_high = 2.0 * high - low
    im2 = high - low
    if lo_frequency is None:
        return {
            "fundamental": low,
            "fundamental_2": high,
            "im3_low": im3_low,
            "im3_high": im3_high,
            "im2": im2,
        }
    if lo_frequency <= 0:
        raise ValueError("LO frequency must be positive")
    return {
        "fundamental": abs(low - lo_frequency),
        "fundamental_2": abs(high - lo_frequency),
        "im3_low": abs(im3_low - lo_frequency),
        "im3_high": abs(im3_high - lo_frequency),
        "im2": im2,
    }


def iip3_from_powers(input_dbm: float, fundamental_dbm: float,
                     im3_dbm: float) -> float:
    """IIP3 from one measurement: ``IIP3 = Pin + (Pfund - Pim3) / 2``."""
    return input_dbm + 0.5 * (fundamental_dbm - im3_dbm)


def iip2_from_powers(input_dbm: float, fundamental_dbm: float,
                     im2_dbm: float) -> float:
    """IIP2 from one measurement: ``IIP2 = Pin + (Pfund - Pim2)``."""
    return input_dbm + (fundamental_dbm - im2_dbm)


def measure_two_tone(device: WaveformTransfer, source: TwoToneSource,
                     sample_rate: float, num_samples: int,
                     lo_frequency: float | None = None) -> TwoToneResult:
    """Run one two-tone measurement through ``device``.

    Parameters
    ----------
    device:
        Waveform-in/waveform-out callable (behavioural mixer, amplifier...).
    source:
        The two-tone stimulus.
    sample_rate, num_samples:
        Sampling grid; callers should pick a coherent grid (see
        :func:`repro.rf.signal.coherent_sample_count`).
    lo_frequency:
        When measuring a mixer, the LO frequency so the products are looked
        up in the IF band.
    """
    times = sample_times(sample_rate, num_samples)
    output = device(source.waveform(times))
    spectrum = Spectrum(output, sample_rate)
    products = intermod_frequencies(source.frequency_1, source.frequency_2,
                                    lo_frequency)
    fundamental_dbm = spectrum.power_dbm_at(products["fundamental"])
    im3_dbm = max(spectrum.power_dbm_at(products["im3_low"]),
                  spectrum.power_dbm_at(products["im3_high"]))
    im2_dbm = spectrum.power_dbm_at(products["im2"])
    return TwoToneResult(
        input_power_dbm=source.power_dbm,
        fundamental_output_dbm=fundamental_dbm,
        im3_output_dbm=im3_dbm,
        im2_output_dbm=im2_dbm,
        fundamental_frequency=products["fundamental"],
        im3_frequency=products["im3_high"],
        im2_frequency=products["im2"],
    )


@dataclass(frozen=True)
class InterceptSweep:
    """A swept two-tone measurement and the fitted intercept point."""

    input_powers_dbm: np.ndarray
    fundamental_dbm: np.ndarray
    intermod_dbm: np.ndarray
    intercept_input_dbm: float
    intercept_output_dbm: float
    fundamental_slope: float
    intermod_slope: float


def fit_intercept_point(input_powers_dbm: Sequence[float],
                        fundamental_dbm: Sequence[float],
                        intermod_dbm: Sequence[float],
                        intermod_order: int = 3) -> InterceptSweep:
    """Fit the intercept point from swept two-tone data.

    Straight lines with the ideal slopes (1 for the fundamental,
    ``intermod_order`` for the IM product) are fitted to the small-signal
    portion of the sweep and extrapolated to their crossing — exactly the
    geometric construction of the paper's Fig. 10 plots.
    """
    p_in = np.asarray(input_powers_dbm, dtype=float)
    p_fund = np.asarray(fundamental_dbm, dtype=float)
    p_im = np.asarray(intermod_dbm, dtype=float)
    if not (p_in.shape == p_fund.shape == p_im.shape) or p_in.size < 3:
        raise ValueError("sweeps must have equal length >= 3")
    if intermod_order < 2:
        raise ValueError("intermod_order must be at least 2")

    # Use the lowest-power third of the sweep, where both products follow
    # their ideal slopes, to anchor the straight lines.
    anchor = max(3, p_in.size // 3)
    order = np.argsort(p_in)
    idx = order[:anchor]
    finite = np.isfinite(p_fund[idx]) & np.isfinite(p_im[idx])
    idx = idx[finite]
    if idx.size < 2:
        raise ValueError("not enough finite small-signal points for the fit")

    fund_intercept = float(np.mean(p_fund[idx] - 1.0 * p_in[idx]))
    im_intercept = float(np.mean(p_im[idx] - float(intermod_order) * p_in[idx]))

    # Crossing of: y = x + fund_intercept and y = order*x + im_intercept.
    intercept_input = (fund_intercept - im_intercept) / (intermod_order - 1.0)
    intercept_output = intercept_input + fund_intercept

    return InterceptSweep(
        input_powers_dbm=p_in,
        fundamental_dbm=p_fund,
        intermod_dbm=p_im,
        intercept_input_dbm=float(intercept_input),
        intercept_output_dbm=float(intercept_output),
        fundamental_slope=1.0,
        intermod_slope=float(intermod_order),
    )


def sweep_two_tone(device: WaveformTransfer, source: TwoToneSource,
                   input_powers_dbm: Sequence[float], sample_rate: float,
                   num_samples: int,
                   lo_frequency: float | None = None) -> list[TwoToneResult]:
    """Run a two-tone measurement at each input power in the sweep.

    Thin wrapper over the batched waveform engine: the whole sweep is one
    stacked time-domain evaluation plus one batched FFT
    (:func:`repro.waveform.engine.evaluate_plan`), bit-identical per power
    to :func:`measure_two_tone` — the device must accept a ``(powers,
    samples)`` block with time on the last axis (see
    :data:`~repro.rf.signal.WaveformTransfer`).
    """
    # Imported lazily: repro.waveform builds on this module's intermod
    # helpers, so a module-level import would be circular.
    from repro.waveform.engine import evaluate_plan
    from repro.waveform.plan import two_tone_plan

    plan = two_tone_plan(source.frequency_1, source.frequency_2,
                         input_powers_dbm, sample_rate, num_samples,
                         lo_frequency)
    measures = evaluate_plan(device, plan)
    products = intermod_frequencies(source.frequency_1, source.frequency_2,
                                    lo_frequency)
    return [
        TwoToneResult(
            input_power_dbm=float(power),
            fundamental_output_dbm=float(measures["fundamental_dbm"][index]),
            im3_output_dbm=float(measures["im3_dbm"][index]),
            im2_output_dbm=float(measures["im2_dbm"][index]),
            fundamental_frequency=products["fundamental"],
            im3_frequency=products["im3_high"],
            im2_frequency=products["im2"],
        )
        for index, power in enumerate(plan.input_powers_dbm)
    ]
