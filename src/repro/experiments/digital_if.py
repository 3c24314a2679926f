"""Digital-IF spectrum/SNR sweep — the quantized receiver back end.

The paper's mixer feeds a sampled receiver: the IF output is digitized and
down-converted to baseband in fixed point.  This driver runs that chain —
mid-rise ADC, quantized-LO NCO mixer, CIC decimator
(:mod:`repro.digital`) — over the mixer's actual time-domain IF waveform
and reports, per mode and per ADC resolution, the baseband SNR, the
signal/noise levels in dBFS, the IF-referred quantization-noise power in
dBm (the number :mod:`repro.experiments.bits_floor` compares against the
analog noise floor), the peak deviation from the unquantized float
reference, and the guard-bit overflow fraction.

The whole ADC bit-width axis is **one vectorized quantization pass** per
(design, mode) cell, riding the sweep architecture end to end: the analog
waveform is tapped once per cell
(:meth:`~repro.waveform.engine.WaveformRunner.time_domain`), measures are
content-hash cached per (design, mode, digital plan)
(:mod:`repro.digital.cache` — warm re-runs perform zero quantization
passes), and the design axis shards across processes
(:mod:`repro.digital.parallel`).  :func:`sweep_digital_if` evaluates whole
design populations as one design axis (the ``digital_if`` batch adapter);
per-design results are bit-identical to solo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.digital import ParallelDigitalRunner, digital_if_plan
from repro.experiments.common import design_and_runner
from repro.sweep import SpecCache
from repro.units import ghz, mhz

#: Default ADC resolutions swept by the artefact bench.
DEFAULT_ADC_BITS = (4, 6, 8, 10, 12, 14, 16)


@dataclass
class ModeDigitalIf:
    """Quantization sweep of the digital-IF chain for one mode."""

    mode: MixerMode
    adc_bits: np.ndarray
    snr_db: np.ndarray
    signal_dbfs: np.ndarray
    noise_dbfs: np.ndarray
    noise_dbm: np.ndarray
    float_error_peak: np.ndarray
    overflow_fraction: np.ndarray
    conversion_gain_db: float
    noise_figure_db: float

    @property
    def enob(self) -> np.ndarray:
        """Effective number of bits, ``(SNR - 1.76) / 6.02`` per width."""
        return (self.snr_db - 1.76) / 6.02

    @property
    def peak_snr_db(self) -> float:
        """The best SNR across the swept resolutions."""
        return float(np.max(self.snr_db))

    @property
    def quantization_limited_bits(self) -> np.ndarray:
        """Widths still gaining >= 3 dB SNR over the next-narrower width.

        Boolean per swept width (the first width counts as limited): where
        it turns ``False`` the chain has stopped being ADC-limited — the
        NCO/LO quantization or the analog waveform floor dominates.
        """
        gains = np.diff(self.snr_db, prepend=self.snr_db[0] - 6.02)
        return gains >= 3.0


@dataclass
class DigitalIfResult:
    """Digital-IF quantization sweep of both modes."""

    active: ModeDigitalIf
    passive: ModeDigitalIf
    lo_frequency_hz: float
    rf_frequency_hz: float
    if_frequency_hz: float
    nco_frequency_hz: float
    input_power_dbm: float
    adc_sample_rate_hz: float
    output_sample_rate_hz: float
    plan_hash: str

    def for_mode(self, mode: MixerMode) -> ModeDigitalIf:
        """The sweep for one mode."""
        return self.active if mode is MixerMode.ACTIVE else self.passive


def sweep_digital_if(designs: Mapping[str, MixerDesign],
                     lo_frequency_hz: float = ghz(2.4),
                     rf_frequency_hz: float = ghz(2.4) + mhz(5.0),
                     input_power_dbm: float = -20.0,
                     adc_bits: Sequence[int] = DEFAULT_ADC_BITS,
                     nco_frequency_hz: float = 3.75e6,
                     workers: int | None = None,
                     cache: SpecCache | str | bool | None = None
                     ) -> dict[str, DigitalIfResult]:
    """The digital-IF sweep for many designs as **one** design axis.

    All designs share the digital plan and run through one digital-engine
    call plus one analytic context sweep; per-design results are
    bit-identical to solo :func:`run_digital_if` calls.  This is the batch
    adapter :class:`~repro.api.service.MixerService` fans design
    populations out through.  With ``cache=`` a warm re-run performs zero
    sizing solves, zero device evaluations and zero quantization passes.
    """
    if not designs:
        raise ValueError("sweep_digital_if needs at least one design")
    plan = digital_if_plan(rf_frequency=rf_frequency_hz,
                           lo_frequency=lo_frequency_hz,
                           input_power_dbm=input_power_dbm,
                           adc_bits=tuple(int(b) for b in adc_bits),
                           nco_frequency_hz=nco_frequency_hz)

    baseline, runner = design_and_runner(
        next(iter(designs.values())),
        specs=("conversion_gain_db", "noise_figure_db"),
        workers=workers, cache=cache)
    modes = (MixerMode.ACTIVE, MixerMode.PASSIVE)
    analytic = runner.run(modes=modes, designs=dict(designs))
    digital = ParallelDigitalRunner.for_workers(
        baseline, workers=workers, cache=cache).run(plan, modes=modes,
                                                    designs=dict(designs))

    results: dict[str, DigitalIfResult] = {}
    for label in designs:
        per_mode: dict[MixerMode, ModeDigitalIf] = {}
        for mode in modes:
            per_mode[mode] = ModeDigitalIf(
                mode=mode,
                adc_bits=plan.bits(),
                snr_db=digital.values("snr_db", design=label, mode=mode),
                signal_dbfs=digital.values("signal_dbfs", design=label,
                                           mode=mode),
                noise_dbfs=digital.values("noise_dbfs", design=label,
                                          mode=mode),
                noise_dbm=digital.values("noise_dbm", design=label,
                                         mode=mode),
                float_error_peak=digital.values("float_error_peak",
                                                design=label, mode=mode),
                overflow_fraction=digital.values("overflow_fraction",
                                                 design=label, mode=mode),
                conversion_gain_db=analytic.value("conversion_gain_db",
                                                  design=label, mode=mode),
                noise_figure_db=analytic.value("noise_figure_db",
                                               design=label, mode=mode),
            )
        results[label] = DigitalIfResult(
            active=per_mode[MixerMode.ACTIVE],
            passive=per_mode[MixerMode.PASSIVE],
            lo_frequency_hz=float(lo_frequency_hz),
            rf_frequency_hz=float(rf_frequency_hz),
            if_frequency_hz=plan.if_frequency,
            nco_frequency_hz=float(nco_frequency_hz),
            input_power_dbm=float(input_power_dbm),
            adc_sample_rate_hz=plan.adc_sample_rate,
            output_sample_rate_hz=plan.output_sample_rate,
            plan_hash=plan.content_hash(),
        )
    return results


def format_report(result: DigitalIfResult) -> str:
    """Text rendering of the quantization sweep."""
    lines = [
        "Digital-IF quantization sweep (LO = "
        f"{result.lo_frequency_hz / 1e9:.2f} GHz, IF = "
        f"{result.if_frequency_hz / 1e6:.2f} MHz, NCO = "
        f"{result.nco_frequency_hz / 1e6:.2f} MHz, ADC @ "
        f"{result.adc_sample_rate_hz / 1e6:.0f} MS/s -> "
        f"{result.output_sample_rate_hz / 1e6:.0f} MS/s baseband, "
        f"Pin = {result.input_power_dbm:.1f} dBm)"
    ]
    for panel in (result.active, result.passive):
        lines.append(f"  {panel.mode.value} (gain "
                     f"{panel.conversion_gain_db:.1f} dB, NF "
                     f"{panel.noise_figure_db:.1f} dB):")
        lines.append("    bits   SNR (dB)   ENOB   noise (dBm)   overflow")
        for index, bits in enumerate(panel.adc_bits):
            lines.append(
                f"    {bits:4.0f}   {panel.snr_db[index]:8.2f}   "
                f"{panel.enob[index]:4.1f}   "
                f"{panel.noise_dbm[index]:11.2f}   "
                f"{panel.overflow_fraction[index]:8.3f}")
    return "\n".join(lines)


run_digital_if = register_experiment(
    name="digital_if",
    artefact="Quantized digital-IF chain: SNR vs ADC resolution over the "
             "mixer's sampled IF output",
    summary="Fixed-point NCO/CIC down-conversion swept over ADC bit widths",
    batch_runner=sweep_digital_if,
    result_type=DigitalIfResult,
    report=format_report,
    payload_types=(ModeDigitalIf,),
).runner
