"""Minimum bit widths keeping quantization under the analog noise floor.

A digital back end should be *transparent*: its quantization noise must sit
comfortably below the noise the mixer itself delivers, or ADC/NCO bits —
not the paper's NF — set the receiver sensitivity.  This driver answers
the sizing question directly, per mode: the **minimum ADC resolution, LO
width and output width** at which the digital chain's IF-referred noise
power stays at least ``margin_db`` below the mixer's analog output noise
floor

``floor_dbm = -174 dBm/Hz + 10 log10(BW) + NF + gain``

(the same convention as the front-end sensitivity formula in
:mod:`repro.core.frontend`, with ``BW`` the complex baseband bandwidth —
the decimated output rate).  Each width axis is scanned in isolation with
the other two held generously wide, so the reported minimum reflects that
stage's own quantization, not another stage's ceiling.

Every scan point is one lane of a single digital plan: the three scans run
as one integer pass per (design, mode) over the memoized analog tap, and
that pass is cached as one cell.  :func:`sweep_bits_floor` evaluates whole
design populations as one design axis (the ``bits_floor`` batch adapter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.digital import ParallelDigitalRunner, digital_if_plan
from repro.experiments.common import design_and_runner
from repro.sweep import SpecCache
from repro.units import ghz, mhz

#: Candidate widths scanned per axis, ascending.
DEFAULT_ADC_CANDIDATES = (4, 6, 8, 10, 12, 14, 16)
DEFAULT_LO_CANDIDATES = (6, 8, 10, 12, 14, 16, 20, 24)
DEFAULT_OUTPUT_CANDIDATES = (6, 8, 10, 12, 14, 16, 20, 24)

#: Generous widths holding the non-scanned stages out of the way.
_WIDE_LO_BITS = 24
_WIDE_OUTPUT_BITS = 32
#: The canonical bench's mixer guard bits (capped at ``lo_bits - 1``).
_GUARD_BITS = 4
#: The scanned stages, in lane order; each names four ModeBitsFloor fields.
_SCAN_AXES = ("adc", "lo", "output")


@dataclass
class ModeBitsFloor:
    """Width minima and scan curves for one mode."""

    mode: MixerMode
    conversion_gain_db: float
    noise_figure_db: float
    analog_floor_dbm: float
    margin_db: float
    adc_candidates: np.ndarray
    noise_dbm_vs_adc: np.ndarray
    snr_db_vs_adc: np.ndarray
    min_adc_bits: float
    lo_candidates: np.ndarray
    noise_dbm_vs_lo: np.ndarray
    snr_db_vs_lo: np.ndarray
    min_lo_bits: float
    output_candidates: np.ndarray
    noise_dbm_vs_output: np.ndarray
    snr_db_vs_output: np.ndarray
    min_output_bits: float

    @property
    def threshold_dbm(self) -> float:
        """The level quantization noise must stay at or below."""
        return self.analog_floor_dbm - self.margin_db

    @property
    def achievable(self) -> bool:
        """True when every scanned axis reached the threshold."""
        return (math.isfinite(self.min_adc_bits)
                and math.isfinite(self.min_lo_bits)
                and math.isfinite(self.min_output_bits))


@dataclass
class BitsFloorResult:
    """Minimum transparent bit widths for both modes."""

    active: ModeBitsFloor
    passive: ModeBitsFloor
    lo_frequency_hz: float
    rf_frequency_hz: float
    if_frequency_hz: float
    nco_frequency_hz: float
    output_sample_rate_hz: float
    margin_db: float

    def for_mode(self, mode: MixerMode) -> ModeBitsFloor:
        """The scan for one mode."""
        return self.active if mode is MixerMode.ACTIVE else self.passive


def _first_meeting(candidates: np.ndarray, noise_dbm: np.ndarray,
                   snr_db: np.ndarray, threshold_dbm: float) -> float:
    """The narrowest candidate whose noise meets the threshold (nan if none).

    A width also has to *carry the signal* (positive, finite SNR) to
    qualify: a register so narrow it truncates the output to all zeros
    reads as zero noise power, which must not count as transparent.
    """
    with np.errstate(invalid="ignore"):
        meets = np.flatnonzero((noise_dbm <= threshold_dbm)
                               & np.isfinite(snr_db) & (snr_db > 0.0))
    return float(candidates[meets[0]]) if meets.size else math.nan


def sweep_bits_floor(designs: Mapping[str, MixerDesign],
                     lo_frequency_hz: float = ghz(2.4),
                     rf_frequency_hz: float = ghz(2.4) + mhz(5.0),
                     input_power_dbm: float = -40.0,
                     margin_db: float = 10.0,
                     adc_candidates: Sequence[int] = DEFAULT_ADC_CANDIDATES,
                     lo_candidates: Sequence[int] = DEFAULT_LO_CANDIDATES,
                     output_candidates: Sequence[int] =
                     DEFAULT_OUTPUT_CANDIDATES,
                     workers: int | None = None,
                     cache: SpecCache | str | bool | None = None
                     ) -> dict[str, BitsFloorResult]:
    """The width-minimum scan for many designs as **one** design axis.

    Every scan point is one lane of one digital plan, run over the whole
    design population in one digital-engine call; per-design results are
    bit-identical to solo :func:`run_bits_floor` calls.  This is the batch
    adapter :class:`~repro.api.service.MixerService` fans design
    populations out through.  With a warm ``cache=`` the whole three-axis
    scan performs zero quantization passes.
    """
    if not designs:
        raise ValueError("sweep_bits_floor needs at least one design")
    if margin_db < 0:
        raise ValueError("margin_db must be non-negative")
    scans = tuple(tuple(int(b) for b in axis) for axis in
                  (adc_candidates, lo_candidates, output_candidates))
    if not all(scans):
        raise ValueError("every candidate axis needs at least one width")

    baseline, runner = design_and_runner(
        next(iter(designs.values())),
        specs=("conversion_gain_db", "noise_figure_db"),
        workers=workers, cache=cache)
    modes = (MixerMode.ACTIVE, MixerMode.PASSIVE)
    analytic = runner.run(modes=modes, designs=dict(designs))
    digital = ParallelDigitalRunner.for_workers(baseline, workers=workers,
                                                cache=cache)

    # One lane per scan point, as (adc, lo, guard, output) widths.  The ADC
    # lanes hold the LO and output wide; the LO and output lanes run the
    # widest ADC so only the scanned stage limits the noise.  Repeated
    # lanes are kept, so each scan reads one contiguous slice.  A fourth
    # CIC stage steepens the real-IF image rejection past the quantization
    # floors being measured — with the artefact bench's three stages the
    # decimator's own image spur caps every curve near -75 dBm.
    adc_scan, lo_scan, output_scan = scans
    widest = max(adc_scan)
    lanes = ([(b, _WIDE_LO_BITS, _GUARD_BITS, _WIDE_OUTPUT_BITS)
              for b in adc_scan]
             + [(widest, b, min(_GUARD_BITS, b - 1), _WIDE_OUTPUT_BITS)
                for b in lo_scan]
             + [(widest, _WIDE_LO_BITS, _GUARD_BITS, b) for b in output_scan])
    adc, lo, guard, output = zip(*lanes)
    plan = digital_if_plan(rf_frequency=rf_frequency_hz,
                           lo_frequency=lo_frequency_hz,
                           input_power_dbm=input_power_dbm, adc_bits=adc,
                           lo_bits=lo, guard_bits=guard, output_bits=output,
                           cic_stages=4)
    scan = digital.run(plan, modes=modes, designs=dict(designs))
    edges = np.cumsum([len(adc_scan), len(lo_scan)])

    results: dict[str, BitsFloorResult] = {}
    for label in designs:
        per_mode: dict[MixerMode, ModeBitsFloor] = {}
        for mode in modes:
            gain = analytic.value("conversion_gain_db", design=label,
                                  mode=mode)
            nf = analytic.value("noise_figure_db", design=label, mode=mode)
            floor = (-174.0 + 10.0 * math.log10(plan.output_sample_rate)
                     + nf + gain)
            noise, snr = (np.split(scan.values(name, design=label, mode=mode),
                                   edges) for name in ("noise_dbm", "snr_db"))
            curves = {}
            for axis, widths, noise_dbm, snr_db in zip(
                    _SCAN_AXES, scans, noise, snr):
                widths = np.asarray(widths, dtype=float)
                curves.update({
                    f"{axis}_candidates": widths,
                    f"noise_dbm_vs_{axis}": noise_dbm,
                    f"snr_db_vs_{axis}": snr_db,
                    f"min_{axis}_bits": _first_meeting(
                        widths, noise_dbm, snr_db, floor - margin_db)})
            per_mode[mode] = ModeBitsFloor(
                mode=mode, conversion_gain_db=gain, noise_figure_db=nf,
                analog_floor_dbm=floor, margin_db=float(margin_db), **curves)
        results[label] = BitsFloorResult(
            active=per_mode[MixerMode.ACTIVE],
            passive=per_mode[MixerMode.PASSIVE],
            lo_frequency_hz=float(lo_frequency_hz),
            rf_frequency_hz=float(rf_frequency_hz),
            if_frequency_hz=plan.if_frequency,
            nco_frequency_hz=plan.nco_frequency_hz,
            output_sample_rate_hz=plan.output_sample_rate,
            margin_db=float(margin_db),
        )
    return results


def _width(value: float) -> str:
    return f"{value:.0f} bits" if math.isfinite(value) else "not reached"


def format_report(result: BitsFloorResult) -> str:
    """Text rendering of the width-minimum scan."""
    lines = [
        "Minimum transparent digital-IF widths (LO = "
        f"{result.lo_frequency_hz / 1e9:.2f} GHz, IF = "
        f"{result.if_frequency_hz / 1e6:.2f} MHz, baseband BW = "
        f"{result.output_sample_rate_hz / 1e6:.0f} MHz, margin = "
        f"{result.margin_db:.0f} dB)"
    ]
    for panel in (result.active, result.passive):
        lines.append(
            f"  {panel.mode.value}: analog floor "
            f"{panel.analog_floor_dbm:7.2f} dBm (gain "
            f"{panel.conversion_gain_db:.1f} dB, NF "
            f"{panel.noise_figure_db:.1f} dB) -> threshold "
            f"{panel.threshold_dbm:7.2f} dBm")
        lines.append(f"    ADC:    {_width(panel.min_adc_bits)}")
        lines.append(f"    LO:     {_width(panel.min_lo_bits)}")
        lines.append(f"    output: {_width(panel.min_output_bits)}")
    return "\n".join(lines)


run_bits_floor = register_experiment(
    name="bits_floor",
    artefact="Minimum ADC/LO/output widths keeping quantization noise "
             "under the mixer's analog noise floor",
    summary="Three-axis digital width scan against the NF-derived floor",
    batch_runner=sweep_bits_floor,
    result_type=BitsFloorResult,
    report=format_report,
    payload_types=(ModeBitsFloor,),
).runner
