"""Noise-figure algebra: noise factors, Friis cascades, flicker corners.

The paper reports *double side-band* (DSB) noise figures versus IF frequency
(Fig. 9) and highlights a flicker corner below 100 kHz in passive mode.
Behavioural mixers in this library describe their noise with two numbers —
a white (thermal) NF floor and a flicker corner frequency — and this module
turns those into the NF-vs-IF curves the figure plots, plus the standard
conversions designers expect (DSB<->SSB, factor<->figure, Friis).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.units import power_ratio_from_db


def noise_factor_from_figure(nf_db: float | np.ndarray) -> float | np.ndarray:
    """Noise factor (linear) from noise figure (dB)."""
    return power_ratio_from_db(nf_db)


def noise_figure_from_factor(factor: float | np.ndarray) -> float | np.ndarray:
    """Noise figure (dB) from noise factor (linear); factor must be >= 1."""
    factor_arr = np.asarray(factor, dtype=float)
    if np.any(factor_arr < 1.0 - 1e-12):
        raise ValueError("a physical noise factor cannot be below 1")
    result = 10.0 * np.log10(np.maximum(factor_arr, 1.0))
    return result if np.ndim(factor) else float(result)


def friis_cascade_nf(nf_db: Sequence[float], gain_db: Sequence[float]) -> float:
    """Friis formula: total NF (dB) of a cascade given per-stage NF and gain (dB)."""
    if len(nf_db) != len(gain_db) or not nf_db:
        raise ValueError("nf_db and gain_db must be equal-length, non-empty")
    total = 0.0
    gain_before = 1.0
    for index, (nf, gain) in enumerate(zip(nf_db, gain_db)):
        factor = float(power_ratio_from_db(nf))
        if index == 0:
            total = factor
        else:
            total += (factor - 1.0) / gain_before
        gain_before *= float(power_ratio_from_db(gain))
    return float(noise_figure_from_factor(total))


def nf_with_flicker(nf_white_db: float | np.ndarray,
                    flicker_corner_hz: float | np.ndarray,
                    frequency_hz: float | np.ndarray) -> float | np.ndarray:
    """Spot noise figure including a 1/f contribution.

    The excess noise factor is modelled as ``(F_white - 1) * (1 + fc / f)``
    so the white floor is recovered well above the corner and the NF rises at
    10 dB/decade below it — the shape of the paper's Fig. 9 curves.

    All three arguments broadcast against each other, so a sweep can stack
    per-design white floors and corners against a shared IF grid in one
    vectorized call; a fully scalar call still returns a plain ``float``.
    """
    corner = np.asarray(flicker_corner_hz, dtype=float)
    if np.any(corner < 0):
        raise ValueError("flicker corner must be non-negative")
    freq = np.asarray(frequency_hz, dtype=float)
    if np.any(freq <= 0):
        raise ValueError("frequency must be positive")
    white_factor = np.asarray(power_ratio_from_db(nf_white_db), dtype=float)
    excess = (white_factor - 1.0) * (1.0 + corner / freq)
    factor = 1.0 + excess
    result = 10.0 * np.log10(factor)
    if np.ndim(frequency_hz) or np.ndim(nf_white_db) or np.ndim(flicker_corner_hz):
        return result
    return float(result)


def flicker_corner_from_nf(frequencies_hz: Sequence[float],
                           nf_db: Sequence[float]) -> float:
    """Estimate the flicker corner from an NF-vs-frequency curve.

    The corner is taken as the frequency where the NF is 3 dB above the
    high-frequency (white) floor, interpolated on a log-frequency axis.
    Returns 0 if the curve never rises 3 dB above the floor.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    nf = np.asarray(nf_db, dtype=float)
    if freqs.shape != nf.shape or freqs.size < 3:
        raise ValueError("need matching frequency/NF arrays of length >= 3")
    order = np.argsort(freqs)
    freqs, nf = freqs[order], nf[order]
    floor = float(np.median(nf[-max(3, freqs.size // 5):]))
    threshold = floor + 3.0
    above = nf > threshold
    if not np.any(above):
        return 0.0
    last_above = int(np.max(np.nonzero(above)))
    if last_above + 1 >= freqs.size:
        return float(freqs[-1])
    # Log-linear interpolation between the last point above and the next one.
    f0, f1 = freqs[last_above], freqs[last_above + 1]
    n0, n1 = nf[last_above], nf[last_above + 1]
    if n0 == n1:
        return float(f0)
    fraction = (n0 - threshold) / (n0 - n1)
    return float(10.0 ** (math.log10(f0) + fraction * (math.log10(f1) - math.log10(f0))))


def dsb_from_ssb(ssb_nf_db: float) -> float:
    """Double side-band NF from single side-band NF (3 dB lower)."""
    return ssb_nf_db - 3.0


def ssb_from_dsb(dsb_nf_db: float) -> float:
    """Single side-band NF from double side-band NF (3 dB higher)."""
    return dsb_nf_db + 3.0
