"""Noise-source models: thermal, flicker (1/f) and shot noise.

Every source exposes ``voltage_psd(frequency)`` returning a one-sided power
spectral density in V^2/Hz (input-referred), so sources can be summed
directly.  The mixer's noise-figure model (:mod:`repro.rf.noise_figure`)
builds its curves from these primitives: white thermal noise sets the NF
floor and the flicker sources set the low-IF corner that Fig. 9 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.units import BOLTZMANN, ELECTRON_CHARGE, T0_KELVIN


class NoiseSource:
    """Interface for all noise sources (one-sided voltage PSD in V^2/Hz)."""

    def voltage_psd(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """One-sided voltage power spectral density at ``frequency`` (V^2/Hz)."""
        raise NotImplementedError

    def integrated_rms(self, f_low: float, f_high: float, points: int = 2001) -> float:
        """RMS noise voltage integrated between two frequencies (V)."""
        if f_low <= 0 or f_high <= f_low:
            raise ValueError("need 0 < f_low < f_high")
        freqs = np.logspace(math.log10(f_low), math.log10(f_high), points)
        psd = np.asarray(self.voltage_psd(freqs), dtype=float)
        return float(np.sqrt(np.trapezoid(psd, freqs)))


@dataclass(frozen=True)
class ThermalNoise(NoiseSource):
    """White thermal noise of a resistance (or an equivalent 4kTgamma/gm term)."""

    resistance: float
    temperature: float = T0_KELVIN

    def __post_init__(self) -> None:
        if self.resistance < 0:
            raise ValueError("resistance must be non-negative")

    def voltage_psd(self, frequency: float | np.ndarray) -> float | np.ndarray:
        psd = 4.0 * BOLTZMANN * self.temperature * self.resistance
        return np.full_like(np.asarray(frequency, dtype=float), psd) \
            if np.ndim(frequency) else psd

    @classmethod
    def from_gm(cls, gm: float, gamma: float = 1.1,
                temperature: float = T0_KELVIN) -> "ThermalNoise":
        """Channel thermal noise of a MOSFET expressed as an equivalent resistance."""
        if gm <= 0:
            raise ValueError("gm must be positive")
        return cls(resistance=gamma / gm, temperature=temperature)


@dataclass(frozen=True)
class FlickerNoise(NoiseSource):
    """1/f noise with PSD ``k_flicker / f``.

    ``k_flicker`` has units of V^2 (PSD times frequency); it is usually
    derived from a device's ``K_f / (C_ox W L)``.
    """

    k_flicker: float
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.k_flicker < 0:
            raise ValueError("flicker coefficient must be non-negative")
        if not 0.5 <= self.exponent <= 2.0:
            raise ValueError("flicker exponent outside the physical range [0.5, 2]")

    def voltage_psd(self, frequency: float | np.ndarray) -> float | np.ndarray:
        freq = np.asarray(frequency, dtype=float)
        if np.any(freq <= 0):
            raise ValueError("flicker PSD requires positive frequency")
        psd = self.k_flicker / np.power(freq, self.exponent)
        return psd if np.ndim(frequency) else float(psd)

    def corner_with(self, white: "ThermalNoise") -> float:
        """Frequency at which this 1/f source equals a white source (Hz)."""
        white_psd = float(white.voltage_psd(1.0))
        if white_psd <= 0:
            return math.inf
        return (self.k_flicker / white_psd) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class ShotNoise(NoiseSource):
    """Shot noise of a DC current, referred through a transresistance."""

    dc_current: float
    transresistance: float = 1.0

    def __post_init__(self) -> None:
        if self.dc_current < 0:
            raise ValueError("DC current must be non-negative")
        if self.transresistance < 0:
            raise ValueError("transresistance must be non-negative")

    def voltage_psd(self, frequency: float | np.ndarray) -> float | np.ndarray:
        current_psd = 2.0 * ELECTRON_CHARGE * self.dc_current
        psd = current_psd * self.transresistance ** 2
        return np.full_like(np.asarray(frequency, dtype=float), psd) \
            if np.ndim(frequency) else psd


class CompositeNoise(NoiseSource):
    """Sum of independent noise sources (PSDs add)."""

    def __init__(self, sources: Iterable[NoiseSource] = ()) -> None:
        self._sources: list[NoiseSource] = list(sources)

    def add(self, source: NoiseSource) -> "CompositeNoise":
        """Add a source and return self (chainable)."""
        self._sources.append(source)
        return self

    @property
    def sources(self) -> Sequence[NoiseSource]:
        """The individual sources (read-only view)."""
        return tuple(self._sources)

    def voltage_psd(self, frequency: float | np.ndarray) -> float | np.ndarray:
        if not self._sources:
            return np.zeros_like(np.asarray(frequency, dtype=float)) \
                if np.ndim(frequency) else 0.0
        total = None
        for source in self._sources:
            psd = source.voltage_psd(frequency)
            total = psd if total is None else total + psd
        return total

    def flicker_corner(self, f_low: float = 1e2, f_high: float = 1e8,
                       points: int = 4001) -> float:
        """Estimate the 1/f corner: where the PSD is 3 dB above the white floor.

        The white floor is taken as the PSD at the highest evaluated
        frequency.  Returns ``f_low`` if the composite is already within
        3 dB of the floor everywhere (i.e. no visible corner).
        """
        freqs = np.logspace(math.log10(f_low), math.log10(f_high), points)
        psd = np.asarray(self.voltage_psd(freqs), dtype=float)
        floor = psd[-1]
        if floor <= 0:
            return math.inf
        above = psd > 2.0 * floor
        if not np.any(above):
            return float(f_low)
        last_above = int(np.max(np.nonzero(above)))
        if last_above + 1 >= len(freqs):
            return float(f_high)
        return float(freqs[last_above + 1])
