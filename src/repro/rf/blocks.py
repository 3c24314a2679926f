"""Memoryless behavioural RF blocks and cascade formulas.

A :class:`BehavioralBlock` models an RF stage by the four numbers designers
actually quote — voltage gain, noise figure, IIP3 and output swing limit —
and turns them into a waveform-level transfer function:

``v_out = a1*v + a3*v^3`` followed by a soft output-swing clamp,

where ``a1`` comes from the gain and ``a3`` from the IIP3 (the standard
third-order two-tone relationship ``A_IIP3^2 = (4/3)|a1/a3|``).  Optionally a
second-order term ``a2`` models finite IIP2 (mismatch-driven in a
differential design, hence very small by default).

The cascade helpers implement the textbook formulas the paper's architecture
discussion leans on: Friis for noise figure and the reciprocal-sum rule for
IIP3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.units import (
    REFERENCE_IMPEDANCE,
    vpeak_from_dbm,
    dbm_from_vpeak,
    voltage_ratio_from_db,
    power_ratio_from_db,
)


@dataclass(frozen=True)
class BehavioralBlock:
    """A memoryless behavioural RF stage.

    Attributes
    ----------
    name:
        Label used in reports.
    gain_db:
        Small-signal voltage gain in dB (may be negative for lossy stages).
    nf_db:
        Spot noise figure in dB (white part; flicker is layered on top by the
        noise model in :mod:`repro.rf.noise_figure`).
    iip3_dbm:
        Input-referred third-order intercept point in dBm (50 ohm).  ``None``
        or ``math.inf`` means the stage is treated as perfectly linear in its
        third-order term.
    iip2_dbm:
        Input-referred second-order intercept point in dBm; defaults to a
        very high value because the design is fully differential.
    output_swing_limit:
        Peak output voltage where the stage hard-limits (OTA/output-stage
        swing).  ``None`` disables clamping.
    input_impedance / output_impedance:
        Port impedances (ohms), used by interface/power calculations.
    """

    name: str
    gain_db: float
    nf_db: float = 0.0
    iip3_dbm: float | None = None
    iip2_dbm: float | None = None
    output_swing_limit: float | None = None
    input_impedance: float = REFERENCE_IMPEDANCE
    output_impedance: float = REFERENCE_IMPEDANCE

    def __post_init__(self) -> None:
        if self.nf_db < 0:
            raise ValueError("noise figure cannot be below 0 dB")
        if self.output_swing_limit is not None and self.output_swing_limit <= 0:
            raise ValueError("output swing limit must be positive")

    # -- linear/polynomial coefficients ---------------------------------------

    @property
    def linear_gain(self) -> float:
        """Voltage gain as a linear ratio a1."""
        return float(voltage_ratio_from_db(self.gain_db))

    @property
    def a1(self) -> float:
        """First-order (linear) coefficient."""
        return self.linear_gain

    @property
    def a3(self) -> float:
        """Third-order coefficient implied by the IIP3 (negative: compressive)."""
        if self.iip3_dbm is None or math.isinf(self.iip3_dbm):
            return 0.0
        a_iip3 = float(vpeak_from_dbm(self.iip3_dbm, self.input_impedance))
        return -(4.0 / 3.0) * self.a1 / (a_iip3 ** 2)

    @property
    def a2(self) -> float:
        """Second-order coefficient implied by the IIP2 (zero if not set)."""
        if self.iip2_dbm is None or math.isinf(self.iip2_dbm):
            return 0.0
        a_iip2 = float(vpeak_from_dbm(self.iip2_dbm, self.input_impedance))
        return self.a1 / a_iip2

    # -- waveform transfer -----------------------------------------------------

    def transfer(self, waveform: np.ndarray) -> np.ndarray:
        """Apply the block's polynomial nonlinearity and swing clamp to a waveform."""
        v = np.asarray(waveform, dtype=float)
        out = self.a1 * v + self.a2 * v * v + self.a3 * v ** 3
        if self.output_swing_limit is not None:
            limit = self.output_swing_limit
            out = limit * np.tanh(out / limit)
        return out

    # -- derived metrics -------------------------------------------------------

    @property
    def oip3_dbm(self) -> float | None:
        """Output-referred third-order intercept in dBm."""
        if self.iip3_dbm is None:
            return None
        return self.iip3_dbm + self.gain_db

    def input_p1db_estimate_dbm(self) -> float | None:
        """Analytic estimate of the input 1 dB compression point.

        For a pure third-order compressive nonlinearity P1dB sits ~9.6 dB
        below IIP3; when an output swing limit is present the compression
        point is the smaller of the third-order estimate and the
        swing-limited value (the paper notes the OTA output swing limits the
        passive-mode P1dB).
        """
        candidates: list[float] = []
        if self.iip3_dbm is not None and not math.isinf(self.iip3_dbm):
            candidates.append(self.iip3_dbm - 9.6)
        if self.output_swing_limit is not None and self.a1 > 0:
            # The tanh clamp is ~1 dB compressed when the ideal output reaches
            # about 0.66 of the limit.
            v_in_limit = 0.66 * self.output_swing_limit / self.a1
            candidates.append(float(dbm_from_vpeak(v_in_limit, self.input_impedance)))
        if not candidates:
            return None
        return min(candidates)

    def scaled_gain(self, delta_db: float) -> "BehavioralBlock":
        """Copy of the block with the gain shifted by ``delta_db``."""
        return replace(self, gain_db=self.gain_db + delta_db)


@dataclass(frozen=True)
class CascadeResult:
    """Aggregate metrics of a cascade of behavioural blocks."""

    gain_db: float
    nf_db: float
    iip3_dbm: float
    blocks: tuple[BehavioralBlock, ...]

    @property
    def oip3_dbm(self) -> float:
        """Output-referred third-order intercept of the cascade."""
        return self.iip3_dbm + self.gain_db


def cascade(blocks: Sequence[BehavioralBlock]) -> CascadeResult:
    """Combine a chain of behavioural blocks.

    * Gain: sum of dB gains.
    * Noise figure: Friis formula with *power* gains.
    * IIP3: the usual reciprocal sum ``1/IIP3 = sum(G_before / IIP3_k)`` in
      linear power units, input-referred.
    """
    if not blocks:
        raise ValueError("cascade() needs at least one block")

    total_gain_db = float(sum(block.gain_db for block in blocks))

    # Friis noise figure.
    total_factor = 0.0
    gain_before = 1.0  # power gain preceding the current stage
    for index, block in enumerate(blocks):
        factor = float(power_ratio_from_db(block.nf_db))
        if index == 0:
            total_factor = factor
        else:
            total_factor += (factor - 1.0) / gain_before
        gain_before *= float(power_ratio_from_db(block.gain_db))
    total_nf_db = 10.0 * math.log10(total_factor)

    # IIP3 cascade (input-referred, linear power units in mW).
    inverse_sum = 0.0
    gain_before_linear = 1.0
    for block in blocks:
        if block.iip3_dbm is not None and not math.isinf(block.iip3_dbm):
            iip3_mw = 10.0 ** (block.iip3_dbm / 10.0)
            inverse_sum += gain_before_linear / iip3_mw
        gain_before_linear *= float(power_ratio_from_db(block.gain_db))
    if inverse_sum == 0.0:
        total_iip3_dbm = math.inf
    else:
        total_iip3_dbm = 10.0 * math.log10(1.0 / inverse_sum)

    return CascadeResult(gain_db=total_gain_db, nf_db=total_nf_db,
                         iip3_dbm=total_iip3_dbm, blocks=tuple(blocks))
