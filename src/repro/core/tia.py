"""The transimpedance amplifier: two-stage Miller OTA with R_F C_F feedback.

In passive mode the TIA converts the commutated RF current back into an IF
voltage.  Three properties matter to the system (section II.C of the paper):

* its closed-loop input impedance is very low — equation (4),
  ``Z_in(f) = (2 / A(f)) * R_F / (1 + j 2 pi f R_F C_F)`` — which gives the
  Gm stage a virtual ground and hence high linearity;
* its feedback network ``R_F || C_F`` is the mixer load Z_F of equation (3)
  and the first-order anti-aliasing filter;
* it burns 3.3 mA, which is why the active mode powers it down through the
  PMOS switch p3.

:class:`TwoStageOTA` captures the op-amp core (DC gain, GBW, swing,
input-referred noise); :class:`TransimpedanceAmplifier` wraps it with the
feedback network and exposes the closed-loop quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import MixerDesign
from repro.devices.passives import Capacitor, Resistor, feedback_impedance
from repro.rf.filters import FirstOrderLowPass
from repro.units import db_from_voltage_ratio, voltage_ratio_from_db


@dataclass(frozen=True)
class TwoStageOTA:
    """A two-stage Miller-compensated operational transconductance amplifier.

    The first stage provides the gain, the second the swing (the paper's
    stated design intent).  The behavioural description keeps the four
    quantities the rest of the system consumes.

    Attributes
    ----------
    dc_gain_db:
        Open-loop DC gain in dB.
    gain_bandwidth:
        Unity-gain bandwidth in Hz.
    output_swing:
        Peak output swing in volts (differential).
    supply_current:
        Total supply current in amperes.
    input_noise_density:
        Input-referred white noise density in V/sqrt(Hz).
    """

    dc_gain_db: float = 62.0
    gain_bandwidth: float = 900e6
    output_swing: float = 1.0
    supply_current: float = 3.3e-3
    input_noise_density: float = 3.0e-9

    def __post_init__(self) -> None:
        if self.dc_gain_db <= 0:
            raise ValueError("OTA DC gain must be positive (in dB)")
        if self.gain_bandwidth <= 0 or self.output_swing <= 0:
            raise ValueError("gain-bandwidth and swing must be positive")
        if self.supply_current < 0 or self.input_noise_density < 0:
            raise ValueError("current and noise density must be non-negative")

    @property
    def dc_gain(self) -> float:
        """Open-loop DC gain as a linear ratio."""
        return float(voltage_ratio_from_db(self.dc_gain_db))

    @property
    def dominant_pole(self) -> float:
        """Dominant (Miller) pole frequency in Hz."""
        return self.gain_bandwidth / self.dc_gain

    def open_loop_gain(self, frequency: float | np.ndarray) -> complex | np.ndarray:
        """Single-pole open-loop gain A(f)."""
        f = np.asarray(frequency, dtype=float)
        gain = self.dc_gain / (1.0 + 1j * f / self.dominant_pole)
        return gain if np.ndim(frequency) else complex(gain)

    def open_loop_gain_db(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Open-loop gain magnitude in dB."""
        gain = np.abs(self.open_loop_gain(frequency))
        result = 20.0 * np.log10(gain)
        return result if np.ndim(frequency) else float(result)

    def phase_margin_degrees(self, load_pole: float | None = None) -> float:
        """Phase margin at unity gain, assuming one optional non-dominant pole."""
        margin = 90.0
        if load_pole is not None and load_pole > 0:
            margin -= math.degrees(math.atan(self.gain_bandwidth / load_pole))
        return margin

    @classmethod
    def from_design(cls, design: MixerDesign) -> "TwoStageOTA":
        """Build the OTA from the mixer design record."""
        return cls(
            dc_gain_db=design.ota_dc_gain_db,
            gain_bandwidth=design.ota_gain_bandwidth,
            output_swing=design.output_swing_limit,
            supply_current=design.tia_supply_current,
        )


class TransimpedanceAmplifier:
    """The closed-loop TIA: OTA plus R_F / C_F feedback (Fig. 7a)."""

    def __init__(self, design: MixerDesign, ota: TwoStageOTA | None = None) -> None:
        self.design = design
        self.ota = ota if ota is not None else TwoStageOTA.from_design(design)
        self.feedback_resistor = Resistor(design.feedback_resistance)
        self.feedback_capacitor = Capacitor(design.feedback_capacitance)

    # -- feedback network -------------------------------------------------------

    def feedback_impedance(self, frequency: float) -> complex:
        """Z_F = R_F || C_F at ``frequency`` — the mixer load of equation (3)."""
        return feedback_impedance(self.design.feedback_resistance,
                                  self.design.feedback_capacitance, frequency)

    @property
    def if_bandwidth(self) -> float:
        """-3 dB IF bandwidth set by the R_F C_F pole (Hz)."""
        return self.feedback_capacitor.pole_frequency(
            self.design.feedback_resistance)

    def if_response(self) -> FirstOrderLowPass:
        """The first-order IF low-pass response (anti-aliasing filter)."""
        return FirstOrderLowPass(dc_gain=1.0, pole_frequency=self.if_bandwidth)

    # -- closed-loop quantities ----------------------------------------------------

    def transimpedance(self, frequency: float) -> complex:
        """Closed-loop transimpedance (V/A) at ``frequency``.

        With a high-gain OTA the transimpedance is simply -Z_F; the finite
        open-loop gain reduces it by the factor A/(1+A).
        """
        a = self.ota.open_loop_gain(frequency)
        z_f = self.feedback_impedance(frequency)
        return z_f * (a / (1.0 + a))

    def input_impedance(self, frequency: float | np.ndarray) -> complex | np.ndarray:
        """Closed-loop input impedance — the paper's equation (4).

        ``Z_in(f) = (2 / A(f)) * R_F / (1 + j 2 pi f R_F C_F)``.  The low
        value (a few ohms at the IF) is the virtual ground that linearises
        the passive mixer.
        """
        f = np.asarray(frequency, dtype=float)
        a = np.abs(self.ota.open_loop_gain(f))
        r_f = self.design.feedback_resistance
        c_f = self.design.feedback_capacitance
        z = (2.0 / a) * r_f / (1.0 + 1j * 2.0 * math.pi * f * r_f * c_f)
        return z if np.ndim(frequency) else complex(z)

    def output_noise_density(self, frequency: float) -> float:
        """Output-referred noise voltage density of the TIA (V/sqrt(Hz)).

        Feedback-resistor thermal noise appears directly at the output; the
        OTA input noise is amplified by the (near-unity at low frequency)
        noise gain.
        """
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        r_noise = self.feedback_resistor.noise_voltage_density()
        ota_noise = self.ota.input_noise_density
        return math.sqrt(r_noise ** 2 + ota_noise ** 2)

    @property
    def power_mw(self) -> float:
        """Power drawn from the supply when enabled (mW)."""
        return self.ota.supply_current * self.design.vdd * 1e3

    def enabled_in_mode(self, mode) -> bool:
        """The TIA is powered only in passive mode (switch p3, section II.C)."""
        from repro.core.config import MixerMode

        return mode is MixerMode.PASSIVE

    def gain_tuning_range_db(self, resistance_scale_min: float = 0.5,
                             resistance_scale_max: float = 2.0) -> float:
        """Gain tuning range obtained by varying R_F (dB).

        The paper: "The gain of the TIA can be tuned by changing the value of
        RF and it provides another degree of freedom to configure the gain of
        the downconverter."
        """
        if resistance_scale_min <= 0 or resistance_scale_max <= resistance_scale_min:
            raise ValueError("need 0 < min scale < max scale")
        return float(db_from_voltage_ratio(resistance_scale_max /
                                           resistance_scale_min))
