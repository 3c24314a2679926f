"""The active-mode load: a transmission gate to VDD with the C_c low-pass.

In active mode the commutated current develops the IF voltage across a
transmission gate connected to VDD (Fig. 5b): its on-resistance
``R_tot = R_PMOS || R_NMOS`` is the load resistance that sets the gain, and
``C_c`` filters the up-converted component.  Gain tuning in active mode works
by changing this resistance (the paper's section II.B).
"""

from __future__ import annotations

from functools import cached_property

from repro.core.config import MixerDesign
from repro.core.switches import TransmissionGate
from repro.devices.passives import Capacitor, feedback_impedance
from repro.rf.filters import FirstOrderLowPass
from repro.units import db_from_voltage_ratio


class TransmissionGateLoad:
    """The transmission-gate resistive load plus C_c of the active mixer."""

    def __init__(self, design: MixerDesign,
                 transmission_gate: TransmissionGate | None = None) -> None:
        self.design = design
        self._gate = transmission_gate

    @cached_property
    def transmission_gate(self) -> TransmissionGate:
        """The sized transmission gate realising the load resistance."""
        if self._gate is not None:
            return self._gate
        return TransmissionGate.sized_for_load(self.design.load_resistance,
                                               technology=self.design.technology)

    @property
    def resistance(self) -> float:
        """Nominal (design-value) load resistance in ohms."""
        return self.design.load_resistance

    @property
    def realised_resistance(self) -> float:
        """Mid-rail resistance of the actual sized transmission gate (ohms)."""
        return self.transmission_gate.on_resistance()

    @property
    def capacitor(self) -> Capacitor:
        """The C_c low-pass capacitor."""
        return Capacitor(self.design.load_capacitance)

    @property
    def if_bandwidth(self) -> float:
        """-3 dB IF bandwidth of the R_load C_c network (Hz)."""
        return self.capacitor.pole_frequency(self.resistance)

    def if_response(self) -> FirstOrderLowPass:
        """First-order low-pass response applied to the IF output."""
        return FirstOrderLowPass(dc_gain=1.0, pole_frequency=self.if_bandwidth)

    def impedance(self, frequency: float) -> complex:
        """Load impedance R || C_c at ``frequency``."""
        return feedback_impedance(self.resistance, self.design.load_capacitance,
                                  frequency)

    def resistance_flatness(self) -> float:
        """Max/min resistance ratio across the signal range (headroom metric)."""
        return self.transmission_gate.resistance_flatness()

    def gain_step_db(self, resistance_scale: float) -> float:
        """Gain change (dB) obtained by scaling the load resistance.

        Active-mode gain tuning: ``Gain of active mixer can be tuned by
        changing the resistance of transmission gate``.
        """
        if resistance_scale <= 0:
            raise ValueError("resistance_scale must be positive")
        return float(db_from_voltage_ratio(resistance_scale))

    def output_intercept_vpeak(self) -> float:
        """Output third-order intercept voltage of the load network (V peak).

        The transmission-gate resistance is weakly signal-dependent (that is
        what :meth:`resistance_flatness` quantifies) and the Gilbert core has
        finite headroom below the 1.2 V rail; together they limit the
        large-signal behaviour at the output node.  The behavioural model
        expresses this as an output intercept proportional to the supply,
        with the factor calibrated in the design record.
        """
        return self.design.active_output_ip3_factor * self.design.vdd
