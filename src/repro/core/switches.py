"""MOS switches used for reconfiguration (Fig. 5 of the paper).

Three switch styles appear in the design:

* **PMOS switches** (Sw1-2, Mp1/Mp2 and the TIA power switch p3): driven by
  ``Vlogic``; in passive mode Sw1-2 stay *on* and their triode resistance
  doubles as the source degeneration that linearises the passive mixer;
* **NMOS switches** (Sw5-7): route the active-mode bias and implement the
  tail current source;
* **transmission gates** (Sw3-4 and the resistive load of Fig. 5b): a PMOS
  and NMOS in parallel, ``R_tot = R_PMOS || R_NMOS``, giving a usable
  resistance across the whole 0..VDD signal range at 1.2 V supply — the
  "optimum headroom" argument of the abstract.

All on-resistances are derived from the behavioural 65 nm device models, so
sizing decisions (width for a target resistance) go through real device
physics rather than magic constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.devices.mosfet import Mosfet
from repro.devices.technology import Technology, UMC65_LIKE
from repro.units import parallel


class SwitchState(enum.Enum):
    """Logical state of a switch."""

    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class _MosSwitchBase:
    """Shared behaviour of single-device MOS switches."""

    width: float
    length: float
    technology: Technology = UMC65_LIKE

    def _device(self) -> Mosfet:
        raise NotImplementedError

    def _gate_drive(self, control_high: bool) -> float:
        """Gate-source voltage with the source at mid-rail."""
        gate = self.technology.vdd if control_high else 0.0
        return gate - self.technology.mid_rail

    def state(self, control_high: bool) -> SwitchState:
        """Switch state for a given logic level on the control input."""
        vgs = self._gate_drive(control_high)
        return SwitchState.ON if self._device().is_on(vgs) else SwitchState.OFF

    def on_resistance(self, signal_voltage: float | None = None) -> float:
        """Triode on-resistance at a signal (source) voltage.

        ``signal_voltage`` defaults to the mid-rail common mode the paper
        designs the signal path around.
        """
        vs = self.technology.mid_rail if signal_voltage is None else signal_voltage
        device = self._device()
        vgs = self._gate_voltage_on() - vs
        resistance = device.on_resistance(vgs)
        return resistance

    def off_resistance(self) -> float:
        """Off-state resistance (ideal open: infinity)."""
        return math.inf

    def resistance(self, control_high: bool,
                   signal_voltage: float | None = None) -> float:
        """Resistance presented for a control level (on-resistance or open)."""
        if self.state(control_high) is SwitchState.ON:
            return self.on_resistance(signal_voltage)
        return self.off_resistance()

    def _gate_voltage_on(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class NmosSwitch(_MosSwitchBase):
    """An NMOS pass switch: on when its gate is driven to VDD."""

    def _device(self) -> Mosfet:
        return Mosfet.nmos(self.width, self.length, self.technology)

    def _gate_voltage_on(self) -> float:
        return self.technology.vdd


@dataclass(frozen=True)
class PmosSwitch(_MosSwitchBase):
    """A PMOS pass switch: on when its gate is driven to ground.

    In passive mode the paper drives ``Vlogic`` low so Mp1/Mp2 conduct and
    their on-resistance acts as the degeneration resistance R_deg.
    """

    def _device(self) -> Mosfet:
        return Mosfet.pmos(self.width, self.length, self.technology)

    def _gate_voltage_on(self) -> float:
        return 0.0

    @classmethod
    def sized_for_degeneration(cls, target_resistance: float,
                               length: float = 65e-9,
                               technology: Technology = UMC65_LIKE) -> "PmosSwitch":
        """Size the PMOS so its on-resistance equals a target degeneration value.

        The paper: "Width of PMOS is chosen to provide degeneration
        resistance, thus turning the overall mixer topology into a passive
        mode."
        """
        probe = Mosfet.pmos(1e-6, length, technology)
        vgs_on = 0.0 - technology.mid_rail
        width = probe.width_for_resistance(target_resistance, vgs_on, length)
        return cls(width=width, length=length, technology=technology)


@dataclass(frozen=True)
class TransmissionGate:
    """A CMOS transmission gate: NMOS and PMOS in parallel (Fig. 5b).

    Used both as the series resistive switches Sw3-4 and, connected to VDD,
    as the resistive load of the active mixer.  Its total resistance is
    ``R_PMOS || R_NMOS`` and stays comparatively flat across the signal
    range — with only one device the resistance would blow up as the signal
    approaches one rail, which is exactly the headroom problem the paper's
    abstract calls out at 1.2 V.
    """

    nmos_width: float
    pmos_width: float
    length: float
    technology: Technology = UMC65_LIKE

    def __post_init__(self) -> None:
        if self.nmos_width <= 0 or self.pmos_width <= 0 or self.length <= 0:
            raise ValueError("transmission-gate dimensions must be positive")

    def _nmos(self) -> Mosfet:
        return Mosfet.nmos(self.nmos_width, self.length, self.technology)

    def _pmos(self) -> Mosfet:
        return Mosfet.pmos(self.pmos_width, self.length, self.technology)

    def state(self, enabled: bool) -> SwitchState:
        """Both gates are driven complementarily; ``enabled`` turns the TG on."""
        return SwitchState.ON if enabled else SwitchState.OFF

    def on_resistance(self, signal_voltage: float | None = None) -> float:
        """Parallel on-resistance at a signal voltage (defaults to mid-rail)."""
        vs = self.technology.mid_rail if signal_voltage is None else signal_voltage
        vdd = self.technology.vdd
        r_nmos = self._nmos().on_resistance(vdd - vs)
        r_pmos = self._pmos().on_resistance(0.0 - vs)
        finite = [r for r in (r_nmos, r_pmos) if math.isfinite(r)]
        if not finite:
            return math.inf
        if len(finite) == 1:
            return finite[0]
        return float(parallel(r_nmos, r_pmos))

    def resistance(self, enabled: bool,
                   signal_voltage: float | None = None) -> float:
        """Resistance presented for an enable level."""
        if enabled:
            return self.on_resistance(signal_voltage)
        return math.inf

    def resistance_flatness(self, points: int = 21) -> float:
        """Max/min on-resistance ratio across the 10-90 % signal range.

        A figure of merit for the headroom argument: a value close to 1 means
        the load resistance (and therefore the active-mode gain) barely moves
        with the output swing.
        """
        vdd = self.technology.vdd
        voltages = [0.1 * vdd + 0.8 * vdd * i / (points - 1) for i in range(points)]
        resistances = [self.on_resistance(v) for v in voltages]
        finite = [r for r in resistances if math.isfinite(r)]
        if not finite:
            return math.inf
        return max(finite) / min(finite)

    @classmethod
    def sized_for_load(cls, target_resistance: float, length: float = 130e-9,
                       technology: Technology = UMC65_LIKE) -> "TransmissionGate":
        """Size a transmission gate for a target mid-rail resistance.

        Each device is sized for twice the target so the parallel combination
        lands on it; the paper tunes the active-mode gain through exactly
        this resistance.
        """
        if target_resistance <= 0:
            raise ValueError("target resistance must be positive")
        mid = technology.mid_rail
        nmos_probe = Mosfet.nmos(1e-6, length, technology)
        pmos_probe = Mosfet.pmos(1e-6, length, technology)
        nmos_width = nmos_probe.width_for_resistance(
            2.0 * target_resistance, technology.vdd - mid, length)
        pmos_width = pmos_probe.width_for_resistance(
            2.0 * target_resistance, 0.0 - mid, length)
        return cls(nmos_width=nmos_width, pmos_width=pmos_width, length=length,
                   technology=technology)
