"""Circuit elements and their MNA stamps.

Each element knows how to stamp itself for the three analyses:

* ``stamp_dc``     — DC operating point (capacitors open, inductors short,
  nonlinear devices linearised around the current Newton guess);
* ``stamp_ac``     — complex small-signal stamp at an angular frequency,
  linearised around the DC solution;
* ``stamp_transient`` — companion-model stamp for one trapezoidal/backward-
  Euler time step.

The ground node is handled by :class:`repro.circuit.mna.MnaSystem`; elements
never special-case it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuit.mna import MnaSystem, SolutionView
from repro.devices.mosfet import Mosfet, MosfetOperatingPoint, polarity_sign


class Element:
    """Base class for all circuit elements."""

    #: Whether this element introduces an extra MNA branch-current unknown.
    needs_branch_current: bool = False

    def __init__(self, name: str, nodes: tuple[str, ...]) -> None:
        if not name:
            raise ValueError("element name must be non-empty")
        self.name = name
        self.nodes = nodes

    # The default stamps do nothing; concrete elements override the ones
    # that apply to them.

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        """Stamp for the DC operating-point (Newton iteration) system."""

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        """Stamp for the small-signal AC system at angular frequency ``omega``."""

    def stamp_transient(self, system: MnaSystem, previous: SolutionView,
                        guess: SolutionView, dt: float, time: float,
                        state: dict) -> None:
        """Stamp for one transient time step ending at ``time``."""

    def update_state(self, solution: SolutionView, dt: float,
                     state: dict) -> None:
        """Update per-element integration state after a transient step."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


# ---------------------------------------------------------------------------
# linear two-terminal elements
# ---------------------------------------------------------------------------

class ResistorElement(Element):
    """An ideal resistor."""

    def __init__(self, name: str, node_a: str, node_b: str, resistance: float) -> None:
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        super().__init__(name, (node_a, node_b))
        self.resistance = resistance

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        system.add_conductance(self.nodes[0], self.nodes[1], self.conductance)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        system.add_conductance(self.nodes[0], self.nodes[1], self.conductance)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        system.add_conductance(self.nodes[0], self.nodes[1], self.conductance)


class CapacitorElement(Element):
    """An ideal capacitor (open at DC, trapezoidal companion in transient)."""

    def __init__(self, name: str, node_a: str, node_b: str, capacitance: float,
                 initial_voltage: float = 0.0) -> None:
        if capacitance <= 0:
            raise ValueError("capacitance must be positive")
        super().__init__(name, (node_a, node_b))
        self.capacitance = capacitance
        self.initial_voltage = initial_voltage

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        system.add_conductance(self.nodes[0], self.nodes[1],
                               1j * omega * self.capacitance)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        v_prev = previous.voltage_between(self.nodes[0], self.nodes[1])
        i_prev = state.get((self.name, "current"), 0.0)
        # Trapezoidal companion: geq = 2C/dt, ieq pushes the history forward.
        geq = 2.0 * self.capacitance / dt
        ieq = geq * v_prev + i_prev
        system.add_conductance(self.nodes[0], self.nodes[1], geq)
        system.add_current(self.nodes[0], ieq)
        system.add_current(self.nodes[1], -ieq)

    def update_state(self, solution: SolutionView, dt: float, state: dict) -> None:
        v_now = solution.voltage_between(self.nodes[0], self.nodes[1])
        v_prev = state.get((self.name, "voltage"), self.initial_voltage)
        i_prev = state.get((self.name, "current"), 0.0)
        geq = 2.0 * self.capacitance / dt
        i_now = geq * (v_now - v_prev) - i_prev
        state[(self.name, "voltage")] = v_now
        state[(self.name, "current")] = i_now


class InductorElement(Element):
    """An ideal inductor (short at DC, branch-current unknown)."""

    needs_branch_current = True

    def __init__(self, name: str, node_a: str, node_b: str, inductance: float) -> None:
        if inductance <= 0:
            raise ValueError("inductance must be positive")
        super().__init__(name, (node_a, node_b))
        self.inductance = inductance

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        # DC short: enforce v(a) - v(b) = 0 through the branch equation.
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1], 0.0)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        branch = system.branch_index(self.name)
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1], 0.0)
        system.matrix[branch, branch] -= 1j * omega * self.inductance

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        branch = system.branch_index(self.name)
        i_prev = state.get((self.name, "current"), 0.0)
        v_prev = state.get((self.name, "voltage"), 0.0)
        # Trapezoidal: v = L di/dt  ->  v_n + v_{n-1} = (2L/dt)(i_n - i_{n-1})
        req = 2.0 * self.inductance / dt
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1],
                                    -v_prev + req * (-i_prev))
        system.matrix[branch, branch] -= req

    def update_state(self, solution: SolutionView, dt: float, state: dict) -> None:
        state[(self.name, "current")] = solution.branch_current(self.name)
        state[(self.name, "voltage")] = solution.voltage_between(
            self.nodes[0], self.nodes[1])


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

class VoltageSource(Element):
    """An independent voltage source with DC, AC and time-domain values."""

    needs_branch_current = True

    def __init__(self, name: str, node_pos: str, node_neg: str, dc: float = 0.0,
                 ac: float = 0.0,
                 waveform: Callable[[float], float] | None = None) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.dc = dc
        self.ac = ac
        self.waveform = waveform

    def value_at(self, time: float) -> float:
        """Instantaneous value in a transient analysis."""
        if self.waveform is not None:
            return self.waveform(time)
        return self.dc

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1], self.dc)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1], self.ac)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1],
                                    self.value_at(time))


class CurrentSource(Element):
    """An independent current source (flows from ``node_pos`` to ``node_neg``)."""

    def __init__(self, name: str, node_pos: str, node_neg: str, dc: float = 0.0,
                 ac: float = 0.0,
                 waveform: Callable[[float], float] | None = None) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.dc = dc
        self.ac = ac
        self.waveform = waveform

    def value_at(self, time: float) -> float:
        """Instantaneous value in a transient analysis."""
        if self.waveform is not None:
            return self.waveform(time)
        return self.dc

    def _stamp_value(self, system: MnaSystem, value) -> None:
        # Current leaves node_pos and enters node_neg.
        system.add_current(self.nodes[0], -value)
        system.add_current(self.nodes[1], +value)

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        self._stamp_value(system, self.dc)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        self._stamp_value(system, self.ac)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        self._stamp_value(system, self.value_at(time))


# ---------------------------------------------------------------------------
# controlled sources
# ---------------------------------------------------------------------------

class VCCS(Element):
    """Voltage-controlled current source: ``i = gm * (v_cp - v_cn)``."""

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_pos: str, ctrl_neg: str, transconductance: float) -> None:
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.transconductance = transconductance

    def _stamp(self, system: MnaSystem) -> None:
        system.add_vccs(self.nodes[0], self.nodes[1], self.nodes[2], self.nodes[3],
                        self.transconductance)

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        self._stamp(system)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        self._stamp(system)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        self._stamp(system)


class VCVS(Element):
    """Voltage-controlled voltage source: ``v_out = gain * (v_cp - v_cn)``."""

    needs_branch_current = True

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float) -> None:
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.gain = gain

    def _stamp(self, system: MnaSystem) -> None:
        gain_terms = [(self.nodes[2], self.gain), (self.nodes[3], -self.gain)]
        system.stamp_voltage_branch(self.name, self.nodes[0], self.nodes[1], 0.0,
                                    gain_terms=gain_terms)

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        self._stamp(system)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        self._stamp(system)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        self._stamp(system)


# ---------------------------------------------------------------------------
# MOSFET
# ---------------------------------------------------------------------------

class MosfetElement(Element):
    """A behavioural MOSFET between (drain, gate, source) nodes.

    DC and transient analyses linearise the device around the current Newton
    guess (companion model: ``gds`` between drain/source, ``gm`` VCCS from the
    gate, plus an equivalent current source).  AC analysis linearises around
    the DC operating point and optionally includes C_gs / C_gd.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 device: Mosfet, include_capacitance: bool = True) -> None:
        super().__init__(name, (drain, gate, source))
        self.device = device
        self.include_capacitance = include_capacitance

    # Terminal helpers -------------------------------------------------------

    @property
    def drain(self) -> str:
        return self.nodes[0]

    @property
    def gate(self) -> str:
        return self.nodes[1]

    @property
    def source(self) -> str:
        return self.nodes[2]

    def _terminal_voltages(self, view: SolutionView) -> tuple[float, float]:
        vg = float(np.real(view.voltage(self.gate)))
        vd = float(np.real(view.voltage(self.drain)))
        vs = float(np.real(view.voltage(self.source)))
        return vg - vs, vd - vs

    def operating_point(self, view: SolutionView) -> MosfetOperatingPoint:
        """Device operating point at the node voltages in ``view``."""
        vgs, vds = self._terminal_voltages(view)
        return self.device.operating_point(vgs, vds)

    def _stamp_linearised(self, system: MnaSystem, view: SolutionView) -> None:
        vgs, vds = self._terminal_voltages(view)
        op = self.device.operating_point(vgs, vds)
        sign = polarity_sign(self.device.params.polarity)
        gm = op.gm
        gds = op.gds
        # Companion current: the device current minus the linear terms, so the
        # linearised branch reproduces the nonlinear current at the guess.
        i_nonlinear = sign * op.id
        i_linear = sign * (gm * vgs + gds * vds)
        i_eq = i_nonlinear - i_linear
        system.add_conductance(self.drain, self.source, gds)
        system.add_vccs(self.drain, self.source, self.gate, self.source, sign * gm)
        # i_eq flows drain -> source.
        system.add_current(self.drain, -i_eq)
        system.add_current(self.source, +i_eq)

    def stamp_dc(self, system: MnaSystem, guess: SolutionView) -> None:
        self._stamp_linearised(system, guess)

    def stamp_transient(self, system, previous, guess, dt, time, state) -> None:
        self._stamp_linearised(system, guess)

    def stamp_ac(self, system: MnaSystem, omega: float,
                 dc_solution: SolutionView) -> None:
        vgs, vds = self._terminal_voltages(dc_solution)
        op = self.device.operating_point(vgs, vds)
        sign = polarity_sign(self.device.params.polarity)
        system.add_conductance(self.drain, self.source, op.gds)
        system.add_vccs(self.drain, self.source, self.gate, self.source,
                        sign * op.gm)
        if self.include_capacitance:
            c_total = self.device.params.gate_capacitance
            # Simple Meyer-style split in saturation: 2/3 to C_gs, a small
            # overlap-like fraction to C_gd.
            c_gs = (2.0 / 3.0) * c_total
            c_gd = 0.15 * c_total
            system.add_conductance(self.gate, self.source, 1j * omega * c_gs)
            system.add_conductance(self.gate, self.drain, 1j * omega * c_gd)
