"""Two-port and driving-point impedance extraction from AC analyses.

The paper quotes the TIA input impedance (equation 4) and relies on a 50 ohm
input termination at the RF port; these helpers turn AC sweeps into the
impedance/S-parameter quantities those discussions use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.ac import ac_sweep
from repro.circuit.dc import dc_operating_point
from repro.circuit.elements import CurrentSource
from repro.circuit.netlist import Circuit
from repro.units import REFERENCE_IMPEDANCE


@dataclass
class TwoPort:
    """Frequency-dependent two-port described by its Z-parameters."""

    frequencies: np.ndarray
    z11: np.ndarray
    z12: np.ndarray
    z21: np.ndarray
    z22: np.ndarray

    def s_parameters(self, z0: float = REFERENCE_IMPEDANCE
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Convert to S-parameters referenced to ``z0``.

        Returns ``(s11, s12, s21, s22)`` arrays over the sweep.
        """
        z11, z12, z21, z22 = self.z11, self.z12, self.z21, self.z22
        delta = (z11 + z0) * (z22 + z0) - z12 * z21
        s11 = ((z11 - z0) * (z22 + z0) - z12 * z21) / delta
        s12 = 2.0 * z12 * z0 / delta
        s21 = 2.0 * z21 * z0 / delta
        s22 = ((z11 + z0) * (z22 - z0) - z12 * z21) / delta
        return s11, s12, s21, s22

    def input_impedance(self, load: complex = REFERENCE_IMPEDANCE) -> np.ndarray:
        """Input impedance with the output port terminated in ``load``."""
        return self.z11 - (self.z12 * self.z21) / (self.z22 + load)


def impedance_at_port(circuit: Circuit, node_pos: str, node_neg: str,
                      frequencies: np.ndarray,
                      probe_name: str = "_zprobe") -> np.ndarray:
    """Driving-point impedance seen between two nodes across a frequency sweep.

    A 1 A AC test current is injected between the nodes and the resulting
    voltage phasor read back; the circuit is not modified (a copy of the
    element list is used).
    """
    probe = CurrentSource(probe_name, node_neg, node_pos, dc=0.0, ac=1.0)
    probed = Circuit(circuit.name + "+probe")
    probed.extend(list(circuit.elements))
    probed.add(probe)
    dc = dc_operating_point(probed)
    ac = ac_sweep(probed, frequencies, dc_solution=dc)
    return ac.voltage_between(node_pos, node_neg)


def two_port_from_circuit(circuit: Circuit,
                          port1: tuple[str, str], port2: tuple[str, str],
                          frequencies: np.ndarray) -> TwoPort:
    """Extract Z-parameters by exciting each port in turn with a 1 A source."""
    freqs = np.asarray(frequencies, dtype=float)

    def _excite(active_port: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
        probed = Circuit(circuit.name + "+zparam")
        probed.extend(list(circuit.elements))
        probed.add(CurrentSource("_zp_drive", active_port[1], active_port[0],
                                 dc=0.0, ac=1.0))
        dc = dc_operating_point(probed)
        ac = ac_sweep(probed, freqs, dc_solution=dc)
        v1 = ac.voltage_between(port1[0], port1[1])
        v2 = ac.voltage_between(port2[0], port2[1])
        return v1, v2

    v1_p1, v2_p1 = _excite(port1)
    v1_p2, v2_p2 = _excite(port2)
    return TwoPort(frequencies=freqs, z11=v1_p1, z21=v2_p1, z12=v1_p2, z22=v2_p2)
