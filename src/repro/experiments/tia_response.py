"""Equation (4) — the TIA closed-loop input impedance.

``Z_in(f) = (2 / A(f)) * R_F / (1 + j 2 pi f R_F C_F)``

The paper leans on this expression twice: the low input impedance is the
virtual ground that linearises the passive mixer, and the R_F C_F pole is
the anti-aliasing filter.  This driver evaluates the expression two ways —
the analytic formula through :class:`repro.core.tia.TransimpedanceAmplifier`
and an MNA AC analysis of the closed-loop circuit built from the library's
own circuit substrate (single-pole VCVS op-amp, feedback R_F ∥ C_F) — and
reports how closely they agree, which doubles as an end-to-end check of the
circuit engine.

Reproduces: equation (4) and the surrounding virtual-ground argument — a
paper equation, not a figure, so it carries no pin in
``tests/test_golden_figures.py``; the analytic-vs-MNA agreement bound is
asserted by ``tests/test_experiments.py`` and tracked by
``benchmarks/test_bench_tia.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit import (
    CapacitorElement,
    Circuit,
    CurrentSource,
    ResistorElement,
    VCVS,
    ac_sweep,
    dc_operating_point,
)
from repro.api.registry import register_experiment
from repro.core.config import MixerDesign
from repro.core.tia import TransimpedanceAmplifier
from repro.experiments.common import resolve_design
from repro.units import khz, mhz


@dataclass
class TiaResponseResult:
    """Analytic and circuit-level TIA input impedance across frequency."""

    frequencies_hz: np.ndarray
    analytic_zin_ohm: np.ndarray
    circuit_zin_ohm: np.ndarray
    if_bandwidth_hz: float

    @property
    def worst_relative_error(self) -> float:
        """Largest relative disagreement between the two computations."""
        return float(np.max(np.abs(self.circuit_zin_ohm - self.analytic_zin_ohm)
                            / np.abs(self.analytic_zin_ohm)))

    def zin_at(self, frequency_hz: float) -> float:
        """Analytic |Z_in| at the sweep point nearest ``frequency_hz``."""
        index = int(np.argmin(np.abs(self.frequencies_hz - frequency_hz)))
        return float(self.analytic_zin_ohm[index])


def _build_closed_loop_circuit(design: MixerDesign,
                               open_loop_gain: float) -> Circuit:
    """Inverting TIA: ideal-ish op-amp (VCVS) with R_F || C_F feedback.

    The mixer core is represented by a 1 A AC current source driving the
    virtual-ground node, which is exactly the stimulus equation (4) assumes.
    """
    circuit = Circuit("tia-closed-loop")
    # Op-amp: output = -A * v(virtual ground); non-inverting input grounded.
    circuit.add(VCVS("ota", "out", "0", "0", "vg", open_loop_gain))
    circuit.add(ResistorElement("rf", "vg", "out", design.feedback_resistance))
    circuit.add(CapacitorElement("cf", "vg", "out", design.feedback_capacitance))
    circuit.add(CurrentSource("iin", "0", "vg", dc=0.0, ac=1.0))
    return circuit


def run_tia_response(design: MixerDesign | None = None,
                     f_start_hz: float = khz(10.0),
                     f_stop_hz: float = mhz(50.0),
                     points: int = 60) -> TiaResponseResult:
    """Evaluate equation (4) analytically and with the MNA circuit engine."""
    design = resolve_design(design)
    tia = TransimpedanceAmplifier(design)
    frequencies = np.logspace(np.log10(f_start_hz), np.log10(f_stop_hz), points)

    analytic = np.abs(tia.input_impedance(frequencies))

    circuit_zin = np.empty_like(analytic)
    for index, frequency in enumerate(frequencies):
        # Equation (4) treats A(f) as the frequency-dependent open-loop gain;
        # the MNA model uses a real-valued gain per point, which matches the
        # magnitude view the equation takes.  The factor 2 in the equation
        # accounts for the differential implementation, so the single-ended
        # circuit result is doubled.
        gain_magnitude = float(np.abs(tia.ota.open_loop_gain(frequency)))
        circuit = _build_closed_loop_circuit(design, gain_magnitude)
        dc = dc_operating_point(circuit)
        ac = ac_sweep(circuit, np.array([frequency]), dc_solution=dc)
        circuit_zin[index] = 2.0 * float(np.abs(ac.voltage("vg")[0]))

    return TiaResponseResult(
        frequencies_hz=frequencies,
        analytic_zin_ohm=analytic,
        circuit_zin_ohm=circuit_zin,
        if_bandwidth_hz=tia.if_bandwidth,
    )


def format_report(result: TiaResponseResult) -> str:
    """Text rendering of the equation-(4) check."""
    return "\n".join([
        "Equation (4) — TIA closed-loop input impedance",
        f"  |Z_in| at 100 kHz: {result.zin_at(1e5):6.2f} ohm",
        f"  |Z_in| at 5 MHz:   {result.zin_at(5e6):6.2f} ohm",
        f"  R_F C_F bandwidth: {result.if_bandwidth_hz / 1e6:5.1f} MHz",
        f"  analytic vs MNA worst relative error: "
        f"{result.worst_relative_error * 100.0:.2f} %",
    ])


register_experiment(
    name="tia_response",
    artefact="Equation (4) — TIA closed-loop input impedance",
    summary="Analytic vs MNA evaluation of the virtual-ground impedance",
    runner=run_tia_response,
    result_type=TiaResponseResult,
    report=format_report,
)
