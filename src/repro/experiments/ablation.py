"""Ablation studies of the design choices the paper argues for.

These are not paper figures; they are the "why is the circuit built this
way" checks DESIGN.md calls out, each isolating one design decision:

* **degeneration** — remove the PMOS switch resistance (R_deg -> 0) and show
  the passive mode loses its linearity advantage;
* **transmission-gate load** — replace the TG with a single NMOS of the same
  mid-rail resistance and show the load resistance (and therefore the active
  gain) varies far more across the 1.2 V signal range;
* **TIA power gating** — keep the TIA powered in active mode and show the
  power advantage of the paper's p3 switch disappears;
* **process corners** — re-derive the headline specs at slow/fast corners to
  show the behavioural design is not balanced on a knife edge.  The corner
  designs run as one design axis through the vectorized sweep engine
  (:mod:`repro.sweep`); the statistical sibling of this study — random
  device spread over many sampled designs — lives in
  :mod:`repro.sweep.montecarlo` (and scales with ``workers=`` / ``cache=``).

Reproduces: no single paper artefact — these studies defend the design
*choices* behind Fig. 4-6 (degeneration switches, TG load, TIA gating) and
so carry no pin in ``tests/test_golden_figures.py``; their qualitative
directions (who wins, which way each knob moves) are asserted by
``tests/test_ablation.py`` and ``benchmarks/test_bench_ablation.py``.  The
specs they perturb are the same pinned quantities, so a corner drift that
matters shows up in the golden pins first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.core.switches import TransmissionGate
from repro.devices.mosfet import Mosfet
from repro.devices.technology import fast_corner, slow_corner
from repro.experiments.common import resolve_design


@dataclass
class DegenerationAblation:
    """Passive-mode specs at the nominal and at a strong degeneration setting.

    The paper sizes the PMOS switches so their on-resistance degenerates the
    passive path; this ablation increases that resistance (a wider/narrower
    switch) and checks the claimed direction: more degeneration buys gm-stage
    linearity and costs conversion gain.
    """

    nominal_resistance_ohm: float
    strong_resistance_ohm: float
    iip3_nominal_dbm: float
    iip3_strong_dbm: float
    gain_nominal_db: float
    gain_strong_db: float

    @property
    def linearity_benefit_db(self) -> float:
        """IIP3 gained by the stronger degeneration."""
        return self.iip3_strong_dbm - self.iip3_nominal_dbm

    @property
    def gain_cost_db(self) -> float:
        """Conversion gain lost to the stronger degeneration."""
        return self.gain_nominal_db - self.gain_strong_db


@dataclass
class LoadFlatnessAblation:
    """Load-resistance variation: transmission gate vs single NMOS."""

    transmission_gate_flatness: float
    single_nmos_flatness: float

    @property
    def improvement_ratio(self) -> float:
        """How much flatter the TG load is (larger is better)."""
        return self.single_nmos_flatness / self.transmission_gate_flatness


@dataclass
class TiaGatingAblation:
    """Active-mode power with and without the TIA power switch p3."""

    active_power_with_gating_mw: float
    active_power_without_gating_mw: float

    @property
    def power_saving_mw(self) -> float:
        """Power saved by switching the TIA off in active mode."""
        return self.active_power_without_gating_mw - self.active_power_with_gating_mw


@dataclass
class CornerPoint:
    """Headline specs of both modes at one process corner."""

    corner: str
    active_gain_db: float
    passive_gain_db: float
    active_nf_db: float
    passive_nf_db: float
    passive_iip3_dbm: float


@dataclass
class AblationResult:
    """All ablation studies bundled together."""

    degeneration: DegenerationAblation
    load_flatness: LoadFlatnessAblation
    tia_gating: TiaGatingAblation
    corners: list[CornerPoint]


def run_degeneration_ablation(design: MixerDesign,
                              strong_scale: float = 4.0) -> DegenerationAblation:
    """Compare the passive mode at nominal and strongly degenerated settings."""
    if strong_scale <= 1.0:
        raise ValueError("strong_scale must exceed 1")
    strong_resistance = design.degeneration_resistance * strong_scale
    nominal = ReconfigurableMixer(design, MixerMode.PASSIVE)
    strong = ReconfigurableMixer(
        replace(design, degeneration_resistance=strong_resistance),
        MixerMode.PASSIVE)
    return DegenerationAblation(
        nominal_resistance_ohm=design.degeneration_resistance,
        strong_resistance_ohm=strong_resistance,
        iip3_nominal_dbm=nominal.gm_stage_iip3_dbm(),
        iip3_strong_dbm=strong.gm_stage_iip3_dbm(),
        gain_nominal_db=nominal.peak_conversion_gain_db(),
        gain_strong_db=strong.peak_conversion_gain_db(),
    )


def run_load_flatness_ablation(design: MixerDesign) -> LoadFlatnessAblation:
    """Compare the TG load against a single NMOS load of equal mid-rail R."""
    technology = design.technology
    tg = TransmissionGate.sized_for_load(design.load_resistance,
                                         technology=technology)
    probe = Mosfet.nmos(1e-6, 130e-9, technology)
    width = probe.width_for_resistance(design.load_resistance,
                                       technology.vdd - technology.mid_rail,
                                       130e-9)
    nmos_load = Mosfet.nmos(width, 130e-9, technology)

    voltages = [0.1 * technology.vdd + 0.8 * technology.vdd * i / 20.0
                for i in range(21)]
    nmos_resistances = [nmos_load.on_resistance(technology.vdd - v)
                        for v in voltages]
    finite = [r for r in nmos_resistances if r != float("inf")]
    nmos_flatness = (max(finite) / min(finite)) if finite else float("inf")
    return LoadFlatnessAblation(
        transmission_gate_flatness=tg.resistance_flatness(),
        single_nmos_flatness=nmos_flatness,
    )


def run_tia_gating_ablation(design: MixerDesign) -> TiaGatingAblation:
    """Quantify the power saved by switching the TIA off in active mode."""
    from repro.core.power import PowerBudget

    budget = PowerBudget(design)
    gated = budget.total_mw(MixerMode.ACTIVE)
    ungated = gated + budget.tia_power_mw()
    return TiaGatingAblation(active_power_with_gating_mw=gated,
                             active_power_without_gating_mw=ungated)


def run_corner_sweep(design: MixerDesign) -> list[CornerPoint]:
    """Headline specs at nominal, slow and fast process corners.

    The device geometry is frozen at the nominal sizing (a fabricated chip
    cannot resize itself), so corners shift the realised gm — and with it the
    gain — the way silicon would.  The noise/linearity columns run through
    the vectorized sweep engine with the three corner designs as one design
    axis; the frozen-geometry gains are a deliberate physical override the
    engine's per-design re-sizing would hide, so they stay hand-computed.
    """
    from repro.core.transconductance import TransconductanceAmplifier
    from repro.rf.conversion_gain import SWITCHING_FACTOR
    from repro.sweep import SweepRunner
    from repro.units import db_from_voltage_ratio

    corner_designs = {
        "nominal": design,
        "slow": replace(design, technology=slow_corner()),
        "fast": replace(design, technology=fast_corner()),
    }
    sweep = SweepRunner(design, specs=("noise_figure_db", "iip3_dbm")).run(
        modes=(MixerMode.ACTIVE, MixerMode.PASSIVE), designs=corner_designs)

    nominal_width = TransconductanceAmplifier(design).device.params.width
    points = []
    for label, corner_design in corner_designs.items():
        technology = corner_design.technology
        # Realised gm of the frozen geometry at this corner and bias.
        device = Mosfet.nmos(nominal_width, design.gm_device_length, technology)
        vgs = device.vgs_for_current(design.tca_bias_current / 2.0,
                                     technology.mid_rail)
        gm = device.operating_point(vgs, technology.mid_rail).gm
        gm_eff = gm / (1.0 + gm * design.degeneration_resistance)
        active_gain = float(db_from_voltage_ratio(
            SWITCHING_FACTOR * gm * design.load_resistance))
        passive_gain = float(db_from_voltage_ratio(
            SWITCHING_FACTOR * gm_eff * design.feedback_resistance))

        points.append(CornerPoint(
            corner=label,
            active_gain_db=active_gain,
            passive_gain_db=passive_gain,
            active_nf_db=sweep.value("noise_figure_db", design=label,
                                     mode=MixerMode.ACTIVE),
            passive_nf_db=sweep.value("noise_figure_db", design=label,
                                      mode=MixerMode.PASSIVE),
            passive_iip3_dbm=sweep.value("iip3_dbm", design=label,
                                         mode=MixerMode.PASSIVE),
        ))
    return points


def run_ablation(design: MixerDesign | None = None) -> AblationResult:
    """Run every ablation study."""
    design = resolve_design(design)
    return AblationResult(
        degeneration=run_degeneration_ablation(design),
        load_flatness=run_load_flatness_ablation(design),
        tia_gating=run_tia_gating_ablation(design),
        corners=run_corner_sweep(design),
    )


def format_report(result: AblationResult) -> str:
    """Text rendering of the ablation studies."""
    lines = ["Ablation studies"]
    d = result.degeneration
    lines.append(f"  degeneration ({d.nominal_resistance_ohm:.0f} -> "
                 f"{d.strong_resistance_ohm:.0f} ohm): "
                 f"+{d.linearity_benefit_db:.1f} dB gm-stage IIP3 "
                 f"for -{d.gain_cost_db:.1f} dB of conversion gain")
    f = result.load_flatness
    lines.append(f"  load flatness: TG max/min {f.transmission_gate_flatness:.2f} "
                 f"vs single NMOS {f.single_nmos_flatness:.2f} "
                 f"({f.improvement_ratio:.1f}x flatter)")
    t = result.tia_gating
    lines.append(f"  TIA gating: saves {t.power_saving_mw:.2f} mW in active mode")
    for point in result.corners:
        lines.append(f"  corner {point.corner:>7}: active gain "
                     f"{point.active_gain_db:5.1f} dB / NF {point.active_nf_db:4.1f} dB, "
                     f"passive gain {point.passive_gain_db:5.1f} dB / "
                     f"IIP3 {point.passive_iip3_dbm:5.1f} dBm")
    return "\n".join(lines)


register_experiment(
    name="ablation",
    artefact="DESIGN.md ablations — degeneration, TG load, TIA gating, corners",
    summary="Why-is-it-built-this-way studies of the paper's design choices",
    runner=run_ablation,
    result_type=AblationResult,
    report=format_report,
    payload_types=(DegenerationAblation, LoadFlatnessAblation,
                   TiaGatingAblation, CornerPoint),
)
