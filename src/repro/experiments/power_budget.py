"""Section III/IV text — power consumption of the two modes.

The paper quotes 9.36 mW (active) and 9.24 mW (passive) at 1.2 V, with the
TIA drawing 3.3 mA and being powered down in active mode.  This driver
reconstructs the branch-by-branch budget and the headline totals.

Reproduces: the section III/IV power text and Table I's ``power_mw`` row.
The headline totals are pinned (1e-6 mW) through
``tests/test_golden_figures.py::TestTable1Golden``, which reads the same
``power_mw`` spec off the sweep engine; the per-branch decomposition is
covered by ``tests/test_experiments.py`` / ``tests/test_core_blocks.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import register_experiment
from repro.core.config import (
    MixerDesign,
    MixerMode,
    PAPER_TARGETS_ACTIVE,
    PAPER_TARGETS_PASSIVE,
)
from repro.core.power import PowerBreakdown, PowerBudget
from repro.experiments.common import resolve_design


@dataclass
class PowerBudgetResult:
    """Power budget for both modes plus paper deltas."""

    active: PowerBreakdown
    passive: PowerBreakdown
    tia_power_mw: float

    @property
    def active_total_mw(self) -> float:
        """Total active-mode power (mW)."""
        return self.active.total_power_mw

    @property
    def passive_total_mw(self) -> float:
        """Total passive-mode power (mW)."""
        return self.passive.total_power_mw

    def delta_vs_paper_mw(self) -> dict[str, float]:
        """Measured-minus-paper totals."""
        return {
            "active": self.active_total_mw - PAPER_TARGETS_ACTIVE.power_mw,
            "passive": self.passive_total_mw - PAPER_TARGETS_PASSIVE.power_mw,
        }


def run_power_budget(design: MixerDesign | None = None) -> PowerBudgetResult:
    """Regenerate the per-mode power budget."""
    budget = PowerBudget(resolve_design(design))
    return PowerBudgetResult(
        active=budget.breakdown(MixerMode.ACTIVE),
        passive=budget.breakdown(MixerMode.PASSIVE),
        tia_power_mw=budget.tia_power_mw(),
    )


def format_report(result: PowerBudgetResult) -> str:
    """Text rendering of the power budget."""
    lines = ["Power budget (paper: 9.36 mW active, 9.24 mW passive, TIA 3.3 mA)"]
    for breakdown in (result.active, result.passive):
        lines.append(f"  {breakdown.mode.value} mode: "
                     f"{breakdown.total_power_mw:.2f} mW total")
        for branch, power_mw in breakdown.as_rows():
            if power_mw > 0:
                lines.append(f"      {branch:<30} {power_mw:5.2f} mW")
    lines.append(f"  TIA branch alone: {result.tia_power_mw:.2f} mW "
                 "(switched off in active mode)")
    return "\n".join(lines)


register_experiment(
    name="power_budget",
    artefact="Section III/IV text — 9.36/9.24 mW power budget",
    summary="Branch-by-branch supply-power decomposition of both modes",
    runner=run_power_budget,
    result_type=PowerBudgetResult,
    report=format_report,
    payload_types=(PowerBreakdown,),
)
