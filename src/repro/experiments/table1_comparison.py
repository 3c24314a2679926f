"""Table I — simulation results of this work and comparison with prior designs.

The table has ten columns: the two modes of this work plus eight published
designs, and eight rows: gain, NF, IIP3, 1 dB compression, power, bandwidth,
technology, supply.  This driver rebuilds the whole table: the "this work"
columns come from the reconfigurable-mixer model (analytic specs, the same
ones the waveform measurements corroborate) and the reference columns from
the published-baseline database.

The "this work" columns are evaluated through the vectorized sweep engine —
one :class:`~repro.sweep.runner.SweepRunner` spot run over the mode axis
with every spec enabled — and reassembled into :class:`MixerSpecs`, so the
table shares its numbers (and its memoized per-design intermediates) with
the figure sweeps; ``workers=`` / ``cache=`` plug in the parallel runner
and the on-disk spec cache like every other sweep entry point.

Golden regression: ``tests/test_golden_figures.py::TestTable1Golden`` pins
every "this work" spec (gain, NF, IIP3, IIP2, P1dB, power, band edges,
flicker corner) for both modes to 1e-6, plus the paper-delta bookkeeping —
the acceptance record that the reproduction still lands on Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.api.registry import register_experiment
from repro.baselines.published import all_published_baselines
from repro.core.config import (
    MixerDesign,
    MixerMode,
    PAPER_TARGETS_ACTIVE,
    PAPER_TARGETS_PASSIVE,
)
from repro.core.reconfigurable_mixer import MixerSpecs
from repro.experiments.common import design_and_runner
from repro.sweep import ALL_SPECS, SpecCache
from repro.sweep.result import SweepResult

#: Row labels in the order the paper prints them.
TABLE_I_ROWS = [
    "gain_db", "nf_db", "iip3_dbm", "p1db_dbm", "power_mw",
    "band_low_ghz", "band_high_ghz", "technology", "supply_v",
]


@dataclass
class Table1Result:
    """The regenerated Table I."""

    this_work_active: MixerSpecs
    this_work_passive: MixerSpecs
    columns: list[dict[str, float | str | None]]

    def column(self, design_label: str) -> dict[str, float | str | None]:
        """One column by its design label (e.g. ``"This work (active)"``, ``"[5]"``)."""
        for column in self.columns:
            if column["design"] == design_label:
                return column
        raise KeyError(f"no column labelled {design_label!r}")

    def deviations_from_paper(self) -> dict[str, dict[str, float]]:
        """Measured-minus-paper deltas for the "this work" columns."""
        deltas: dict[str, dict[str, float]] = {}
        for specs, targets in ((self.this_work_active, PAPER_TARGETS_ACTIVE),
                               (self.this_work_passive, PAPER_TARGETS_PASSIVE)):
            deltas[specs.mode.value] = {
                "gain_db": specs.conversion_gain_db - targets.conversion_gain_db,
                "nf_db": specs.noise_figure_db - targets.noise_figure_db,
                "iip3_dbm": specs.iip3_dbm - targets.iip3_dbm,
                "p1db_dbm": specs.p1db_dbm - targets.p1db_dbm,
                "power_mw": specs.power_mw - targets.power_mw,
            }
        return deltas

    def best_iip3_design(self) -> str:
        """Design label with the highest reported IIP3 (ties broken by order)."""
        best_label, best_value = "", float("-inf")
        for column in self.columns:
            value = column.get("iip3_dbm")
            if isinstance(value, (int, float)) and value > best_value:
                best_label, best_value = str(column["design"]), float(value)
        return best_label

    def highest_gain_design(self) -> str:
        """Design label with the highest conversion gain."""
        best_label, best_value = "", float("-inf")
        for column in self.columns:
            value = column.get("gain_db")
            if isinstance(value, (int, float)) and value > best_value:
                best_label, best_value = str(column["design"]), float(value)
        return best_label


def _specs_from_sweep(sweep: SweepResult, mode: MixerMode,
                      design: str = "nominal") -> MixerSpecs:
    """Reassemble a MixerSpecs record from one mode column of a spot sweep."""
    def value(spec: str) -> float:
        return sweep.value(spec, mode=mode, design=design)

    return MixerSpecs(
        mode=mode,
        conversion_gain_db=value("conversion_gain_db"),
        noise_figure_db=value("noise_figure_db"),
        iip3_dbm=value("iip3_dbm"),
        iip2_dbm=value("iip2_dbm"),
        p1db_dbm=value("p1db_dbm"),
        power_mw=value("power_mw"),
        band_low_hz=value("band_low_hz"),
        band_high_hz=value("band_high_hz"),
        flicker_corner_hz=value("flicker_corner_hz"),
    )


def sweep_table1(designs: Mapping[str, MixerDesign],
                 workers: int | None = None,
                 cache: SpecCache | str | bool | None = None
                 ) -> dict[str, Table1Result]:
    """Regenerate Table I for many designs through shared sweep calls.

    Designs sharing a nominal operating point (LO + IF) run as one design
    axis per spot grid — the sweep grid is the operating point, so designs
    tuned to different frequencies are grouped rather than forced onto one
    grid.  Per-design tables are bit-identical to solo :func:`run_table1`
    calls; ``workers=`` shards each group across processes.  For a single
    design ``cache`` is the option that pays (a warm entry skips both
    modes' sizing solves).
    """
    if not designs:
        raise ValueError("sweep_table1 needs at least one design")
    groups: dict[tuple[float, float], dict[str, MixerDesign]] = {}
    for label, design in designs.items():
        point = (design.rf_frequency, design.if_frequency)
        groups.setdefault(point, {})[label] = design

    results: dict[str, Table1Result] = {}
    for (rf_hz, if_hz), group in groups.items():
        _, runner = design_and_runner(next(iter(group.values())),
                                      specs=ALL_SPECS, workers=workers,
                                      cache=cache)
        sweep = runner.run(rf_frequencies=[rf_hz], if_frequencies=[if_hz],
                           modes=(MixerMode.ACTIVE, MixerMode.PASSIVE),
                           designs=group)
        for label in group:
            active = _specs_from_sweep(sweep, MixerMode.ACTIVE, label)
            passive = _specs_from_sweep(sweep, MixerMode.PASSIVE, label)
            columns: list[dict[str, float | str | None]] = [
                active.as_table_row(), passive.as_table_row()]
            columns.extend(baseline.spec.as_table_row()
                           for baseline in all_published_baselines())
            results[label] = Table1Result(this_work_active=active,
                                          this_work_passive=passive,
                                          columns=columns)
    return results


def format_report(result: Table1Result) -> str:
    """Render the regenerated table as fixed-width text."""
    header = ["parameter"] + [str(column["design"]) for column in result.columns]
    rows: list[list[str]] = []
    labels = {
        "gain_db": "Gain (dB)",
        "nf_db": "Noise figure (dB)",
        "iip3_dbm": "IIP3 (dBm)",
        "p1db_dbm": "1dB-CP (dBm)",
        "power_mw": "Power (mW)",
        "band_low_ghz": "Band low (GHz)",
        "band_high_ghz": "Band high (GHz)",
        "technology": "CMOS technology",
        "supply_v": "Supply (V)",
    }
    for key in TABLE_I_ROWS:
        row = [labels[key]]
        for column in result.columns:
            value = column.get(key)
            if value is None:
                row.append("NA")
            elif isinstance(value, float):
                row.append(f"{value:.2f}".rstrip("0").rstrip("."))
            else:
                row.append(str(value))
        rows.append(row)

    widths = [max(len(line[i]) for line in [header] + rows)
              for i in range(len(header))]
    def fmt(line: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(line, widths))

    out = ["Table I — simulation results and comparison", fmt(header)]
    out.extend(fmt(row) for row in rows)
    return "\n".join(out)


run_table1 = register_experiment(
    name="table1",
    artefact="Table I — comparison with published designs",
    summary="Every headline spec of both modes plus the reference columns",
    batch_runner=sweep_table1,
    result_type=Table1Result,
    report=format_report,
    payload_types=(MixerSpecs,),
).runner
