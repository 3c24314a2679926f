"""Section IV text — "IIP2 is > 65 [dBm] for both cases".

The IIP2 of a fully differential mixer is set by how well the even-order
products cancel between the two half-circuits; this driver measures it with
the same two-tone waveform bench as Fig. 10, reading the IM2 product at
``|f2 - f1|`` instead of the IM3 products, and also reports the analytic
mismatch-limited value.

The measurement runs on the batched waveform engine
(:class:`~repro.waveform.engine.WaveformRunner`) and the analytic reference
on the spec sweep engine, so ``workers=`` / ``cache=`` shard and persist it
like every other experiment; :func:`sweep_iip2` evaluates whole design
populations as one design axis (the ``iip2`` batch adapter).

Reproduces: the section IV claim "IIP2 is > 65 dBm for both cases" (Table I
row ``iip2_dbm_min``).  This quantity carries no pin in
``tests/test_golden_figures.py`` — it is an FFT-measured inequality, not a
curve — so the floor itself is asserted by the shape checks in
``tests/test_experiments.py`` and the ``benchmarks/test_bench_iip2.py``
harness; the analytic mismatch-limited IIP2 behind it *is* pinned through
Table I's ``iip2_dbm`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.experiments.common import design_and_runner
from repro.experiments.fig10_iip3 import DEFAULT_NUM_SAMPLES, DEFAULT_SAMPLE_RATE
from repro.rf.twotone import fit_intercept_point
from repro.sweep import SpecCache
from repro.units import ghz, mhz
from repro.waveform import ParallelWaveformRunner, two_tone_plan

#: The paper's acceptance threshold.
PAPER_IIP2_FLOOR_DBM = 65.0


@dataclass
class ModeIip2Result:
    """Measured and analytic IIP2 for one mode."""

    mode: MixerMode
    measured_iip2_dbm: float
    analytic_iip2_dbm: float

    @property
    def meets_paper_floor(self) -> bool:
        """True when the measured IIP2 clears the paper's > 65 dBm claim."""
        return self.measured_iip2_dbm > PAPER_IIP2_FLOOR_DBM


@dataclass
class Iip2Result:
    """IIP2 results for both modes."""

    active: ModeIip2Result
    passive: ModeIip2Result

    def for_mode(self, mode: MixerMode) -> ModeIip2Result:
        """Result for one mode."""
        return self.active if mode is MixerMode.ACTIVE else self.passive

    @property
    def both_meet_paper_floor(self) -> bool:
        """True when both modes clear 65 dBm."""
        return self.active.meets_paper_floor and self.passive.meets_paper_floor


def sweep_iip2(designs: Mapping[str, MixerDesign],
               lo_frequency_hz: float = ghz(2.4),
               tone_1_hz: float = ghz(2.4) + mhz(5.0),
               tone_2_hz: float = ghz(2.4) + mhz(7.0),
               input_powers_dbm: np.ndarray | None = None,
               sample_rate: float = DEFAULT_SAMPLE_RATE,
               num_samples: int = DEFAULT_NUM_SAMPLES,
               workers: int | None = None,
               cache: SpecCache | str | bool | None = None
               ) -> dict[str, Iip2Result]:
    """The IIP2 check for many designs as **one** design axis.

    All designs share the stimulus plan and run through one waveform-engine
    call plus one analytic reference sweep; per-design results are
    bit-identical to solo :func:`run_iip2` calls.  This is the batch adapter
    :class:`~repro.api.service.MixerService` fans design populations out
    through.  With ``cache=`` a warm re-run performs zero sizing solves and
    zero FFT evaluations.
    """
    if not designs:
        raise ValueError("sweep_iip2 needs at least one design")
    if input_powers_dbm is None:
        input_powers_dbm = np.arange(-45.0, -27.0, 2.0)
    powers = np.asarray(input_powers_dbm, dtype=float)

    baseline, runner = design_and_runner(next(iter(designs.values())),
                                         specs=("iip2_dbm",),
                                         workers=workers, cache=cache)
    modes = (MixerMode.ACTIVE, MixerMode.PASSIVE)
    analytic = runner.run(modes=modes, designs=dict(designs))
    plan = two_tone_plan(tone_1_hz, tone_2_hz, powers, sample_rate,
                         num_samples, lo_frequency=lo_frequency_hz)
    wave = ParallelWaveformRunner.for_workers(
        baseline, workers=workers, cache=cache).run(
        plan, modes=modes, designs=dict(designs))

    results: dict[str, Iip2Result] = {}
    for label in designs:
        per_mode: dict[MixerMode, ModeIip2Result] = {}
        for mode in modes:
            fit = fit_intercept_point(
                powers,
                wave.values("fundamental_dbm", design=label, mode=mode),
                wave.values("im2_dbm", design=label, mode=mode),
                intermod_order=2)
            per_mode[mode] = ModeIip2Result(
                mode=mode,
                measured_iip2_dbm=fit.intercept_input_dbm,
                analytic_iip2_dbm=analytic.value("iip2_dbm", design=label,
                                                 mode=mode),
            )
        results[label] = Iip2Result(active=per_mode[MixerMode.ACTIVE],
                                    passive=per_mode[MixerMode.PASSIVE])
    return results


def format_report(result: Iip2Result) -> str:
    """Text rendering of the IIP2 check."""
    lines = ["IIP2 (paper: > 65 dBm for both modes)"]
    for mode_result in (result.active, result.passive):
        verdict = "PASS" if mode_result.meets_paper_floor else "FAIL"
        lines.append(
            f"  {mode_result.mode.value:>7}: measured "
            f"{mode_result.measured_iip2_dbm:5.1f} dBm "
            f"(analytic {mode_result.analytic_iip2_dbm:5.1f} dBm)  [{verdict}]")
    return "\n".join(lines)


run_iip2 = register_experiment(
    name="iip2",
    artefact="Section IV text — IIP2 > 65 dBm for both modes",
    summary="Two-tone IM2 measurement against the paper's 65 dBm floor",
    batch_runner=sweep_iip2,
    result_type=Iip2Result,
    report=format_report,
    payload_types=(ModeIip2Result,),
).runner
