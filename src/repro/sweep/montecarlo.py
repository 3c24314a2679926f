"""Monte-Carlo process/device spread — a sweep scenario scalar loops can't afford.

The paper reports one design point per corner; silicon ships a distribution.
This module samples many perturbed design records (threshold voltage shifts,
mobility scaling, passive-component tolerance — the classic local + global
variation knobs of a 65 nm flow), runs them all through the vectorized
:class:`~repro.sweep.runner.SweepRunner` as one design axis, and summarises
the resulting spec distributions: mean/spread, percentiles, and yield
against limits such as the paper's Table I targets.

Every sampled design re-solves device sizing and bias from scratch, so a
point-by-point Python loop over specs would multiply that cost by every
frequency of interest; the sweep engine pays it once per sample and
amortises the rest into array maths.  ``run_monte_carlo(workers=N)`` shards
the sampled design axis across N processes, and ``cache=`` persists the
per-sample solutions on disk so repeat runs skip them — see
:mod:`repro.sweep.parallel` and :mod:`repro.sweep.cache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.sweep.cache import SpecCache
from repro.sweep.parallel import ParallelSweepRunner
from repro.sweep.result import SweepResult
from repro.sweep.runner import DEFAULT_SPECS

#: Axis/selector label pattern for sampled designs.
_SAMPLE_LABEL = "mc-{index:03d}"


@dataclass(frozen=True)
class DeviceSpread:
    """1-sigma spreads applied to the device and passive parameters.

    The defaults are representative of a 65 nm flow: ~10 mV threshold
    sigma, a few percent mobility sigma, and passive tolerances of a
    couple of percent for poly resistors / MIM capacitors.
    """

    vth_sigma_v: float = 0.010
    mobility_sigma: float = 0.03
    resistor_sigma: float = 0.02
    capacitor_sigma: float = 0.02

    def __post_init__(self) -> None:
        for name in ("vth_sigma_v", "mobility_sigma", "resistor_sigma",
                     "capacitor_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _positive_scale(rng: np.random.Generator, sigma: float) -> float:
    """A multiplicative perturbation, kept strictly positive.

    Normal in the log domain so that scale factors are symmetric in ratio
    (a +5 % pull is as likely as a -5 % one) and can never go negative.
    """
    if sigma == 0.0:
        return 1.0
    return float(math.exp(rng.normal(0.0, sigma)))


def sample_design(design: MixerDesign, rng: np.random.Generator,
                  spread: DeviceSpread, label: str) -> MixerDesign:
    """One random design record drawn around ``design`` with ``spread``."""
    technology = design.technology
    perturbed_technology = replace(
        technology,
        name=f"{technology.name}-{label}",
        vth_n=technology.vth_n + float(rng.normal(0.0, spread.vth_sigma_v)),
        vth_p=technology.vth_p + float(rng.normal(0.0, spread.vth_sigma_v)),
        u_cox_n=technology.u_cox_n * _positive_scale(rng, spread.mobility_sigma),
        u_cox_p=technology.u_cox_p * _positive_scale(rng, spread.mobility_sigma),
    )
    return replace(
        design,
        technology=perturbed_technology,
        degeneration_resistance=design.degeneration_resistance
        * _positive_scale(rng, spread.resistor_sigma),
        feedback_resistance=design.feedback_resistance
        * _positive_scale(rng, spread.resistor_sigma),
        load_resistance=design.load_resistance
        * _positive_scale(rng, spread.resistor_sigma),
        feedback_capacitance=design.feedback_capacitance
        * _positive_scale(rng, spread.capacitor_sigma),
        load_capacitance=design.load_capacitance
        * _positive_scale(rng, spread.capacitor_sigma),
    )


@dataclass(frozen=True)
class SpecStatistics:
    """Distribution summary of one spec in one mode."""

    spec: str
    mode: MixerMode
    mean: float
    std: float
    minimum: float
    maximum: float
    p05: float
    p95: float


@dataclass
class MonteCarloResult:
    """Sampled sweep plus the summary accessors the corner study reads."""

    sweep: SweepResult
    num_samples: int
    seed: int
    spread: DeviceSpread

    def samples(self, spec: str, mode: MixerMode) -> np.ndarray:
        """Per-sample values of ``spec`` in ``mode`` (shape: num_samples)."""
        series = self.sweep.values(spec, mode=mode)
        # Remaining axes: design x rf x if with singleton frequency axes.
        return series.reshape(self.num_samples)

    def statistics(self, spec: str, mode: MixerMode) -> SpecStatistics:
        """Mean/std/extremes/percentiles of one spec distribution."""
        values = self.samples(spec, mode)
        return SpecStatistics(
            spec=spec,
            mode=mode,
            mean=float(np.mean(values)),
            std=float(np.std(values)),
            minimum=float(np.min(values)),
            maximum=float(np.max(values)),
            p05=float(np.percentile(values, 5.0)),
            p95=float(np.percentile(values, 95.0)),
        )

    def yield_fraction(self, spec: str, mode: MixerMode,
                       minimum: float | None = None,
                       maximum: float | None = None) -> float:
        """Fraction of samples with ``minimum <= value <= maximum``."""
        if minimum is None and maximum is None:
            raise ValueError("give at least one of minimum/maximum")
        values = self.samples(spec, mode)
        passing = np.ones(values.shape, dtype=bool)
        if minimum is not None:
            passing &= values >= minimum
        if maximum is not None:
            passing &= values <= maximum
        return float(np.mean(passing))


def run_monte_carlo(design: MixerDesign | None = None,
                    num_samples: int = 64, seed: int = 20150901,
                    spread: DeviceSpread | None = None,
                    modes: Sequence[MixerMode] | None = None,
                    specs: Sequence[str] = DEFAULT_SPECS,
                    workers: int | None = None,
                    cache: SpecCache | str | bool | None = None
                    ) -> MonteCarloResult:
    """Sample ``num_samples`` perturbed designs and sweep their specs.

    The evaluation happens at the nominal operating point (the paper's
    2.405 GHz RF / 5 MHz IF) for every sample; pass the result's underlying
    :class:`SweepResult` to downstream tooling for anything fancier.

    ``workers`` > 1 shards the sampled design axis across that many worker
    processes (:class:`~repro.sweep.parallel.ParallelSweepRunner`); the
    result is bit-identical to the single-process run for the same seed.
    ``cache`` persists each sample's sizing/bias solution on disk
    (:mod:`repro.sweep.cache`), so re-running the same seed — or any grid
    containing previously solved samples — skips the sizing solves entirely.
    """
    if num_samples < 2:
        raise ValueError("a Monte-Carlo run needs at least 2 samples")
    design = design if design is not None else MixerDesign()
    spread = spread if spread is not None else DeviceSpread()
    rng = np.random.default_rng(seed)
    designs = {}
    for index in range(num_samples):
        label = _SAMPLE_LABEL.format(index=index)
        designs[label] = sample_design(design, rng, spread, label)
    runner = ParallelSweepRunner.for_workers(design, specs=specs,
                                             workers=workers, cache=cache)
    sweep = runner.run(modes=modes, designs=designs)
    return MonteCarloResult(sweep=sweep, num_samples=num_samples, seed=seed,
                            spread=spread)


def format_report(result: MonteCarloResult) -> str:
    """Text rendering of the Monte-Carlo spec distributions."""
    lines = [f"Monte-Carlo device spread — {result.num_samples} samples "
             f"(seed {result.seed})"]
    mode_axis = result.sweep.axis("mode")
    for mode_label in mode_axis.values:
        mode = MixerMode(mode_label)
        for spec in result.sweep.spec_names:
            stats = result.statistics(spec, mode)
            lines.append(
                f"  {mode_label:>7} {spec:<18} mean {stats.mean:8.2f}  "
                f"sigma {stats.std:6.3f}  [p05 {stats.p05:8.2f}, "
                f"p95 {stats.p95:8.2f}]")
    return "\n".join(lines)
