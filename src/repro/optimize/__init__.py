"""Corner-aware yield optimisation: design against the paper's figures.

The subsystem that turns the reproduction from "regenerate Table I" into
"search for the design that still makes Table I under process spread":

* :mod:`repro.optimize.targets` — :class:`SpecTarget` acceptance bounds and
  the Table I default set; besides the analytic sweep specs a target may
  bound the waveform-measured IIP3 / P1dB (:data:`WAVEFORM_SPECS`), scored
  through the batched waveform engine, or the fixed-point digital-IF SNR
  (:data:`DIGITAL_SPECS`), scored through the quantized back end of
  :mod:`repro.digital`;
* :mod:`repro.optimize.strategies` — the pluggable proposal strategies
  (:data:`STRATEGIES`): the shrinking-span pattern search and the
  covariance-adapted CMA-ES sampler;
* :mod:`repro.optimize.search` — :func:`run_yield_opt`, the seeded scalar
  search scoring candidate populations through the sweep engine's
  Monte-Carlo device-spread model, and :func:`run_pareto_opt`, the
  multi-objective mode maintaining a non-dominated front;
* :mod:`repro.optimize.pareto` — :class:`Objective` trade-off axes and the
  :class:`ParetoFront` / :class:`ParetoOptResult` first-class result types.

Registered as the ``yield_opt`` and ``yield_pareto`` experiments, so both
searches run in-process, through :class:`~repro.api.service.MixerService`,
over ``python -m repro.serve`` and from ``tools/repro-cli`` — bit-identical
across surfaces and worker counts.  See ``docs/optimization.md``.
"""

from repro.optimize.pareto import (
    DIRECTIONS,
    OBJECTIVE_YIELD,
    Objective,
    ParetoFront,
    ParetoOptResult,
    ParetoPoint,
    default_objectives,
    default_objectives_wire,
    format_pareto_report,
    parse_objectives,
)
from repro.optimize.search import (
    DEFAULT_KNOBS,
    EXPERIMENT_NAME,
    PARETO_EXPERIMENT_NAME,
    SEARCHABLE_KNOBS,
    CandidateOutcome,
    YieldOptResult,
    format_report,
    run_pareto_opt,
    run_yield_opt,
)
from repro.optimize.strategies import STRATEGIES, CmaStrategy, ShrinkingSpanStrategy
from repro.optimize.targets import (
    DIGITAL_SPECS,
    TARGETABLE_SPECS,
    WAVEFORM_SPECS,
    SpecTarget,
    default_targets,
    default_targets_wire,
    parse_targets,
)

__all__ = [
    "CandidateOutcome",
    "CmaStrategy",
    "DEFAULT_KNOBS",
    "DIGITAL_SPECS",
    "DIRECTIONS",
    "EXPERIMENT_NAME",
    "OBJECTIVE_YIELD",
    "Objective",
    "PARETO_EXPERIMENT_NAME",
    "ParetoFront",
    "ParetoOptResult",
    "ParetoPoint",
    "SEARCHABLE_KNOBS",
    "STRATEGIES",
    "ShrinkingSpanStrategy",
    "SpecTarget",
    "TARGETABLE_SPECS",
    "WAVEFORM_SPECS",
    "YieldOptResult",
    "default_objectives",
    "default_objectives_wire",
    "default_targets",
    "default_targets_wire",
    "format_pareto_report",
    "format_report",
    "parse_objectives",
    "parse_targets",
    "run_pareto_opt",
    "run_yield_opt",
]
