"""Experiment drivers — one per figure/table of the paper's evaluation.

Every driver exposes a ``run(...)`` function returning a plain dataclass of
results, plus a ``format_report(...)`` helper that renders the same content
as the text table/series the paper prints.  The benchmark harness under
``benchmarks/`` simply calls these drivers, so "regenerate Fig. 8" is one
function call both here and there.

| driver | paper artefact |
|---|---|
| :mod:`repro.experiments.fig8_gain_vs_rf`   | Fig. 8 — conversion gain vs RF frequency |
| :mod:`repro.experiments.fig9_nf_vs_if`     | Fig. 9 — NF and conversion gain vs IF frequency |
| :mod:`repro.experiments.fig10_iip3`        | Fig. 10(a)/(b) — two-tone IIP3, both modes |
| :mod:`repro.experiments.table1_comparison` | Table I — comparison with published designs |
| :mod:`repro.experiments.iip2`              | section IV text — IIP2 > 65 dBm |
| :mod:`repro.experiments.p1db_compression`  | Table I — input 1 dB compression point |
| :mod:`repro.experiments.power_budget`      | section III/IV text — power per mode |
| :mod:`repro.experiments.tia_response`      | equation (4) — TIA input impedance |
| :mod:`repro.experiments.digital_if`        | sampled-receiver context — SNR vs ADC resolution through the fixed-point IF chain |
| :mod:`repro.experiments.bits_floor`        | sampled-receiver context — minimum digital widths under the NF-derived noise floor |
| :mod:`repro.optimize.search`               | Table I targets under process spread — yield optimisation |

Sweep-engine architecture
-------------------------

The analytic curve sweeps (Fig. 8, Fig. 9, the corner columns of the
ablation study, the "this work" columns of Table I, and the analytic
reference intercepts of Fig. 10) all run on :mod:`repro.sweep`: a
:class:`~repro.sweep.runner.SweepRunner` evaluates the spec accessors over
a labelled design x mode x RF x IF grid using NumPy broadcast calls, with
the frequency-independent work memoized once per (design, mode).  The
waveform-level measurements (Fig. 10's two-tone spectra, IIP2, the P1dB
compression sweep) are genuine sampled-signal benches — and they batch the
same way on :mod:`repro.waveform`: a
:class:`~repro.waveform.engine.WaveformRunner` evaluates a whole
design x mode x input-power grid as one stacked time-domain block plus one
batched FFT per cell, with its own content-addressed measure cache.  The
fixed-point digital back end (``digital_if`` / ``bits_floor``) extends the
ladder one rung further on :mod:`repro.digital`: a
:class:`~repro.digital.engine.DigitalIfRunner` taps the waveform engine's
time-domain output per (design, mode) cell and quantizes **every ADC bit
width in one vectorized pass** over a design x mode x bits grid, again
with its own content-addressed cache and design-axis sharding.

Every engine-backed entry point (``run_fig8`` / ``run_fig9`` /
``run_fig10`` / ``run_table1`` / ``run_iip2`` / ``run_p1db`` /
``run_monte_carlo``) accepts ``workers=`` and ``cache=``: ``workers``
shards the design axis across a process pool (:mod:`repro.sweep.parallel` /
:mod:`repro.waveform.parallel`, bit-identical results) and ``cache``
persists the per-cell solutions on disk (:mod:`repro.sweep.cache` /
:mod:`repro.waveform.cache`) so warm re-runs skip the sizing solves
*and* the FFT evaluations.

The figure/table drivers are each frozen by a golden-regression pin in
``tests/test_golden_figures.py`` (see the per-module docstrings for what
exactly is pinned); a refactor that moves a pinned number is a reproduction
regression to be reviewed, never silently absorbed.

To add a new sweep scenario, follow the recipe in :mod:`repro.sweep` —
:func:`repro.sweep.run_monte_carlo` (re-exported here) is the worked
example: a random device-parameter spread over a sampled design axis.

Service layer
-------------

Each driver module **registers itself** into the experiment registry
(:mod:`repro.api.registry`), so importing this package is what populates
:func:`repro.api.default_registry`.  The registry is how the unified API
(:class:`repro.api.MixerService`, ``python -m repro.serve``,
``python -m repro.cli``) dispatches "evaluate this design against Fig. 8"
as one typed request.  An engine-backed driver declares one batch function
evaluating many designs as one design axis (``sweep_fig8`` /
``sweep_fig9`` / ``sweep_table1``, the waveform benches ``sweep_fig10`` /
``sweep_iip2`` / ``sweep_p1db`` and the digital benches
``sweep_digital_if`` / ``sweep_bits_floor``); its grid defaults and
options are stated once, in that signature.  ``register_experiment``
derives the solo runner from it, which the driver binds as ``run_<x>``:
a one-member batch, so the ``run_*`` functions below, every batch member
and the service's responses are bit-identical.  The shared
``design``/``workers``/``cache`` handling lives in
:mod:`repro.experiments.common`.

The corner-aware yield optimiser (:mod:`repro.optimize`) registers here as
the ``yield_opt`` experiment: a seeded search over the design knobs for
maximum Monte-Carlo yield against configurable Table I spec targets —
the first driver that *designs against* the paper's artefacts instead of
reproducing one.
"""

from repro.experiments.fig8_gain_vs_rf import run_fig8, sweep_fig8, Fig8Result
from repro.experiments.fig9_nf_vs_if import run_fig9, sweep_fig9, Fig9Result
from repro.experiments.fig10_iip3 import run_fig10, sweep_fig10, Fig10Result
from repro.experiments.table1_comparison import (
    run_table1,
    sweep_table1,
    Table1Result,
)
from repro.experiments.iip2 import run_iip2, sweep_iip2, Iip2Result
from repro.experiments.p1db_compression import (
    run_p1db,
    sweep_p1db,
    P1dbResult,
)
from repro.experiments.power_budget import run_power_budget, PowerBudgetResult
from repro.experiments.digital_if import (
    run_digital_if,
    sweep_digital_if,
    DigitalIfResult,
)
from repro.experiments.bits_floor import (
    run_bits_floor,
    sweep_bits_floor,
    BitsFloorResult,
)
from repro.experiments.tia_response import run_tia_response, TiaResponseResult
from repro.experiments.ablation import run_ablation, AblationResult
from repro.experiments.common import resolve_design
from repro.optimize.search import run_yield_opt, YieldOptResult
from repro.sweep.montecarlo import run_monte_carlo, MonteCarloResult

__all__ = [
    "run_ablation", "AblationResult",
    "run_monte_carlo", "MonteCarloResult",
    "run_fig8", "sweep_fig8", "Fig8Result",
    "run_fig9", "sweep_fig9", "Fig9Result",
    "run_fig10", "sweep_fig10", "Fig10Result",
    "run_table1", "sweep_table1", "Table1Result",
    "run_iip2", "sweep_iip2", "Iip2Result",
    "run_p1db", "sweep_p1db", "P1dbResult",
    "run_digital_if", "sweep_digital_if", "DigitalIfResult",
    "run_bits_floor", "sweep_bits_floor", "BitsFloorResult",
    "run_power_budget", "PowerBudgetResult",
    "run_tia_response", "TiaResponseResult",
    "run_yield_opt", "YieldOptResult",
    "resolve_design",
]
