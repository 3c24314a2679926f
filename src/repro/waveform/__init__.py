"""Vectorized waveform engine for the sampled-signal benches.

The paper's headline linearity numbers — Fig. 10's IIP3 intercepts, the
section-IV "IIP2 > 65 dBm" claim, Table I's P1dB — are measured from
time-domain waveforms through FFTs, exactly like a bench spectrum analyser.
This package batches those measurements onto the sweep architecture the
analytic specs already ride (:mod:`repro.sweep`):

* :mod:`repro.waveform.plan` — :class:`StimulusPlan`, the frozen,
  content-hashed description of one bench (tones, powers, sampling grid,
  LO) with :func:`two_tone_plan` / :func:`single_tone_plan` constructors;
* :mod:`repro.waveform.engine` — :func:`evaluate_plan` (one stacked
  time-domain evaluation + one batched ``np.fft.rfft`` over the power axis)
  and :class:`WaveformRunner`, which lifts it onto labelled design x mode x
  input-power grids with per-design mixer memoization;
  :func:`waveform_fft_count` instruments the evaluations;
* :mod:`repro.waveform.result` — :class:`WaveformResult`, a
  :class:`~repro.sweep.result.SweepResult` subclass (same axes selection,
  ``concat`` stitch and exact ``to_dict``/``from_dict`` round-trip);
* :mod:`repro.waveform.cache` — :class:`WaveformCache`, the waveform
  namespace of the shared cell cache, keyed on
  ``MixerDesign.fingerprint()`` + mode + plan hash: warm re-runs perform
  zero FFT evaluations;
* :mod:`repro.waveform.parallel` — :class:`ParallelWaveformRunner`,
  sharding the design axis across processes with bit-identical stitched
  results.

The scalar benches in :mod:`repro.rf.twotone` and
:mod:`repro.rf.compression` are thin wrappers over :func:`evaluate_plan`,
and the ``fig10`` / ``iip2`` / ``p1db`` experiment drivers run whole design
populations through :class:`WaveformRunner` — so waveform linearity is as
cheap, cacheable and servable as gain or NF.
"""

from repro.waveform.cache import WaveformCache
from repro.waveform.engine import (
    WaveformRunner,
    device_output,
    evaluate_plan,
    waveform_fft_count,
)
from repro.waveform.parallel import ParallelWaveformRunner
from repro.waveform.plan import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_RATE,
    MEASURES_BY_KIND,
    SINGLE_TONE,
    TWO_TONE,
    StimulusPlan,
    single_tone_plan,
    two_tone_plan,
)
from repro.waveform.result import WaveformResult
from repro.sweep.grid import POWER_AXIS

__all__ = [
    "DEFAULT_NUM_SAMPLES",
    "DEFAULT_SAMPLE_RATE",
    "MEASURES_BY_KIND",
    "POWER_AXIS",
    "SINGLE_TONE",
    "TWO_TONE",
    "StimulusPlan",
    "ParallelWaveformRunner",
    "WaveformCache",
    "WaveformResult",
    "WaveformRunner",
    "device_output",
    "evaluate_plan",
    "single_tone_plan",
    "two_tone_plan",
    "waveform_fft_count",
]
