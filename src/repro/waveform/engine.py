"""The vectorized waveform engine for the paper's sampled-signal benches.

The two-tone (Fig. 10 IIP3, section-IV IIP2) and single-tone (Table I P1dB,
spot conversion gain) measurements used to run point-by-point: one device
evaluation and one FFT per input power per mode per design, in a Python
loop.  This engine batches them the way :class:`~repro.sweep.runner.\
SweepRunner` batches the analytic specs:

* the stimulus for **every** input power is one stacked ``(powers,
  samples)`` block — the unit waveform is built once and scaled by the
  per-power amplitudes;
* the device model processes the whole block in one call (the mixer's
  :meth:`~repro.core.reconfigurable_mixer.ReconfigurableMixer.\
waveform_device` treats the last axis as time), so the LO switching
  function, the time grid and every elementwise nonlinearity are computed
  once per (design, mode) cell instead of once per power;
* one batched ``np.fft.rfft`` over the power axis replaces N scalar
  spectrum analyses, and only the product bins the bench needs are read —
  no full amplitude spectra are materialised.

:class:`WaveformRunner` lifts :func:`evaluate_plan` onto labelled **design
x mode x input power** grids with the same memoization ladder as the sweep
engine: mixers per design record in memory, measures per (design, mode,
plan) on disk (:mod:`repro.waveform.cache`), and design-axis sharding
across processes (:mod:`repro.waveform.parallel`).  Scalar entry points
(:func:`repro.rf.twotone.sweep_two_tone`,
:func:`repro.rf.compression.measure_compression_point`) are thin wrappers
over this module, so the point and batched paths cannot drift.

Every batched evaluation bumps a module-level counter
(:func:`waveform_fft_count`), the instrument behind the warm-cache
"zero FFT evaluations" gate in ``benchmarks/test_bench_waveform.py`` —
the waveform twin of ``sizing_solve_count()``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer, presolve_cells
from repro.rf.signal import WaveformTransfer
from repro.sweep.cache import fill_cached_measures, resolve_cache
from repro.sweep.grid import POWER_AXIS, SweepAxis
from repro.units import dbm_from_vpeak, vpeak_from_dbm
from repro.waveform.cache import WaveformCache
from repro.waveform.plan import TWO_TONE, StimulusPlan
from repro.waveform.result import WaveformResult

#: Process-wide count of batched FFT evaluations (see waveform_fft_count).
_FFT_EVALS = 0

#: Cache-blocking target for the stacked time-domain evaluation: the power
#: axis is fed to the device in row chunks of about this many samples, so
#: the chunk plus its elementwise temporaries stays L2-resident instead of
#: streaming a multi-megabyte block through every pass of the nonlinear
#: chain.  Chunking is invisible in the results — every row is independent
#: — and the measurement FFT below stays one batched call over the whole
#: power axis.
_CHUNK_SAMPLES = 49152


def waveform_fft_count() -> int:
    """How many batched waveform evaluations this process has performed.

    One unit covers a whole input-power sweep for one (device, plan) cell —
    the stacked time-domain evaluation plus its batched FFT.  A warm
    waveform cache must leave this counter untouched.
    """
    return _FFT_EVALS


def _amplitudes_at(raw: np.ndarray, frequency: float, sample_rate: float,
                   num_samples: int) -> np.ndarray:
    """Per-record tone amplitude (V peak) at the bin nearest ``frequency``.

    Mirrors :meth:`repro.rf.spectrum.Spectrum.amplitude_at` bin by bin —
    nearest bin, single-sided scaling — without materialising the full
    amplitude spectrum.
    """
    if frequency < 0 or frequency > sample_rate / 2.0:
        raise ValueError(
            f"frequency {frequency:.4g} Hz outside the Nyquist range")
    index = int(round(frequency * num_samples / sample_rate))
    amplitude = np.abs(raw[..., index]) / num_samples
    if index > 0:
        amplitude = amplitude * 2.0
    return amplitude


def _to_dbm(amplitude: np.ndarray) -> np.ndarray:
    """Amplitudes (V peak) to dBm, with empty bins reading ``-inf``."""
    with np.errstate(divide="ignore"):
        return np.where(amplitude > 0, dbm_from_vpeak(amplitude), -np.inf)


def _tone_powers_dbm(raw: np.ndarray, frequency: float, sample_rate: float,
                     num_samples: int) -> np.ndarray:
    """Per-record tone power (dBm), the batched Spectrum.power_dbm_at."""
    return _to_dbm(_amplitudes_at(raw, frequency, sample_rate, num_samples))


def stimulus_block(plan: StimulusPlan) -> np.ndarray:
    """The stacked ``(powers, samples)`` stimulus of a plan.

    Each tone is scaled then summed — the same operations, in the same
    order, as the scalar Tone/TwoToneSource sources — so every row is
    bit-identical to the corresponding per-power waveform.  Callers
    evaluating one plan over many (design, mode) cells build this once and
    pass it to :func:`evaluate_plan`.
    """
    amplitudes = np.asarray(vpeak_from_dbm(plan.powers()),
                            dtype=float)[:, None]
    tones = plan.tone_waveforms()
    block = amplitudes * tones[0][None, :]
    for tone in tones[1:]:
        block = block + amplitudes * tone[None, :]
    return block


def device_output(device: WaveformTransfer, plan: StimulusPlan,
                  block: np.ndarray | None = None) -> np.ndarray:
    """The device's time-domain output block for one plan.

    The chunked stacked evaluation shared by :func:`evaluate_plan` (which
    follows it with the measurement FFT) and the time-domain tap
    (:meth:`WaveformRunner.time_domain`) the digital back end consumes —
    one code path, so the spectra the benches read and the sample blocks
    the quantized IF chain digests can never drift apart.
    """
    if block is None:
        block = stimulus_block(plan)
    rows = block.shape[0]
    step = max(1, _CHUNK_SAMPLES // plan.num_samples)
    if step >= rows:
        out = np.asarray(device(block), dtype=float)
    else:
        # Cache-blocked evaluation: rows are independent, so feeding the
        # device L2-sized slices is bit-identical to one monolithic call
        # and markedly faster on long power sweeps.
        out = np.empty_like(block)
        for start in range(0, rows, step):
            stop = min(rows, start + step)
            out[start:stop] = device(block[start:stop])
    if out.shape != block.shape:
        raise ValueError(
            f"device returned shape {out.shape} for input {block.shape}; "
            "waveform devices must preserve the (powers, samples) block")
    return out


def evaluate_plan(device: WaveformTransfer, plan: StimulusPlan,
                  block: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Run one plan through a device: the batched core of every bench.

    One stacked time-domain evaluation plus one batched FFT produce every
    measure array at once; each array has one entry per input power and is
    numerically equivalent (<= 1e-9) to the scalar per-power measurement —
    the stimulus scaling, device maths and bin reads are the same
    operations, just vectorized across the power axis.  ``block`` lets a
    caller reuse one :func:`stimulus_block` across many cells of the same
    plan.
    """
    global _FFT_EVALS
    powers = plan.powers()
    out = device_output(device, plan, block=block)
    raw = np.fft.rfft(out, axis=-1)
    _FFT_EVALS += 1

    products = plan.product_frequencies()
    sample_rate, num_samples = plan.sample_rate, plan.num_samples
    if plan.kind == TWO_TONE:
        # The IM3 product is the larger of the two third-order sidebands,
        # compared in amplitude (dBm is monotone in amplitude, so this
        # matches the scalar bench's max over the two dB readings).
        im3 = np.maximum(
            _amplitudes_at(raw, products["im3_low"], sample_rate, num_samples),
            _amplitudes_at(raw, products["im3_high"], sample_rate,
                           num_samples))
        return {
            "fundamental_dbm": _tone_powers_dbm(
                raw, products["fundamental"], sample_rate, num_samples),
            "im3_dbm": _to_dbm(im3),
            "im2_dbm": _tone_powers_dbm(raw, products["im2"], sample_rate,
                                        num_samples),
        }
    output_dbm = _tone_powers_dbm(raw, products["output"], sample_rate,
                                  num_samples)
    return {"output_dbm": output_dbm, "gain_db": output_dbm - powers}


class WaveformRunner:
    """Evaluates waveform benches over labelled design x mode x power grids.

    Follows the analytic :class:`~repro.sweep.runner.SweepRunner`: the
    same design and mode axes, a mixer memo per design record, and the
    same Gm-stage pre-solve pass before the cell loop.

    Parameters
    ----------
    design:
        Baseline design record, used when :meth:`run` is not given an
        explicit design axis.
    cache:
        Optional on-disk cache of evaluated measures — ``None``/``False``
        (default, off), ``True`` (default directory), a directory path, a
        :class:`~repro.waveform.cache.WaveformCache`, or another engine's
        :class:`~repro.sweep.cache.CellCache` (its directory is shared).
        With a warm cache a run performs zero FFT evaluations.
    """

    def __init__(self, design: MixerDesign | None = None,
                 cache=None) -> None:
        self.design = design if design is not None else MixerDesign()
        self.cache = resolve_cache(cache, WaveformCache)
        # Mixers are memoized per design record across run() calls, exactly
        # like the sweep engine — re-running a refined power grid re-uses
        # every sizing/bias solution already paid for.  Stimulus blocks are
        # memoized per plan the same way (plans are frozen records): the
        # tones of a repeated bench are built exactly once.
        self._mixers: dict[MixerDesign, ReconfigurableMixer] = {}
        self._stimuli: dict[StimulusPlan, np.ndarray] = {}
        # Time-domain IF output blocks per (design, mode, plan) cell — the
        # hand-off the digital back end (repro.digital) consumes.  Memoized
        # so a bit-width sweep re-reading the same cell never re-runs the
        # device model; entries are marked read-only because every consumer
        # shares the one array.
        self._taps: dict[tuple[MixerDesign, MixerMode, StimulusPlan],
                         np.ndarray] = {}

    def mixer_for(self, design: MixerDesign) -> ReconfigurableMixer:
        """The memoized mixer instance for a design record."""
        mixer = self._mixers.get(design)
        if mixer is None:
            mixer = ReconfigurableMixer(design)
            self._mixers[design] = mixer
        return mixer

    def time_domain(self, plan: StimulusPlan, mode: MixerMode,
                    design: MixerDesign | None = None) -> np.ndarray:
        """The sampled IF output block of one (design, mode) cell.

        The stable hand-off point for mixed-signal consumers: the stacked
        ``(powers, samples)`` differential IF voltage the device produces
        for ``plan``'s stimulus, evaluated on the same periodic fast path
        as :meth:`run` and memoized per (design, mode, plan) — a digital
        back end sweeping ADC bit widths over one operating point pays for
        the analog evaluation exactly once.  The returned array is
        **read-only** (consumers share it); copy before mutating.  Raw
        sample blocks are deliberately not written to the on-disk measure
        caches — downstream subsystems cache their own derived measures,
        keyed on a plan hash that covers their parameters plus this
        stimulus (:meth:`repro.digital.plan.DigitalIfPlan.content_hash`).
        """
        if not isinstance(plan, StimulusPlan):
            raise TypeError("time_domain() needs a StimulusPlan")
        if not isinstance(mode, MixerMode):
            raise TypeError("mode must be a MixerMode member")
        record = design if design is not None else self.design
        key = (record, mode, plan)
        out = self._taps.get(key)
        if out is not None:
            return out
        block = self._stimuli.get(plan)
        if block is None:
            block = stimulus_block(plan)
            self._stimuli[plan] = block
        mixer = self.mixer_for(record)
        mixer.set_mode(mode)
        device = mixer.waveform_device(
            plan.sample_rate, lo_frequency=plan.lo_frequency,
            rf_band_frequency=plan.rf_band_frequency,
            assume_periodic=True)
        out = device_output(device, plan, block=block)
        out.setflags(write=False)
        self._taps[key] = out
        return out

    def presize_designs(self, records, labels, modes) -> int:
        """Block-solve the Gm stages of the given cells before evaluation.

        ``records``, ``labels`` and ``modes`` run parallel, one entry per
        pending (design, mode) cell.  The pre-solve pass of :meth:`run`,
        public for engines layered on top of the tap (the digital runner):
        call once with every pending cell so a population's sizing, bias
        and Taylor solves run as one block
        (:func:`~repro.core.reconfigurable_mixer.presolve_cells`).  Returns
        the number of designs block-solved (0 below the batch threshold —
        the lazy per-cell path then solves them identically).
        """
        return presolve_cells(
            (label, self.mixer_for(record), mode)
            for record, label, mode in zip(records, labels, modes))

    # -- execution ------------------------------------------------------------

    def run(self, plan: StimulusPlan,
            modes=None, designs=None) -> WaveformResult:
        """Evaluate ``plan`` for every (design, mode) cell of the grid.

        ``modes`` / ``designs`` follow :meth:`SweepRunner.run`: omitted
        modes sweep both, omitted designs use the baseline as the one-point
        ``"nominal"`` axis.  Each cell is one batched evaluation (or one
        cache hit); cells are independent, so per-design results are
        bit-identical whether a design runs alone or in a population —
        the property the batch API fan-out relies on.
        """
        if not isinstance(plan, StimulusPlan):
            raise TypeError("run() needs a StimulusPlan")
        design_axis, records = SweepAxis.design_axis(designs, self.design)
        mode_axis, members = SweepAxis.mode_axis(modes)
        power_axis = SweepAxis.numeric(POWER_AXIS, plan.input_powers_dbm)

        shape = (len(design_axis), len(mode_axis), len(power_axis))
        data = {measure: np.empty(shape, dtype=float)
                for measure in plan.measures}
        # Pass 1 — settle the cache with one block read: every hit fills its
        # cell directly, and each miss is queued so the unsolved designs can
        # be batch-sized before any device evaluation runs.
        pending = fill_cached_measures(self.cache, plan, records, members,
                                       data)
        self.presize_designs([record for _, _, record in pending],
                             [design_axis.values[i] for i, _, _ in pending],
                             [members[j] for _, j, _ in pending])
        # Pass 2 — evaluate the cells the cache could not cover, all devices
        # already sized when the batch threshold was met.
        block: np.ndarray | None = None  # one stimulus, shared by all cells
        computed = []
        for design_index, mode_index, record in pending:
            mixer = self.mixer_for(record)
            mixer.set_mode(members[mode_index])
            if block is None:
                block = self._stimuli.get(plan)
                if block is None:
                    block = stimulus_block(plan)
                    self._stimuli[plan] = block
            measures = self._evaluate_cell(mixer, plan, block)
            computed.append((record, mixer.mode, measures, plan))
            for measure in plan.measures:
                data[measure][design_index, mode_index] = measures[measure]
        if self.cache is not None:
            self.cache.store_many(computed)
        return WaveformResult((design_axis, mode_axis, power_axis), data)

    def _evaluate_cell(self, mixer: ReconfigurableMixer, plan: StimulusPlan,
                       block: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate the measure arrays for one uncached (design, mode) cell.

        The device runs on its periodic fast path: no cyclic prefix, the IF
        filter applied as its closed-form periodic steady-state response —
        matching the prefixed evaluation to double precision at half the
        samples, with the LO switching function amortised across chunks.
        """
        device = mixer.waveform_device(
            plan.sample_rate, lo_frequency=plan.lo_frequency,
            rf_band_frequency=plan.rf_band_frequency,
            assume_periodic=True)
        return evaluate_plan(device, plan, block=block)
