"""Content-addressed on-disk cache of waveform-bench measures.

The expensive part of a waveform cell is the batched time-domain evaluation
plus FFT — building the stimulus block, pushing it through the nonlinear
device model and reading the product bins.  :class:`WaveformCache` persists
the resulting measure arrays per **(design, mode, stimulus plan)** cell
through the shared :class:`~repro.sweep.cache.CellCache` machinery (keyed on
the design fingerprint, the mode and :meth:`StimulusPlan.content_hash`), so
a warm re-run of Fig. 10, the IIP2 check or a P1dB sweep performs **zero
FFT evaluations** (observable through
:func:`repro.waveform.engine.waveform_fft_count`).
"""

from __future__ import annotations

from repro.sweep.cache import CellCache, MeasuresCodec


class WaveformCache(CellCache):
    """The waveform engine's cells: measure arrays along the power axis."""

    namespace = "waveform"
    version = 4
    codec = MeasuresCodec(axis="input_powers_dbm")
    # Own load/store: see SpecCache.
    load = CellCache.load
    store = CellCache.store
