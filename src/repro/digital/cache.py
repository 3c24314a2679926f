"""Content-addressed on-disk cache of digital-IF measures.

The expensive part of a digital cell is the quantization pass — tiling the
tapped time-domain block, quantizing every ADC width, running the
fixed-point mix and CIC, and building the float reference alongside.
:class:`DigitalIfCache` persists the resulting measure arrays per
**(design, mode, digital plan)** cell through the shared
:class:`~repro.sweep.cache.CellCache` machinery (keyed on the design
fingerprint, the mode and :meth:`DigitalIfPlan.content_hash`, which covers
the embedded analog stimulus too), so a warm re-run of a digital-IF sweep
performs **zero quantization passes** (observable through
:func:`repro.digital.engine.digital_pass_count`).
"""

from __future__ import annotations

from repro.sweep.cache import CellCache, MeasuresCodec


class DigitalIfCache(CellCache):
    """The digital engine's cells: measure arrays along the bits axis."""

    namespace = "digital"
    version = 4
    codec = MeasuresCodec(axis="adc_bits")
    # Own load/store: see SpecCache.
    load = CellCache.load
    store = CellCache.store
