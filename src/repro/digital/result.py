"""Result container for batched digital-IF benches.

:class:`DigitalResult` is a :class:`~repro.sweep.result.SweepResult` over
the axes **design x mode x ADC bits**: one dense float array per digital
measure (``snr_db``, ``signal_dbfs``, ``noise_dbfs``, ``noise_dbm``,
``float_error_peak``, ``overflow_fraction``), selected by axis name and
value exactly like every spec sweep.  The whole container contract is
inherited — labelled :meth:`~repro.sweep.result.SweepResult.values` /
:meth:`~repro.sweep.result.SweepResult.curve` selection,
:meth:`~repro.sweep.result.SweepResult.concat` along a named axis (the
parallel runner's shard stitch), and exact
:meth:`~repro.sweep.result.SweepResult.to_dict` /
:meth:`~repro.sweep.result.SweepResult.from_dict` JSON round-trips — so
everything that can consume a sweep (caches, services, notebooks) can
consume a quantization sweep unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.sweep.result import SweepResult

#: Name of the ADC resolution axis on every digital result.
BITS_AXIS = "adc_bits"


class DigitalResult(SweepResult):
    """Labelled digital-IF measures over design x mode x ADC bits."""

    def adc_bits(self) -> np.ndarray:
        """Each plan lane's converter resolution, the bit-width axis."""
        return self.axis(BITS_AXIS).as_array()

    def bits_curve(self, measure: str, **selectors) -> tuple[np.ndarray,
                                                             np.ndarray]:
        """(ADC bits, measure values) with the other axes selected.

        Sugar over :meth:`~repro.sweep.result.SweepResult.curve` along the
        bit-width axis — the shape the quantization-floor readouts consume.
        """
        return self.curve(measure, BITS_AXIS, **selectors)
