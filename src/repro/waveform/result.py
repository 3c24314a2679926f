"""Result container for batched waveform benches.

:class:`WaveformResult` is a :class:`~repro.sweep.result.SweepResult` over
the axes **design x mode x input power**: one dense float array per measure
(``fundamental_dbm`` / ``im3_dbm`` / ``im2_dbm`` for two-tone plans,
``output_dbm`` / ``gain_db`` for single-tone plans), selected by axis name
and value exactly like every spec sweep.  The whole container contract is
inherited — labelled :meth:`~repro.sweep.result.SweepResult.values` /
:meth:`~repro.sweep.result.SweepResult.curve` selection,
:meth:`~repro.sweep.result.SweepResult.concat` along a named axis (the
parallel runner's shard stitch), and exact
:meth:`~repro.sweep.result.SweepResult.to_dict` /
:meth:`~repro.sweep.result.SweepResult.from_dict` JSON round-trips — so
everything that can consume a sweep (caches, services, notebooks) can
consume a waveform bench unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.sweep.grid import POWER_AXIS
from repro.sweep.result import SweepResult


class WaveformResult(SweepResult):
    """Labelled waveform measures over design x mode x input power."""

    def power_curve(self, measure: str, **selectors) -> tuple[np.ndarray,
                                                              np.ndarray]:
        """(input powers, measure values) with the other axes selected.

        Sugar over :meth:`~repro.sweep.result.SweepResult.curve` along the
        power axis — the shape every intercept / compression fit consumes.
        """
        return self.curve(measure, POWER_AXIS, **selectors)
