"""Parallel waveform benches: shard the design axis across processes.

:class:`ParallelWaveformRunner` is the waveform engine's flavour of
:class:`~repro.sweep.parallel.ShardedRunner`: contiguous design-axis
slices, each run by an ordinary :class:`~repro.waveform.engine.WaveformRunner`
in a worker process, stitched back with :meth:`WaveformResult.concat`.  The
power axis is deliberately *not* sharded — the batched engine evaluates the
whole power sweep as one stacked block per cell.  The stitched result is
**bit-identical** to :meth:`WaveformRunner.run` for any worker count.
"""

from __future__ import annotations

from repro.api.progress import report_progress  # noqa: F401 - servebench rebinds it
from repro.sweep.parallel import ShardedRunner
from repro.waveform.engine import WaveformRunner
from repro.waveform.plan import StimulusPlan
from repro.waveform.result import WaveformResult


class ParallelWaveformRunner(ShardedRunner):
    """Drop-in :class:`WaveformRunner` sharding the design axis over processes."""

    engine = WaveformRunner
    stage = "waveform"

    def run(self, plan: StimulusPlan, modes=None,
            designs=None) -> WaveformResult:
        """Evaluate ``plan`` over the grid, sharded along the design axis.

        Accepts exactly the arguments of :meth:`WaveformRunner.run` and
        returns a bit-identical :class:`WaveformResult`.
        """
        return self._run_sharded(modes, designs, plan)
