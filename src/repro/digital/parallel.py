"""Parallel digital-IF benches: shard the design axis across processes.

:class:`ParallelDigitalRunner` is the digital engine's flavour of
:class:`~repro.sweep.parallel.ShardedRunner`: contiguous design-axis
slices, each run by an ordinary :class:`~repro.digital.engine.DigitalIfRunner`
(with its own embedded analog tap) in a worker process, stitched back with
:meth:`DigitalResult.concat`.  The bit-width axis is deliberately *not*
sharded — the broadcast quantizer evaluates every width in one pass per
cell.  The stitched result is **bit-identical** to
:meth:`DigitalIfRunner.run` for any worker count.
"""

from __future__ import annotations

from repro.api.progress import report_progress  # noqa: F401 - servebench rebinds it
from repro.digital.engine import DigitalIfRunner
from repro.digital.plan import DigitalIfPlan
from repro.digital.result import DigitalResult
from repro.sweep.parallel import ShardedRunner


class ParallelDigitalRunner(ShardedRunner):
    """Drop-in :class:`DigitalIfRunner` sharding the design axis over processes."""

    engine = DigitalIfRunner
    stage = "digital"

    def run(self, plan: DigitalIfPlan, modes=None,
            designs=None) -> DigitalResult:
        """Evaluate ``plan`` over the grid, sharded along the design axis.

        Accepts exactly the arguments of :meth:`DigitalIfRunner.run` and
        returns a bit-identical :class:`DigitalResult`.
        """
        return self._run_sharded(modes, designs, plan)
