"""Parallel engine execution: shard the design axis across processes.

The per-(design, mode) cell work of every engine — device sizing, bias
solution, spec scalars, waveform FFTs, quantization passes — is
embarrassingly parallel across the design axis: no cell reads another
cell's state.  :class:`ShardedRunner` exploits that for any engine runner
with a ``run(..., modes=, designs=)`` method: it splits the design records
into contiguous shards, runs each shard through an ordinary inline engine
in a process-pool worker, and stitches the shard outputs back together with
:meth:`SweepResult.concat` along the design axis.
:class:`ParallelSweepRunner` is its spec-sweep flavour;
:class:`~repro.waveform.parallel.ParallelWaveformRunner` and
:class:`~repro.digital.parallel.ParallelDigitalRunner` are the others.

One pool: every sharded run in the process — script, test or server
request, any engine — maps its shards over a single
``concurrent.futures.ProcessPoolExecutor`` with one worker per usable CPU
(:func:`usable_cpus`, :func:`shared_pool`), built on first use.  A run's
``workers`` only sets how many shards it cuts.  The pool lives until
:func:`shutdown_pool` (the HTTP server calls it on close) or interpreter
exit, when ``concurrent.futures`` joins it.  If a worker dies, the run that
sees it raises ``BrokenProcessPool`` and the pool is dropped, so the next
run builds a fresh one.  Workers fork once per pool, not once per run, so
module state patched after the pool exists is not seen by them.

Determinism: every cell is computed by exactly the same code path as the
single-process runner — same maths, same order within a cell — so the
stitched result is **bit-identical** to the inline run on the same grid,
regardless of worker count (gated in ``benchmarks/test_bench_parallel.py``).

The other axes (RF x IF plane, input powers, bit widths) are *not* sharded:
each engine evaluates them as one vectorized block per cell; the
wall-clock cost lives in the per-design work, so the design axis is the
right (and only) thing to distribute.

Combine with the on-disk cell cache (:mod:`repro.sweep.cache`) for the full
effect: shards share one cache directory, so a re-run — parallel or not —
skips every cell that any previous run or shard already paid for.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.api.progress import report_progress
from repro.core.config import MixerDesign, MixerMode
from repro.sweep.cache import CellCache
from repro.sweep.grid import DESIGN_AXIS, IF_AXIS, RF_AXIS, SweepAxis
from repro.sweep.result import SweepResult
from repro.sweep.runner import SweepRunner

_POOL_LOCK = threading.Lock()
_POOL: ProcessPoolExecutor | None = None


def usable_cpus() -> int:
    """How many CPUs this process may run on (its affinity set, if any)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shared_pool() -> ProcessPoolExecutor:
    """The process-wide pool of :func:`usable_cpus` workers, built lazily.

    ``Executor`` instances are thread-safe, so concurrent runs interleave
    their shard maps safely.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Workers get SIGTERM's default back: a server may route it to
            # KeyboardInterrupt, and a broken pool terminates its workers.
            _POOL = ProcessPoolExecutor(
                max_workers=usable_cpus(), initializer=signal.signal,
                initargs=(signal.SIGTERM, signal.SIG_DFL))
        return _POOL


def shutdown_pool() -> None:
    """Join and drop the shared pool; the next sharded run builds a new one."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


def _drop_broken(pool: ProcessPoolExecutor) -> None:
    """Forget ``pool`` after a worker died, unless it was already replaced."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is pool:
            _POOL = None


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs to run its slice of the design axis.

    Kept to picklable values (an engine class, frozen dataclasses, enum
    members, a cache handle, plain run arguments) so the task crosses the
    process boundary cheaply under any start method.
    """

    engine: type
    design: MixerDesign
    options: Mapping[str, Any]
    cache: CellCache | None
    args: tuple
    modes: tuple[MixerMode, ...]
    labels: tuple[str, ...]
    records: tuple[MixerDesign, ...]


def _run_shard(task: _ShardTask):
    """Worker entry point: one inline engine over one design-axis slice."""
    runner = task.engine(task.design, cache=task.cache, **task.options)
    return runner.run(*task.args, modes=task.modes,
                      designs=dict(zip(task.labels, task.records)))


class ShardedRunner:
    """Drop-in wrapper of an engine runner that shards the design axis.

    Subclasses name the inline ``engine`` class (whose ``run(*args,
    modes=, designs=)`` returns a :class:`SweepResult` subclass) and the
    progress ``stage``, and give ``run`` the engine's signature.

    Parameters
    ----------
    design:
        Baseline design record, as for the engine.
    workers:
        Shard count; ``None`` means :func:`usable_cpus`.  The shards run on
        the shared pool (:func:`shared_pool`).  With one worker — or a
        design axis too short to shard — the run stays inline in this
        process, no pool touched.
    cache:
        On-disk cell cache shared by all shards; same accepted values as the
        engine.  Each worker both reads and extends the shared directory.
    options:
        Further engine constructor arguments (the sweep engine's ``specs``).
    """

    engine: type
    stage: str

    def __init__(self, design: MixerDesign | None = None, *,
                 workers: int | None = None, cache=None, **options) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers) if workers is not None \
            else usable_cpus()
        self._options = options
        # The inline runner owns validation, the design-axis labelling rules,
        # cache resolution and the single-process fallback, so both paths
        # stay identical.
        self._inline = self.engine(design, cache=cache, **options)
        self.cache = self._inline.cache

    @classmethod
    def for_workers(cls, design: MixerDesign | None = None, *,
                    workers: int | None = None, cache=None, **options):
        """The runner an entry point should use for its ``workers=`` option.

        ``None`` or ``1`` keeps the plain inline engine (the default
        everywhere — callers pay nothing for the process machinery unless
        asked); anything higher returns this sharded runner.
        """
        if workers is None or workers == 1:
            return cls.engine(design, cache=cache, **options)
        return cls(design, workers=workers, cache=cache, **options)

    @property
    def design(self) -> MixerDesign:
        """The baseline design record."""
        return self._inline.design

    def _run_sharded(self, modes, designs, *args) -> SweepResult:
        """Run the engine over contiguous design-axis shards and stitch them.

        ``args`` are the engine's ``run`` arguments ahead of ``modes``.
        Every cell runs through the same engine code as the inline run and
        ``pool.map`` preserves shard order, so the stitched result is
        bit-identical to the inline one for any worker count.
        """
        design_axis, records = SweepAxis.design_axis(designs, self.design)
        _, members = SweepAxis.mode_axis(modes)
        labels = design_axis.values
        shard_count = min(self.workers, len(records))
        if shard_count <= 1:
            return self._inline.run(*args, modes=members,
                                    designs=dict(zip(labels, records)))
        tasks = []
        for bounds in np.array_split(np.arange(len(records)), shard_count):
            start, stop = int(bounds[0]), int(bounds[-1]) + 1
            tasks.append(_ShardTask(
                engine=self.engine, design=self.design, options=self._options,
                cache=self.cache, args=args, modes=tuple(members),
                labels=tuple(labels[start:stop]),
                records=tuple(records[start:stop])))
        shards = []
        designs_done = 0
        pool = shared_pool()
        try:
            for task, shard in zip(tasks, pool.map(_run_shard, tasks)):
                shards.append(shard)
                designs_done += len(task.records)
                # Completed shards are partial progress the job surface can
                # stream; with no observer this is a thread-local no-op.
                report_progress(stage=self.stage, shards_done=len(shards),
                                shards_total=len(tasks),
                                designs_done=designs_done,
                                designs_total=len(records))
        except BrokenProcessPool:
            # A dead worker breaks the whole pool: this run fails, and the
            # next one builds a fresh pool.
            _drop_broken(pool)
            raise
        return type(shards[0]).concat(shards, axis=DESIGN_AXIS)


class ParallelSweepRunner(ShardedRunner):
    """Drop-in :class:`SweepRunner` that shards the design axis over processes."""

    engine = SweepRunner
    stage = "sweep"

    @property
    def specs(self) -> tuple[str, ...]:
        """The configured spec names."""
        return self._inline.specs

    def run(self, rf_frequencies: Iterable[float] | np.ndarray | None = None,
            if_frequencies: Iterable[float] | np.ndarray | None = None,
            modes: Sequence[MixerMode] | None = None,
            designs: Mapping[str, MixerDesign] | Sequence[MixerDesign] | None = None
            ) -> SweepResult:
        """Evaluate the configured specs over the full grid, sharded.

        Accepts exactly the arguments of :meth:`SweepRunner.run` and returns
        a bit-identical :class:`SweepResult`.
        """
        # SweepAxis.numeric applies the same 1-D validation (and error
        # message) the inline runner would, and leaves picklable tuples.
        rf = SweepAxis.numeric(
            RF_AXIS, rf_frequencies if rf_frequencies is not None
            else [self.design.rf_frequency]).values
        if_ = SweepAxis.numeric(
            IF_AXIS, if_frequencies if if_frequencies is not None
            else [self.design.if_frequency]).values
        return self._run_sharded(modes, designs, rf, if_)
