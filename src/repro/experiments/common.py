"""Shared entry-point plumbing for the experiment drivers.

Every ``run_*`` entry point used to hand-roll the same two things: the
``design: MixerDesign | None = None`` default (fall back to the paper's
design point) and the ``workers=`` / ``cache=`` forwarding into
:meth:`~repro.sweep.parallel.ShardedRunner.for_workers`.  This module is
that boilerplate, written once, so the drivers stay focused on their
artefact and the service layer can rely on every entry point resolving its
design identically.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import MixerDesign
from repro.sweep import ParallelSweepRunner, SpecCache, SweepRunner


def resolve_design(design: MixerDesign | None) -> MixerDesign:
    """The design an entry point should run: the given record or the default.

    Rejects non-``MixerDesign`` values early so a mis-shaped API payload
    fails with a clear message instead of deep inside a device model.
    """
    if design is None:
        return MixerDesign()
    if not isinstance(design, MixerDesign):
        raise TypeError("design must be a MixerDesign (or None for the "
                        f"paper's default), got {type(design).__name__}")
    return design


def design_and_runner(design: MixerDesign | None, specs: Sequence[str],
                      workers: int | None = None,
                      cache: SpecCache | str | bool | None = None,
                      ) -> tuple[MixerDesign, SweepRunner | ParallelSweepRunner]:
    """Resolve the design and build the sweep runner for one entry point.

    This is the one place the ``design``/``workers``/``cache`` keywords of
    every sweep-backed ``run_*`` function are interpreted; see
    :meth:`~repro.sweep.parallel.ShardedRunner.for_workers` for the
    runner-selection rules.
    """
    resolved = resolve_design(design)
    return resolved, ParallelSweepRunner.for_workers(
        resolved, specs=specs, workers=workers, cache=cache)
