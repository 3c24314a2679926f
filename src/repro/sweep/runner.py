"""The vectorized sweep engine for mixer spec curves.

:class:`SweepRunner` evaluates the reconfigurable mixer's spec accessors
over an arbitrary dense grid of **design variant x mode x RF frequency x IF
frequency** without per-point Python loops.  The split of labour is:

* everything that does not depend on the swept frequencies (device sizing,
  bias solutions, effective gm, noise floors, linearity intercepts, power)
  is computed **once per (design, mode) cell**, in one array pass per
  mode (:func:`~repro.core.reconfigurable_mixer.solve_intermediates`),
  and memoized on the mixer;
* the frequency-shaped specs (conversion gain, noise figure) are then
  evaluated over every design x RF x IF cell of a mode in **one NumPy
  broadcast call**, through the helpers behind the array accessors
  (:meth:`conversion_gain_db_array`, :meth:`noise_figure_db_array`);
* frequency-flat specs (IIP3, P1dB, power, band edges) are broadcast across
  the plane so every spec array shares one labelled shape.

Mixer instances are memoized per design record, so re-running a sweep on a
refined frequency grid re-uses every sizing/bias solution already paid for.
An optional on-disk layer (:mod:`repro.sweep.cache`) extends that memo
across processes and interpreter runs, and
:class:`~repro.sweep.parallel.ParallelSweepRunner` shards the design axis of
large grids across worker processes with this runner doing each shard.

Adding a new sweep scenario is: build the designs/modes/grids you care
about, call :meth:`SweepRunner.run`, and read labelled curves off the
returned :class:`~repro.sweep.result.SweepResult` — see
:mod:`repro.sweep.montecarlo` for a worked example (per-design random
process spread, something the scalar path could never afford).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import (
    ReconfigurableMixer,
    conversion_gain_db_from,
    presolve_cells,
    solve_intermediates,
)
from repro.rf.noise_figure import nf_with_flicker
from repro.sweep.cache import SpecCache, resolve_cache
from repro.sweep.grid import IF_AXIS, RF_AXIS, SweepAxis
from repro.sweep.result import SweepResult

#: Spec names whose values vary across the RF/IF plane.
FREQUENCY_SHAPED_SPECS = ("conversion_gain_db", "noise_figure_db")

#: Spec names that are flat across frequency (one scalar per design x mode).
FLAT_SPECS = ("iip3_dbm", "iip2_dbm", "p1db_dbm", "power_mw",
              "band_low_hz", "band_high_hz", "flicker_corner_hz")

#: Every spec the runner can evaluate.
ALL_SPECS = FREQUENCY_SHAPED_SPECS + FLAT_SPECS

#: The headline specs swept by default (the paper's Fig. 8/9/10 quantities).
DEFAULT_SPECS = ("conversion_gain_db", "noise_figure_db", "iip3_dbm",
                 "p1db_dbm", "power_mw")


class SweepRunner:
    """Evaluates mixer spec curves over parameter grids, vectorized.

    Parameters
    ----------
    design:
        The baseline design record; used when :meth:`run` is not given an
        explicit design axis, and as the source of the nominal RF/IF
        operating point for defaulted frequency grids.
    specs:
        Which spec curves to evaluate (a subset of :data:`ALL_SPECS`).
    cache:
        Optional on-disk cache of solved per-(design, mode) intermediates —
        ``None``/``False`` (default, off), ``True`` (default directory), a
        directory path, or a :class:`~repro.sweep.cache.SpecCache`.  With a
        warm cache every sizing/bias solve is skipped; see
        :mod:`repro.sweep.cache`.
    """

    def __init__(self, design: MixerDesign | None = None,
                 specs: Sequence[str] = DEFAULT_SPECS,
                 cache: SpecCache | str | bool | None = None) -> None:
        self.design = design if design is not None else MixerDesign()
        self.cache = resolve_cache(cache)
        self.specs = tuple(specs)
        if not self.specs:
            raise ValueError("need at least one spec to sweep")
        unknown = [spec for spec in self.specs if spec not in ALL_SPECS]
        if unknown:
            raise ValueError(f"unknown specs {unknown}; choose from {ALL_SPECS}")
        # Mixers (and with them every sizing/bias solution and memoized
        # intermediate) are kept per design record across run() calls.
        self._mixers: dict[MixerDesign, ReconfigurableMixer] = {}

    # -- mixer cache ---------------------------------------------------------

    def mixer_for(self, design: MixerDesign) -> ReconfigurableMixer:
        """The memoized mixer instance for a design record."""
        mixer = self._mixers.get(design)
        if mixer is None:
            mixer = ReconfigurableMixer(design)
            self._mixers[design] = mixer
        return mixer

    @property
    def cached_design_count(self) -> int:
        """How many design records currently have a memoized mixer."""
        return len(self._mixers)

    # -- execution -----------------------------------------------------------

    def run(self, rf_frequencies: Iterable[float] | np.ndarray | None = None,
            if_frequencies: Iterable[float] | np.ndarray | None = None,
            modes: Sequence[MixerMode] | None = None,
            designs: Mapping[str, MixerDesign] | Sequence[MixerDesign] | None = None
            ) -> SweepResult:
        """Evaluate the configured specs over the full grid.

        Omitted frequency grids collapse to the **baseline** design's
        nominal operating point (LO + IF for RF, the nominal IF), so
        ``run(modes=[...])`` is a Table-I-style spot evaluation; omitted
        ``modes`` sweeps both modes; omitted ``designs`` uses the baseline
        design only.  The grid is shared by every design on the axis — if a
        swept design record re-tunes ``lo_frequency``/``if_frequency``, pass
        explicit grids covering its operating point rather than relying on
        the defaults.
        """
        design_axis, design_records = SweepAxis.design_axis(designs,
                                                            self.design)
        mode_axis, mode_members = SweepAxis.mode_axis(modes)
        rf_axis = SweepAxis.numeric(
            RF_AXIS, rf_frequencies if rf_frequencies is not None
            else [self.design.rf_frequency])
        if_axis = SweepAxis.numeric(
            IF_AXIS, if_frequencies if if_frequencies is not None
            else [self.design.if_frequency])
        rf = rf_axis.as_array()
        if_ = if_axis.as_array()
        if np.any(rf <= 0) or np.any(if_ <= 0):
            raise ValueError("swept frequencies must be positive")

        shape = (len(design_axis), len(mode_axis), rf.size, if_.size)
        data = {spec: np.empty(shape, dtype=float) for spec in self.specs}

        computed = self._presolve(design_records, mode_members,
                                  design_axis.values)
        mixers = [self.mixer_for(record) for record in design_records]
        for mode_index, mode in enumerate(mode_members):
            self._fill_mode(mixers, mode, data, mode_index, rf, if_)
        if self.cache is not None:
            self.cache.store_many(
                (mixer.design, mode, mixer.peek_intermediates(mode), None)
                for _, mixer, mode in computed)

        axes = (design_axis, mode_axis, rf_axis, if_axis)
        return SweepResult(axes, data)

    def _presolve(self, records: Sequence[MixerDesign],
                  modes: Sequence[MixerMode], labels: Sequence[str]
                  ) -> list[tuple[str, ReconfigurableMixer, MixerMode]]:
        """Settle the disk cache, then block-solve every uncovered cell.

        One block read covers every (design, mode) cell the mixer memo
        lacks; each hit seeds the memo (so a warm run still performs zero
        solves).  The cells neither covers go to
        :func:`~repro.core.reconfigurable_mixer.presolve_cells` before the
        fill runs, and are returned: the cells this run computes, for
        :meth:`run` to store in one block.
        """
        uncovered: list[tuple[str, ReconfigurableMixer, MixerMode]] = []
        seen: set[MixerDesign] = set()
        for label, record in zip(labels, records):
            if record in seen:
                continue
            seen.add(record)
            mixer = self.mixer_for(record)
            uncovered.extend((label, mixer, mode) for mode in modes
                             if mixer.peek_intermediates(mode) is None)
        if self.cache is not None:
            loaded = self.cache.load_many(
                (mixer.design, mode, None) for _, mixer, mode in uncovered)
            for (_, mixer, _), cached in zip(uncovered, loaded):
                if cached is not None:
                    mixer.seed_intermediates(cached)
            uncovered = [cell for cell, cached in zip(uncovered, loaded)
                         if cached is None]
        presolve_cells(uncovered)
        return uncovered

    def _fill_mode(self, mixers: Sequence[ReconfigurableMixer],
                   mode: MixerMode, data: dict[str, np.ndarray],
                   mode_index: int, rf: np.ndarray, if_: np.ndarray) -> None:
        """Evaluate every configured spec for one mode's cells in one broadcast.

        Uncovered cells get their intermediates in one block pass; the
        per-cell scalars stack along a leading design axis against the
        shared RF (middle) and IF (last) axes, through the same helpers the
        scalar accessors call, so every value is bit-identical to them.
        """
        solve_intermediates(mixers, mode)
        cells = [mixer.peek_intermediates(mode) for mixer in mixers]

        def column(values) -> np.ndarray:
            return np.array(list(values), dtype=float)[:, None, None]

        for spec in self.specs:
            if spec == "conversion_gain_db":
                values = conversion_gain_db_from(
                    column(cell.peak_gain_db for cell in cells),
                    column(cell.band_low_hz for cell in cells),
                    column(cell.band_high_hz for cell in cells),
                    column(mixer.if_filter(mode).pole_frequency
                           for mixer in mixers),
                    rf[None, :, None], if_[None, None, :])
            elif spec == "noise_figure_db":
                values = nf_with_flicker(
                    column(cell.white_nf_db for cell in cells),
                    column(cell.flicker_corner_hz for cell in cells),
                    if_[None, None, :])
            else:
                # Flat specs share their name with a SpecIntermediates field.
                values = column(getattr(cell, spec) for cell in cells)
            data[spec][:, mode_index] = values
