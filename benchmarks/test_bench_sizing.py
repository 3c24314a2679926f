"""Benchmark: the batched sizing entry point vs the scalar sizing loop.

Sizing a >= 64-design Monte-Carlo population through one
:func:`~repro.core.transconductance.solve_widths` call must return
**bit-identical** widths to the equivalent loop of scalar
:meth:`TransconductanceAmplifier._size_device` solves — the contract that
lets the sweep and waveform engines pre-size design blocks without moving a
single golden pin.  Both entry points call the same closed-form
:func:`~repro.core.transconductance.gm_device_width`, so the identity holds
by construction, and a wall-clock ratio between them would only time
building ``TransconductanceAmplifier`` objects.  What the closed form buys
is asserted as a work count instead: the population sizes without a single
width bisection or ``Mosfet.operating_point`` call.

Both sides run cold: neither entry point takes the on-disk cache, which
exists precisely to skip these solves.  The calibrated ``benchmark``-fixture
case feeds the nightly ``BENCH_<run>.json`` trajectory (the ``sizing``
suite in ``bench.yml``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core import transconductance
from repro.core.transconductance import (
    TransconductanceAmplifier,
    batched_sizing_solve_count,
    solve_widths,
)
from repro.devices.mosfet import Mosfet
from repro.sweep import DeviceSpread, sample_design

#: Monte-Carlo population size (>= 64 designs).
NUM_DESIGNS = 64


def _population(design, count: int = NUM_DESIGNS):
    rng = np.random.default_rng(20150901)
    return [sample_design(design, rng, DeviceSpread(), f"mc-{i:03d}")
            for i in range(count)]


def _scalar_widths(records) -> np.ndarray:
    return np.array([TransconductanceAmplifier(record).device.params.width
                     for record in records])


def test_bench_sizing_population_bit_identity(design) -> None:
    """One batched solve equals the scalar loop bit for bit."""
    records = _population(design)
    scalar = _scalar_widths(records)
    batches = batched_sizing_solve_count()
    batched = solve_widths(records)
    assert batched_sizing_solve_count() == batches + 1
    assert np.array_equal(batched, scalar)


def test_bench_sizing_population_closed_form(design, monkeypatch) -> None:
    """Work count: the whole population sizes in closed form.

    No draw falls back to the width bisection, so the batched solve
    evaluates no device at all.
    """
    records = _population(design)
    calls: Counter = Counter()
    bisect = transconductance._bisect_width
    operating_point = Mosfet.operating_point

    def counting_bisect(record):
        calls["bisect"] += 1
        return bisect(record)

    def counting_operating_point(self, *args, **kwargs):
        calls["operating_point"] += 1
        return operating_point(self, *args, **kwargs)

    monkeypatch.setattr(transconductance, "_bisect_width", counting_bisect)
    monkeypatch.setattr(Mosfet, "operating_point", counting_operating_point)
    widths = solve_widths(records)
    assert widths.shape == (NUM_DESIGNS,)
    assert calls["bisect"] == 0
    assert calls["operating_point"] == 0


def test_bench_sizing_batched_calibrated(design, benchmark) -> None:
    """Calibrated batched-solver datapoint for the perf trajectory."""
    records = _population(design)
    widths = benchmark(solve_widths, records)
    assert widths.shape == (NUM_DESIGNS,)
    assert np.all(widths > 0)
