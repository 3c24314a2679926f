"""Tests for the digital-IF engine, cache, sharding and experiment adapters.

The acceptance bars, straight from the subsystem's contract:

* a multi-width plan is bit-identical to running each ADC width alone —
  the broadcast quantizer is an optimisation, never an approximation;
* :class:`DigitalResult` honours the :class:`SweepResult` contract
  (labelled axes, exact ``to_dict``/``from_dict`` round-trips);
* the content-addressed digital cache serves warm re-runs with **zero
  quantization passes**, keys on design + mode + plan hash (which covers
  the embedded analog stimulus), and degrades corruption to a recompute;
* design-axis sharding is bit-identical to the inline run;
* the ``digital_if`` / ``bits_floor`` batch adapters are bit-identical to
  solo runs, and ``digital_snr_db`` scores in ``run_yield_opt``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MixerMode
from repro.digital import (
    BITS_AXIS,
    DigitalIfPlan,
    DigitalIfRunner,
    DigitalResult,
    ParallelDigitalRunner,
    digital_if_plan,
    digital_pass_count,
    evaluate_digital,
)
from repro.sweep.montecarlo import DeviceSpread, sample_design

from api_test_helpers import SMALL_GRIDS

SMALL_BITS = (6, 10, 14)

#: SHA-256 of the sorted-key JSON of each encoded result payload, at the
#: paper design, for the default grid and the SMALL_GRIDS grid.
PAYLOAD_SHA256 = {
    "bits_floor": (
        "414910b6fd3bcd52bfb91c11cbb0297fcc56323e35e9919c1c95286bb3b9bcb8",
        "cdb9fdd7f713c58421d1cb96bde99a5292d87f0f30515b4c81ebe0ab08ef1d4f"),
    "digital_if": (
        "adee5c211abc7c6c707f52d61d90e20c58d528ecb37e5debb1ce472a18833063",
        "0de471a7c4b4b5db87533c5f6132b0bd00e019bf1a289c9b82303558e4da511b"),
}


@pytest.fixture(scope="module")
def plan():
    return digital_if_plan(adc_bits=SMALL_BITS)


class TestDigitalPlan:
    def test_derived_quantities(self, plan):
        assert plan.adc_sample_rate == pytest.approx(160e6)
        assert plan.samples_per_record == 160
        assert plan.output_sample_rate == pytest.approx(8e6)
        assert plan.output_samples == 64
        assert plan.warmup_samples == 8
        assert plan.if_frequency == pytest.approx(5e6)
        assert plan.baseband_frequency == pytest.approx(1.25e6)
        assert plan.signal_bin == 10
        assert plan.widths("lo_bits").tolist() == [[16]] * len(SMALL_BITS)
        assert plan.growth_bits == 13

    def test_round_trips_through_json(self, plan):
        from repro.digital import DigitalIfPlan

        rebuilt = DigitalIfPlan.from_dict(json.loads(
            json.dumps(plan.to_dict())))
        assert rebuilt == plan
        assert rebuilt.content_hash() == plan.content_hash()

    def test_content_hash_tracks_digital_and_analog_fields(self, plan):
        different = [
            plan.with_adc_bits((6, 10)),
            digital_if_plan(adc_bits=SMALL_BITS, lo_bits=12),
            digital_if_plan(adc_bits=SMALL_BITS, cic_stages=4),
            # A change to the *analog* stimulus must re-key the cache too.
            digital_if_plan(adc_bits=SMALL_BITS, input_power_dbm=-21.0),
            digital_if_plan(adc_bits=SMALL_BITS, rf_frequency=2.406e9),
        ]
        hashes = {plan.content_hash()} | {p.content_hash()
                                          for p in different}
        assert len(hashes) == 1 + len(different)

    def test_validation_refuses_corrupting_configurations(self):
        with pytest.raises(ValueError, match="divide the analog record"):
            digital_if_plan(adc_stride=63)
        with pytest.raises(ValueError, match="must divide the"):
            digital_if_plan(cic_decimation=21)
        with pytest.raises(ValueError, match="exact-arithmetic budget"):
            digital_if_plan(adc_bits=(32,), guard_bits=15, cic_stages=5,
                            cic_decimation=20, lo_bits=16)
        with pytest.raises(ValueError, match="not representable"):
            digital_if_plan(nco_frequency_hz=3.75e6 + 0.3)
        with pytest.raises(ValueError, match="distinct"):
            digital_if_plan(adc_bits=(8, 8))
        with pytest.raises(ValueError, match="one width per ADC lane"):
            digital_if_plan(adc_bits=(8, 10), lo_bits=(12, 14, 16))
        with pytest.raises(ValueError, match="lane 1: guard_bits"):
            digital_if_plan(adc_bits=(8, 10), lo_bits=(12, 4))

    def test_per_lane_widths_round_trip_and_may_repeat_lanes(self):
        lanes = digital_if_plan(adc_bits=(16, 16, 16), lo_bits=(24, 24, 8),
                                guard_bits=(4, 4, 4), output_bits=32)
        rebuilt = DigitalIfPlan.from_dict(json.loads(
            json.dumps(lanes.to_dict())))
        assert rebuilt == lanes
        assert rebuilt.content_hash() == lanes.content_hash()
        assert lanes.widths("lo_bits").tolist() == [[24], [24], [8]]
        assert lanes.widths("output_bits").tolist() == [[32]] * 3
        # An int width keeps the canonical form of a plan without lanes.
        assert digital_if_plan(lo_bits=16).to_dict()["lo_bits"] == 16


class TestDigitalIfRunner:
    def test_axes_shape_and_sensible_curve(self, design, plan):
        result = DigitalIfRunner(design).run(plan)
        assert [axis.name for axis in result.axes] == \
            ["design", "mode", BITS_AXIS]
        assert result.shape == (1, 2, len(SMALL_BITS))
        bits, snr = result.bits_curve("snr_db", mode=MixerMode.ACTIVE)
        assert np.array_equal(bits, np.asarray(SMALL_BITS, dtype=float))
        # Quantization-limited region: ~6 dB per added bit, monotone.
        assert np.all(np.diff(snr) > 0)
        assert snr[1] - snr[0] > 3.0 * (SMALL_BITS[1] - SMALL_BITS[0])

    def test_multi_width_plan_matches_single_width_runs(self, design, plan):
        """The broadcast bits axis is bit-identical to per-width runs."""
        runner = DigitalIfRunner(design)
        batched = runner.run(plan)
        for width in SMALL_BITS:
            solo = DigitalIfRunner(design).run(plan.with_adc_bits((width,)))
            for measure in plan.measures:
                assert batched.value(measure, mode=MixerMode.PASSIVE,
                                     adc_bits=width) == \
                    solo.value(measure, mode=MixerMode.PASSIVE)

    def test_cell_independent_of_population(self, design, plan):
        rng = np.random.default_rng(5)
        other = sample_design(design, rng, DeviceSpread(), "dig-pop")
        solo = DigitalIfRunner(design).run(plan)
        population = DigitalIfRunner(design).run(
            plan, designs={"nominal": design, "other": other})
        for measure in plan.measures:
            assert np.array_equal(
                solo.values(measure, design="nominal"),
                population.values(measure, design="nominal"))

    def test_round_trip_preserves_subclass_and_bits(self, design, plan):
        result = DigitalIfRunner(design).run(plan, modes=[MixerMode.ACTIVE])
        rebuilt = DigitalResult.from_dict(json.loads(
            json.dumps(result.to_dict())))
        assert isinstance(rebuilt, DigitalResult)
        for measure in plan.measures:
            assert np.array_equal(rebuilt.data[measure], result.data[measure])

    def test_rejects_non_plans(self, design):
        with pytest.raises(TypeError, match="DigitalIfPlan"):
            DigitalIfRunner(design).run(plan="digital")


class TestDigitalCache:
    def test_warm_run_performs_zero_quantization_passes(self, design, plan,
                                                        tmp_path):
        cold = DigitalIfRunner(design, cache=str(tmp_path))
        first = cold.run(plan)
        assert cold.cache.stores == 2  # one entry per mode
        before = digital_pass_count()
        warm = DigitalIfRunner(design, cache=str(tmp_path))
        second = warm.run(plan)
        assert digital_pass_count() == before
        assert warm.cache.hits == 2
        for measure in plan.measures:
            assert np.array_equal(first.data[measure], second.data[measure])

    def test_different_plan_misses(self, design, plan, tmp_path):
        runner = DigitalIfRunner(design, cache=str(tmp_path))
        runner.run(plan, modes=[MixerMode.ACTIVE])
        before = digital_pass_count()
        runner.run(plan.with_adc_bits((6, 10)), modes=[MixerMode.ACTIVE])
        assert digital_pass_count() == before + 1


class TestParallelDigitalRunner:
    def test_sharded_run_is_bit_identical(self, design, plan):
        rng = np.random.default_rng(11)
        population = {f"dig-{i}": sample_design(design, rng, DeviceSpread(),
                                                f"dig-{i}")
                      for i in range(4)}
        inline = DigitalIfRunner(design).run(plan, designs=population)
        sharded = ParallelDigitalRunner(design, workers=2).run(
            plan, designs=population)
        assert isinstance(sharded, DigitalResult)
        assert [a.values for a in sharded.axes] == \
            [a.values for a in inline.axes]
        for measure in plan.measures:
            assert np.array_equal(inline.data[measure],
                                  sharded.data[measure])

    def test_make_runner_selection(self, design):
        assert isinstance(ParallelDigitalRunner.for_workers(design),
                          DigitalIfRunner)
        assert isinstance(ParallelDigitalRunner.for_workers(design, workers=1),
                          DigitalIfRunner)
        assert isinstance(ParallelDigitalRunner.for_workers(design, workers=2),
                          ParallelDigitalRunner)
        with pytest.raises(ValueError, match="workers"):
            ParallelDigitalRunner(design, workers=0)


class TestDigitalExperiments:
    @pytest.fixture(scope="class")
    def population(self, design):
        rng = np.random.default_rng(23)
        return {"nominal": design,
                "corner": sample_design(design, rng, DeviceSpread(),
                                        "corner")}

    def test_digital_if_experiment_shape(self, design):
        from repro.experiments import run_digital_if
        from repro.experiments.digital_if import format_report

        result = run_digital_if(design, adc_bits=SMALL_BITS)
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            panel = result.for_mode(mode)
            assert panel.adc_bits.tolist() == list(SMALL_BITS)
            assert np.all(np.diff(panel.snr_db) > 0)
            assert np.all(panel.overflow_fraction == 0.0)
            assert panel.peak_snr_db == panel.snr_db[-1]
            # The 6-bit point is ADC-limited, the 14-bit one is not (the
            # 16-bit NCO/LO floor takes over around 60 dB SNR).
            assert panel.quantization_limited_bits[0]
            assert panel.enob[-1] > 8.0
        assert "SNR" in format_report(result)

    def test_sweep_digital_if_matches_solo(self, population):
        from repro.experiments import run_digital_if, sweep_digital_if

        batch = sweep_digital_if(population, adc_bits=SMALL_BITS)
        for label, record in population.items():
            solo = run_digital_if(record, adc_bits=SMALL_BITS)
            for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
                assert np.array_equal(batch[label].for_mode(mode).snr_db,
                                      solo.for_mode(mode).snr_db)
                assert np.array_equal(batch[label].for_mode(mode).noise_dbm,
                                      solo.for_mode(mode).noise_dbm)
            assert batch[label].plan_hash == solo.plan_hash

    def test_digital_if_warm_cache_skips_passes_and_solves(self, design,
                                                           tmp_path):
        from repro.core.transconductance import sizing_solve_count
        from repro.experiments import run_digital_if

        first = run_digital_if(design, adc_bits=SMALL_BITS,
                               cache=str(tmp_path))
        passes = digital_pass_count()
        solves = sizing_solve_count()
        again = run_digital_if(design, adc_bits=SMALL_BITS,
                               cache=str(tmp_path))
        assert digital_pass_count() == passes
        assert sizing_solve_count() == solves
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            assert np.array_equal(first.for_mode(mode).snr_db,
                                  again.for_mode(mode).snr_db)

    def test_bits_floor_finds_finite_minima(self, design):
        from repro.experiments import run_bits_floor
        from repro.experiments.bits_floor import format_report

        result = run_bits_floor(design,
                                adc_candidates=(10, 12, 14, 16),
                                lo_candidates=(8, 12),
                                output_candidates=(16, 20))
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            panel = result.for_mode(mode)
            assert panel.achievable
            assert panel.min_adc_bits in (10, 12, 14, 16)
            assert panel.threshold_dbm == \
                pytest.approx(panel.analog_floor_dbm - panel.margin_db)
            # Noise falls (or floors) as the converter widens.
            assert panel.noise_dbm_vs_adc[0] >= panel.noise_dbm_vs_adc[-1]
        assert "width" in format_report(result).lower()

    def test_registry_serves_both_digital_experiments(self, registry):
        names = set(registry.names())
        assert {"digital_if", "bits_floor"} <= names


def _busy_if_block(plan: DigitalIfPlan, amplitude: float = 0.4,
                   spur_hz: float = 37e6) -> np.ndarray:
    """A synthetic IF record: the plan's IF tone plus one more tone."""
    times = np.arange(plan.stimulus.num_samples) / plan.stimulus.sample_rate
    return plan.adc_full_scale * (
        amplitude * np.cos(2.0 * np.pi * plan.if_frequency * times)
        + 0.4 * np.cos(2.0 * np.pi * spur_hz * times + 0.3))


_LANE = st.tuples(st.integers(3, 20), st.integers(4, 24),
                  st.integers(0, 8), st.integers(4, 40))


class TestLanes:
    """Each plan lane is an independent fixed-point chain in one pass."""

    @settings(max_examples=25, deadline=None)
    @given(lanes=st.lists(_LANE, min_size=1, max_size=6))
    def test_each_lane_matches_its_one_lane_plan(self, lanes):
        lanes = [(adc, lo, min(guard, lo - 1), out)
                 for adc, lo, guard, out in lanes]
        adc, lo, guard, out = (tuple(column) for column in zip(*lanes))
        plan = digital_if_plan(adc_bits=adc, lo_bits=lo, guard_bits=guard,
                               output_bits=out)
        # Driven past full scale, so clipped codes overflow guard-0 lanes.
        block = _busy_if_block(plan, amplitude=0.9)
        before = digital_pass_count()
        together = evaluate_digital(plan, block)
        assert digital_pass_count() == before + 1
        for lane, (a, l, g, o) in enumerate(lanes):
            alone = evaluate_digital(digital_if_plan(
                adc_bits=(a,), lo_bits=l, guard_bits=g, output_bits=o), block)
            for measure in plan.measures:
                assert together[measure][[lane]].tobytes() == \
                    alone[measure].tobytes(), (lane, measure)

    def test_register_budget_is_checked_per_lane(self):
        # Three CIC stages decimating by 20 grow 13 bits: 45 + 4 + 13 = 62.
        plan = digital_if_plan(adc_bits=(8, 45), guard_bits=(4, 4))
        measures = evaluate_digital(plan, _busy_if_block(plan))
        assert np.all(measures["overflow_fraction"] == 0.0)
        with pytest.raises(ValueError,
                           match="lane 1: CIC register width 63 exceeds"):
            digital_if_plan(adc_bits=(8, 45), guard_bits=(4, 5))
        with pytest.raises(ValueError,
                           match="lane 0: CIC register width 63 exceeds"):
            digital_if_plan(adc_bits=(46, 8), guard_bits=(4, 4))

    def test_adc_limited_noise_follows_the_quantization_closed_form(self):
        """ADC lanes 4..12 sit at -(6.02 N + 1.76) - 10 log10(R) dBFS.

        The closed form assumes white quantization error.  The analog
        record is tiled, so the error repeats every record; an 8 us record
        with a 7.125 MHz IF (1280 distinct ADC phases) plus a strong tone
        at 50 MHz keeps it busy.  The NCO sits at the 10 MS/s output rate,
        so the 50 MHz tone and the mid-rise quantizer's -1/2 LSB offset
        both land in exact nulls of the CIC and add nothing in band.  A
        five-stage CIC and a 20-bit LO table push the image and LO floors
        below the 12-bit lane; from 13 bits the floors show, so the check
        covers lanes 4 to 12, within 1.5 dB.
        """
        bits = tuple(range(4, 13))
        plan = digital_if_plan(rf_frequency=2.407125e9, num_samples=81920,
                               adc_bits=bits, lo_bits=24, table_bits=20,
                               output_bits=48, nco_frequency_hz=10e6,
                               cic_stages=5, cic_decimation=16)
        noise = evaluate_digital(plan, _busy_if_block(
            plan, amplitude=0.3, spur_hz=50e6))["noise_dbfs"]
        closed_form = (-(6.02 * np.asarray(bits) + 1.76)
                       - 10.0 * np.log10(plan.cic_decimation))
        assert np.max(np.abs(noise - closed_form)) < 1.5


class TestDigitalPins:
    """Payload bytes and engine work counts of the two digital drivers."""

    @staticmethod
    def _sha256(result) -> str:
        from repro.api.serialization import encode

        text = json.dumps(encode(result), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("name", sorted(PAYLOAD_SHA256))
    def test_payload_bytes(self, registry, name):
        runner = registry.get(name).runner
        default, small = PAYLOAD_SHA256[name]
        assert self._sha256(runner()) == default
        assert self._sha256(runner(**SMALL_GRIDS[name])) == small

    @pytest.mark.parametrize("name, passes", [("bits_floor", 2),
                                              ("digital_if", 2)])
    def test_cold_run_pass_count(self, registry, design, name, passes):
        before = digital_pass_count()
        registry.get(name).runner(design)
        assert digital_pass_count() - before == passes

    def test_bits_floor_warm_cache_skips_passes_and_solves(self, design,
                                                           tmp_path):
        from repro.core.transconductance import sizing_solve_count
        from repro.experiments import run_bits_floor

        grid = SMALL_GRIDS["bits_floor"]
        first = run_bits_floor(design, cache=str(tmp_path), **grid)
        passes = digital_pass_count()
        solves = sizing_solve_count()
        again = run_bits_floor(design, cache=str(tmp_path), **grid)
        assert digital_pass_count() == passes
        assert sizing_solve_count() == solves
        assert self._sha256(again) == self._sha256(first)


class TestDigitalYieldTargets:
    def test_digital_target_scores_and_is_deterministic(self):
        from repro.optimize import SpecTarget, run_yield_opt

        targets = [SpecTarget("digital_snr_db", MixerMode.ACTIVE,
                              minimum=50.0)]
        first = run_yield_opt(targets=targets, population=2, iterations=1,
                              num_samples=2)
        second = run_yield_opt(targets=targets, population=2, iterations=1,
                               num_samples=2)
        assert first.best_fingerprint() == second.best_fingerprint()
        assert set(first.best_spec_yields) == {"active:digital_snr_db"}
        assert 0.0 <= first.best_yield <= 1.0

    def test_mixed_targets_combine_three_engines(self):
        from repro.optimize import SpecTarget, run_yield_opt

        targets = [SpecTarget("conversion_gain_db", MixerMode.ACTIVE,
                              minimum=28.0),
                   SpecTarget("waveform_iip3_dbm", MixerMode.ACTIVE,
                              minimum=-13.0),
                   SpecTarget("digital_snr_db", MixerMode.ACTIVE,
                              minimum=50.0)]
        result = run_yield_opt(targets=targets, population=2, iterations=1,
                               num_samples=2)
        assert set(result.best_spec_yields) == \
            {"active:conversion_gain_db", "active:waveform_iip3_dbm",
             "active:digital_snr_db"}

    def test_off_grid_operating_point_rejected(self):
        from dataclasses import replace

        from repro.core.config import MixerDesign
        from repro.optimize import SpecTarget, run_yield_opt

        off_grid = replace(MixerDesign(), if_frequency=5.5e6 + 137.0)
        with pytest.raises(ValueError, match="digital-IF plan"):
            run_yield_opt(design=off_grid,
                          targets=[SpecTarget("digital_snr_db",
                                              MixerMode.ACTIVE,
                                              minimum=50.0)],
                          population=2, iterations=1, num_samples=2)
