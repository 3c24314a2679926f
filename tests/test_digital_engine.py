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

import json

import numpy as np
import pytest

from repro.core.config import MixerMode
from repro.digital import (
    BITS_AXIS,
    DigitalIfRunner,
    DigitalResult,
    ParallelDigitalRunner,
    digital_if_plan,
    digital_pass_count,
)
from repro.sweep.montecarlo import DeviceSpread, sample_design

SMALL_BITS = (6, 10, 14)


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
        assert plan.mix_shift == 11
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
