"""Tests for the vectorized waveform engine (:mod:`repro.waveform`).

The acceptance bars, straight from the engine's contract:

* scalar/vector equivalence to 1e-9 on the Fig. 10 two-tone grid and the
  P1dB single-tone grid — the batched path must agree with independent
  point-by-point measurements for every power, mode and measure;
* :class:`WaveformResult` honours the full :class:`SweepResult` contract
  (labelled selection, ``concat``, exact ``to_dict``/``from_dict``);
* the content-addressed waveform cache serves warm re-runs with **zero FFT
  evaluations**, degrades corrupt entries to recomputes, and keys on
  design fingerprint + mode + stimulus-plan hash;
* design-axis sharding through the parallel runner is bit-identical to the
  inline run for any worker count;
* the ``fig10`` / ``iip2`` / ``p1db`` batch adapters are bit-identical to
  solo runs, and waveform-measured specs score in ``run_yield_opt``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.rf.signal import Tone, TwoToneSource, sample_times
from repro.rf.spectrum import Spectrum
from repro.rf.twotone import measure_two_tone
from repro.sweep.montecarlo import DeviceSpread, sample_design
from repro.waveform import (
    POWER_AXIS,
    StimulusPlan,
    WaveformCache,
    WaveformResult,
    WaveformRunner,
    evaluate_plan,
    make_waveform_runner,
    resolve_waveform_cache,
    single_tone_plan,
    two_tone_plan,
    waveform_fft_count,
)
from repro.waveform.parallel import ParallelWaveformRunner

LO = 2.4e9
TONE_1 = 2.405e9
TONE_2 = 2.407e9
FIG10_POWERS = tuple(np.arange(-45.0, -19.0, 2.0))
P1DB_POWERS = tuple(np.arange(-40.0, -6.0, 2.0))

EQUIV = 1e-9  # scalar/vector equivalence bar


@pytest.fixture(scope="module", params=[MixerMode.ACTIVE, MixerMode.PASSIVE],
                ids=["active", "passive"])
def mode(request):
    return request.param


@pytest.fixture(scope="module")
def device(mode, design, sample_rate):
    mixer = ReconfigurableMixer(design, mode)
    return mixer.waveform_device(sample_rate, lo_frequency=LO,
                                 rf_band_frequency=TONE_1)


class TestStimulusPlan:
    def test_two_tone_plan_shape(self, sample_rate, num_samples):
        plan = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS, sample_rate,
                             num_samples, lo_frequency=LO)
        assert plan.kind == "two_tone"
        assert plan.measures == ("fundamental_dbm", "im3_dbm", "im2_dbm")
        assert plan.rf_band_frequency == TONE_1
        products = plan.product_frequencies()
        assert products["fundamental"] == pytest.approx(5e6)
        assert products["im2"] == pytest.approx(2e6)

    def test_single_tone_output_frequency_defaults(self, sample_rate,
                                                   num_samples):
        mixer_plan = single_tone_plan(TONE_1, P1DB_POWERS, sample_rate,
                                      num_samples, lo_frequency=LO)
        assert mixer_plan.product_frequencies()["output"] == \
            pytest.approx(5e6)
        amp_plan = single_tone_plan(1e8, P1DB_POWERS, sample_rate,
                                    num_samples)
        assert amp_plan.product_frequencies()["output"] == pytest.approx(1e8)

    def test_validation(self, sample_rate, num_samples):
        with pytest.raises(ValueError, match="distinct"):
            two_tone_plan(TONE_1, TONE_1, FIG10_POWERS, sample_rate,
                          num_samples)
        with pytest.raises(ValueError, match="input power"):
            two_tone_plan(TONE_1, TONE_2, [], sample_rate, num_samples)
        with pytest.raises(ValueError, match="Nyquist"):
            single_tone_plan(6e9, P1DB_POWERS, sample_rate, num_samples)
        with pytest.raises(ValueError, match="kind"):
            StimulusPlan(kind="three_tone", frequencies=(1e9,),
                         input_powers_dbm=(-30.0,), sample_rate=sample_rate,
                         num_samples=num_samples)

    def test_content_hash_tracks_every_field(self, sample_rate, num_samples):
        plan = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS, sample_rate,
                             num_samples, lo_frequency=LO)
        assert plan.content_hash() == two_tone_plan(
            TONE_1, TONE_2, FIG10_POWERS, sample_rate, num_samples,
            lo_frequency=LO).content_hash()
        different = [
            plan.with_powers(P1DB_POWERS),
            two_tone_plan(TONE_1, TONE_2 + 1e6, FIG10_POWERS, sample_rate,
                          num_samples, lo_frequency=LO),
            two_tone_plan(TONE_1, TONE_2, FIG10_POWERS, sample_rate,
                          num_samples, lo_frequency=LO + 1e6),
        ]
        hashes = {plan.content_hash()} | {p.content_hash()
                                          for p in different}
        assert len(hashes) == 1 + len(different)

    def test_coherence_detection(self, sample_rate, num_samples):
        coherent = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS, sample_rate,
                                 num_samples, lo_frequency=LO)
        assert coherent.is_coherent()
        leaky = single_tone_plan(2.405e9 + 137.0, P1DB_POWERS, sample_rate,
                                 num_samples)
        assert not leaky.is_coherent()

    def test_round_trips_through_json(self, sample_rate, num_samples):
        plan = single_tone_plan(TONE_1, P1DB_POWERS, sample_rate,
                                num_samples, lo_frequency=LO,
                                output_frequency=5e6)
        rebuilt = StimulusPlan.from_dict(json.loads(
            json.dumps(plan.to_dict())))
        assert rebuilt == plan
        assert rebuilt.content_hash() == plan.content_hash()


class TestScalarVectorEquivalence:
    """The 1e-9 bar on the Fig. 10 and P1dB grids, per mode and measure."""

    def test_two_tone_fig10_grid(self, device, sample_rate, num_samples):
        source = TwoToneSource(TONE_1, TONE_2, FIG10_POWERS[0])
        scalar = [measure_two_tone(device, source.with_power(float(p)),
                                   sample_rate, num_samples, lo_frequency=LO)
                  for p in FIG10_POWERS]
        plan = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS, sample_rate,
                             num_samples, lo_frequency=LO)
        batched = evaluate_plan(device, plan)
        for measure, attribute in (("fundamental_dbm",
                                    "fundamental_output_dbm"),
                                   ("im3_dbm", "im3_output_dbm"),
                                   ("im2_dbm", "im2_output_dbm")):
            reference = np.array([getattr(r, attribute) for r in scalar])
            worst = float(np.max(np.abs(batched[measure] - reference)))
            assert worst <= EQUIV, f"{measure} drifts by {worst}"

    def test_single_tone_p1db_grid(self, device, sample_rate, num_samples):
        times = sample_times(sample_rate, num_samples)
        reference = np.array([
            Spectrum(device(Tone(TONE_1, float(p)).waveform(times)),
                     sample_rate).power_dbm_at(5e6)
            for p in P1DB_POWERS
        ])
        plan = single_tone_plan(TONE_1, P1DB_POWERS, sample_rate,
                                num_samples, lo_frequency=LO,
                                output_frequency=5e6)
        batched = evaluate_plan(device, plan)
        worst = float(np.max(np.abs(batched["output_dbm"] - reference)))
        assert worst <= EQUIV, f"output_dbm drifts by {worst}"
        gains = batched["output_dbm"] - np.asarray(P1DB_POWERS)
        assert np.max(np.abs(batched["gain_db"] - gains)) <= EQUIV


class TestWaveformRunner:
    def test_axes_and_values(self, design, sample_rate, num_samples):
        plan = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS, sample_rate,
                             num_samples, lo_frequency=LO)
        result = WaveformRunner(design).run(plan)
        assert [axis.name for axis in result.axes] == \
            ["design", "mode", POWER_AXIS]
        assert result.shape == (1, 2, len(FIG10_POWERS))
        powers, fundamental = result.power_curve("fundamental_dbm",
                                                 mode=MixerMode.PASSIVE)
        assert np.array_equal(powers, np.asarray(FIG10_POWERS))
        assert fundamental.shape == (len(FIG10_POWERS),)

    def test_cell_independent_of_population(self, design, sample_rate,
                                            num_samples):
        """A design's cell is bit-identical solo or inside a population."""
        rng = np.random.default_rng(5)
        other = sample_design(design, rng, DeviceSpread(), "wf-pop")
        plan = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS[:6], sample_rate,
                             num_samples, lo_frequency=LO)
        solo = WaveformRunner(design).run(plan)
        population = WaveformRunner(design).run(
            plan, designs={"nominal": design, "other": other})
        for measure in plan.measures:
            assert np.array_equal(
                solo.values(measure, design="nominal"),
                population.values(measure, design="nominal"))

    def test_round_trip_preserves_subclass_and_bits(self, design,
                                                    sample_rate, num_samples):
        plan = single_tone_plan(TONE_1, P1DB_POWERS[:5], sample_rate,
                                num_samples, lo_frequency=LO)
        result = WaveformRunner(design).run(plan)
        rebuilt = WaveformResult.from_dict(json.loads(
            json.dumps(result.to_dict())))
        assert isinstance(rebuilt, WaveformResult)
        for measure in plan.measures:
            assert np.array_equal(rebuilt.data[measure], result.data[measure])

    def test_rejects_non_plans(self, design):
        with pytest.raises(TypeError, match="StimulusPlan"):
            WaveformRunner(design).run(plan="two_tone")


class TestWaveformCache:
    @pytest.fixture()
    def plan(self, sample_rate, num_samples):
        return two_tone_plan(TONE_1, TONE_2, FIG10_POWERS[:5], sample_rate,
                             num_samples, lo_frequency=LO)

    def test_warm_run_performs_zero_fft_evaluations(self, design, plan,
                                                    tmp_path):
        cold = WaveformRunner(design, cache=str(tmp_path))
        first = cold.run(plan)
        assert cold.cache.stores == 2  # one entry per mode
        before = waveform_fft_count()
        warm = WaveformRunner(design, cache=str(tmp_path))
        second = warm.run(plan)
        assert waveform_fft_count() == before
        assert warm.cache.hits == 2
        for measure in plan.measures:
            assert np.array_equal(first.data[measure], second.data[measure])

    def test_different_plan_misses(self, design, plan, tmp_path):
        runner = WaveformRunner(design, cache=str(tmp_path))
        runner.run(plan)
        before = waveform_fft_count()
        runner.run(plan.with_powers(FIG10_POWERS[:4]))
        assert waveform_fft_count() == before + 2

    def test_corrupt_entry_degrades_to_recompute(self, design, plan,
                                                 tmp_path):
        cache = WaveformCache(tmp_path)
        runner = WaveformRunner(design, cache=cache)
        result = runner.run(plan, modes=[MixerMode.PASSIVE])
        entry = cache.entry_path(design, MixerMode.PASSIVE, plan)
        entry.write_text("{not json", encoding="utf-8")
        again = WaveformRunner(design, cache=cache).run(
            plan, modes=[MixerMode.PASSIVE])
        assert cache.corrupt == 1
        for measure in plan.measures:
            assert np.array_equal(result.data[measure], again.data[measure])
        # The recompute replaced the bad entry.
        assert json.loads(entry.read_text(encoding="utf-8"))

    def test_kill_switch_disables_caching(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        assert resolve_waveform_cache(str(tmp_path)) is None
        assert resolve_waveform_cache(True) is None

    def test_resolver_adopts_spec_cache_directory(self, tmp_path):
        from repro.sweep.cache import SpecCache

        resolved = resolve_waveform_cache(SpecCache(tmp_path))
        assert isinstance(resolved, WaveformCache)
        assert resolved.directory == tmp_path
        with pytest.raises(TypeError, match="cache"):
            resolve_waveform_cache(1.5)

    def test_store_rejects_incomplete_measures(self, design, plan, tmp_path):
        cache = WaveformCache(tmp_path)
        with pytest.raises(ValueError, match="missing"):
            cache.store(design, MixerMode.ACTIVE, plan,
                        {"fundamental_dbm": np.zeros(5)})


class TestParallelWaveformRunner:
    @pytest.fixture(scope="class")
    def population(self, design):
        rng = np.random.default_rng(11)
        return {f"par-{i}": sample_design(design, rng, DeviceSpread(),
                                          f"par-{i}")
                for i in range(4)}

    def test_sharded_run_is_bit_identical(self, design, population,
                                          sample_rate, num_samples):
        plan = two_tone_plan(TONE_1, TONE_2, FIG10_POWERS[:5], sample_rate,
                             num_samples, lo_frequency=LO)
        inline = WaveformRunner(design).run(plan, designs=population)
        sharded = ParallelWaveformRunner(design, workers=2).run(
            plan, designs=population)
        assert isinstance(sharded, WaveformResult)
        assert [a.values for a in sharded.axes] == \
            [a.values for a in inline.axes]
        for measure in plan.measures:
            assert np.array_equal(inline.data[measure],
                                  sharded.data[measure])

    def test_single_design_runs_inline(self, design, sample_rate,
                                       num_samples):
        plan = single_tone_plan(TONE_1, P1DB_POWERS[:4], sample_rate,
                                num_samples, lo_frequency=LO)
        runner = ParallelWaveformRunner(design, workers=4)
        result = runner.run(plan, modes=[MixerMode.ACTIVE])
        assert result.shape == (1, 1, 4)

    def test_make_runner_selection(self, design):
        assert isinstance(make_waveform_runner(design), WaveformRunner)
        assert isinstance(make_waveform_runner(design, workers=1),
                          WaveformRunner)
        assert isinstance(make_waveform_runner(design, workers=2),
                          ParallelWaveformRunner)
        with pytest.raises(ValueError, match="workers"):
            ParallelWaveformRunner(design, workers=0)


class TestBatchAdapters:
    """The fig10 / iip2 / p1db population adapters vs solo runs."""

    @pytest.fixture(scope="class")
    def population(self, design):
        rng = np.random.default_rng(23)
        return {"nominal": design,
                "corner": sample_design(design, rng, DeviceSpread(),
                                        "corner")}

    SMALL_POWERS = [-45.0, -43.0, -41.0, -39.0, -37.0]

    def test_sweep_fig10_matches_solo(self, population):
        from repro.experiments import run_fig10, sweep_fig10

        batch = sweep_fig10(population, input_powers_dbm=self.SMALL_POWERS)
        for label, record in population.items():
            solo = run_fig10(record, input_powers_dbm=self.SMALL_POWERS)
            assert batch[label].passive.iip3_dbm == solo.passive.iip3_dbm
            assert batch[label].active.iip3_dbm == solo.active.iip3_dbm
            assert np.array_equal(batch[label].passive.im3_dbm,
                                  solo.passive.im3_dbm)

    def test_sweep_iip2_matches_solo(self, population):
        from repro.experiments import run_iip2, sweep_iip2

        batch = sweep_iip2(population, input_powers_dbm=self.SMALL_POWERS)
        for label, record in population.items():
            solo = run_iip2(record, input_powers_dbm=self.SMALL_POWERS)
            for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
                assert batch[label].for_mode(mode).measured_iip2_dbm == \
                    solo.for_mode(mode).measured_iip2_dbm
                assert batch[label].for_mode(mode).analytic_iip2_dbm == \
                    solo.for_mode(mode).analytic_iip2_dbm

    def test_sweep_p1db_matches_solo(self, population):
        from repro.experiments import run_p1db, sweep_p1db

        powers = list(np.arange(-40.0, -8.0, 4.0))
        batch = sweep_p1db(population, input_powers_dbm=powers)
        for label, record in population.items():
            solo = run_p1db(record, input_powers_dbm=powers)
            for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
                assert batch[label].for_mode(mode).measured_p1db_dbm == \
                    solo.for_mode(mode).measured_p1db_dbm
                assert np.array_equal(batch[label].for_mode(mode).gains_db,
                                      solo.for_mode(mode).gains_db)

    def test_p1db_experiment_shape(self, design):
        from repro.experiments import run_p1db
        from repro.experiments.p1db_compression import format_report

        result = run_p1db(design)
        assert result.both_found
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            panel = result.for_mode(mode)
            assert panel.measured_p1db_dbm == \
                pytest.approx(panel.analytic_p1db_dbm, abs=2.5)
        # Passive mode compresses later (the paper's Table I ordering).
        assert result.passive.measured_p1db_dbm > \
            result.active.measured_p1db_dbm
        assert "P1dB" in format_report(result)

    def test_fig10_warm_cache_skips_ffts_and_solves(self, design, tmp_path):
        from repro.core.transconductance import sizing_solve_count
        from repro.experiments import run_fig10

        first = run_fig10(design, input_powers_dbm=self.SMALL_POWERS,
                          cache=str(tmp_path))
        ffts = waveform_fft_count()
        solves = sizing_solve_count()
        again = run_fig10(design, input_powers_dbm=self.SMALL_POWERS,
                          cache=str(tmp_path))
        assert waveform_fft_count() == ffts
        assert sizing_solve_count() == solves
        assert again.passive.iip3_dbm == first.passive.iip3_dbm
        assert again.active.analytic_iip3_dbm == first.active.analytic_iip3_dbm


    def test_fig10_version_1_entries_are_recomputed(self, design, tmp_path,
                                                    monkeypatch):
        # Version 1 entries were measured on bisection-sized devices.
        from repro.experiments import run_fig10
        from repro.waveform import cache as waveform_cache

        with monkeypatch.context() as patched:
            patched.setattr(waveform_cache, "WAVEFORM_CACHE_VERSION", 1)
            first = run_fig10(design, input_powers_dbm=self.SMALL_POWERS,
                              cache=str(tmp_path))
        ffts = waveform_fft_count()
        again = run_fig10(design, input_powers_dbm=self.SMALL_POWERS,
                          cache=str(tmp_path))
        assert waveform_fft_count() > ffts
        assert again.passive.iip3_dbm == first.passive.iip3_dbm


class TestNonFiniteWireFormat:
    """inf/nan results (unreached compression) must serve as strict JSON."""

    def test_encode_tags_non_finite_floats(self):
        import math

        from repro.api import decode, encode

        payload = encode({"p1db": math.inf, "floor": -math.inf,
                          "bins": np.array([1.0, -np.inf])})
        text = json.dumps(payload, allow_nan=False)  # strict JSON or raise
        rebuilt = decode(json.loads(text))
        assert rebuilt["p1db"] == math.inf and rebuilt["floor"] == -math.inf
        assert isinstance(rebuilt["bins"], np.ndarray)
        assert rebuilt["bins"][0] == 1.0 and rebuilt["bins"][1] == -np.inf

    def test_uncompressed_p1db_serves_as_strict_json(self, design):
        from repro.api import MixerService, SpecRequest

        # A small-signal-only sweep never reaches 1 dB of compression, so
        # the result carries inf — the response must still be strict JSON.
        response = MixerService(response_cache=False).submit(SpecRequest(
            experiment="p1db",
            grid={"input_powers_dbm": [-60.0, -58.0, -56.0, -54.0]}))
        result = response.result
        assert not result.both_found
        text = json.dumps(response.to_dict(), allow_nan=False)
        rebuilt = json.loads(text)
        assert rebuilt["result_schema"] == "P1dbResult"


class TestWaveformYieldTargets:
    def test_waveform_targets_score_and_are_deterministic(self):
        from repro.optimize import SpecTarget, run_yield_opt

        targets = [SpecTarget("waveform_iip3_dbm", MixerMode.PASSIVE,
                              minimum=5.0),
                   SpecTarget("waveform_p1db_dbm", MixerMode.PASSIVE,
                              minimum=-16.0)]
        first = run_yield_opt(targets=targets, population=2, iterations=1,
                              num_samples=2)
        second = run_yield_opt(targets=targets, population=2, iterations=1,
                               num_samples=2)
        assert first.best_fingerprint() == second.best_fingerprint()
        assert set(first.best_spec_yields) == \
            {"passive:waveform_iip3_dbm", "passive:waveform_p1db_dbm"}
        assert 0.0 <= first.best_yield <= 1.0

    def test_mixed_targets_combine_both_engines(self):
        from repro.optimize import SpecTarget, run_yield_opt

        targets = [SpecTarget("conversion_gain_db", MixerMode.ACTIVE,
                              minimum=28.0),
                   SpecTarget("waveform_iip3_dbm", MixerMode.ACTIVE,
                              minimum=-13.0)]
        result = run_yield_opt(targets=targets, population=2, iterations=1,
                               num_samples=2)
        assert set(result.best_spec_yields) == \
            {"active:conversion_gain_db", "active:waveform_iip3_dbm"}

    def test_unknown_spec_rejected_with_targetable_list(self):
        from repro.optimize import SpecTarget

        with pytest.raises(ValueError, match="waveform_iip3_dbm"):
            SpecTarget("waveform_iip5_dbm", MixerMode.ACTIVE, minimum=0.0)

    def test_off_bin_operating_point_rejected(self):
        """A design whose LO/IF misses the scoring bin grid must fail
        loudly, not score through leaky bins."""
        from dataclasses import replace

        from repro.core.config import MixerDesign
        from repro.optimize import SpecTarget, run_yield_opt

        off_grid = replace(MixerDesign(), if_frequency=5.5e6 + 137.0)
        with pytest.raises(ValueError, match="bin grid"):
            run_yield_opt(design=off_grid,
                          targets=[SpecTarget("waveform_iip3_dbm",
                                              MixerMode.PASSIVE,
                                              minimum=5.0)],
                          population=2, iterations=1, num_samples=2)
