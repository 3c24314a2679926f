"""Tests for the sharded runners and SweepResult concatenation."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.api.progress import progress_scope
from repro.core.config import MixerDesign, MixerMode
from repro.digital import DigitalIfCache, ParallelDigitalRunner, digital_if_plan
from repro.sweep import (
    DESIGN_AXIS,
    DeviceSpread,
    ParallelSweepRunner,
    SweepAxis,
    SweepResult,
    ShardedRunner,
    SpecCache,
    SweepRunner,
    run_monte_carlo,
    sample_design,
)
from repro.waveform import ParallelWaveformRunner, WaveformCache, single_tone_plan


def _sampled_designs(design: MixerDesign, count: int,
                     seed: int = 11) -> dict[str, MixerDesign]:
    rng = np.random.default_rng(seed)
    return {f"mc-{i:03d}": sample_design(design, rng, DeviceSpread(), f"mc-{i:03d}")
            for i in range(count)}


class TestConcat:
    def _result(self, labels, base=0.0) -> SweepResult:
        axes = (SweepAxis.categorical(DESIGN_AXIS, labels),
                SweepAxis.numeric("rf_frequency_hz", [1e9, 2e9]))
        data = {"gain_db": base + np.arange(2.0 * len(labels)).reshape(
            len(labels), 2)}
        return SweepResult(axes, data)

    def test_concat_preserves_order_and_values(self):
        joined = SweepResult.concat(
            [self._result(["a", "b"]), self._result(["c"], base=100.0)])
        assert joined.axis(DESIGN_AXIS).values == ("a", "b", "c")
        np.testing.assert_array_equal(
            joined.values("gain_db", design="c"), [100.0, 101.0])
        np.testing.assert_array_equal(
            joined.values("gain_db", design="a"), [0.0, 1.0])

    def test_concat_along_numeric_axis(self):
        axes_a = (SweepAxis.numeric("rf_frequency_hz", [1e9]),)
        axes_b = (SweepAxis.numeric("rf_frequency_hz", [2e9, 3e9]),)
        joined = SweepResult.concat(
            [SweepResult(axes_a, {"gain_db": np.array([1.0])}),
             SweepResult(axes_b, {"gain_db": np.array([2.0, 3.0])})],
            axis="rf_frequency_hz")
        assert joined.axis("rf_frequency_hz").values == (1e9, 2e9, 3e9)
        np.testing.assert_array_equal(joined.data["gain_db"], [1.0, 2.0, 3.0])

    def test_single_shard_is_identity(self):
        shard = self._result(["a", "b"], base=7.0)
        joined = SweepResult.concat([shard])
        assert joined.axes == shard.axes
        assert joined.spec_names == shard.spec_names
        np.testing.assert_array_equal(joined.data["gain_db"],
                                      shard.data["gain_db"])

    def test_single_shard_accepts_any_iterable(self):
        joined = SweepResult.concat(iter([self._result(["a"])]))
        assert joined.axis(DESIGN_AXIS).values == ("a",)

    def test_concat_along_unknown_axis_name(self):
        with pytest.raises(KeyError, match="no axis named"):
            SweepResult.concat([self._result(["a"])], axis="if_frequency_hz")

    def test_concat_rejects_different_axis_names(self):
        other_axes = (SweepAxis.categorical(DESIGN_AXIS, ["z"]),
                      SweepAxis.numeric("if_frequency_hz", [1e6, 2e6]))
        other = SweepResult(other_axes, {"gain_db": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="different axes"):
            SweepResult.concat([self._result(["a"]), other])

    def test_concat_rejects_different_grid_lengths(self):
        other_axes = (SweepAxis.categorical(DESIGN_AXIS, ["z"]),
                      SweepAxis.numeric("rf_frequency_hz", [1e9, 2e9, 3e9]))
        other = SweepResult(other_axes, {"gain_db": np.zeros((1, 3))})
        with pytest.raises(ValueError, match="only 'design' may vary"):
            SweepResult.concat([self._result(["a"]), other])

    def test_concat_rejects_empty_and_mismatches(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepResult.concat([])
        with pytest.raises(ValueError, match="duplicate"):
            SweepResult.concat([self._result(["a"]), self._result(["a"])])
        other_axes = (SweepAxis.categorical(DESIGN_AXIS, ["z"]),
                      SweepAxis.numeric("rf_frequency_hz", [5e9, 6e9]))
        other = SweepResult(other_axes, {"gain_db": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="only 'design' may vary"):
            SweepResult.concat([self._result(["a"]), other])
        renamed = SweepResult(self._result(["z"]).axes,
                              {"nf_db": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="different specs"):
            SweepResult.concat([self._result(["a"]), renamed])


class TestParallelSweepRunner:
    def test_matches_single_process_bitwise(self, design):
        """The acceptance gate: workers > 1 must be bit-identical."""
        designs = _sampled_designs(design, 5)
        rf = [1.0e9, 2.405e9, 5.0e9]
        single = SweepRunner(design).run(rf_frequencies=rf, designs=designs)
        sharded = ParallelSweepRunner(design, workers=3).run(
            rf_frequencies=rf, designs=designs)
        assert sharded.shape == single.shape
        assert sharded.axis(DESIGN_AXIS).values == \
            single.axis(DESIGN_AXIS).values
        for spec in single.spec_names:
            np.testing.assert_array_equal(sharded.data[spec],
                                          single.data[spec])

    def test_sequence_designs_and_more_workers_than_designs(self, design):
        variant = replace(design, degeneration_resistance=80.0)
        sweep = ParallelSweepRunner(design, specs=("iip3_dbm",),
                                    workers=8).run(
            designs=[design, variant], modes=(MixerMode.PASSIVE,))
        assert sweep.axis(DESIGN_AXIS).values == ("design-0", "design-1")
        assert sweep.value("iip3_dbm", design="design-1", mode="passive") > \
            sweep.value("iip3_dbm", design="design-0", mode="passive")

    def test_single_design_runs_inline(self, design):
        runner = ParallelSweepRunner(design, specs=("conversion_gain_db",),
                                     workers=4)
        sweep = runner.run(rf_frequencies=[1e9, 2e9])
        assert sweep.shape == (1, 2, 2, 1)
        # The inline fallback memoizes on the wrapped runner as usual.
        assert runner._inline.cached_design_count == 1

    def test_rejects_bad_worker_counts(self, design):
        with pytest.raises(ValueError, match="workers"):
            ParallelSweepRunner(design, workers=0)

    def test_rejects_multidimensional_grids_like_sweep_runner(self, design):
        runner = ParallelSweepRunner(design, workers=2)
        with pytest.raises(ValueError, match="one-dimensional"):
            runner.run(rf_frequencies=np.ones((2, 2)))

    def test_worker_exception_propagates(self, design):
        designs = _sampled_designs(design, 4, seed=9)
        designs["greedy"] = replace(design, tca_gm=1.0)
        runner = ParallelSweepRunner(design, workers=2)
        with pytest.raises(ValueError, match="target gm unreachable"):
            runner.run(designs=designs)

    def test_default_grids_match_single_process(self, design):
        designs = _sampled_designs(design, 2, seed=5)
        single = SweepRunner(design).run(designs=designs)
        sharded = ParallelSweepRunner(design, workers=2).run(designs=designs)
        assert sharded.axis("rf_frequency_hz").values == \
            (design.rf_frequency,)
        for spec in single.spec_names:
            np.testing.assert_array_equal(sharded.data[spec],
                                          single.data[spec])


class TestForWorkers:
    def test_workers_choose_the_runner_type(self, design):
        assert isinstance(ParallelSweepRunner.for_workers(design), SweepRunner)
        assert isinstance(ParallelSweepRunner.for_workers(design, workers=1),
                          SweepRunner)
        parallel = ParallelSweepRunner.for_workers(design, workers=2)
        assert isinstance(parallel, ParallelSweepRunner)
        assert parallel.workers == 2


class TestMonteCarloParallel:
    def test_workers_reproduce_the_single_process_run(self, design):
        baseline = run_monte_carlo(design, num_samples=6, seed=21)
        sharded = run_monte_carlo(design, num_samples=6, seed=21, workers=3)
        for spec in baseline.sweep.spec_names:
            np.testing.assert_array_equal(sharded.sweep.data[spec],
                                          baseline.sweep.data[spec])
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            np.testing.assert_array_equal(
                sharded.samples("conversion_gain_db", mode),
                baseline.samples("conversion_gain_db", mode))


SHARDED_RUNNERS = {"sweep": ParallelSweepRunner,
                   "waveform": ParallelWaveformRunner,
                   "digital": ParallelDigitalRunner}


class TestShardedRunnerFamily:
    """One shard loop and one cell cache behind three engine flavours."""

    @pytest.mark.parametrize("runner", SHARDED_RUNNERS.values(),
                             ids=SHARDED_RUNNERS.keys())
    def test_each_runner_owns_its_run_and_progress_binding(self, runner):
        # Per-layer tracing wraps each class's own ``run`` and rebinds
        # ``report_progress`` in each parallel module.
        assert issubclass(runner, ShardedRunner)
        assert "run" in vars(runner)
        assert hasattr(sys.modules[runner.__module__], "report_progress")

    @pytest.mark.parametrize("kind", [SpecCache, WaveformCache, DigitalIfCache],
                             ids=["spec", "waveform", "digital"])
    def test_each_cache_owns_its_load_and_store(self, kind):
        assert {"load", "store"} <= set(vars(kind))

    @pytest.mark.parametrize("name", SHARDED_RUNNERS)
    def test_shards_report_progress_under_their_stage(self, name, design,
                                                      sample_rate,
                                                      num_samples):
        args = {"sweep": (),
                "waveform": (single_tone_plan(2.405e9, (-40.0, -38.0),
                                              sample_rate, num_samples,
                                              lo_frequency=2.4e9),),
                "digital": (digital_if_plan(adc_bits=(6,)),)}[name]
        runner = SHARDED_RUNNERS[name]
        seen: list[dict] = []
        with progress_scope(seen.append):
            runner(design, workers=2).run(
                *args, modes=[MixerMode.ACTIVE],
                designs=_sampled_designs(design, 3, seed=4))
        assert [fields["shards_done"] for fields in seen] == [1, 2]
        assert {fields["stage"] for fields in seen} == {runner.stage}
        assert seen[-1]["designs_done"] == seen[-1]["designs_total"] == 3
