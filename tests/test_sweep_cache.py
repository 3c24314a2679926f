"""Tests for the on-disk spec cache (fingerprints, hits, invalidation)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.sweep.cache as cache_module
from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import SpecIntermediates
from repro.core.transconductance import sizing_solve_count
from repro.sweep import SpecCache, SweepRunner, resolve_cache, run_monte_carlo


class TestFingerprint:
    def test_stable_and_content_addressed(self, design):
        assert design.fingerprint() == design.fingerprint()
        assert design.fingerprint() == MixerDesign().fingerprint()
        assert len(design.fingerprint()) == 64

    def test_any_parameter_change_moves_the_fingerprint(self, design):
        assert replace(design, load_resistance=3.46e3).fingerprint() != \
            design.fingerprint()
        corner = replace(design, technology=design.technology.corner(
            "ss", vth_shift=0.04))
        assert corner.fingerprint() != design.fingerprint()

    def test_canonical_dict_covers_technology(self, design):
        payload = design.canonical_dict()
        assert payload["technology"]["vth_n"] == design.technology.vth_n
        assert payload["load_resistance"] == design.load_resistance


class TestSpecCacheEntries:
    def test_store_then_load_round_trips(self, design, tmp_path):
        cache = SpecCache(tmp_path)
        mode = MixerMode.PASSIVE
        from repro.core.reconfigurable_mixer import ReconfigurableMixer
        intermediates = ReconfigurableMixer(design, mode).spec_intermediates()
        cache.store(design, mode, intermediates)
        assert cache.stores == 1
        loaded = cache.load(design, mode)
        assert loaded == intermediates
        assert cache.hits == 1

    def test_modes_and_designs_key_separately(self, design, tmp_path):
        cache = SpecCache(tmp_path)
        variant = replace(design, degeneration_resistance=75.0)
        keys = {cache.entry_key(design, MixerMode.ACTIVE),
                cache.entry_key(design, MixerMode.PASSIVE),
                cache.entry_key(variant, MixerMode.ACTIVE)}
        assert len(keys) == 3

    def test_store_rejects_mode_mismatch(self, design, tmp_path):
        cache = SpecCache(tmp_path)
        from repro.core.reconfigurable_mixer import ReconfigurableMixer
        intermediates = ReconfigurableMixer(
            design, MixerMode.ACTIVE).spec_intermediates()
        with pytest.raises(ValueError, match="mode"):
            cache.store(design, MixerMode.PASSIVE, intermediates)


class TestRunnerIntegration:
    def test_cold_vs_warm_equality_and_no_sizing(self, design, tmp_path):
        """The acceptance gate: a warm cache skips every sizing bisection."""
        grid = dict(rf_frequencies=[1e9, 2.405e9], if_frequencies=[5e6])
        cold_runner = SweepRunner(design, cache=tmp_path)
        before = sizing_solve_count()
        cold = cold_runner.run(**grid)
        assert sizing_solve_count() - before > 0
        assert cold_runner.cache.stores == 2  # one entry per mode

        warm_runner = SweepRunner(design, cache=tmp_path)
        before = sizing_solve_count()
        warm = warm_runner.run(**grid)
        assert sizing_solve_count() - before == 0
        assert warm_runner.cache.hits == 2
        for spec in cold.spec_names:
            np.testing.assert_array_equal(warm.data[spec], cold.data[spec])

    def test_version_bump_invalidates_stale_entries(self, design, tmp_path,
                                                    monkeypatch):
        grid = dict(rf_frequencies=[2.405e9])
        cold = SweepRunner(design, cache=tmp_path).run(**grid)

        monkeypatch.setattr(cache_module, "CACHE_VERSION",
                            cache_module.CACHE_VERSION + 1)
        bumped_runner = SweepRunner(design, cache=tmp_path)
        before = sizing_solve_count()
        bumped = bumped_runner.run(**grid)
        # Stale entries were not used: the cell re-solved and re-stored.
        assert sizing_solve_count() - before > 0
        assert bumped_runner.cache.hits == 0
        assert bumped_runner.cache.stores == 2
        for spec in cold.spec_names:
            np.testing.assert_array_equal(bumped.data[spec], cold.data[spec])

    def test_version_1_entries_are_recomputed(self, design, tmp_path,
                                              monkeypatch):
        # Version 1 entries hold bisection-sized widths; the closed-form
        # solver's numbers differ in the last bits, so they must not serve.
        grid = dict(rf_frequencies=[2.405e9])
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "CACHE_VERSION", 1)
            SweepRunner(design, cache=tmp_path).run(**grid)
        runner = SweepRunner(design, cache=tmp_path)
        before = sizing_solve_count()
        runner.run(**grid)
        assert sizing_solve_count() - before > 0
        assert runner.cache.hits == 0
        assert runner.cache.stores == 2

    def test_corrupted_entry_falls_back_to_recompute(self, design, tmp_path):
        runner = SweepRunner(design, cache=tmp_path)
        cold = runner.run(modes=[MixerMode.ACTIVE])
        entry = runner.cache.entry_path(design, MixerMode.ACTIVE)
        entry.write_text("{not json", encoding="utf-8")

        recovering = SweepRunner(design, cache=tmp_path)
        recovered = recovering.run(modes=[MixerMode.ACTIVE])
        assert recovering.cache.corrupt == 1
        assert recovering.cache.stores == 1  # entry was rewritten
        np.testing.assert_array_equal(
            recovered.data["conversion_gain_db"],
            cold.data["conversion_gain_db"])
        # The rewritten entry is healthy again.
        assert SpecCache(tmp_path).load(design, MixerMode.ACTIVE) is not None

    def test_tampered_payload_fields_are_rejected(self, design, tmp_path):
        cache = SpecCache(tmp_path)
        from repro.core.reconfigurable_mixer import ReconfigurableMixer
        intermediates = ReconfigurableMixer(
            design, MixerMode.ACTIVE).spec_intermediates()
        cache.store(design, MixerMode.ACTIVE, intermediates)
        path = cache.entry_path(design, MixerMode.ACTIVE)
        path.write_text(
            path.read_text(encoding="utf-8").replace(
                '"power_mw"', '"renamed_field"'),
            encoding="utf-8")
        assert cache.load(design, MixerMode.ACTIVE) is None
        assert cache.corrupt == 1


class TestSpecIntermediatesSerialization:
    def test_round_trip(self, active_mixer):
        intermediates = active_mixer.spec_intermediates()
        assert SpecIntermediates.from_dict(
            intermediates.to_dict()) == intermediates

    def test_from_dict_rejects_bad_payloads(self, active_mixer):
        payload = active_mixer.spec_intermediates().to_dict()
        with pytest.raises(KeyError):
            SpecIntermediates.from_dict(
                {k: v for k, v in payload.items() if k != "iip3_dbm"})
        bad = dict(payload, power_mw="9.36")
        with pytest.raises(TypeError):
            SpecIntermediates.from_dict(bad)
        with pytest.raises(ValueError):
            SpecIntermediates.from_dict(dict(payload, mode="triode"))


class TestResolveCacheAndEnvSwitch:
    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        cache = SpecCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_cache(str(tmp_path)).directory == tmp_path
        assert resolve_cache(tmp_path).directory == tmp_path
        with pytest.raises(TypeError):
            resolve_cache(42)

    def test_true_uses_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_module.DIRECTORY_ENV, str(tmp_path / "d"))
        resolved = resolve_cache(True)
        assert resolved is not None
        assert resolved.directory == tmp_path / "d"

    def test_env_switch_force_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_module.DISABLE_ENV, "off")
        assert resolve_cache(True) is None
        assert resolve_cache(str(tmp_path)) is None
        runner = SweepRunner(cache=str(tmp_path))
        assert runner.cache is None

    def test_env_switch_ignores_other_values(self, monkeypatch):
        monkeypatch.setenv(cache_module.DISABLE_ENV, "on")
        assert not cache_module.cache_disabled_by_env()


class TestMonteCarloCache:
    def test_cached_rerun_matches_and_skips_sizing(self, design, tmp_path):
        cold = run_monte_carlo(design, num_samples=4, seed=13, cache=tmp_path)
        before = sizing_solve_count()
        warm = run_monte_carlo(design, num_samples=4, seed=13, cache=tmp_path)
        assert sizing_solve_count() - before == 0
        for spec in cold.sweep.spec_names:
            np.testing.assert_array_equal(warm.sweep.data[spec],
                                          cold.sweep.data[spec])
