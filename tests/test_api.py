"""Tests for the unified spec-service API (registry, requests, service).

The load-bearing guarantees, straight from the acceptance bar:

* every registered experiment answers through :class:`MixerService` with a
  payload **bit-identical** to the direct ``run_*`` call (in-process here;
  the HTTP side of the same guarantee lives in ``tests/test_serve.py``);
* a repeated identical request is served from the response cache with
  **zero sizing bisections** (``sizing_solve_count()`` stands still);
* design payloads round-trip exactly — ``MixerDesign.fingerprint()`` is
  preserved bit-for-bit through ``to_dict -> json -> from_dict``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    MixerService,
    RequestValidationError,
    ResponseCache,
    SpecRequest,
    SpecResponse,
)
from repro.api.response_cache import RESPONSE_CACHE_VERSION
from repro.core.config import MixerDesign, MixerMode
from repro.core.transconductance import sizing_solve_count
from repro.experiments import run_fig8, sweep_fig8
from repro.sweep.montecarlo import DeviceSpread, sample_design

from api_test_helpers import EXPERIMENT_NAMES, SMALL_GRIDS, small_request


@pytest.fixture(scope="module")
def service():
    """One shared service so cache behaviour across tests is realistic."""
    return MixerService()


class TestRegistry:
    def test_all_ten_experiments_registered(self, registry):
        assert sorted(registry.names()) == EXPERIMENT_NAMES

    def test_describe_is_json_ready(self, registry):
        for spec in registry:
            payload = json.loads(json.dumps(spec.describe()))
            assert payload["name"] == spec.name
            assert payload["result_schema"] == spec.result_type.__name__
            assert set(payload["default_grid"]) == set(spec.default_grid)

    def test_unknown_experiment_names_the_known_ones(self, registry):
        with pytest.raises(KeyError, match="fig8"):
            registry.get("fig99")

    def test_engine_backed_experiments_are_batchable(self, registry):
        batchable = {spec.name for spec in registry
                     if spec.batch_runner is not None}
        assert batchable == {"fig8", "fig9", "table1",
                             "fig10", "iip2", "p1db",
                             "digital_if", "bits_floor"}

    def test_circuit_checks_reject_engine_options(self, registry):
        # The waveform benches now ride the engines (workers/cache apply);
        # only the point circuit-level checks still reject the options.
        for name in ("power_budget", "tia_response", "ablation"):
            spec = registry.get(name)
            assert not spec.accepts_workers and not spec.accepts_cache
        for name in ("fig10", "iip2", "p1db"):
            spec = registry.get(name)
            assert spec.accepts_workers and spec.accepts_cache


class TestRequestValidation:
    def test_unknown_experiment(self, service):
        with pytest.raises(RequestValidationError, match="unknown experiment"):
            service.submit(SpecRequest(experiment="fig99"))

    def test_unknown_grid_parameter(self, service):
        with pytest.raises(RequestValidationError, match="unknown grid"):
            service.submit(SpecRequest(experiment="fig8",
                                       grid={"rf_points": 10}))

    def test_workers_rejected_where_not_accepted(self, service):
        with pytest.raises(RequestValidationError, match="workers"):
            service.submit(SpecRequest(experiment="power_budget", workers=2))

    def test_request_round_trips_through_json(self, registry):
        request = SpecRequest(experiment="fig8",
                              design=MixerDesign().with_lo(2.0e9),
                              grid={"points": 32}, workers=2)
        rebuilt = SpecRequest.from_dict(json.loads(
            json.dumps(request.to_dict())))
        spec = registry.get("fig8")
        assert rebuilt.request_key(spec) == request.request_key(spec)
        assert rebuilt.design == request.design

    def test_request_key_ignores_execution_options(self, registry):
        spec = registry.get("fig8")
        base = SpecRequest(experiment="fig8", grid={"points": 32})
        tuned = SpecRequest(experiment="fig8", grid={"points": 32},
                            workers=4, cache=True)
        assert base.request_key(spec) == tuned.request_key(spec)

    def test_from_dict_rejects_non_wire_cache_values(self):
        with pytest.raises(RequestValidationError, match="cache"):
            SpecRequest.from_dict({"experiment": "fig8", "cache": [1]})
        assert SpecRequest.from_dict(
            {"experiment": "fig8", "cache": True}).cache is True

    def test_request_key_tracks_design_and_grid(self, registry):
        spec = registry.get("fig8")
        base = SpecRequest(experiment="fig8", grid={"points": 32})
        other_grid = SpecRequest(experiment="fig8", grid={"points": 33})
        other_design = SpecRequest(
            experiment="fig8", grid={"points": 32},
            design=replace(MixerDesign(), load_resistance=3.5e3))
        assert base.request_key(spec) != other_grid.request_key(spec)
        assert base.request_key(spec) != other_design.request_key(spec)


class TestServiceBitIdentity:
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_response_matches_direct_run(self, name, service,
                                         direct_payloads):
        response = service.submit(small_request(name))
        assert response.result_payload == direct_payloads(name)
        assert response.design_fingerprint == MixerDesign().fingerprint()
        assert response.result_schema == type(response.result).__name__

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_repeat_is_cached_with_zero_sizing_solves(self, name, service):
        first = service.submit(small_request(name))
        before = sizing_solve_count()
        again = service.submit(small_request(name))
        assert sizing_solve_count() == before
        assert again.cached and again.source == "memory-cache"
        assert again.result_payload == first.result_payload

    def test_result_decodes_to_the_driver_dataclass(self, service):
        response = service.submit(small_request("fig8"))
        result = response.result
        assert isinstance(result.rf_frequencies_hz, np.ndarray)
        direct = run_fig8(**SMALL_GRIDS["fig8"])
        assert result.peak_gain_db(MixerMode.ACTIVE) == \
            direct.peak_gain_db(MixerMode.ACTIVE)

    def test_report_matches_driver_report(self, service, registry):
        from repro.experiments.fig8_gain_vs_rf import format_report
        response = service.submit(small_request("fig8"))
        assert service.report(response) == \
            format_report(run_fig8(**SMALL_GRIDS["fig8"]))


class TestResponseCache:
    def test_lru_evicts_least_recent(self):
        cache = ResponseCache(lru_size=2)
        for key in ("a", "b", "c"):
            cache.store(key, {"request_key": key})
        assert cache.memory_size == 2
        assert cache.load("a") is None
        entry, tier = cache.load("c")
        assert tier == "memory" and entry["request_key"] == "c"

    def test_disk_tier_survives_a_new_instance(self, tmp_path):
        ResponseCache(tmp_path).store("k", {"request_key": "k", "x": 1.5})
        entry, tier = ResponseCache(tmp_path).load("k")
        assert tier == "disk" and entry["x"] == 1.5

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store("k", {"request_key": "k"})
        cache.clear_memory()
        (tmp_path / "k.json").write_text("{not json", encoding="utf-8")
        assert cache.load("k") is None
        assert cache.corrupt == 1

    def test_key_mismatch_rejected_on_store(self, tmp_path):
        with pytest.raises(ValueError, match="request_key"):
            ResponseCache(tmp_path).store("k", {"request_key": "other"})

    def test_disk_cache_serves_new_service_with_zero_solves(self, tmp_path):
        request = small_request("table1")
        MixerService(response_cache=str(tmp_path)).submit(request)
        fresh = MixerService(response_cache=str(tmp_path))
        before = sizing_solve_count()
        response = fresh.submit(request)
        assert sizing_solve_count() == before
        assert response.source == "disk-cache"

    def test_unversioned_disk_entry_is_recomputed(self, tmp_path):
        # Entries written before the version stamp hold numbers from the
        # bisection-sized devices; they must miss, not serve.
        request = small_request("table1")
        stored = MixerService(response_cache=str(tmp_path)).submit(request)
        path = tmp_path / f"{stored.request_key}.json"
        path.write_text(json.dumps(stored.to_dict()), encoding="utf-8")
        fresh = MixerService(response_cache=str(tmp_path))
        before = sizing_solve_count()
        response = fresh.submit(request)
        assert sizing_solve_count() > before
        assert not response.cached
        assert fresh.response_cache.corrupt == 1
        rewritten = json.loads(path.read_text(encoding="utf-8"))
        assert rewritten["response_cache_version"] == RESPONSE_CACHE_VERSION

    def test_response_cache_off(self):
        service = MixerService(response_cache=False)
        first = service.submit(small_request("power_budget"))
        again = service.submit(small_request("power_budget"))
        assert not first.cached and not again.cached


class TestBatchSubmission:
    @pytest.fixture(scope="class")
    def population(self):
        rng = np.random.default_rng(7)
        nominal = MixerDesign()
        return [sample_design(nominal, rng, DeviceSpread(), f"api-{i}")
                for i in range(3)]

    def test_batch_fig8_matches_individual_submits(self, population):
        requests = [small_request("fig8", design) for design in population]
        batch = MixerService().submit_batch(requests)
        solo = [MixerService(response_cache=False).submit(request)
                for request in requests]
        assert [r.result_payload for r in batch] == \
            [r.result_payload for r in solo]

    def test_batch_table1_matches_individual_submits(self, population):
        requests = [small_request("table1", design) for design in population]
        batch = MixerService().submit_batch(requests)
        solo = [MixerService(response_cache=False).submit(request)
                for request in requests]
        assert [r.result_payload for r in batch] == \
            [r.result_payload for r in solo]

    def test_batch_mixes_cached_and_computed(self, population):
        service = MixerService()
        warmed = service.submit(small_request("fig8", population[0]))
        responses = service.submit_batch(
            [small_request("fig8", design) for design in population])
        assert responses[0].cached
        assert responses[0].result_payload == warmed.result_payload
        assert not responses[1].cached and not responses[2].cached

    def test_batch_honours_per_request_options(self, population, tmp_path):
        # Requests with different execution options land in different
        # groups; the one asking for a spec cache actually populates it.
        requests = [small_request("fig8", population[0]),
                    SpecRequest(experiment="fig8", design=population[1],
                                grid=SMALL_GRIDS["fig8"],
                                cache=str(tmp_path))]
        responses = MixerService().submit_batch(requests)
        solo = [MixerService(response_cache=False).submit(request)
                for request in requests]
        assert [r.result_payload for r in responses] == \
            [r.result_payload for r in solo]
        assert list(tmp_path.glob("*.json")), "spec cache was not used"

    def test_concurrent_stores_of_one_key_do_not_race(self, tmp_path):
        import threading
        cache = ResponseCache(tmp_path)
        errors: list[Exception] = []

        def hammer() -> None:
            try:
                for _ in range(50):
                    cache.store("k", {"request_key": "k", "x": 1.0})
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.load("k") is not None

    def test_batch_falls_back_for_unbatchable_experiments(self, population):
        requests = [small_request("power_budget", design)
                    for design in population[:2]]
        responses = MixerService().submit_batch(requests)
        assert len(responses) == 2
        assert all(r.result_schema == "PowerBudgetResult" for r in responses)

    def test_sweep_fig8_batch_is_bit_identical_to_solo_runs(self, population):
        designs = {f"d{i}": design for i, design in enumerate(population)}
        batch = sweep_fig8(designs, points=24)
        for label, design in designs.items():
            solo = run_fig8(design, points=24)
            assert np.array_equal(batch[label].active_gain_db,
                                  solo.active_gain_db)
            assert np.array_equal(batch[label].passive_gain_db,
                                  solo.passive_gain_db)


class TestBatchAlignment:
    """submit_batch must never return a silently shortened/misaligned list."""

    def _echo_service(self):
        from api_test_helpers import echo_registry
        return MixerService(registry=echo_registry(), response_cache=False)

    def _requests(self, drop_nth: int = -1) -> list[SpecRequest]:
        designs = [MixerDesign(),
                   MixerDesign().with_gain_setting(1.05),
                   MixerDesign().with_gain_setting(1.10)]
        return [SpecRequest(experiment="echo_batch", design=design,
                            grid={"drop_nth": drop_nth})
                for design in designs]

    def test_order_preserved_across_batch_group(self):
        service = self._echo_service()
        requests = self._requests()
        responses = service.submit_batch(requests)
        assert len(responses) == len(requests)
        assert [r.design_fingerprint for r in responses] == \
            [request.design.fingerprint() for request in requests]

    def test_dropped_member_raises_instead_of_misaligning(self):
        service = self._echo_service()
        with pytest.raises(RuntimeError, match="returned no result"):
            service.submit_batch(self._requests(drop_nth=1))


class TestDesignRoundTrip:
    def test_fingerprint_preserved_bit_exactly(self):
        design = MixerDesign()
        rebuilt = MixerDesign.from_dict(json.loads(
            json.dumps(design.to_dict())))
        assert rebuilt == design
        assert rebuilt.fingerprint() == design.fingerprint()

    def test_perturbed_design_round_trips(self):
        rng = np.random.default_rng(3)
        design = sample_design(MixerDesign(), rng, DeviceSpread(), "rt")
        rebuilt = MixerDesign.from_dict(json.loads(
            json.dumps(design.to_dict())))
        assert rebuilt == design
        assert rebuilt.fingerprint() == design.fingerprint()
        assert rebuilt.technology == design.technology

    def test_unknown_field_rejected(self):
        payload = MixerDesign().to_dict()
        payload["not_a_parameter"] = 1.0
        with pytest.raises(ValueError, match="not_a_parameter"):
            MixerDesign.from_dict(payload)

    def test_missing_fields_fall_back_to_defaults(self):
        rebuilt = MixerDesign.from_dict({"load_resistance": 3.5e3})
        assert rebuilt.load_resistance == 3.5e3
        assert rebuilt.technology == MixerDesign().technology

    def test_response_round_trips_through_json(self, service=None):
        service = MixerService()
        response = service.submit(small_request("tia_response"))
        rebuilt = SpecResponse.from_dict(json.loads(
            json.dumps(response.to_dict())))
        assert rebuilt.result_payload == response.result_payload
        assert rebuilt.request_key == response.request_key
