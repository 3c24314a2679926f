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

import contextlib
import inspect
import json
import os
import sqlite3
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

import repro.experiments
import repro.sweep.cache as cache_module
from repro.api import (
    MixerService,
    RequestValidationError,
    ResponseCache,
    SpecRequest,
    SpecResponse,
    encode,
)
from repro.api.registry import (
    GLOBAL_REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    register_experiment,
)
from repro.api.response_cache import RESPONSE_CACHE_VERSION
from repro.core.config import MixerDesign, MixerMode
from repro.core.transconductance import sizing_solve_count
from repro.experiments import run_fig8, sweep_fig8
from repro.sweep.montecarlo import DeviceSpread, sample_design

from api_test_helpers import (
    EXPERIMENT_NAMES,
    SMALL_GRIDS,
    EchoResult,
    small_request,
)


#: The engine-backed experiments: each declares a ``sweep_*`` batch
#: function and gets its ``run_*`` solo runner derived from it.
BATCHABLE = ["fig8", "fig9", "fig10", "table1", "iip2", "p1db",
             "digital_if", "bits_floor"]


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
        assert batchable == set(BATCHABLE)

    @pytest.mark.parametrize("name", BATCHABLE)
    def test_derived_runner_signature(self, name, registry):
        spec = registry.get(name)
        runner = getattr(repro.experiments, f"run_{name}")
        assert runner is spec.runner
        assert runner.__name__ == f"run_{name}"
        assert list(inspect.signature(runner).parameters) == \
            ["design", *spec.default_grid, "workers", "cache"]
        assert spec.accepts_workers and spec.accepts_cache

    @pytest.mark.parametrize("name", BATCHABLE)
    def test_derived_runner_rejects_bad_arguments(self, name, registry):
        spec = registry.get(name)
        with pytest.raises(TypeError, match="MixerDesign"):
            spec.runner(MixerDesign().to_dict())
        with pytest.raises(TypeError, match="bogus"):
            spec.runner(bogus=1)

    @pytest.mark.parametrize("name", BATCHABLE)
    def test_derived_runner_is_a_one_member_batch(self, name, registry,
                                                  direct_payloads):
        # run_x() runs the paper design; run_x(d) equals d's member of a
        # two-design batch call.
        spec = registry.get(name)
        other = replace(MixerDesign(), load_resistance=3.5e3)
        batch = spec.batch_runner({"paper": MixerDesign(), "other": other},
                                  **SMALL_GRIDS[name])
        assert encode(spec.runner(**SMALL_GRIDS[name])) == \
            encode(batch["paper"]) == direct_payloads(name)
        assert encode(spec.runner(other, **SMALL_GRIDS[name])) == \
            encode(batch["other"])

    def test_register_rejects_a_grid_parameter_without_default(self):
        def sweep_bad(designs, points, workers=None, cache=None):
            raise AssertionError("never called")

        with pytest.raises(TypeError, match="'points'"):
            register_experiment(name="bad", artefact="-", summary="-",
                                batch_runner=sweep_bad, result_type=dict,
                                report=str)
        assert "bad" not in GLOBAL_REGISTRY

    def test_register_needs_exactly_one_runner(self):
        for runners in ({}, {"runner": run_fig8, "batch_runner": sweep_fig8}):
            with pytest.raises(TypeError, match="exactly one"):
                register_experiment(name="bad", artefact="-", summary="-",
                                    result_type=dict, report=str, **runners)
        assert "bad" not in GLOBAL_REGISTRY

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
                            workers=4)
        assert base.request_key(spec) == tuned.request_key(spec)

    def test_from_dict_rejects_a_cache_field(self):
        # The engine cache is the service's (spec_cache=), not a request's.
        for cache in (True, "/any/path"):
            with pytest.raises(RequestValidationError,
                               match=r"unknown request fields \['cache'\]"):
                SpecRequest.from_dict({"experiment": "fig8", "cache": cache})
        with pytest.raises(TypeError):
            SpecRequest(experiment="fig8", cache=True)

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


def _rows(directory, table: str = "responses") -> dict[str, str]:
    """Every row of one table of a cache directory's database, by key."""
    database = directory / cache_module.DATABASE_NAME
    with contextlib.closing(sqlite3.connect(database)) as connection:
        return dict(connection.execute(f"SELECT key, entry FROM {table}"))


def _set_response_row(directory, key: str, entry: str) -> None:
    """Overwrite one stored response row from a second connection."""
    database = directory / cache_module.DATABASE_NAME
    with contextlib.closing(sqlite3.connect(database)) as connection:
        with connection:
            connection.execute("UPDATE responses SET entry = ? WHERE key = ?",
                               (entry, key))


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
        other_version = json.dumps({
            "request_key": "k",
            "response_cache_version": RESPONSE_CACHE_VERSION - 1})
        for count, text in enumerate(["{not json", other_version], start=1):
            cache.store("k", {"request_key": "k"})
            cache.clear_memory()
            _set_response_row(tmp_path, "k", text)
            assert cache.load("k") is None
            assert (cache.corrupt, cache.misses) == (count, count)
        cache.store("k", {"request_key": "k"})
        cache.clear_memory()
        assert cache.load("k") == ({"request_key": "k"}, "disk")

    def test_legacy_json_entry_is_a_plain_miss(self, tmp_path):
        # The file-per-entry layout stored ``<key>.json``; such files are
        # ignored, and a read creates no database.
        (tmp_path / "k.json").write_text(json.dumps({
            "request_key": "k",
            "response_cache_version": RESPONSE_CACHE_VERSION}),
            encoding="utf-8")
        cache = ResponseCache(tmp_path)
        assert cache.load("k") is None
        assert (cache.misses, cache.corrupt) == (1, 0)
        assert not (tmp_path / cache_module.DATABASE_NAME).exists()

    def test_shares_the_spec_cache_database(self, tmp_path):
        service = MixerService(response_cache=tmp_path, spec_cache=tmp_path)
        service.submit(small_request("table1"))
        name = cache_module.DATABASE_NAME
        assert {path.name for path in tmp_path.iterdir()} <= \
            {name, f"{name}-wal", f"{name}-shm"}
        cells = _rows(tmp_path, "cells")
        assert cells and len(_rows(tmp_path)) == 1
        for key in ("k1", "k2"):
            ResponseCache(tmp_path).store(key, {"request_key": key})
        assert _rows(tmp_path, "cells") == cells
        assert len(_rows(tmp_path)) == 3

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

    def test_disk_hit_serves_the_computed_bytes(self, tmp_path):
        request = small_request("fig8")
        computed = MixerService(response_cache=tmp_path).submit(request)
        hit = MixerService(response_cache=tmp_path).submit(request)
        assert hit.source == "disk-cache"
        assert json.dumps(hit.to_dict()["result"]) == \
            json.dumps(computed.to_dict()["result"])

    def test_unversioned_disk_entry_is_recomputed(self, tmp_path):
        # Entries written before the version stamp hold numbers from the
        # bisection-sized devices; they must miss, not serve.
        request = small_request("table1")
        stored = MixerService(response_cache=str(tmp_path)).submit(request)
        key = stored.request_key
        _set_response_row(tmp_path, key, json.dumps(stored.to_dict()))
        fresh = MixerService(response_cache=str(tmp_path))
        before = sizing_solve_count()
        response = fresh.submit(request)
        assert sizing_solve_count() > before
        assert not response.cached
        assert fresh.response_cache.corrupt == 1
        rewritten = json.loads(_rows(tmp_path)[key])
        assert rewritten["response_cache_version"] == RESPONSE_CACHE_VERSION

    def test_failed_disk_write_is_counted_not_raised(self, tmp_path,
                                                     monkeypatch):
        def read_only(path):
            return sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                                   check_same_thread=False)

        request = small_request("table1")
        uncached = MixerService(response_cache=False).submit(request)
        ResponseCache(tmp_path).store("k", {"request_key": "k"})
        # A fresh connection registry, so the service's store opens the
        # database read-only and its INSERT fails.
        monkeypatch.setattr(cache_module, "_open", read_only)
        monkeypatch.setattr(cache_module, "_connections", OrderedDict())
        service = MixerService(response_cache=str(tmp_path))
        response = service.submit(request)
        assert response.to_dict()["result"] == uncached.to_dict()["result"]
        stats = service.response_cache.stats()
        assert (stats["write_errors"], stats["corrupt"]) == (1, 0)
        assert list(_rows(tmp_path)) == ["k"]

    def test_response_cache_off(self):
        service = MixerService(response_cache=False)
        first = service.submit(small_request("power_budget"))
        again = service.submit(small_request("power_budget"))
        assert not first.cached and not again.cached


def _workers_spy_registry(seen: list) -> ExperimentRegistry:
    """A process-free ``spy`` experiment recording each call's ``workers``."""
    def run_spy(design, *, value: float = 1.0, workers=None):
        seen.append(workers)
        return EchoResult(label=design.fingerprint()[:12], value=value)

    def batch_spy(designs, *, value: float = 1.0, workers=None):
        seen.append(workers)
        return {fingerprint: EchoResult(label=fingerprint[:12], value=value)
                for fingerprint in designs}

    registry = ExperimentRegistry()
    registry.register(ExperimentSpec(
        name="spy", artefact="test fixture", summary="captures workers",
        runner=run_spy, result_type=EchoResult,
        report=lambda result: "", default_grid={"value": 1.0},
        accepts_cache=False, batch_runner=batch_spy))
    return registry


def _fig8_spy_registry(calls: list) -> ExperimentRegistry:
    """fig8 with its batch runner wrapped to record each call's size."""
    spec = GLOBAL_REGISTRY.get("fig8")

    def sweep_fig8_spy(designs, **kwargs):
        calls.append(len(designs))
        return spec.batch_runner(designs, **kwargs)

    registry = ExperimentRegistry()
    registry.register(replace(spec, batch_runner=sweep_fig8_spy))
    return registry


def _lookups(service: MixerService) -> dict:
    stats = service.response_cache.stats()
    return {"hits": stats["memory_hits"] + stats["disk_hits"],
            "misses": stats["misses"], "stores": stats["stores"]}


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

    def test_batch_honours_per_request_options(self, population):
        # Requests with different workers= land in different groups, and
        # each group's engine call gets its own members' option.
        seen: list = []
        spec = GLOBAL_REGISTRY.get("fig8")

        def sweep_fig8_spy(designs, **kwargs):
            seen.append(kwargs.get("workers"))
            return spec.batch_runner(designs, **kwargs)

        registry = ExperimentRegistry()
        registry.register(replace(spec, batch_runner=sweep_fig8_spy))
        requests = [SpecRequest(experiment="fig8", design=design,
                                grid=SMALL_GRIDS["fig8"], workers=workers)
                    for design, workers in zip(population + population[:1],
                                               (None, None, 1, 1))]
        responses = MixerService(registry=registry).submit_batch(requests)
        solo = [MixerService(response_cache=False).submit(request)
                for request in requests]
        assert [r.result_payload for r in responses] == \
            [r.result_payload for r in solo]
        assert seen == [None, 1]

    def test_served_workers_capped_at_cpu_count(self, population,
                                                monkeypatch):
        # Results are bit-identical for any worker count, so a request may
        # not make the server hold more pool processes than it has CPUs.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        seen: list = []
        registry = _workers_spy_registry(seen)
        service = MixerService(registry=registry, response_cache=False)
        service.submit(SpecRequest(experiment="spy", workers=10_000))
        service.submit_batch([SpecRequest(experiment="spy", design=design,
                                          workers=10_000)
                              for design in population[:2]])
        assert seen == [3, 3]
        defaulted = MixerService(registry=registry, response_cache=False,
                                 workers=10_000)
        defaulted.submit(SpecRequest(experiment="spy", workers=2))
        defaulted.submit(SpecRequest(experiment="spy", grid={"value": 2.0}))
        assert seen == [3, 3, 2, 3]

    def test_batch_groups_on_the_capped_workers(self, monkeypatch):
        # 4 and 8 both cap to 2 CPUs, so the twins share one engine run;
        # None and 1 stay apart (test_identical_members_store_one_entry).
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seen: list = []
        service = MixerService(registry=_workers_spy_registry(seen),
                               response_cache=False)
        responses = service.submit_batch(
            [SpecRequest(experiment="spy", workers=workers)
             for workers in (4, 8)])
        assert seen == [2]
        assert responses[0].result_payload == responses[1].result_payload

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

    def test_solo_submit_is_a_batch_of_one(self):
        calls: list = []
        service = MixerService(registry=_fig8_spy_registry(calls))
        response = service.submit(small_request("fig8"))
        assert _lookups(service) == {"hits": 0, "misses": 1, "stores": 1}
        assert calls == [1]
        assert response.source == "computed"

    def test_batch_of_one_point_request_looks_up_once(self):
        service = MixerService()
        service.submit_batch([small_request("power_budget")])
        assert _lookups(service) == {"hits": 0, "misses": 1, "stores": 1}

    @pytest.mark.parametrize("response_cache", [False, None])
    def test_identical_members_share_one_engine_run(self, response_cache):
        calls: list = []
        service = MixerService(registry=_fig8_spy_registry(calls),
                               response_cache=response_cache)
        responses = service.submit_batch([small_request("fig8")] * 2)
        assert calls == [1]
        assert [r.source for r in responses] == ["computed", "computed"]
        assert responses[0].result_payload == responses[1].result_payload
        if response_cache is None:
            lookups = _lookups(service)
            assert (lookups["hits"], lookups["misses"]) == (0, 2)

    @pytest.mark.parametrize("workers", [None, 1],
                             ids=["one-group", "two-groups"])
    def test_identical_members_store_one_entry(self, tmp_path, workers):
        # A twin with other ``workers`` runs in its own group but shares
        # the request key, which must still be stored (and written) once.
        calls: list = []
        service = MixerService(registry=_fig8_spy_registry(calls),
                               response_cache=tmp_path)
        twin = replace(small_request("fig8"), workers=workers)
        service.submit_batch([small_request("fig8"), twin])
        assert calls == ([1] if workers is None else [1, 1])
        stats = service.response_cache.stats()
        assert stats["disk_tier"]
        assert (stats["stores"], stats["memory_entries"],
                stats["write_errors"]) == (1, 1, 0)
        assert len(_rows(tmp_path)) == 1

    def test_mixed_batch_counts_one_hit_per_warmed_member(self, population):
        calls: list = []
        service = MixerService(registry=_fig8_spy_registry(calls))
        for design in (population[0], population[2]):
            service.submit(small_request("fig8", design))
        calls.clear()
        before = _lookups(service)
        responses = service.submit_batch(
            [small_request("fig8", design) for design in population])
        after = _lookups(service)
        assert {name: after[name] - before[name] for name in after} == \
            {"hits": 2, "misses": 1, "stores": 1}
        assert calls == [1]
        assert [r.cached for r in responses] == [True, False, True]

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
