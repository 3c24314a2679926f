"""Tests for the corner-aware yield optimiser (repro.optimize).

The load-bearing guarantees, straight from the acceptance bar:

* same seed + targets => **identical best-design fingerprint** for any
  worker count, and through the HTTP and CLI surfaces;
* the best-so-far yield history is monotone (the incumbent is never lost)
  and every reported yield is consistent with its candidate score card;
* targets parse/validate symmetrically between their typed and wire forms,
  so a search is expressible identically from every surface.
"""

from __future__ import annotations

import hashlib
import json
import urllib.request

import numpy as np
import pytest

from repro.api import MixerService, SpecRequest, decode, encode
from repro.cli import main as cli_main
from repro.core.config import MixerDesign, MixerMode
from repro.optimize import (
    DEFAULT_KNOBS,
    SpecTarget,
    default_targets,
    parse_targets,
    run_yield_opt,
)
from repro.optimize.search import format_report
from repro.serve import create_server, serve_in_thread

from api_test_helpers import ACTIVE_TARGETS

#: Active-mode-only tiny search shared by the determinism tests: 3
#: candidates x 2 iterations x 4 corners, one mode — fast enough to run
#: several times per module.
TINY = dict(population=3, iterations=2, num_samples=4,
            targets=ACTIVE_TARGETS)

#: Pins of the default ``yield_opt`` request: the SHA-256 of its result
#: payload (``json.dumps(..., sort_keys=True)``), its request key, and its
#: registry listing (the ``GET /v1/experiments`` entry, key order
#: included).  Any change to the search loop or to how its grid is declared
#: must keep all three byte-identical.
DEFAULT_RESULT_SHA256 = \
    "74b2ea6ad1fd5491674936bfad436c634db516cbb5fb9d9a7274727ee1dd0d5a"
DEFAULT_REQUEST_KEY = \
    "fd278aa88d01367c33a6848e96c2b9564a30e02600b619ed00ba42d37a00b9b3"
DEFAULT_GRID = {
    "targets": [["conversion_gain_db", "active", 28.9, None],
                ["noise_figure_db", "active", None, 7.85],
                ["iip3_dbm", "active", -12.4, None],
                ["power_mw", "active", None, 9.86],
                ["conversion_gain_db", "passive", 25.2, None],
                ["noise_figure_db", "passive", None, 10.45],
                ["iip3_dbm", "passive", 6.07, None],
                ["power_mw", "passive", None, 9.74]],
    "knobs": ["tca_gm", "tca_bias_current", "load_resistance",
              "feedback_resistance", "degeneration_resistance",
              "quad_switch_width"],
    "population": 8, "iterations": 3, "num_samples": 16, "seed": 20150901,
    "search_span": 0.12, "shrink": 0.5, "strategy": "shrinking_span",
}
DEFAULT_DESCRIBE = {
    "name": "yield_opt",
    "artefact": ("Table I targets under process spread "
                 "\u2014 yield optimisation"),
    "summary": ("Search the design knobs for maximum Monte-Carlo yield "
                "against configurable Table I spec targets"),
    "result_schema": "YieldOptResult",
    "default_grid": DEFAULT_GRID,
    "accepts_workers": True,
    "accepts_cache": True,
    "batchable": False,
}


@pytest.fixture(scope="module")
def tiny_result():
    return run_yield_opt(**TINY)


class TestTargets:
    def test_default_targets_cover_both_modes(self):
        targets = default_targets()
        modes = {target.mode for target in targets}
        assert modes == {MixerMode.ACTIVE, MixerMode.PASSIVE}
        assert all(target.minimum is not None or target.maximum is not None
                   for target in targets)

    def test_wire_round_trip(self):
        target = SpecTarget("iip3_dbm", MixerMode.PASSIVE, minimum=6.0)
        rebuilt = SpecTarget.from_wire(json.loads(json.dumps(
            target.to_wire())))
        assert rebuilt == target
        assert rebuilt.key == "passive:iip3_dbm"

    def test_parse_accepts_mixed_forms(self):
        parsed = parse_targets([
            SpecTarget("power_mw", MixerMode.ACTIVE, maximum=9.9),
            ["conversion_gain_db", "active", 28.9, None],
        ])
        assert [target.key for target in parsed] == \
            ["active:power_mw", "active:conversion_gain_db"]

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_targets([["power_mw", "active", None, 9.9],
                           ["power_mw", "active", None, 9.5]])

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown spec"):
            SpecTarget("gain", MixerMode.ACTIVE, minimum=0.0)

    def test_unbounded_target_rejected(self):
        with pytest.raises(ValueError, match="minimum and/or a maximum"):
            SpecTarget("power_mw", MixerMode.ACTIVE)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="minimum > maximum"):
            SpecTarget("power_mw", MixerMode.ACTIVE, minimum=10.0,
                       maximum=9.0)

    def test_passes_is_inclusive(self):
        target = SpecTarget("power_mw", MixerMode.ACTIVE, minimum=1.0,
                            maximum=2.0)
        mask = target.passes(np.array([0.5, 1.0, 1.5, 2.0, 2.5]))
        assert mask.tolist() == [False, True, True, True, False]


class TestSearchValidation:
    def test_population_floor(self):
        with pytest.raises(ValueError, match="population"):
            run_yield_opt(population=1, **{k: v for k, v in TINY.items()
                                           if k != "population"})

    def test_unsearchable_knob_rejected(self):
        with pytest.raises(ValueError, match="unsearchable"):
            run_yield_opt(knobs=["lo_frequency"], **TINY)

    def test_duplicate_knob_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_yield_opt(knobs=["tca_gm", "tca_gm"], **TINY)

    def test_bad_shrink_rejected(self):
        with pytest.raises(ValueError, match="shrink"):
            run_yield_opt(shrink=0.0, **TINY)


class TestSearchBehaviour:
    def test_baseline_is_the_incoming_design(self, tiny_result):
        first = tiny_result.candidates[0]
        assert first.label == "i00-c00"
        assert first.design_fingerprint == \
            tiny_result.initial_design.fingerprint()
        assert tiny_result.baseline_yield == first.overall_yield

    def test_history_is_monotone_best_so_far(self, tiny_result):
        history = tiny_result.history
        assert len(history) == tiny_result.iterations
        assert np.all(np.diff(history) >= 0)
        assert history[-1] == tiny_result.best_yield
        assert tiny_result.best_yield >= tiny_result.baseline_yield

    def test_best_matches_its_candidate_score_card(self, tiny_result):
        by_label = {candidate.label: candidate
                    for candidate in tiny_result.candidates}
        best = by_label[tiny_result.best_label]
        assert best.overall_yield == tiny_result.best_yield
        assert best.spec_yields == tiny_result.best_spec_yields
        assert best.design_fingerprint == tiny_result.best_fingerprint()

    def test_overall_yield_bounded_by_spec_yields(self, tiny_result):
        for candidate in tiny_result.candidates:
            assert 0.0 <= candidate.overall_yield <= 1.0
            assert candidate.overall_yield <= \
                min(candidate.spec_yields.values()) + 1e-12

    def test_evaluation_count(self, tiny_result):
        assert tiny_result.evaluations == \
            tiny_result.population * tiny_result.iterations * \
            tiny_result.num_samples
        assert len(tiny_result.candidates) == \
            tiny_result.population * tiny_result.iterations

    def test_report_names_every_target(self, tiny_result):
        report = format_report(tiny_result)
        for target in tiny_result.targets:
            assert target.key in report
        assert "baseline" in report and "knob shifts" in report

    def test_default_knobs_move_in_search(self, tiny_result):
        shifts = tiny_result.knob_shifts()
        assert set(shifts) == set(DEFAULT_KNOBS)


class TestDeterminism:
    def test_worker_count_does_not_change_the_answer(self, tiny_result):
        sharded = run_yield_opt(workers=2, **TINY)
        assert sharded.best_fingerprint() == tiny_result.best_fingerprint()
        assert sharded.best_yield == tiny_result.best_yield
        assert encode(sharded) == encode(tiny_result)

    def test_seed_changes_the_proposals(self, tiny_result):
        reseeded = run_yield_opt(seed=7, **TINY)
        proposed = {candidate.design_fingerprint
                    for candidate in reseeded.candidates[1:]}
        original = {candidate.design_fingerprint
                    for candidate in tiny_result.candidates[1:]}
        assert proposed != original

    def test_spec_cache_does_not_change_the_answer(self, tiny_result,
                                                   tmp_path):
        cold = run_yield_opt(cache=str(tmp_path), **TINY)
        warm = run_yield_opt(cache=str(tmp_path), **TINY)
        assert encode(cold) == encode(tiny_result)
        assert encode(warm) == encode(tiny_result)


class TestSurfaces:
    @pytest.fixture(scope="class")
    def base_url(self):
        server = create_server()
        thread = serve_in_thread(server)
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_http_returns_the_same_best_fingerprint(self, base_url,
                                                    tiny_result):
        request = SpecRequest(experiment="yield_opt", grid=dict(TINY))
        body = json.dumps(request.to_dict()).encode("utf-8")
        http_request = urllib.request.Request(
            base_url + "/v1/spec", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(http_request, timeout=300) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["result"] == json.loads(json.dumps(
            encode(tiny_result)))
        served = decode(payload["result"])
        assert isinstance(served.best_design, MixerDesign)
        assert served.best_fingerprint() == tiny_result.best_fingerprint()

    def test_cli_returns_the_same_best_fingerprint(self, capsys,
                                                   tiny_result):
        assert cli_main([
            "run", "yield_opt",
            "--grid", "population=3",
            "--grid", "iterations=2",
            "--grid", "num_samples=4",
            "--grid", f"targets={json.dumps(ACTIVE_TARGETS)}",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == encode(tiny_result)
        service = MixerService(response_cache=False)
        response = service.submit(SpecRequest(experiment="yield_opt",
                                              grid=dict(TINY)))
        assert payload["result"] == response.result_payload
        assert response.result.best_fingerprint() == \
            tiny_result.best_fingerprint()


class TestDefaultRunPins:
    def test_default_result_and_request_key(self):
        response = MixerService(response_cache=False).submit(
            SpecRequest("yield_opt"))
        result = json.dumps(response.to_dict()["result"], sort_keys=True)
        assert hashlib.sha256(result.encode("utf-8")).hexdigest() == \
            DEFAULT_RESULT_SHA256
        assert response.request_key == DEFAULT_REQUEST_KEY

    def test_registry_listing(self, registry):
        assert json.dumps(registry.get("yield_opt").describe()) == \
            json.dumps(DEFAULT_DESCRIBE)
