"""Tests for the multi-objective Pareto optimiser (repro.optimize.pareto).

The load-bearing guarantees, straight from the acceptance bar:

* the final front is **bit-identical** — same design fingerprints, same
  objective vectors, same order — for workers=1 vs workers=4 and through
  the in-process, HTTP and CLI surfaces;
* a :class:`ParetoFront` survives the strict-JSON wire exactly, including
  non-finite objective values (tagged, never a bare ``Infinity`` token);
* dominance/rank/crowding follow the NSGA-II conventions and are
  deterministic under permutation of the input points.
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
    Objective,
    ParetoFront,
    ParetoPoint,
    default_objectives,
    parse_objectives,
    run_pareto_opt,
    run_yield_opt,
)
from repro.optimize.pareto import (
    crowding_distance,
    format_pareto_report,
    nondominated_rank,
    pareto_mask,
    pareto_order,
)
from repro.serve import create_server, serve_in_thread

from api_test_helpers import ACTIVE_TARGETS

#: Tiny multi-objective search shared by the determinism tests (the same
#: scale as test_optimize.TINY: 3 candidates x 2 generations x 4 corners).
TINY = dict(population=3, iterations=2, num_samples=4,
            targets=ACTIVE_TARGETS)

#: Pins of the default ``yield_pareto`` request: the SHA-256 of its result
#: payload (``json.dumps(..., sort_keys=True)``), its request key, and its
#: registry listing (the ``GET /v1/experiments`` entry, key order
#: included).  Any change to the search loop or to how its grid is declared
#: must keep all three byte-identical.
DEFAULT_RESULT_SHA256 = \
    "84bf07c4abae3c4202fe796c66c2f0fb6de835d2b4c21c63beaec8103bb74c1d"
DEFAULT_REQUEST_KEY = \
    "d3407ab2b505460dac39cc65cb8a6696ab98b1b1fee08ea78461864f4430ecf8"
DEFAULT_GRID = {
    "targets": [["conversion_gain_db", "active", 28.9, None],
                ["noise_figure_db", "active", None, 7.85],
                ["iip3_dbm", "active", -12.4, None],
                ["power_mw", "active", None, 9.86],
                ["conversion_gain_db", "passive", 25.2, None],
                ["noise_figure_db", "passive", None, 10.45],
                ["iip3_dbm", "passive", 6.07, None],
                ["power_mw", "passive", None, 9.74]],
    "objectives": [["yield", None, "max"], ["power_mw", "active", "min"],
                   ["conversion_gain_db", "active", "max"]],
    "knobs": ["tca_gm", "tca_bias_current", "load_resistance",
              "feedback_resistance", "degeneration_resistance",
              "quad_switch_width"],
    "population": 8, "iterations": 3, "num_samples": 16, "seed": 20150901,
    "search_span": 0.12, "shrink": 0.5, "strategy": "shrinking_span",
}
DEFAULT_DESCRIBE = {
    "name": "yield_pareto",
    "artefact": ("Gain/power/yield trade-off under process spread "
                 "\u2014 Pareto front"),
    "summary": ("Maintain a non-dominated front over configurable objectives "
                "(Monte-Carlo yield, power, gain, any targetable spec metric)"),
    "result_schema": "ParetoOptResult",
    "default_grid": DEFAULT_GRID,
    "accepts_workers": True,
    "accepts_cache": True,
    "batchable": False,
}


@pytest.fixture(scope="module")
def tiny_front():
    return run_pareto_opt(**TINY)


def _point(label: str, values, design: MixerDesign | None = None,
           **design_changes) -> ParetoPoint:
    from dataclasses import replace
    design = design if design is not None else MixerDesign()
    if design_changes:
        design = replace(design, **design_changes)
    return ParetoPoint(label=label, design=design,
                       objectives=np.asarray(values, dtype=float),
                       overall_yield=0.5, spec_yields={})


class TestObjective:
    def test_yield_objective_is_modeless(self):
        objective = Objective("yield")
        assert objective.key == "yield"
        assert objective.sign == 1.0
        with pytest.raises(ValueError, match="mode-less"):
            Objective("yield", MixerMode.ACTIVE)

    def test_spec_objective_needs_a_mode(self):
        objective = Objective("power_mw", MixerMode.ACTIVE, "min")
        assert objective.key == "active:power_mw"
        assert objective.sign == -1.0
        with pytest.raises(ValueError, match="needs a MixerMode"):
            Objective("power_mw")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown objective metric"):
            Objective("gain", MixerMode.ACTIVE)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            Objective("yield", direction="up")

    def test_wire_round_trip(self):
        for objective in default_objectives() + (
                Objective("waveform_iip3_dbm", MixerMode.PASSIVE, "max"),):
            rebuilt = Objective.from_wire(json.loads(json.dumps(
                objective.to_wire())))
            assert rebuilt == objective

    def test_parse_defaults_and_mixed_forms(self):
        assert parse_objectives(None) == default_objectives()
        parsed = parse_objectives([
            Objective("yield"),
            ["noise_figure_db", "active", "min"],
        ])
        assert [objective.key for objective in parsed] == \
            ["yield", "active:noise_figure_db"]

    def test_parse_needs_two_objectives(self):
        with pytest.raises(ValueError, match="at least two"):
            parse_objectives([["yield", None, "max"]])

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate objective"):
            parse_objectives([["yield", None, "max"], ["yield", None, "max"]])


class TestDominance:
    def test_pareto_mask_drops_dominated_rows(self):
        signed = np.array([[1.0, 1.0], [0.5, 0.5], [2.0, 0.0], [0.0, 2.0]])
        assert pareto_mask(signed).tolist() == [True, False, True, True]

    def test_duplicate_rows_both_survive(self):
        signed = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        assert pareto_mask(signed).tolist() == [True, True, False]

    def test_rank_counts_fronts(self):
        signed = np.array([[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
        assert nondominated_rank(signed).tolist() == [0, 1, 2]

    def test_crowding_boundaries_are_infinite(self):
        signed = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        crowding = crowding_distance(signed)
        assert crowding[0] == np.inf and crowding[-1] == np.inf
        assert np.all(np.isfinite(crowding[1:-1]))

    def test_order_is_rank_then_crowding_then_index(self):
        signed = np.array([[0.0, 3.0], [1.4, 1.5], [1.5, 1.4], [3.0, 0.0],
                           [0.5, 0.5]])
        order = pareto_order(signed)
        # The dominated interior point comes last; the spread boundary
        # points (infinite crowding) lead their front, index breaking ties.
        assert order[-1] == 4
        assert set(order[:2]) == {0, 3}
        assert order[0] == 0


class TestFront:
    def test_from_points_filters_and_orders(self):
        objectives = [Objective("yield"),
                      Objective("power_mw", MixerMode.ACTIVE, "min")]
        points = [
            _point("b", [0.5, 8.0], tca_gm=0.021),
            _point("a", [0.9, 10.0], tca_gm=0.022),
            _point("dominated", [0.4, 11.0], tca_gm=0.023),
        ]
        front = ParetoFront.from_points(objectives, points)
        assert [point.label for point in front.points] == ["a", "b"]
        permuted = ParetoFront.from_points(objectives, points[::-1])
        assert permuted.fingerprints() == front.fingerprints()
        assert np.array_equal(permuted.objective_matrix(),
                              front.objective_matrix())

    def test_fingerprint_dedupe_keeps_first(self):
        objectives = [Objective("yield"),
                      Objective("power_mw", MixerMode.ACTIVE, "min")]
        # Same design twice with equal scores: one survivor.
        front = ParetoFront.from_points(objectives, [
            _point("x", [0.5, 8.0]), _point("y", [0.5, 8.0])])
        assert [point.label for point in front.points] == ["x"]

    def test_merged_with_keeps_running_front(self):
        objectives = [Objective("yield"),
                      Objective("power_mw", MixerMode.ACTIVE, "min")]
        front = ParetoFront.from_points(
            objectives, [_point("g0", [0.5, 9.0], tca_gm=0.021)])
        merged = front.merged_with(
            [_point("g1", [0.9, 8.0], tca_gm=0.022)])
        assert [point.label for point in merged.points] == ["g1"]

    def test_snapshot_is_strict_json_with_nonfinite_tags(self):
        objectives = [Objective("yield"),
                      Objective("waveform_p1db_dbm", MixerMode.ACTIVE)]
        front = ParetoFront.from_points(objectives, [
            _point("edge", [0.5, np.inf])])
        snapshot = front.snapshot()
        text = json.dumps(snapshot, allow_nan=False)  # must not raise
        assert json.loads(text)[0]["objectives"][1] == {"__float__": "inf"}


class TestSerialization:
    def test_front_round_trips_with_nonfinite_values(self):
        objectives = [Objective("yield"),
                      Objective("waveform_p1db_dbm", MixerMode.ACTIVE)]
        front = ParetoFront.from_points(objectives, [
            _point("edge", [0.5, np.inf], tca_gm=0.021),
            _point("mid", [0.9, -12.5], tca_gm=0.022),
        ])
        payload = encode(front)
        text = json.dumps(payload, allow_nan=False)  # strict-JSON wire
        rebuilt = decode(json.loads(text))
        assert isinstance(rebuilt, ParetoFront)
        assert rebuilt.fingerprints() == front.fingerprints()
        assert [objective.key for objective in rebuilt.objectives] == \
            [objective.key for objective in front.objectives]
        # Front order sorts on the first (yield) objective: "mid" leads.
        matrix = rebuilt.objective_matrix()
        assert matrix[0, 1] == -12.5 and matrix[1, 1] == np.inf

    def test_result_round_trips_exactly(self, tiny_front):
        payload = json.loads(json.dumps(encode(tiny_front),
                                        allow_nan=False))
        rebuilt = decode(payload)
        assert rebuilt.front_fingerprints() == \
            tiny_front.front_fingerprints()
        assert np.array_equal(rebuilt.front.objective_matrix(),
                              tiny_front.front.objective_matrix())
        assert rebuilt.front_history == tiny_front.front_history
        assert encode(rebuilt) == encode(tiny_front)


class TestSearchBehaviour:
    def test_baseline_is_the_incoming_design(self, tiny_front):
        assert tiny_front.baseline_point.label == "i00-c00"
        assert tiny_front.baseline_point.design_fingerprint() == \
            tiny_front.initial_design.fingerprint()

    def test_front_is_mutually_nondominated(self, tiny_front):
        signed = tiny_front.front.objective_matrix() * \
            tiny_front.front.signs()
        assert pareto_mask(signed).all()
        assert tiny_front.front.size >= 1

    def test_front_history_tracks_generations(self, tiny_front):
        assert len(tiny_front.front_history) == tiny_front.iterations
        assert tiny_front.front_history[-1] == tiny_front.front.snapshot()
        assert tiny_front.evaluations == \
            tiny_front.population * tiny_front.iterations * \
            tiny_front.num_samples

    def test_yield_objective_matches_spec_yields(self, tiny_front):
        column = [objective.key
                  for objective in tiny_front.objectives].index("yield")
        for point in tiny_front.front.points:
            assert point.objectives[column] == point.overall_yield
            assert point.overall_yield <= \
                min(point.spec_yields.values()) + 1e-12

    def test_custom_objectives(self):
        result = run_pareto_opt(objectives=[
            ["yield", None, "max"],
            ["noise_figure_db", "active", "min"],
        ], **TINY)
        assert [objective.key for objective in result.objectives] == \
            ["yield", "active:noise_figure_db"]

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_pareto_opt(strategy="anneal", **TINY)
        with pytest.raises(ValueError, match="unknown strategy"):
            run_yield_opt(strategy="anneal", **TINY)

    def test_report_names_objectives_and_points(self, tiny_front):
        report = format_pareto_report(tiny_front)
        for objective in tiny_front.objectives:
            assert objective.key in report
        for point in tiny_front.front.points:
            assert point.label in report


class TestDeterminism:
    def test_worker_count_does_not_change_the_front(self, tiny_front):
        sharded = run_pareto_opt(workers=4, **TINY)
        assert sharded.front_fingerprints() == \
            tiny_front.front_fingerprints()
        assert np.array_equal(sharded.front.objective_matrix(),
                              tiny_front.front.objective_matrix())
        assert encode(sharded) == encode(tiny_front)

    def test_spec_cache_does_not_change_the_front(self, tiny_front,
                                                  tmp_path):
        cold = run_pareto_opt(cache=str(tmp_path), **TINY)
        warm = run_pareto_opt(cache=str(tmp_path), **TINY)
        assert encode(cold) == encode(tiny_front)
        assert encode(warm) == encode(tiny_front)

    def test_cma_strategy_is_deterministic(self):
        first = run_pareto_opt(strategy="cma", **TINY)
        again = run_pareto_opt(strategy="cma", **TINY)
        assert encode(first) == encode(again)
        assert first.strategy == "cma"

    def test_cma_explores_different_candidates(self, tiny_front):
        cma = run_pareto_opt(strategy="cma", **TINY)
        # Generation 1 proposals come from the adapted distribution, not
        # the shrinking-span sampler — the searches genuinely differ.
        assert encode(cma) != encode(tiny_front)


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

    def test_http_returns_the_same_front(self, base_url, tiny_front):
        request = SpecRequest(experiment="yield_pareto", grid=dict(TINY))
        body = json.dumps(request.to_dict()).encode("utf-8")
        http_request = urllib.request.Request(
            base_url + "/v1/spec", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(http_request, timeout=300) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["result"] == json.loads(json.dumps(
            encode(tiny_front)))
        served = decode(payload["result"])
        assert served.front_fingerprints() == \
            tiny_front.front_fingerprints()
        assert np.array_equal(served.front.objective_matrix(),
                              tiny_front.front.objective_matrix())

    def test_cli_returns_the_same_front(self, capsys, tiny_front):
        assert cli_main([
            "run", "yield_pareto",
            "--grid", "population=3",
            "--grid", "iterations=2",
            "--grid", "num_samples=4",
            "--grid", f"targets={json.dumps(ACTIVE_TARGETS)}",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == encode(tiny_front)
        served = decode(payload["result"])
        assert served.front_fingerprints() == \
            tiny_front.front_fingerprints()


class TestDefaultRunPins:
    def test_default_result_and_request_key(self):
        response = MixerService(response_cache=False).submit(
            SpecRequest("yield_pareto"))
        result = json.dumps(response.to_dict()["result"], sort_keys=True)
        assert hashlib.sha256(result.encode("utf-8")).hexdigest() == \
            DEFAULT_RESULT_SHA256
        assert response.request_key == DEFAULT_REQUEST_KEY

    def test_registry_listing(self, registry):
        assert json.dumps(registry.get("yield_pareto").describe()) == \
            json.dumps(DEFAULT_DESCRIBE)
