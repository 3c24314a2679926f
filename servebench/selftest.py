"""The benchmark's own tests.

Run from the repository root (the file name keeps it out of a bare
``pytest`` collection, since the minimal runs start real servers)::

    python3 -m pytest servebench/selftest.py -q

No test asserts a wall-clock time: they check the result schema, that each
workload completes correctly, that the traced run hits the layers it
claims, and that the output check, span arithmetic and compare verdicts do
what they say.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from servebench.compare import verdict  # noqa: E402
from servebench.tracing import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servebench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result: dict, entries: list[dict]) -> None:
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in entries}
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_minimal_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    check_metrics(result, SPEC["end_to_end"])
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0


def test_traced_run_reports_every_layer_and_misses_the_cache():
    done = bench("--workload", "cold_mix", "--seed", "3", "--seconds", "1",
                 "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    check_metrics(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["api.response_cache.hit_ratio"] == 0.0
    assert metrics["core.sizing.solves"] > 0.0
    assert "MISSED WORK" not in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cold_mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _served(service, op) -> bytes:
    from repro.api.request import SpecRequest
    return json.dumps(
        service.submit(SpecRequest.from_dict(op.payloads[0])).to_dict(),
        allow_nan=False).encode("utf-8")


def test_output_check_catches_a_corrupted_reply():
    from repro.api.service import MixerService
    from repro.core.config import MixerDesign
    from servebench.check import check_reply
    from servebench.workloads import _spec_op

    service = MixerService(response_cache=False)
    op = _spec_op(0, "tia_response", MixerDesign(), grid={"points": 16})
    body = _served(service, op)
    assert check_reply(op, body, service, (0,)) == []
    # One digit of one served double changed: still valid JSON, wrong bytes.
    head, tail = body.split(b'"result": ', 1)
    digit = next(i for i, ch in enumerate(tail) if chr(ch).isdigit()
                 and chr(ch) != "9")
    corrupted = head + b'"result": ' + tail[:digit] + \
        bytes([tail[digit] + 1]) + tail[digit + 1:]
    assert check_reply(op, corrupted, service, (0,))


def test_output_check_catches_a_misaligned_batch():
    from repro.api.service import MixerService
    from repro.core.config import MixerDesign
    from servebench.check import check_reply
    from servebench.workloads import _batch_op

    service = MixerService(response_cache=False)
    designs = [MixerDesign(), MixerDesign().with_gain_setting(1.01)]
    op = _batch_op(0, "power_budget", designs)
    from repro.api.request import SpecRequest
    entries = [service.submit(SpecRequest.from_dict(payload)).to_dict()
               for payload in op.payloads]
    body = json.dumps({"responses": entries}).encode("utf-8")
    assert check_reply(op, body, service, (0, 1)) == []
    swapped = json.dumps({"responses": entries[::-1]}).encode("utf-8")
    assert check_reply(op, swapped)
    short = json.dumps({"responses": entries[:1]}).encode("utf-8")
    assert check_reply(op, short)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
    # grandchild inside the first: root self time is 10 - 5.
    spans = [[1, "serve.request", 0.0, 10.0, None, 1, None],
             [2, "api.submit", 1.0, 4.0, 1, 1, {"core.sizing.solves": 2}],
             [3, "api.submit", 3.0, 6.0, 1, 1, None],
             [4, "core.sizing", 2.0, 3.0, 2, 1, None]]
    dump = {"spans": spans, "unscoped": {}, "globals": {}}
    self_s, total_s, counters, requests = self_times([dump], (0.0, 100.0))
    assert self_s["serve.request"] == pytest.approx(5.0)
    assert self_s["api.submit"] == pytest.approx(2.0 + 3.0)
    assert total_s["api.submit"] == pytest.approx(6.0)
    assert counters == {"core.sizing.solves": 2} and requests == 1
    # Spans starting outside the window are left out.
    assert self_times([dump], (2.5, 100.0))[3] == 0


def _seeded(data: list[float], first_seed: int = 1) -> dict[int, list[float]]:
    return {first_seed + number: [value] for number, value in enumerate(data)}


def test_compare_verdicts():
    parent = _seeded([100.0, 101.0, 99.0, 100.5, 100.2])
    assert verdict(parent, _seeded([80.0, 81.0, 79.0, 80.5, 80.2]), "lower",
                   0.1) == "better"
    assert verdict(parent, _seeded([100.1, 100.9, 99.2, 100.4, 100.0]),
                   "lower", 0.1) == "no worse"
    assert verdict(parent, _seeded([120.0, 121.0, 119.0, 120.5, 120.2]),
                   "lower", 0.1) == "worse"
    assert verdict(parent, _seeded([80.0, 81.0, 79.0, 80.5, 80.2]), "higher",
                   0.1) == "worse"
    assert verdict(parent, _seeded([60.0, 140.0, 100.0, 70.0, 130.0]),
                   "lower", 0.1) == "unresolved"


def test_compare_pairs_runs_by_seed():
    # The change beats the parent on seeds 2-10 and loses on seed 1; it also
    # holds a slow seed-0 run the parent lacks, which pairs with nothing.
    parent = _seeded([100.0 + 0.1 * seed for seed in range(1, 11)])
    change = _seeded([99.0 + 0.1 * seed for seed in range(1, 11)])
    change[1] = [100.5]
    change[0] = [200.0]
    # Paired by position (seed 0 against seed 1, ...) it would win 8 of 10.
    assert verdict(parent, change, "lower", 0.1) == "better"


def test_batch_population_sends_the_same_searches_for_every_seed():
    from servebench.workloads import make_workload

    def searches(seed: int) -> list[bytes]:
        workload = make_workload("batch_population", seed)
        ops = workload.setup_ops() + [workload.next_op() for _ in range(25)]
        return [op.body for op in ops if op.experiment == "yield_opt"]

    first = searches(1)
    assert first == searches(2)
    assert len(set(first)) == len(first)
