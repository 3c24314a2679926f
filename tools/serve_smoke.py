#!/usr/bin/env python3
"""CI smoke test of the HTTP serving surface, end to end as a real process.

Boots ``python -m repro.serve`` on an ephemeral port (a genuine subprocess,
not an in-process server — this is the deployment artefact CI is vouching
for) and diffs the served JSON against the in-process API across three
request shapes:

* ``GET /v1/experiments`` vs the in-process registry — the served name
  list must equal ``default_registry().names()`` and every entry must
  equal that experiment's ``spec.describe()`` (default grid, accepted
  options and all);
* ``POST /v1/spec`` with a Fig. 8 request vs a direct
  :func:`repro.experiments.run_fig8` call;
* ``POST /v1/spec`` with a ``p1db`` compression request vs a direct
  :func:`repro.experiments.run_p1db` call (the waveform engine behind it
  must serve bit-identically);
* ``POST /v1/batch`` with a three-design population vs per-design
  :func:`repro.experiments.run_table1` calls (the batch fan-out through the
  sweep engine must not change a single double), making exactly one
  response-cache lookup per request (the ``/v1/metrics`` miss delta equals
  the computed members, misses plus hits the requests posted);
* ``POST /v1/batch`` with ``fig10`` and ``iip2`` requests over the same
  population vs per-design :func:`run_fig10` / :func:`run_iip2` calls —
  the waveform benches fan out through the batched waveform engine and
  must not change a single double either;
* ``POST /v1/spec`` with a ``digital_if`` request vs a direct
  :func:`repro.experiments.run_digital_if` call — the fixed-point digital
  back end (quantized NCO/CIC down-conversion) must serve bit-identically;
* ``POST /v1/spec`` with a small-grid ``bits_floor`` request vs a direct
  :func:`repro.experiments.run_bits_floor` call — the three width scans,
  served as lanes of one digital plan, must serve bit-identically;
* ``POST /v1/spec`` with a small ``yield_opt`` search vs a direct
  :func:`repro.optimize.run_yield_opt` call — the corner-aware optimiser
  must be servable bit-identically like every other experiment;
* ``POST /v1/spec`` with a small ``yield_pareto`` search vs a direct
  :func:`repro.optimize.run_pareto_opt` call — the multi-objective front
  (fingerprints, objective vectors, order) must serve bit-identically;
* ``POST /v1/jobs`` submit -> ``GET /v1/jobs/<id>`` poll -> result with a
  second ``yield_opt`` search — the async surface must report progress
  while running and finish with the same bit-identical payload;
* ``POST /v1/batch`` with ``workers: 2`` over a four-design ``table1`` +
  ``fig10`` population, cold and then warm, vs solo in-process submits —
  each shard solves its designs as one Gm-stage block, and the server's
  ``--spec-cache`` directory must serve the warm pass (from a second,
  freshly booted server, so the response cache cannot answer it) without
  writing a single new cell;
* the disk response cache: the warm server keeps it (``--response-cache``)
  in the ``--spec-cache`` directory, and a repeated request to a third
  server must come back as ``source: "disk-cache"`` with a byte-identical
  result, the directory holding no ``*.json`` entry;
* ``GET /v1/metrics`` — the latency/counter snapshot must account for the
  traffic this script just generated;
* shutdown — each server is stopped with SIGTERM, and no process it
  started (its pool workers) may outlive it.

Any difference — a float, an axis label, a schema field — is a failure.

Run by the CI ``serve-smoke`` job and by hand::

    python tools/serve_smoke.py
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
POINTS = 48  # enough structure to catch real drift, fast enough for CI
STARTUP_TIMEOUT_S = 60.0
#: Small but genuine yield search: 3 candidates x 2 iterations x 4 corners.
#: The active-mode-only targets are derived from the canonical default set
#: in check_yield_opt (imports only resolve after main() sets the path).
YIELD_GRID: dict = {
    "population": 3,
    "iterations": 2,
    "num_samples": 4,
}


def start_server(env: dict, spec_cache: str,
                 response_cache: bool = False) -> tuple[subprocess.Popen, str]:
    """Boot ``python -m repro.serve --port 0`` and parse its bound address.

    With ``response_cache`` the server also keeps its response cache on
    disk, in the ``spec_cache`` directory.
    """
    flags = ["--response-cache", spec_cache] if response_cache else []
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--spec-cache", spec_cache, *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=REPO_ROOT, env=env)
    assert process.stdout is not None
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            return process, match.group(1)
    process.kill()
    raise RuntimeError("server never announced its address")


def wait_healthy(base_url: str) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(base_url + "/v1/health",
                                        timeout=5) as response:
                if json.loads(response.read()).get("status") == "ok":
                    return
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise RuntimeError("server never became healthy")


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read().decode("utf-8"))


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def check_experiments(base_url: str) -> int:
    """The served registry metadata must equal the in-process registry."""
    from repro.api.registry import default_registry

    registry = default_registry()
    served = get_json(base_url + "/v1/experiments")["experiments"]
    names = [entry.get("name") for entry in served]
    if names != registry.names():
        print(f"FAIL: served experiments {names} differ from the registry "
              f"{registry.names()}", file=sys.stderr)
        return 1
    for entry in served:
        expected = json.loads(json.dumps(registry.get(entry["name"])
                                         .describe()))
        if entry != expected:
            print(f"FAIL: served metadata of {entry['name']!r} differs from "
                  f"spec.describe():\n  served   {entry}\n  expected "
                  f"{expected}", file=sys.stderr)
            return 1
    print(f"serve smoke OK: GET /v1/experiments equals the in-process "
          f"registry ({len(served)} experiments)")
    return 0


def check_fig8_spec(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.experiments import run_fig8

    request = SpecRequest(experiment="fig8", grid={"points": POINTS})
    served = post_json(base_url + "/v1/spec", request.to_dict())
    expected = encode(run_fig8(points=POINTS))
    if served["result"] != expected:
        print("FAIL: served Fig. 8 payload differs from run_fig8()",
              file=sys.stderr)
        return 1
    if served["result_schema"] != "Fig8Result":
        print(f"FAIL: unexpected result_schema "
              f"{served['result_schema']!r}", file=sys.stderr)
        return 1
    print(f"serve smoke OK: Fig. 8 over HTTP ({POINTS} points) is "
          f"bit-identical to run_fig8() [source={served['source']}]")
    return 0


#: Coarse but compression-reaching power grid for the served p1db check.
P1DB_POWERS = [-40.0, -34.0, -28.0, -22.0, -16.0, -10.0]

#: Small-signal power grid shared by the batched fig10/iip2 checks.
WAVEFORM_POWERS = [-45.0, -43.0, -41.0, -39.0, -37.0]


def check_p1db_spec(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.experiments import run_p1db

    request = SpecRequest(experiment="p1db",
                          grid={"input_powers_dbm": P1DB_POWERS})
    served = post_json(base_url + "/v1/spec", request.to_dict())
    expected = run_p1db(input_powers_dbm=P1DB_POWERS)
    if served["result"] != encode(expected):
        print("FAIL: served p1db payload differs from run_p1db()",
              file=sys.stderr)
        return 1
    if served["result_schema"] != "P1dbResult":
        print(f"FAIL: unexpected result_schema "
              f"{served['result_schema']!r}", file=sys.stderr)
        return 1
    print("serve smoke OK: p1db compression sweep over HTTP is "
          "bit-identical to run_p1db() "
          f"[measured {expected.passive.measured_p1db_dbm:.2f} dBm passive]")
    return 0


#: ADC resolutions exercised by the served digital-IF check.
DIGITAL_BITS = [6, 10, 14]


def check_digital_if(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.experiments import run_digital_if

    request = SpecRequest(experiment="digital_if",
                          grid={"adc_bits": DIGITAL_BITS})
    served = post_json(base_url + "/v1/spec", request.to_dict())
    expected = run_digital_if(adc_bits=DIGITAL_BITS)
    if served["result"] != encode(expected):
        print("FAIL: served digital_if payload differs from "
              "run_digital_if()", file=sys.stderr)
        return 1
    if served["result_schema"] != "DigitalIfResult":
        print(f"FAIL: unexpected result_schema "
              f"{served['result_schema']!r}", file=sys.stderr)
        return 1
    print("serve smoke OK: digital-IF quantization sweep over HTTP is "
          "bit-identical to run_digital_if() "
          f"[peak SNR {expected.active.peak_snr_db:.1f} dB active]")
    return 0


#: Candidate widths of the served bits_floor check: 8 lanes in one plan.
BITS_FLOOR_GRID = {"adc_candidates": [10, 12, 14, 16],
                   "lo_candidates": [8, 12],
                   "output_candidates": [16, 20]}


def check_bits_floor(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.experiments import run_bits_floor

    request = SpecRequest(experiment="bits_floor", grid=BITS_FLOOR_GRID)
    served = post_json(base_url + "/v1/spec", request.to_dict())
    expected = run_bits_floor(**BITS_FLOOR_GRID)
    if served["result"] != encode(expected):
        print("FAIL: served bits_floor payload differs from "
              "run_bits_floor()", file=sys.stderr)
        return 1
    if served["result_schema"] != "BitsFloorResult":
        print(f"FAIL: unexpected result_schema "
              f"{served['result_schema']!r}", file=sys.stderr)
        return 1
    print("serve smoke OK: bits_floor width scan over HTTP is "
          "bit-identical to run_bits_floor() "
          f"[min ADC {expected.active.min_adc_bits:.0f} bits active]")
    return 0


def check_waveform_batch(base_url: str) -> int:
    """Batched fig10/iip2 populations vs per-design waveform runs."""
    from repro.api import SpecRequest, encode
    from repro.core.config import MixerDesign
    from repro.experiments import run_fig10, run_iip2
    from repro.sweep.montecarlo import DeviceSpread, sample_design
    import numpy as np

    rng = np.random.default_rng(7)
    nominal = MixerDesign()
    population = [nominal] + [
        sample_design(nominal, rng, DeviceSpread(), f"wave-{index}")
        for index in range(2)
    ]
    grid = {"input_powers_dbm": WAVEFORM_POWERS}
    requests = [SpecRequest(experiment=name, design=design,
                            grid=grid).to_dict()
                for name in ("fig10", "iip2") for design in population]
    served = post_json(base_url + "/v1/batch", {"requests": requests})
    responses = served.get("responses", [])
    if len(responses) != len(requests):
        print(f"FAIL: waveform batch returned {len(responses)} responses "
              f"for {len(requests)} requests", file=sys.stderr)
        return 1
    expected = [encode(run_fig10(design, input_powers_dbm=WAVEFORM_POWERS))
                for design in population]
    expected += [encode(run_iip2(design, input_powers_dbm=WAVEFORM_POWERS))
                 for design in population]
    for index, (response, reference) in enumerate(zip(responses, expected)):
        if response["result"] != reference:
            name = "fig10" if index < len(population) else "iip2"
            print(f"FAIL: batched {name} payload differs from the direct "
                  f"run for design #{index % len(population)}",
                  file=sys.stderr)
            return 1
    print(f"serve smoke OK: /v1/batch fig10+iip2 over a {len(population)}-"
          "design population is bit-identical to per-design runs")
    return 0


def _cache_lookups(base_url: str) -> tuple[int, int]:
    """``(misses, hits)`` of the server's response cache so far."""
    cache = get_json(base_url + "/v1/metrics")["response_cache"]
    return cache["misses"], cache["memory_hits"] + cache["disk_hits"]


def check_batch_population(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.core.config import MixerDesign
    from repro.experiments import run_table1
    from repro.sweep.montecarlo import DeviceSpread, sample_design
    import numpy as np

    rng = np.random.default_rng(42)
    nominal = MixerDesign()
    population = [nominal] + [
        sample_design(nominal, rng, DeviceSpread(), f"smoke-{index}")
        for index in range(2)
    ]
    requests = [SpecRequest(experiment="table1", design=design).to_dict()
                for design in population]
    before = _cache_lookups(base_url)
    served = post_json(base_url + "/v1/batch", {"requests": requests})
    after = _cache_lookups(base_url)
    responses = served.get("responses", [])
    if len(responses) != len(population):
        print(f"FAIL: batch returned {len(responses)} responses for "
              f"{len(population)} requests", file=sys.stderr)
        return 1
    # One response-cache lookup per request: every miss is a computed
    # member, and misses plus hits add up to the requests posted.
    misses, hits = (now - then for now, then in zip(after, before))
    computed = sum(response["source"] == "computed" for response in responses)
    if (misses, misses + hits) != (computed, len(requests)):
        print(f"FAIL: batch of {len(requests)} requests ({computed} "
              f"computed) counted {misses} response-cache miss(es) and "
              f"{hits} hit(s)", file=sys.stderr)
        return 1
    for design, response in zip(population, responses):
        if response["result"] != encode(run_table1(design)):
            print("FAIL: batch Table I payload differs from run_table1() "
                  f"for design {design.fingerprint()[:12]}", file=sys.stderr)
            return 1
    print(f"serve smoke OK: /v1/batch over a {len(population)}-design "
          "population is bit-identical to per-design run_table1() "
          f"[{misses} cache miss(es), {hits} hit(s)]")
    return 0


def check_yield_opt(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.core.config import MixerMode
    from repro.optimize import default_targets, run_yield_opt

    grid = dict(YIELD_GRID)
    grid["targets"] = [target.to_wire() for target in default_targets()
                       if target.mode is MixerMode.ACTIVE]
    request = SpecRequest(experiment="yield_opt", grid=grid)
    served = post_json(base_url + "/v1/spec", request.to_dict())
    expected = run_yield_opt(**grid)
    if served["result"] != encode(expected):
        print("FAIL: served yield_opt payload differs from run_yield_opt()",
              file=sys.stderr)
        return 1
    if served["result_schema"] != "YieldOptResult":
        print(f"FAIL: unexpected result_schema "
              f"{served['result_schema']!r}", file=sys.stderr)
        return 1
    best = served["result"]["fields"]["best_design"]
    if best.get("__dataclass__") != "MixerDesign":
        print("FAIL: served best_design is not a MixerDesign payload",
              file=sys.stderr)
        return 1
    print("serve smoke OK: yield_opt search over HTTP is bit-identical to "
          f"run_yield_opt() [best yield {expected.best_yield:.0%}, "
          f"fingerprint {expected.best_fingerprint()[:12]}]")
    return 0


def check_yield_pareto(base_url: str) -> int:
    from repro.api import SpecRequest, encode
    from repro.core.config import MixerMode
    from repro.optimize import default_targets, run_pareto_opt

    grid = dict(YIELD_GRID)
    grid["targets"] = [target.to_wire() for target in default_targets()
                       if target.mode is MixerMode.ACTIVE]
    request = SpecRequest(experiment="yield_pareto", grid=grid)
    served = post_json(base_url + "/v1/spec", request.to_dict())
    expected = run_pareto_opt(**grid)
    if served["result"] != encode(expected):
        print("FAIL: served yield_pareto payload differs from "
              "run_pareto_opt()", file=sys.stderr)
        return 1
    if served["result_schema"] != "ParetoOptResult":
        print(f"FAIL: unexpected result_schema "
              f"{served['result_schema']!r}", file=sys.stderr)
        return 1
    print("serve smoke OK: yield_pareto search over HTTP is bit-identical "
          f"to run_pareto_opt() [front size {expected.front.size}, "
          f"{len(expected.objectives)} objectives]")
    return 0


def check_jobs_async(base_url: str) -> int:
    """Submit -> poll -> result through the async job surface."""
    from repro.api import SpecRequest, encode
    from repro.core.config import MixerMode
    from repro.optimize import default_targets, run_yield_opt

    # A different seed than check_yield_opt's request, so the job cannot be
    # answered from the response cache: it must really run, and the poll
    # loop gets to observe it doing so.
    grid = dict(YIELD_GRID, seed=7)
    grid["targets"] = [target.to_wire() for target in default_targets()
                       if target.mode is MixerMode.ACTIVE]
    request = SpecRequest(experiment="yield_opt", grid=grid)
    job = post_json(base_url + "/v1/jobs",
                    {"request": request.to_dict()})["job"]
    if job.get("state") not in ("queued", "running"):
        print(f"FAIL: submitted job in unexpected state {job.get('state')!r}",
              file=sys.stderr)
        return 1
    progress_frames = 0
    last_progress = ""
    deadline = time.monotonic() + 300
    while True:
        if time.monotonic() > deadline:
            print(f"FAIL: job {job['id']} never finished", file=sys.stderr)
            return 1
        job = get_json(f"{base_url}/v1/jobs/{job['id']}")["job"]
        progress = json.dumps(job.get("progress") or {}, sort_keys=True)
        if job.get("progress") and progress != last_progress:
            progress_frames += 1
            last_progress = progress
        if job["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    if job["state"] != "done":
        print(f"FAIL: job ended {job['state']}: {job.get('error')}",
              file=sys.stderr)
        return 1
    if job["result"]["result"] != encode(run_yield_opt(**grid)):
        print("FAIL: async job yield_opt payload differs from "
              "run_yield_opt()", file=sys.stderr)
        return 1
    final = job.get("progress", {})
    if final.get("iteration") != grid["iterations"] \
            or len(final.get("history", [])) != grid["iterations"]:
        print(f"FAIL: job progress never reached the final iteration "
              f"(last frame: {final})", file=sys.stderr)
        return 1
    print(f"serve smoke OK: /v1/jobs submit->poll->result is bit-identical "
          f"to run_yield_opt() [{progress_frames} progress frame(s), "
          f"ran {job['running_s']:.2f}s]")
    return 0


def _engine_cache_requests() -> list[dict]:
    """Four designs (two per shard at ``workers: 2``), table1 and fig10."""
    from repro.api import SpecRequest
    from repro.core.config import MixerDesign
    from repro.sweep.montecarlo import DeviceSpread, sample_design
    import numpy as np

    rng = np.random.default_rng(11)
    nominal = MixerDesign()
    population = [nominal] + [
        sample_design(nominal, rng, DeviceSpread(), f"cells-{index}")
        for index in range(3)
    ]
    requests = [SpecRequest(experiment="table1", design=design)
                for design in population]
    requests += [SpecRequest(experiment="fig10", design=design,
                             grid={"input_powers_dbm": WAVEFORM_POWERS})
                 for design in population]
    return [request.to_dict() for request in requests]


def _cache_cells(spec_cache: str) -> int:
    """Cells stored in the engine cache's database (0 before it exists)."""
    from repro.sweep.cache import DATABASE_NAME

    database = Path(spec_cache) / DATABASE_NAME
    if not database.exists():
        return 0
    with contextlib.closing(sqlite3.connect(database)) as connection:
        return connection.execute("SELECT COUNT(*) FROM cells").fetchone()[0]


def check_engine_cache_batch(base_url: str, spec_cache: str,
                             pass_name: str) -> int:
    """One sharded /v1/batch over the engine cache vs solo submits.

    The cold pass must write cells; the warm pass must write none.
    """
    from repro.api import MixerService, SpecRequest

    requests = _engine_cache_requests()
    cells_before = _cache_cells(spec_cache)
    served = post_json(base_url + "/v1/batch",
                       {"requests": [dict(request, workers=2)
                                     for request in requests]})
    responses = served.get("responses", [])
    if len(responses) != len(requests):
        print(f"FAIL: {pass_name} engine-cache batch returned "
              f"{len(responses)} responses for {len(requests)} requests",
              file=sys.stderr)
        return 1
    solo = MixerService(response_cache=False)
    for index, (request, response) in enumerate(zip(requests, responses)):
        expected = solo.submit(SpecRequest.from_dict(request)).to_dict()
        if response["result"] != expected["result"]:
            print(f"FAIL: {pass_name} engine-cache batch response #{index} "
                  f"({request['experiment']}) differs from a solo submit",
                  file=sys.stderr)
            return 1
    written = _cache_cells(spec_cache) - cells_before
    if (written > 0) != (pass_name == "cold"):
        print(f"FAIL: {pass_name} engine-cache batch wrote {written} cache "
              "cell(s)", file=sys.stderr)
        return 1
    print(f"serve smoke OK: {pass_name} /v1/batch (workers 2) over the "
          f"engine cache is bit-identical to solo submits "
          f"[{written} new cell(s)]")
    return 0


def check_warm_engine_cache(env: dict, spec_cache: str) -> int:
    """The same batch from a fresh server over the now-warm engine cache.

    This server also keeps its response cache on disk in the same
    directory; a Fig. 8 request it computes must come back from a second
    fresh server as a disk-cache hit with a byte-identical result.
    """
    request = {"experiment": "fig8", "grid": {"points": POINTS}}
    process, base_url = start_server(env, spec_cache, response_cache=True)
    try:
        wait_healthy(base_url)
        status = check_engine_cache_batch(base_url, spec_cache, "warm")
        first = post_json(base_url + "/v1/spec", request)
    finally:
        stop_server(process)
    if status:
        return status
    process, base_url = start_server(env, spec_cache, response_cache=True)
    try:
        wait_healthy(base_url)
        again = post_json(base_url + "/v1/spec", request)
    finally:
        stop_server(process)
    problems = []
    if first["source"] != "computed" or again["source"] != "disk-cache":
        problems.append(f"sources {first['source']!r} then "
                        f"{again['source']!r}, not computed then disk-cache")
    if json.dumps(again["result"]) != json.dumps(first["result"]):
        problems.append("the disk-cache result differs from the first reply")
    stray = sorted(path.name for path in Path(spec_cache).glob("*.json"))
    if stray:
        problems.append(f"the cache directory holds JSON files {stray}")
    for problem in problems:
        print(f"FAIL: disk response cache: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("serve smoke OK: a restarted server answers a repeated Fig. 8 "
          "request from the disk response cache in the engine cache's "
          "database, byte-identical to the first reply")
    return 0


def check_metrics(base_url: str) -> int:
    """The metrics snapshot must account for the traffic generated above."""
    snapshot = get_json(base_url + "/v1/metrics")
    problems = []
    spec = snapshot.get("requests", {}).get("/v1/spec", {})
    if spec.get("count", 0) < 1:
        problems.append("no /v1/spec observations")
    if spec.get("latency_le_s", {}).get("+Inf") != spec.get("count"):
        problems.append("latency histogram +Inf bucket != request count")
    if snapshot.get("experiments", {}).get("yield_opt", 0) < 2:
        problems.append("yield_opt experiment counter below 2")
    jobs = snapshot.get("jobs", {})
    if jobs.get("completed", 0) < 1 or jobs.get("failed", 0) != 0:
        problems.append(f"unexpected job counters: {jobs}")
    if "queue_wait_le_s" not in jobs:
        problems.append("metrics missing jobs.queue_wait_le_s")
    cache = snapshot.get("response_cache") or {}
    if cache.get("stores", 0) < 1:
        problems.append("response cache recorded no stores")
    if snapshot.get("load_shed_total", 0) != 0:
        problems.append("server shed load during the smoke run")
    if problems:
        for problem in problems:
            print(f"FAIL: /v1/metrics: {problem}", file=sys.stderr)
        return 1
    print(f"serve smoke OK: /v1/metrics accounts for the run "
          f"[{spec['count']} /v1/spec request(s), "
          f"{jobs['completed']} job(s) completed, "
          f"cache hit rate {cache['hit_rate']:.0%}]")
    return 0


def main() -> int:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    sys.path.insert(0, src)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-cells-") \
            as spec_cache:
        process, base_url = start_server(env, spec_cache)
        try:
            wait_healthy(base_url)
            status = check_experiments(base_url)
            status = status or check_engine_cache_batch(base_url, spec_cache,
                                                        "cold")
            status = status or check_fig8_spec(base_url)
            status = status or check_p1db_spec(base_url)
            status = status or check_batch_population(base_url)
            status = status or check_waveform_batch(base_url)
            status = status or check_digital_if(base_url)
            status = status or check_bits_floor(base_url)
            status = status or check_yield_opt(base_url)
            status = status or check_yield_pareto(base_url)
            status = status or check_jobs_async(base_url)
            status = status or check_metrics(base_url)
        finally:
            stop_server(process)
        return status or check_warm_engine_cache(env, spec_cache)


def _state_and_parent(pid: int) -> tuple[str, int] | None:
    """A process's state letter and parent pid from ``/proc``, if it exists."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie (exited, not yet reaped) is dead."""
    found = _state_and_parent(pid)
    return found is not None and found[0] != "Z"


def _live_children(pid: int) -> list[int]:
    """The running processes whose parent is ``pid``."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            found = _state_and_parent(int(entry.name))
            if found is not None and found[0] != "Z" and found[1] == pid:
                children.append(int(entry.name))
    return children


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM the server, reap it, and fail if any of its children lives on.

    ``python -m repro.serve`` treats SIGTERM like Ctrl-C: it joins its jobs
    and shuts its process pool down before it exits.  So every process it
    had started (the pool workers of the ``workers: 2`` batches) must be
    gone once it has exited; a survivor is an orphaned worker.
    """
    children = _live_children(process.pid)
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)
        raise RuntimeError("the server ignored SIGTERM for 10 s")
    orphans = [pid for pid in children if _alive(pid)]
    for pid in orphans:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    if orphans:
        raise RuntimeError(f"server children {orphans} outlived it")


if __name__ == "__main__":
    sys.exit(main())
