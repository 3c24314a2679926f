"""The one process pool behind every sharded run, and its lifecycle.

Every sharded engine run maps its shards over a single process-wide
``ProcessPoolExecutor`` (:func:`repro.sweep.parallel.shared_pool`).  These
tests pin that: one pool for every shard count, a fresh pool after a worker
dies, and no worker left alive after a one-shot script, a closed server or
a SIGTERMed ``python -m repro.serve``.  Process liveness is read from
``/proc``; a zombie counts as dead.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api import MixerService, SpecRequest
from repro.core.config import MixerDesign
from repro.serve import create_server, serve_in_thread
from repro.sweep import DeviceSpread, ParallelSweepRunner, SweepRunner, \
    sample_design
from repro.api.registry import ExperimentRegistry, ExperimentSpec
from repro.sweep.parallel import shared_pool, shutdown_pool, usable_cpus

from api_test_helpers import SMALL_GRIDS, EchoResult

ROOT = Path(__file__).resolve().parent.parent
#: Seconds a process may take to exit once it has been told to.
EXIT_S = 10.0

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process state from /proc")


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie (exited, not yet reaped) is dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _children(pid: int) -> set[int]:
    """The live direct children of ``pid``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
                found.add(int(entry.name))
    return {child for child in found if _alive(child)}


def _wait_dead(pids, timeout: float = EXIT_S) -> set[int]:
    """Poll until every pid is dead; returns those still alive at timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(pid) for pid in pids):
            return set()
        time.sleep(0.05)
    return {pid for pid in pids if _alive(pid)}


def _pool_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _designs(count: int) -> dict[str, MixerDesign]:
    rng = np.random.default_rng(5)
    return {f"p{i}": sample_design(MixerDesign(), rng, DeviceSpread(),
                                   f"p{i}")
            for i in range(count)}


def _batch(workers: int | None) -> dict:
    return {"requests": [
        SpecRequest(experiment="fig8", design=design, grid=SMALL_GRIDS["fig8"],
                    workers=workers).to_dict()
        for design in _designs(3).values()]}


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _results(payload: dict) -> list:
    return [response["result"] for response in payload["responses"]]


def test_one_pool_serves_every_shard_count():
    shutdown_pool()
    before = _pool_pids()
    runner = ParallelSweepRunner(workers=3, cache=False)
    pool = None
    for count in (2, 3, 5):  # shard counts 2, 3 and 3
        designs = _designs(count)
        sharded = runner.run(rf_frequencies=[2.4e9], designs=designs)
        inline = SweepRunner(cache=False).run(rf_frequencies=[2.4e9],
                                              designs=designs)
        for spec in inline.spec_names:
            np.testing.assert_array_equal(sharded.data[spec],
                                          inline.data[spec])
        pool = pool or shared_pool()
        assert shared_pool() is pool
        started = _pool_pids() - before
        assert 0 < len(started) <= usable_cpus()
    assert _pool_pids() - before == started


def test_pool_and_served_cap_follow_the_affinity_set(monkeypatch):
    # One usable CPU of four: the pool and the served workers cap read the
    # affinity set, not the machine's CPU count.  No task is mapped, so the
    # rebuilt pool forks no worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    seen: list = []

    def run_spy(design, *, workers=None):
        seen.append(workers)
        return EchoResult(label="spy", value=1.0)

    registry = ExperimentRegistry()
    registry.register(ExperimentSpec(
        name="spy", artefact="test fixture", summary="captures workers",
        runner=run_spy, result_type=EchoResult, report=lambda result: "",
        accepts_cache=False))
    shutdown_pool()
    try:
        assert usable_cpus() == 1
        assert shared_pool()._max_workers == 1
        MixerService(registry=registry, response_cache=False).submit(
            SpecRequest(experiment="spy", workers=4))
        assert seen == [1]
    finally:
        shutdown_pool()


def test_one_shot_script_leaves_no_workers():
    script = (
        "import multiprocessing\n"
        "from repro.core.config import MixerDesign\n"
        "from repro.sweep import ParallelSweepRunner\n"
        "designs = [MixerDesign().with_gain_setting(1 + 0.01 * k)"
        " for k in range(4)]\n"
        "ParallelSweepRunner(workers=2, cache=False).run(designs=designs)\n"
        "print(*[child.pid for child in multiprocessing.active_children()])\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    pids = [int(pid) for pid in completed.stdout.split()]
    assert pids
    assert not _wait_dead(pids)


def test_killed_worker_fails_one_batch_then_the_pool_is_rebuilt():
    server = create_server(service=MixerService(response_cache=False))
    thread = serve_in_thread(server)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}/v1/batch"
    try:
        inline_status, inline = _post(url, _batch(1))
        assert inline_status == 200
        status, first = _post(url, _batch(2))
        assert status == 200 and _results(first) == _results(inline)
        workers = _pool_pids()
        assert workers
        os.kill(next(iter(workers)), signal.SIGKILL)
        # The pool's manager thread terminates the survivors once it sees
        # the death, so every worker dying means the pool is broken.
        assert not _wait_dead(workers)
        status, failed = _post(url, _batch(2))
        assert status == 500
        assert "error" in failed
        status, rebuilt = _post(url, _batch(2))
        assert status == 200
        assert _results(rebuilt) == _results(inline)
        workers = _pool_pids()
        assert workers
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not _wait_dead(workers)


def test_sigterm_joins_the_pool():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    workers: set[int] = set()
    try:
        line = process.stdout.readline()
        match = re.search(r"serving on (http://\S+)", line)
        assert match, line
        status, _ = _post(match.group(1) + "/v1/batch", _batch(2))
        assert status == 200
        workers = _children(process.pid)
        assert workers
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=EXIT_S) == 0
        assert not _wait_dead(workers)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
        for pid in workers:  # orphans of a failed run, never of a good one
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
