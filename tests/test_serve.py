"""Tests for the HTTP serving surface and the one-shot CLI.

Covers the other half of the acceptance bar: for every registered
experiment the response served **over HTTP** is bit-identical to the
direct ``run_*`` call (JSON round-trips every double exactly), plus the
error paths (400 on bad requests, 404 on unknown paths) and the
``repro.cli`` command in both in-process and ``--url`` modes.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.api import MixerService, encode
from repro.cli import main as cli_main
from repro.core.config import MixerDesign
from repro.serve import (
    CLIENT_TIMEOUT_S,
    MAX_BODY_BYTES,
    SpecRequestHandler,
    create_server,
    main as serve_main,
    serve_in_thread,
)
from repro.serve.jobs import JobManager
from repro.sweep.cache import DATABASE_NAME

from api_test_helpers import (
    EXPERIMENT_NAMES,
    echo_registry,
    open_gate,
    small_request,
)


@pytest.fixture(scope="module")
def server():
    server = create_server()
    thread = serve_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read().decode("utf-8"))


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


@contextmanager
def echo_server(**server_options):
    """A short-lived server over the controllable echo registry.

    The response cache is off so a gated request always reaches the runner
    (a cache hit would skip the gate and deadlock-proof nothing).
    """
    service = MixerService(registry=echo_registry(), response_cache=False)
    server = create_server(service=service, **server_options)
    thread = serve_in_thread(server)
    try:
        host, port = server.server_address[:2]
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def echo_payload(value: float, **grid) -> dict:
    return {"experiment": "echo", "grid": {"value": value, **grid}}


def poll_job(base_url: str, job_id: str) -> dict:
    return get_json(f"{base_url}/v1/jobs/{job_id}")["job"]


def wait_for(predicate, timeout_s: float = 30.0, interval_s: float = 0.005):
    """Poll ``predicate`` until it returns a truthy value (or time out)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not met within "
                         f"{timeout_s}s: {predicate}")


def hold_intermediate_frames(monkeypatch, iterations: int) -> threading.Event:
    """Pause the optimiser after each intermediate progress frame.

    The search holds until the returned event is set (a poller saw the
    frame) or 30 s pass, so the streaming tests observe a mid-run frame
    however fast the search itself runs.
    """
    from repro.optimize import search

    seen = threading.Event()
    report = search.report_progress

    def held(**fields):
        report(**fields)
        if fields.get("iteration", iterations) < iterations:
            seen.wait(timeout=30.0)
            seen.clear()
    monkeypatch.setattr(search, "report_progress", held)
    return seen


class TestEndpoints:
    def test_health(self, base_url):
        assert get_json(base_url + "/v1/health") == {"status": "ok"}

    def test_experiments_listing(self, base_url):
        from repro.api import API_VERSION
        payload = get_json(base_url + "/v1/experiments")
        assert payload["api_version"] == API_VERSION
        names = sorted(entry["name"] for entry in payload["experiments"])
        assert names == EXPERIMENT_NAMES
        by_name = {entry["name"]: entry for entry in payload["experiments"]}
        # The listing carries enough metadata that a client need not
        # hard-code experiment shapes: result schema + full default grid.
        pareto = by_name["yield_pareto"]
        assert pareto["result_schema"] == "ParetoOptResult"
        assert "objectives" in pareto["default_grid"]
        assert "strategy" in pareto["default_grid"]

    def test_api_version_mismatch_is_structured_400(self, base_url):
        from repro.api import API_VERSION
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(base_url + "/v1/spec",
                      {"api_version": 2, "experiment": "power_budget"})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error_kind"] == "api_version_mismatch"
        assert body["client_api_version"] == 2
        assert body["server_api_version"] == API_VERSION
        assert "api_version mismatch" in body["error"]

    def test_missing_api_version_is_accepted(self, base_url):
        # Hand-written payloads without the field keep working (read as
        # current); only an explicit mismatch is refused.
        payload = post_json(base_url + "/v1/spec",
                            {"experiment": "power_budget"})
        assert payload["experiment"] == "power_budget"

    def test_unknown_path_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base_url + "/v1/nope")
        assert excinfo.value.code == 404

    def test_bad_experiment_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(base_url + "/v1/spec", {"experiment": "fig99"})
        assert excinfo.value.code == 400
        assert "unknown experiment" in json.loads(excinfo.value.read())["error"]

    def test_malformed_body_is_400(self, base_url):
        request = urllib.request.Request(
            base_url + "/v1/spec", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_request_cache_field_is_400(self, base_url, tmp_path):
        # The engine cache belongs to the server: a client naming a
        # directory is refused as an unknown field, and nothing is created.
        target = tmp_path / "client-chosen"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(base_url + "/v1/spec",
                      {"experiment": "fig8", "cache": str(target)})
        assert excinfo.value.code == 400
        assert "unknown request fields ['cache']" in \
            json.loads(excinfo.value.read())["error"]
        assert not target.exists()

    def test_bad_batch_shape_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(base_url + "/v1/batch", {"request": []})
        assert excinfo.value.code == 400


class TestHttpBitIdentity:
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_served_response_matches_direct_run(self, name, base_url,
                                                direct_payloads):
        payload = post_json(base_url + "/v1/spec",
                            small_request(name).to_dict())
        expected = json.loads(json.dumps(direct_payloads(name)))
        assert payload["result"] == expected
        assert payload["result"] == direct_payloads(name)
        assert payload["design_fingerprint"] == MixerDesign().fingerprint()

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_repeat_over_http_is_served_from_cache(self, name, base_url):
        first = post_json(base_url + "/v1/spec",
                          small_request(name).to_dict())
        again = post_json(base_url + "/v1/spec",
                          small_request(name).to_dict())
        assert again["source"] == "memory-cache"
        assert again["result"] == first["result"]

    def test_batch_endpoint_matches_singles(self, base_url):
        designs = [MixerDesign(),
                   MixerDesign().with_gain_setting(1.05)]
        requests = [small_request("table1", design).to_dict()
                    for design in designs]
        batch = post_json(base_url + "/v1/batch", {"requests": requests})
        singles = [post_json(base_url + "/v1/spec", request)
                   for request in requests]
        assert [r["result"] for r in batch["responses"]] == \
            [r["result"] for r in singles]


class _RecordingService(MixerService):
    """Keeps a copy of every payload a job worker encodes."""

    def __init__(self, **options):
        super().__init__(**options)
        self.recorded: list[dict] = []

    def submit(self, request):
        response = super().submit(request)
        self.recorded.append(response.to_dict())
        return response

    def submit_batch(self, requests):
        responses = super().submit_batch(requests)
        self.recorded.append(
            {"responses": [response.to_dict() for response in responses]})
        return responses


def _dict_wire_bytes(payload: dict) -> bytes:
    """The body the handler wrote when jobs retained result dicts."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def _raw(url: str, payload: dict | None = None) -> bytes:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST")
    with urllib.request.urlopen(request) as response:
        return response.read()


class TestWireBytes:
    """Jobs retain results as encoded bytes; every body is unchanged."""

    @pytest.fixture()
    def recording(self):
        service = _RecordingService(response_cache=False)
        server = create_server(service=service)
        thread = serve_in_thread(server)
        host, port = server.server_address[:2]
        try:
            yield server, service, f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_spec_reply_is_byte_identical(self, recording):
        _, service, url = recording
        body = _raw(url + "/v1/spec", small_request("fig8").to_dict())
        assert body == _dict_wire_bytes(service.recorded[-1])

    def test_batch_reply_is_byte_identical(self, recording):
        _, service, url = recording
        requests = [small_request("table1", design).to_dict()
                    for design in (MixerDesign(),
                                   MixerDesign().with_gain_setting(1.05))]
        body = _raw(url + "/v1/batch", {"requests": requests})
        assert body == _dict_wire_bytes(service.recorded[-1])

    def test_job_descriptor_is_byte_identical(self, recording):
        server, service, url = recording
        accepted = post_json(url + "/v1/jobs",
                             {"request": small_request("fig8").to_dict()})
        job_id = accepted["job"]["id"]
        wait_for(lambda: poll_job(url, job_id)["state"] == "done")
        body = _raw(f"{url}/v1/jobs/{job_id}")
        job = server.jobs.get(job_id)
        assert type(job.result) is bytes
        descriptor = {**job.describe(include_result=False),
                      "result": service.recorded[-1]}
        assert body == _dict_wire_bytes({"job": descriptor})


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_NAMES:
            assert name in out

    def test_run_in_process_report(self, capsys):
        assert cli_main(["run", "power_budget"]) == 0
        out = capsys.readouterr().out
        assert "Power budget" in out and "computed" in out

    def test_run_json_output_matches_direct(self, capsys):
        assert cli_main(["run", "tia_response", "--grid", "points=16",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.experiments import run_tia_response
        assert payload["result"] == encode(run_tia_response(points=16))

    def test_run_over_http(self, base_url, capsys):
        assert cli_main(["run", "power_budget", "--url", base_url]) == 0
        out = capsys.readouterr().out
        assert "Power budget" in out

    def test_grid_override_parse_error(self, capsys):
        assert cli_main(["run", "fig8", "--grid", "points"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert cli_main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_design_file_round_trip(self, tmp_path, capsys):
        design = MixerDesign().with_gain_setting(1.1)
        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps(design.to_dict()),
                               encoding="utf-8")
        assert cli_main(["run", "power_budget", "--design",
                         str(design_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design_fingerprint"] == design.fingerprint()

    def test_run_as_job_over_http(self, base_url, capsys):
        assert cli_main(["run", "power_budget", "--url", base_url,
                         "--job", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["experiment"] == "power_budget"
        assert "job job-" in captured.err

    def test_spec_cache_flag_refused_with_url(self, base_url, tmp_path,
                                              capsys):
        assert cli_main(["run", "power_budget", "--url", base_url,
                         "--spec-cache", str(tmp_path)]) == 2
        assert "--spec-cache is a local-run option" in \
            capsys.readouterr().err

    def test_spec_cache_flag_serves_local_runs(self, tmp_path, capsys):
        assert cli_main(["run", "fig8", "--grid", "points=16",
                         "--spec-cache", str(tmp_path)]) == 0
        assert "computed" in capsys.readouterr().out
        assert (tmp_path / DATABASE_NAME).exists()

    def test_job_flag_requires_url(self, capsys):
        assert cli_main(["run", "power_budget", "--job"]) == 2
        assert "--job needs --url" in capsys.readouterr().err

    def test_metrics_command(self, base_url, capsys):
        assert cli_main(["metrics", "--url", base_url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "/v1/spec" in payload["requests"]
        assert payload["jobs"]["workers"] >= 1

    @pytest.mark.parametrize("flag", ["--coalesce-window-ms",
                                      "--max-coalesce"])
    def test_serve_rejects_removed_scheduler_flags(self, flag, capsys):
        # The job scheduler has one execution path and no tuning flags;
        # argparse refuses the flags before any server is bound.
        with pytest.raises(SystemExit) as excinfo:
            serve_main([flag, "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConcurrentClients:
    def test_parallel_mixed_traffic_is_bit_identical(self, base_url,
                                                     direct_payloads):
        # 16 clients hammer one server with interleaved experiments; every
        # response must still match the direct in-process run exactly.
        names = ["power_budget", "table1", "tia_response", "fig8"] * 4

        def one_client(name: str) -> tuple[str, dict]:
            return name, post_json(base_url + "/v1/spec",
                                   small_request(name).to_dict())

        with ThreadPoolExecutor(max_workers=8) as clients:
            served = list(clients.map(one_client, names))
        assert len(served) == len(names)
        for name, payload in served:
            assert payload["result"] == direct_payloads(name)

    def test_concurrent_batch_and_spec_clients(self, base_url,
                                               direct_payloads):
        batch_body = {"requests": [small_request("table1").to_dict(),
                                   small_request("power_budget").to_dict()]}

        def batch_client() -> list[dict]:
            payload = post_json(base_url + "/v1/batch", batch_body)
            return [entry["result"] for entry in payload["responses"]]

        def spec_client() -> dict:
            return post_json(base_url + "/v1/spec",
                             small_request("tia_response").to_dict())["result"]

        with ThreadPoolExecutor(max_workers=6) as clients:
            batches = [clients.submit(batch_client) for _ in range(3)]
            specs = [clients.submit(spec_client) for _ in range(3)]
            for future in batches:
                assert future.result() == [direct_payloads("table1"),
                                           direct_payloads("power_budget")]
            for future in specs:
                assert future.result() == direct_payloads("tia_response")


class TestHttpErrorMapping:
    def test_malformed_content_length_is_400(self, base_url):
        # urllib cannot send a non-numeric Content-Length; go raw.
        host, port = base_url.removeprefix("http://").split(":")
        raw = (b"POST /v1/spec HTTP/1.1\r\n"
               b"Host: test\r\n"
               b"Content-Length: twelve\r\n"
               b"\r\n")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(raw)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
            reply = b"".join(chunks).decode("utf-8", "replace")
        status_line, _, rest = reply.partition("\r\n")
        assert status_line.split()[1] == "400"
        body = rest.split("\r\n\r\n", 1)[1]
        assert "malformed Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_413(self, base_url):
        # The declared length alone is refused: no body is sent or read.
        host, port = base_url.removeprefix("http://").split(":")
        raw = (b"POST /v1/spec HTTP/1.1\r\n"
               b"Host: test\r\n"
               + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n".encode()
               + b"\r\n")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(raw)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
            reply = b"".join(chunks).decode("utf-8", "replace")
        status_line, _, rest = reply.partition("\r\n")
        assert status_line.split()[1] == "413"
        body = rest.split("\r\n\r\n", 1)[1]
        assert "exceeds" in json.loads(body)["error"]
        # The server keeps serving after refusing the body.
        assert get_json(base_url + "/v1/health") == {"status": "ok"}

    @pytest.fixture()
    def short_client_timeout(self, monkeypatch):
        """Shrink the shipped handler timeout so a stall resolves fast."""
        assert SpecRequestHandler.timeout == CLIENT_TIMEOUT_S > 0
        monkeypatch.setattr(SpecRequestHandler, "timeout", 0.3)

    @staticmethod
    def _stall(url: str, head: bytes) -> bytes:
        """Send ``head``, go silent, and return what arrives before close.

        The health probe runs while the stalled connection is still open:
        one stalled client must not keep the server from answering others.
        """
        host, port = url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(head)
            assert get_json(url + "/v1/health") == {"status": "ok"}
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    @staticmethod
    def _statuses(url: str) -> dict[str, dict[str, int]]:
        requests = get_json(url + "/v1/metrics")["requests"]
        return {endpoint: stats["by_status"]
                for endpoint, stats in requests.items()}

    def test_stalled_headers_close_the_connection(self,
                                                  short_client_timeout):
        with echo_server() as (_server, url):
            reply = self._stall(url, b"POST /v1/spec HTTP/1.1\r\n"
                                     b"Host: test\r\n")
            assert reply == b""
            statuses = self._statuses(url)
        # The request never reached dispatch, so it is not counted at all.
        assert "/v1/spec" not in statuses
        assert not any("500" in by_status for by_status in statuses.values())

    def test_stalled_body_is_408_not_500(self, short_client_timeout):
        with echo_server() as (_server, url):
            reply = self._stall(url, b"POST /v1/spec HTTP/1.1\r\n"
                                     b"Host: test\r\n"
                                     b"Content-Length: 64\r\n"
                                     b"\r\n"
                                     b'{"experiment": ')
            status_line, _, rest = reply.decode("utf-8").partition("\r\n")
            assert status_line.split()[1] == "408"
            body = rest.partition("\r\n\r\n")[2]
            assert "not received within" in json.loads(body)["error"]
            # The server closed the connection after answering (the read
            # loop above ended); it never sent a second response.
            assert reply.count(b"HTTP/1.") == 1
            statuses = self._statuses(url)
        assert statuses["/v1/spec"] == {"408": 1}
        assert not any("500" in by_status for by_status in statuses.values())

    def test_runner_crash_is_500(self):
        with echo_server() as (_server, url):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(url + "/v1/spec",
                          echo_payload(1.0, fail=True))
            assert excinfo.value.code == 500
            error = json.loads(excinfo.value.read())["error"]
            assert "injected runner failure" in error

    @staticmethod
    def _batch_bodies(drop_nth: int) -> list[dict]:
        designs = [MixerDesign(),
                   MixerDesign().with_gain_setting(1.05),
                   MixerDesign().with_gain_setting(1.10)]
        return [{"experiment": "echo_batch", "design": design.to_dict(),
                 "grid": {"drop_nth": drop_nth}} for design in designs]

    def test_batch_member_failure_is_500_not_shortened_list(self):
        with echo_server() as (_server, url):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(url + "/v1/batch",
                          {"requests": self._batch_bodies(drop_nth=1)})
            assert excinfo.value.code == 500
            error = json.loads(excinfo.value.read())["error"]
            assert "returned no result" in error

    def test_batch_order_preserved_over_http(self):
        with echo_server() as (_server, url):
            bodies = self._batch_bodies(drop_nth=-1)
            payload = post_json(url + "/v1/batch", {"requests": bodies})
            served = [entry["design_fingerprint"]
                      for entry in payload["responses"]]
            expected = [MixerDesign.from_dict(body["design"]).fingerprint()
                        for body in bodies]
            assert served == expected


class TestLoadShedding:
    def test_saturated_queue_sheds_429_with_retry_after(self):
        with echo_server(job_workers=1, queue_limit=1) as (_server, url):
            gate = open_gate("http-shed")
            try:
                running = post_json(url + "/v1/jobs", {
                    "request": echo_payload(1.0, gate="http-shed")})["job"]
                wait_for(lambda: poll_job(url, running["id"])["state"]
                         == "running")
                queued = post_json(url + "/v1/jobs", {
                    "request": echo_payload(2.0)})["job"]
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post_json(url + "/v1/jobs",
                              {"request": echo_payload(3.0)})
                assert excinfo.value.code == 429
                assert excinfo.value.headers["Retry-After"] == "1"
                assert "queue is full" in \
                    json.loads(excinfo.value.read())["error"]
            finally:
                gate.set()
            for job in (running, queued):
                wait_for(lambda job=job: poll_job(url, job["id"])["state"]
                         == "done")
            metrics = get_json(url + "/v1/metrics")
            assert metrics["load_shed_total"] == 1
            assert metrics["jobs"]["shed"] == 1
            assert metrics["jobs"]["completed"] == 2


class TestJobsHttp:
    def test_unknown_job_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base_url + "/v1/jobs/job-999999-cafecafe")
        assert excinfo.value.code == 404

    def test_job_lifecycle_with_midrun_progress(self):
        with echo_server() as (_server, url):
            gate = open_gate("http-progress")
            submitted = post_json(url + "/v1/jobs", {
                "request": echo_payload(7.0, gate="http-progress")})["job"]
            assert submitted["state"] in ("queued", "running")
            assert "result" not in submitted
            try:
                midrun = wait_for(
                    lambda: (lambda job: job if job["progress"] else None)(
                        poll_job(url, submitted["id"])))
                assert midrun["state"] == "running"
                assert midrun["progress"]["stage"] == "echo"
                assert "result" not in midrun
                listing = get_json(url + "/v1/jobs")["jobs"]
                assert [submitted["id"]] == [job["id"] for job in listing]
                assert all("result" not in job for job in listing)
            finally:
                gate.set()
            done = wait_for(
                lambda: (lambda job: job if job["state"] == "done" else None)(
                    poll_job(url, submitted["id"])))
            assert done["result"]["result"]["fields"]["value"] == 7.0
            assert done["result"]["experiment"] == "echo"
            assert done["running_s"] >= 0.0

    def test_answered_sync_jobs_leave_the_history(self):
        with echo_server() as (_server, url):
            assert post_json(url + "/v1/spec", echo_payload(1.0))[
                "result"]["fields"]["value"] == 1.0
            post_json(url + "/v1/batch", {"requests": [echo_payload(2.0)]})
            with pytest.raises(urllib.error.HTTPError):
                post_json(url + "/v1/spec", echo_payload(3.0, fail=True))
            submitted = post_json(url + "/v1/jobs", {
                "request": echo_payload(4.0)})["job"]
            wait_for(lambda: poll_job(url, submitted["id"])["state"]
                     == "done")
            listing = get_json(url + "/v1/jobs")["jobs"]
            assert [job["id"] for job in listing] == [submitted["id"]]
            jobs = get_json(url + "/v1/metrics")["jobs"]
            assert jobs["retained"] == 1 and jobs["completed"] == 3

    def test_yield_opt_job_streams_iteration_history(self, base_url,
                                                     monkeypatch):
        from api_test_helpers import ACTIVE_TARGETS
        grid = {"population": 2, "iterations": 3, "num_samples": 2,
                "targets": ACTIVE_TARGETS}
        seen = hold_intermediate_frames(monkeypatch, grid["iterations"])
        submitted = post_json(base_url + "/v1/jobs", {
            "request": {"experiment": "yield_opt", "grid": grid}})["job"]
        frames: list[dict] = []
        job = submitted
        deadline = time.monotonic() + 120
        while job["state"] in ("queued", "running"):
            assert time.monotonic() < deadline, "yield_opt job never finished"
            job = poll_job(base_url, submitted["id"])
            if job["progress"].get("stage") == "yield_opt":
                frames.append(dict(job["progress"], state=job["state"]))
                seen.set()
            time.sleep(0.002)
        assert job["state"] == "done"
        final = job["result"]["result"]["fields"]
        # history crosses the wire as a tagged ndarray; unwrap to compare
        # against the plain-list progress frames.
        final_history = final["history"]["__ndarray__"]
        # Intermediate iteration history was visible *before* completion:
        # at least one running-state frame carried a strict prefix of the
        # final history.
        partial = [frame for frame in frames
                   if frame["state"] == "running"
                   and frame["iteration"] < grid["iterations"]]
        assert partial, "no intermediate yield_opt progress observed"
        for frame in partial:
            assert frame["history"] == final_history[:frame["iteration"]]
        last = frames[-1]
        assert last["iteration"] == grid["iterations"]
        assert last["history"] == final_history
        assert last["best_yield"] == final["best_yield"]

    def test_yield_pareto_job_streams_front_snapshots(self, base_url,
                                                      monkeypatch):
        from api_test_helpers import ACTIVE_TARGETS
        grid = {"population": 2, "iterations": 3, "num_samples": 2,
                "targets": ACTIVE_TARGETS}
        seen = hold_intermediate_frames(monkeypatch, grid["iterations"])
        submitted = post_json(base_url + "/v1/jobs", {
            "request": {"experiment": "yield_pareto", "grid": grid}})["job"]
        frames: list[dict] = []
        job = submitted
        deadline = time.monotonic() + 120
        while job["state"] in ("queued", "running"):
            assert time.monotonic() < deadline, \
                "yield_pareto job never finished"
            job = poll_job(base_url, submitted["id"])
            if job["progress"].get("stage") == "pareto_opt":
                frames.append(dict(job["progress"], state=job["state"]))
                seen.set()
            time.sleep(0.002)
        assert job["state"] == "done"
        final = job["result"]["result"]["fields"]
        # front_history is JSON-ready on both sides (snapshots are built
        # strict-JSON), so progress frames compare directly to the result.
        final_history = final["front_history"]
        assert len(final_history) == grid["iterations"]
        partial = [frame for frame in frames
                   if frame["state"] == "running"
                   and frame["iteration"] < grid["iterations"]]
        assert partial, "no intermediate pareto_opt progress observed"
        for frame in partial:
            # A poller always sees a prefix of the final snapshot history.
            assert frame["front_history"] == \
                final_history[:frame["iteration"]]
            assert frame["front_size"] == len(frame["front_history"][-1])
        last = frames[-1]
        assert last["iteration"] == grid["iterations"]
        assert last["front_history"] == final_history
        assert last["strategy"] == "shrinking_span"


class TestMetricsEndpoint:
    def test_snapshot_shape_and_counters(self, base_url):
        post_json(base_url + "/v1/spec",
                  small_request("power_budget").to_dict())
        snapshot = get_json(base_url + "/v1/metrics")
        assert snapshot["uptime_s"] > 0.0
        spec = snapshot["requests"]["/v1/spec"]
        assert spec["count"] >= 1
        assert spec["by_status"].get("200", 0) >= 1
        assert spec["latency_le_s"]["+Inf"] == spec["count"]
        assert spec["max_s"] >= 0.0
        assert snapshot["experiments"]["power_budget"] >= 1
        assert snapshot["jobs"]["completed"] >= 1
        cache = snapshot["response_cache"]
        assert cache["stores"] >= 1
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_jobs_block_is_the_manager_stats(self, base_url):
        jobs = get_json(base_url + "/v1/metrics")["jobs"]
        manager = JobManager(MixerService(registry=echo_registry()),
                             workers=1, queue_limit=1)
        try:
            assert set(jobs) == set(manager.stats())
        finally:
            manager.shutdown()
        assert "coalesce" not in jobs

    def test_unknown_paths_collapse_to_one_label(self, base_url):
        for suffix in ("/nope", "/also/nope"):
            with pytest.raises(urllib.error.HTTPError):
                get_json(base_url + suffix)
        snapshot = get_json(base_url + "/v1/metrics")
        unknown = snapshot["requests"]["(unknown)"]
        assert unknown["count"] >= 2
        assert unknown["errors"] >= 2


class TestDoubleResponseGuard:
    def test_fail_after_headers_sent_closes_connection(self):
        class FakeHandler:
            _headers_sent = True
            close_connection = False
            logged: list[str] = []

            def log_error(self, format, *args):  # noqa: A002
                self.logged.append(format % args)

        fake = FakeHandler()
        # The fake has no send_response/wfile: any attempt to write a
        # second response would blow up with AttributeError.
        status = SpecRequestHandler._fail(fake, 500, "mid-write failure")
        assert status == 500
        assert fake.close_connection is True
        assert any("mid-write failure" in line for line in fake.logged)

    def test_fail_before_headers_sends_single_error_response(self):
        sent: list[tuple[int, str]] = []

        class FakeHandler:
            _headers_sent = False
            close_connection = False

            def _send_error_json(self, status, message, extra=None):
                sent.append((status, message))
                return status

        status = SpecRequestHandler._fail(FakeHandler(), 400, "bad input")
        assert status == 400
        assert sent == [(400, "bad input")]
