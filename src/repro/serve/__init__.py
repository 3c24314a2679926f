"""HTTP/JSON serving surface over :class:`~repro.api.service.MixerService`.

``python -m repro.serve`` boots a dependency-free (stdlib ``http.server``)
threaded JSON server exposing the spec service:

* ``GET  /v1/health``       — liveness probe (``{"status": "ok"}``);
* ``GET  /v1/experiments``  — registry metadata for every experiment;
* ``GET  /v1/metrics``      — latency histograms, per-experiment counters,
  response-cache and job-manager stats;
* ``POST /v1/spec``         — one :class:`~repro.api.request.SpecRequest`
  payload in, one :class:`~repro.api.request.SpecResponse` payload out;
* ``POST /v1/batch``        — ``{"requests": [...]}`` in, ``{"responses":
  [...]}`` out, fanned out through :meth:`MixerService.submit_batch`;
* ``POST /v1/jobs``         — async submit (one request or a batch),
  ``202`` with a job id;
* ``GET  /v1/jobs``         — status summaries of the retained jobs;
* ``GET  /v1/jobs/<id>``    — job status, streamed partial progress
  (yield-opt iteration history, completed sweep shards), and the result
  once done.

Every request — synchronous or async — flows through one bounded
:class:`~repro.serve.jobs.JobManager`: ``/v1/spec`` and ``/v1/batch`` are
thin submit-and-wait wrappers over the same worker pool the job endpoints
use, so a response is bit-identical to the in-process call (``json``
round-trips every double exactly; asserted in ``tests/test_serve.py`` and
by the CI serve-smoke job) while a saturated queue sheds load with ``429``
instead of queueing unboundedly.  Request errors map to ``400`` with a
JSON body naming the problem, a body over :data:`MAX_BODY_BYTES` to
``413``, a body stalled past :data:`CLIENT_TIMEOUT_S` to ``408``; unknown
paths to ``404``.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api.request import API_VERSION, ApiVersionError, RequestValidationError
from repro.api.service import MixerService
from repro.serve.jobs import (
    DEFAULT_JOB_WORKERS,
    DEFAULT_QUEUE_LIMIT,
    ERROR_VALIDATION,
    JobManager,
    JobQueueFullError,
    encode_json,
)
from repro.serve.metrics import ServerMetrics
from repro.sweep.parallel import shutdown_pool

#: Upper bound on accepted request bodies (a design payload is ~1 kB; a
#: thousand-request batch fits comfortably — this only stops abuse).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a socket read from a client may stall (request line, headers,
#: body, next keep-alive request) before the handler thread drops it.
CLIENT_TIMEOUT_S = 30.0


class PayloadTooLargeError(RequestValidationError):
    """A request body over :data:`MAX_BODY_BYTES`: answered ``413``."""


class BodyTimeoutError(Exception):
    """A body stalled past :data:`CLIENT_TIMEOUT_S`: answered ``408``."""


class SpecHTTPServer(ThreadingHTTPServer):
    """Threaded server owning the shared service, job manager and metrics."""

    # http.server's default listen backlog of 5 drops SYNs under a burst of
    # concurrent clients — each dropped SYN costs the client a ~1s kernel
    # retransmit before the request even reaches the handler (exposed by
    # benchmarks/test_bench_serve.py).  Admission control belongs to the
    # job queue (429), not to silent backlog overflow.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], handler_class,
                 service: MixerService, verbose: bool = False,
                 job_workers: int = DEFAULT_JOB_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        super().__init__(address, handler_class)
        self.service = service
        self.verbose = verbose
        self.metrics = ServerMetrics()
        self.jobs = JobManager(service, workers=job_workers,
                               queue_limit=queue_limit)

    def server_close(self) -> None:
        self.jobs.shutdown(wait=True)
        shutdown_pool()
        super().server_close()


class SpecRequestHandler(BaseHTTPRequestHandler):
    """Routes the endpoints onto the server's shared :class:`JobManager`."""

    server_version = "repro-serve/3"
    server: SpecHTTPServer
    # http.server closes a connection stalled in its headers; a stalled
    # body is answered 408 (see _read_json_body).
    timeout = CLIENT_TIMEOUT_S

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict | bytes,
                   extra_headers: dict[str, str] | None = None) -> int:
        # ``bytes`` are an already-encoded body (a finished job's result);
        # anything else goes through the same strict-JSON encoder.
        body = payload if isinstance(payload, bytes) else encode_json(payload)
        # From here the status line is on the wire: any later failure must
        # drop the connection, never write a second response into it.
        self._headers_sent = True
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return status

    def _send_error_json(self, status: int, message: str,
                         extra: dict[str, Any] | None = None) -> int:
        headers = {"Retry-After": "1"} if status == 429 else None
        body: dict[str, Any] = {"error": message}
        if extra:
            body.update(extra)
        return self._send_json(status, body, extra_headers=headers)

    def _read_json_body(self) -> Any:
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            # A malformed header is the client's error, not a server 500.
            raise RequestValidationError(
                f"malformed Content-Length header {raw_length!r}") from None
        if length <= 0:
            raise RequestValidationError("request body must be JSON")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLargeError(
                f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise BodyTimeoutError(
                f"request body not received within {self.timeout} s") \
                from None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestValidationError(f"bad JSON body: {error}") from None

    # -- dispatch -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _endpoint_label(self) -> str:
        """Metric label: job ids collapse so cardinality stays bounded."""
        path = self.path.split("?", 1)[0]
        if path.startswith("/v1/jobs/"):
            return "/v1/jobs/{id}"
        known = {"/v1/health", "/v1/experiments", "/v1/metrics",
                 "/v1/spec", "/v1/batch", "/v1/jobs"}
        return path if path in known else "(unknown)"

    def _dispatch(self, method: str) -> None:
        self._headers_sent = False
        started = time.perf_counter()
        status = 0
        try:
            if method == "GET":
                status = self._route_get()
            else:
                status = self._route_post()
        except ApiVersionError as error:
            # Structured body: a version-skewed client needs to know which
            # side is behind, not just that the request was bad.
            status = self._fail(400, str(error), extra={
                "error_kind": "api_version_mismatch",
                "client_api_version": error.client_version,
                "server_api_version": error.server_version,
            })
        except PayloadTooLargeError as error:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            status = self._fail(413, str(error))
        except BodyTimeoutError as error:
            self.close_connection = True  # the body is half read
            status = self._fail(408, str(error))
        except RequestValidationError as error:
            status = self._fail(400, str(error))
        except JobQueueFullError as error:
            status = self._fail(429, str(error))
        except Exception as error:  # noqa: BLE001 - surface, don't kill thread
            status = self._fail(500, f"{type(error).__name__}: {error}")
        finally:
            self.server.metrics.observe(self._endpoint_label(), status,
                                        time.perf_counter() - started)

    def _fail(self, status: int, message: str,
              extra: dict[str, Any] | None = None) -> int:
        """Send an error response — unless one response already started.

        If the failure happened mid-write (client disconnect, an
        ``allow_nan`` regression after ``send_response``), the status line
        is already on the wire: writing a second response into the same
        connection would corrupt the stream for a keep-alive client, so
        drop the connection instead.
        """
        if self._headers_sent:
            self.close_connection = True
            self.log_error("response already started; closing connection "
                           "instead of double-responding: %s", message)
            return status
        try:
            return self._send_error_json(status, message, extra=extra)
        except OSError:
            # The client is gone; nothing left to answer.
            self.close_connection = True
            return status

    # -- endpoints ------------------------------------------------------------

    def _route_get(self) -> int:
        path = self.path.split("?", 1)[0]
        if path == "/v1/health":
            return self._send_json(200, {"status": "ok"})
        if path == "/v1/experiments":
            return self._send_json(
                200, {"api_version": API_VERSION,
                      "experiments": self.server.service.experiments()})
        if path == "/v1/metrics":
            return self._send_json(200, self._metrics_payload())
        if path == "/v1/jobs":
            jobs = [job.describe(include_result=False)
                    for job in self.server.jobs.jobs()]
            return self._send_json(200, {"jobs": jobs})
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            try:
                job = self.server.jobs.get(job_id)
            except KeyError as error:
                return self._send_error_json(404, str(error))
            return self._send_json(200, {"job": job.describe()})
        return self._send_error_json(
            404, f"unknown path {self.path!r}; endpoints: /v1/health "
                 "/v1/experiments /v1/metrics /v1/spec /v1/batch /v1/jobs")

    def _route_post(self) -> int:
        if self.path == "/v1/spec":
            payload = self._read_json_body()
            job = self.server.jobs.submit(payload)
            self._count_experiments(job)
            return self._finish_sync(job)
        if self.path == "/v1/batch":
            payload = self._read_json_body()
            if not isinstance(payload, dict) \
                    or not isinstance(payload.get("requests"), list):
                raise RequestValidationError(
                    "batch body must be {\"requests\": [...]}")
            job = self.server.jobs.submit_batch(payload["requests"])
            self._count_experiments(job)
            return self._finish_sync(job)
        if self.path == "/v1/jobs":
            payload = self._read_json_body()
            if not isinstance(payload, dict):
                raise RequestValidationError(
                    "job submit body must be {\"request\": {...}} or "
                    "{\"requests\": [...]}")
            if "request" in payload:
                job = self.server.jobs.submit(payload["request"])
            elif isinstance(payload.get("requests"), list):
                job = self.server.jobs.submit_batch(payload["requests"])
            else:
                raise RequestValidationError(
                    "job submit body must be {\"request\": {...}} or "
                    "{\"requests\": [...]}")
            self._count_experiments(job)
            return self._send_json(202,
                                   {"job": job.describe(include_result=False)})
        return self._send_error_json(404, f"unknown path {self.path!r}")

    def _count_experiments(self, job) -> None:
        for name in job.experiments:
            self.server.metrics.count_experiment(name)

    def _finish_sync(self, job) -> int:
        """Wait for a job and answer with it as the sync endpoints always did.

        A validation failure is the client's fault (400), anything else is
        the server's (500); a done job's ``result`` *is* the encoded
        response body, so the sync wire format is unchanged down to the
        byte.  The answered job leaves the polling history.
        """
        job = self.server.jobs.wait(job)
        try:
            if job.state == "failed":
                status = 400 if job.error_kind == ERROR_VALIDATION else 500
                return self._send_error_json(status, job.error)
            return self._send_json(200, job.result)
        finally:
            self.server.jobs.release(job)

    def _metrics_payload(self) -> dict:
        payload = self.server.metrics.snapshot()
        payload["jobs"] = self.server.jobs.stats()
        cache = self.server.service.response_cache
        payload["response_cache"] = cache.stats() if cache is not None \
            else None
        return payload


def create_server(host: str = "127.0.0.1", port: int = 0,
                  service: MixerService | None = None,
                  verbose: bool = False,
                  job_workers: int = DEFAULT_JOB_WORKERS,
                  queue_limit: int = DEFAULT_QUEUE_LIMIT) -> SpecHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (0 = ephemeral).

    The returned server's ``server_address`` carries the actually bound
    port; call ``serve_forever()`` (or wrap in a thread for tests).
    ``job_workers`` bounds concurrent engine runs, ``queue_limit`` bounds
    waiting jobs (beyond it submits shed with 429).  Sharded engine runs
    draw from the process-wide pool of :mod:`repro.sweep.parallel`, which
    stays up across requests; ``server_close()`` joins the jobs and then
    shuts that pool down.
    """
    shared = service if service is not None else MixerService()
    return SpecHTTPServer((host, port), SpecRequestHandler, shared,
                          verbose=verbose, job_workers=job_workers,
                          queue_limit=queue_limit)


def serve_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    """Run ``server`` on a daemon thread (test/demo helper)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.serve``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the paper's experiments as an HTTP/JSON API.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8337,
                        help="bind port; 0 picks a free one (default 8337)")
    parser.add_argument("--workers", type=int, default=None,
                        help="default sweep-engine worker count")
    parser.add_argument("--job-workers", type=int,
                        default=DEFAULT_JOB_WORKERS,
                        help="job-manager worker threads — bounds how many "
                             "requests compute at once (default "
                             f"{DEFAULT_JOB_WORKERS})")
    parser.add_argument("--queue-limit", type=int,
                        default=DEFAULT_QUEUE_LIMIT,
                        help="max queued jobs before submits shed with 429 "
                             f"(default {DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--spec-cache", default=None, metavar="DIR",
                        help="on-disk spec cache directory for the engine")
    parser.add_argument("--response-cache", default=None, metavar="DIR",
                        help="on-disk response cache directory")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)

    service = MixerService(
        response_cache=args.response_cache,
        spec_cache=args.spec_cache,
        workers=args.workers,
    )
    server = create_server(args.host, args.port, service=service,
                           verbose=args.verbose,
                           job_workers=args.job_workers,
                           queue_limit=args.queue_limit)
    # SIGTERM takes Ctrl-C's path, so server_close() joins the jobs and
    # the process pool instead of orphaning its workers.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    host, port = server.server_address[:2]
    # The smoke harness parses this line to find an ephemeral port.
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        signal.signal(signal.SIGTERM, previous)
    return 0
