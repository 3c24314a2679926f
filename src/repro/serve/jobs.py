"""Async job manager: bounded queue + persistent workers over MixerService.

This is the serving layer's answer to "a single slow ``yield_opt`` request
monopolises a handler thread": work submitted as a **job** returns a job id
immediately, executes on a small persistent pool of worker threads shared
by every request (which in turn draw from the shared process pools of
:mod:`repro.sweep.parallel` when ``workers=`` asks for sharding — no
per-run executor spin-up), and is observable while it runs through the
:mod:`repro.api.progress` channel: yield-opt iteration history and
completed sweep/waveform shards stream into ``GET /v1/jobs/<id>``.

Backpressure is explicit: the queue is bounded, and a submit past the
bound raises :class:`JobQueueFullError` — the HTTP layer maps it to
``429`` so a saturated server sheds load instead of queueing unboundedly.

The synchronous endpoints are thin wrappers over the same path
(:meth:`JobManager.submit` + :meth:`JobManager.wait`), so every request —
sync or async — flows through one bounded pool and one accounting surface,
and a ``/v1/spec`` response stays bit-identical to the in-process
:meth:`MixerService.submit` call it always was.
"""

from __future__ import annotations

import itertools
import json
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.api.progress import progress_scope
from repro.api.request import RequestValidationError, SpecRequest
from repro.api.service import MixerService
from repro.serve.metrics import BucketHistogram, LATENCY_BUCKETS_S

#: Job lifecycle states, in order.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Defaults for the manager knobs (overridable per server via the CLI).
DEFAULT_JOB_WORKERS = 2
DEFAULT_QUEUE_LIMIT = 32
DEFAULT_HISTORY_LIMIT = 256

#: Failure classes: a validation failure is the client's fault (HTTP 400),
#: anything else is the server's (HTTP 500).
ERROR_VALIDATION = "validation"
ERROR_INTERNAL = "internal"


def encode_json(payload: Any) -> bytes:
    """``payload`` as strict RFC 8259 JSON bytes — the wire encoding.

    ``allow_nan=False`` guards the wire contract: non-finite floats travel
    as tagged values (see :mod:`repro.api.serialization`), so a regression
    raises here instead of emitting a bare Infinity/NaN token no
    non-Python client parses.
    """
    return json.dumps(payload, allow_nan=False).encode("utf-8")


class JobQueueFullError(RuntimeError):
    """Submit refused: the bounded job queue is at capacity (HTTP 429)."""


@dataclass
class Job:
    """One unit of submitted work and everything observable about it."""

    id: str
    kind: str                               # "spec" | "batch"
    requests: list[SpecRequest]
    state: str = JOB_QUEUED
    created_unix: float = field(default_factory=time.time)
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: float | None = None
    finished_monotonic: float | None = None
    progress: dict[str, Any] = field(default_factory=dict)
    #: The finished result as its wire bytes (:func:`encode_json`), encoded
    #: once by the worker: a retained job holds one flat buffer instead of
    #: the response's dict tree, and the sync endpoints write it unchanged.
    result: bytes | None = None
    error: str | None = None
    error_kind: str | None = None
    done_event: threading.Event = field(default_factory=threading.Event)

    @property
    def experiments(self) -> list[str]:
        """Experiment names this job evaluates, in request order."""
        return [request.experiment for request in self.requests]

    def describe(self, include_result: bool = True) -> dict:
        """JSON-ready status payload (what ``GET /v1/jobs/<id>`` serves)."""
        now = time.monotonic()
        queued_s = (self.started_monotonic
                    if self.started_monotonic is not None
                    else now) - self.submitted_monotonic
        running_s = 0.0
        if self.started_monotonic is not None:
            running_s = (self.finished_monotonic
                         if self.finished_monotonic is not None
                         else now) - self.started_monotonic
        payload: dict = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "experiments": self.experiments,
            "created_unix": self.created_unix,
            "queued_s": queued_s,
            "running_s": running_s,
            "progress": dict(self.progress),
        }
        if self.error is not None:
            payload["error"] = self.error
            payload["error_kind"] = self.error_kind
        if include_result and self.state == JOB_DONE:
            payload["result"] = json.loads(self.result)
        return payload


def _parse_spec_payload(payload: Any) -> SpecRequest:
    """A submit payload as a validated request (errors are client errors)."""
    if isinstance(payload, SpecRequest):
        return payload
    if not isinstance(payload, Mapping):
        raise RequestValidationError("request payload must be a mapping")
    return SpecRequest.from_dict(payload)


class JobManager:
    """Bounded job queue executed by a persistent worker-thread pool.

    Parameters
    ----------
    service:
        The shared :class:`MixerService` every job dispatches through.
    workers:
        Worker threads executing jobs; this (not the HTTP thread count)
        bounds how many engine runs are in flight at once.
    queue_limit:
        Maximum jobs *waiting* to start; a submit past the bound raises
        :class:`JobQueueFullError` (load shedding, never unbounded growth).
    history_limit:
        Finished jobs retained for status polling before the oldest are
        evicted; running and queued jobs are never evicted.
    """

    def __init__(self, service: MixerService,
                 workers: int = DEFAULT_JOB_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 history_limit: int = DEFAULT_HISTORY_LIMIT) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if history_limit < 1:
            raise ValueError("history_limit must be at least 1")
        self.service = service
        self.queue_limit = int(queue_limit)
        self.history_limit = int(history_limit)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}      # insertion-ordered (py>=3.7)
        self._pending: list[Job] = []
        self._running = 0
        self._counter = itertools.count(1)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._queue_wait = BucketHistogram(LATENCY_BUCKETS_S)
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-job-worker-{index}", daemon=True)
            for index in range(int(workers))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Queue one spec request (mapping or :class:`SpecRequest`).

        Parse errors raise :class:`RequestValidationError` synchronously —
        a malformed submit never occupies a queue slot.
        """
        return self._enqueue("spec", [_parse_spec_payload(payload)])

    def submit_batch(self, payloads: Sequence[Any]) -> Job:
        """Queue one batch job over many spec-request payloads."""
        if not isinstance(payloads, Sequence) or isinstance(payloads, (str, bytes)):
            raise RequestValidationError(
                "batch body must be {\"requests\": [...]}")
        requests = [_parse_spec_payload(entry) for entry in payloads]
        if not requests:
            raise RequestValidationError("batch needs at least one request")
        return self._enqueue("batch", requests)

    def _enqueue(self, kind: str, requests: list[SpecRequest]) -> Job:
        with self._wake:
            if self._closed:
                raise RuntimeError("job manager is shut down")
            if len(self._pending) >= self.queue_limit:
                self._shed += 1
                raise JobQueueFullError(
                    f"job queue is full ({self.queue_limit} waiting); "
                    f"retry later")
            job = Job(id=f"job-{next(self._counter):06d}-"
                         f"{secrets.token_hex(4)}",
                      kind=kind, requests=requests)
            self._jobs[job.id] = job
            self._pending.append(job)
            self._submitted += 1
            self._evict_finished_locked()
            self._wake.notify()
        return job

    # -- execution ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed and not self._pending:
                    return
                job = self._pending.pop(0)
                job.state = JOB_RUNNING
                job.started_monotonic = time.monotonic()
                self._queue_wait.observe(job.started_monotonic
                                         - job.submitted_monotonic)
                self._running += 1
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._running -= 1
                job.done_event.set()

    def _execute(self, job: Job) -> None:
        def _merge(fields: dict) -> None:
            with self._lock:
                job.progress.update(fields)

        try:
            with progress_scope(_merge):
                if job.kind == "spec":
                    response = self.service.submit(job.requests[0])
                    payload: dict = response.to_dict()
                else:
                    responses = self.service.submit_batch(job.requests)
                    payload = {"responses": [r.to_dict() for r in responses]}
            result = encode_json(payload)
            with self._lock:
                job.result = result
                job.state = JOB_DONE
                job.finished_monotonic = time.monotonic()
                self._completed += 1
        except Exception as error:  # noqa: BLE001 - job must record any failure
            validation = isinstance(error, RequestValidationError)
            with self._lock:
                job.error = (str(error) if validation
                             else f"{type(error).__name__}: {error}")
                job.error_kind = (ERROR_VALIDATION if validation
                                  else ERROR_INTERNAL)
                job.state = JOB_FAILED
                job.finished_monotonic = time.monotonic()
                self._failed += 1

    # -- observation ----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job for ``job_id``; ``KeyError`` when unknown or evicted."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r} (finished jobs are "
                               f"evicted after {self.history_limit} newer "
                               f"ones)") from None

    def wait(self, job: Job, timeout: float | None = None) -> Job:
        """Block until ``job`` finishes (the sync endpoints' other half)."""
        if not job.done_event.wait(timeout):
            # Snapshot the state under the lock: a worker may be flipping
            # queued -> running -> done concurrently, and the error message
            # must report one coherent value, not a torn read.
            with self._lock:
                state = job.state
            raise TimeoutError(f"job {job.id} still {state} "
                               f"after {timeout}s")
        return job

    def release(self, job: Job) -> None:
        """Evict a finished job whose submitter already holds its result.

        The synchronous endpoints call this once their response is
        written: the result went out on that connection, so retaining it
        for polling would only hold its bytes (and its requests' design
        records) until 256 newer jobs push it out.
        """
        with self._lock:
            if job.state in (JOB_DONE, JOB_FAILED):
                self._jobs.pop(job.id, None)

    def jobs(self) -> list[Job]:
        """Every retained job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        """JSON-ready manager counters for ``GET /v1/metrics``."""
        with self._lock:
            return {
                "workers": len(self._threads),
                "queue_limit": self.queue_limit,
                "queued": len(self._pending),
                "running": self._running,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "shed": self._shed,
                "retained": len(self._jobs),
                "queue_wait_le_s": self._queue_wait.le_dict(),
            }

    # -- lifecycle ------------------------------------------------------------

    def _evict_finished_locked(self) -> None:
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.state in (JOB_DONE, JOB_FAILED)]
        excess = len(finished) - self.history_limit
        for job_id in finished[:max(excess, 0)]:
            del self._jobs[job_id]

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting work and (optionally) join the worker threads."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
