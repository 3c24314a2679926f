"""Spans recorded around the served layers, and the per-layer metrics.

:class:`Tracer` keeps spans in memory and writes them out when its process
ends.  A span is ``[id, name, start, end, parent, request_id, counts]``:
times come from :func:`time.monotonic` (the clock the job manager stamps
queue times with, and one clock for every process on the host), ``parent``
is the id of the span that caused it, ``request_id`` is shared by every span
of one HTTP request, and ``counts`` holds the work counters bumped while the
span was the innermost one open on its thread.

:func:`layer_metrics` turns the spans of a timed window into the benchmark's
per-layer numbers.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

clock = time.monotonic

#: Span fields, by position.
ID, NAME, START, END, PARENT, RID, COUNTS = range(7)


class Tracer:
    """Thread-safe in-memory span and counter store for one process.

    ``globals_fn`` returns the program's own process-wide work counters;
    the difference between their values at dump time and at start is
    written next to the spans, so the analysis can check that the wrappers
    saw every unit of counted work.
    """

    def __init__(self, out_dir: str | Path,
                 globals_fn: Callable[[], dict[str, int]]) -> None:
        self.out_dir = Path(out_dir)
        self.globals_fn = globals_fn
        self._reset()
        # Process-pool workers fork from the traced server with these
        # wrappers in place: give each one an empty store and dump it at
        # the worker's normal exit (pool shutdown).
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self.spans: list[list] = []
        self.unscoped: dict[str, int] = {}
        #: job id -> (root span id, request id) of the request that queued it.
        self.job_parents: dict[str, tuple[int, int]] = {}
        self.baseline = self.globals_fn()

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self, outermost: bool = False) -> tuple[int, int] | None:
        """(span id, request id) of this thread's innermost (or root) span."""
        stack = self._stack()
        if not stack:
            return None
        span = stack[0] if outermost else stack[-1]
        return span[ID], span[RID]

    def new_request(self) -> tuple[None, int]:
        """Parent tuple for the root span of a new request."""
        return None, next(self._request_ids)

    def open(self, name: str,
             parent: tuple[int | None, int | None] | None = None
             ) -> list | None:
        """Start a span on this thread, or ``None`` when ``name`` is open here.

        Re-entering a layer (``plan_request`` calling ``validate``) stays
        inside the outer span, so spans of one name never nest.
        """
        stack = self._stack()
        for span in stack:
            if span[NAME] == name:
                return None
        if parent is None:
            parent = self.context() or (None, None)
        span = [next(self._ids), name, clock(), None, parent[0], parent[1],
                None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = clock()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: tuple[int, int] | None) -> None:
        """Add a finished span measured by someone else (queue wait)."""
        parent = parent or (None, None)
        self.spans.append([next(self._ids), name, start, end, parent[0],
                           parent[1], None])

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a counter on this thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        if stack:
            span = stack[-1]
            counts = span[COUNTS]
            if counts is None:
                counts = span[COUNTS] = {}
            counts[name] = counts.get(name, 0) + amount
            return
        with self._lock:
            self.unscoped[name] = self.unscoped.get(name, 0) + amount

    def wrap(self, name: str, func: Callable,
             after: Callable[..., None] | None = None) -> Callable:
        """``func`` inside a span; ``after(result, *args, **kwargs)`` counts."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                if span is not None:
                    tracer.close(span)
        return traced

    def counting(self, counter: str, func: Callable) -> Callable:
        """``func`` counted once per call, with no span (hot inner calls)."""
        count = self.count

        @functools.wraps(func)
        def counted(*args, **kwargs):
            count(counter)
            return func(*args, **kwargs)
        return counted

    def dump(self) -> Path:
        """Write this process's spans, counters and global deltas."""
        now = self.globals_fn()
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "unscoped": self.unscoped,
            "globals": {key: now[key] - self.baseline.get(key, 0)
                        for key in now},
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path


# -- analysis -----------------------------------------------------------------

#: Counters the program also keeps process-wide; the traced totals must
#: equal the deltas of those globals.
GLOBAL_COUNTERS = ("core.sizing.solves", "core.sizing.batched_solves",
                   "waveform.ffts", "digital.passes")

#: Spans whose own self time is work no named layer claims.
CONTAINER_SPANS = ("serve.request", "serve.job", "api.submit")

#: Per-layer metric -> (kind, source, scale).  ``self``/``total`` sum the
#: self time / duration of the named span; ``count`` sums a counter.  Every
#: value is per operation (one HTTP request) in the timed window.
LAYER_METRICS: dict[str, tuple[str, str, float]] = {
    "serve.queue_wait_ms": ("total", "serve.queue_wait", 1e3),
    "api.plan_us": ("self", "api.plan", 1e6),
    "api.response_cache.load_us": ("self", "api.response_cache.load", 1e6),
    "api.response_cache.store_us": ("self", "api.response_cache.store", 1e6),
    "api.encode_us": ("self", "api.encode", 1e6),
    "api.decode_us": ("self", "api.decode", 1e6),
    "api.fingerprint_calls": ("count", "api.fingerprint_calls", 1.0),
    "core.sizing.solves": ("count", "core.sizing.solves", 1.0),
    "core.sizing.batched_solves": ("count", "core.sizing.batched_solves", 1.0),
    "core.sizing_ms": ("self", "core.sizing", 1e3),
    "devices.operating_point_calls":
        ("count", "devices.operating_point_calls", 1.0),
    "sweep.run_ms": ("self", "sweep.run", 1e3),
    "sweep.parallel.ms": ("self", "sweep.parallel", 1e3),
    "sweep.parallel.shards": ("count", "sweep.parallel.shards", 1.0),
    "sweep.cache.hits": ("count", "sweep.cache.hits", 1.0),
    "sweep.cache.misses": ("count", "sweep.cache.misses", 1.0),
    "sweep.cache.io_ms": ("self", "sweep.cache.io", 1e3),
    "waveform.eval_ms": ("self", "waveform.eval", 1e3),
    "waveform.ffts": ("count", "waveform.ffts", 1.0),
    "waveform.cache.hits": ("count", "waveform.cache.hits", 1.0),
    "waveform.cache.misses": ("count", "waveform.cache.misses", 1.0),
    "rf.filter_ms": ("self", "rf.filter", 1e3),
    "digital.eval_ms": ("self", "digital.eval", 1e3),
    "digital.passes": ("count", "digital.passes", 1.0),
    "digital.cache.hits": ("count", "digital.cache.hits", 1.0),
    "digital.cache.misses": ("count", "digital.cache.misses", 1.0),
    "optimize.candidates": ("count", "optimize.candidates", 1.0),
    "optimize.generations": ("count", "optimize.generations", 1.0),
    "optimize.score_ms": ("total", "optimize.score", 1e3),
}


def load_spans(directory: Path) -> list[dict[str, Any]]:
    """Every process dump written under ``directory``."""
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(Path(directory).glob("spans-*.json"))]


def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(dumps: list[dict[str, Any]], window: tuple[float, float]
               ) -> tuple[dict[str, float], dict[str, float],
                          dict[str, int], int]:
    """Per span name: self time, total time and counters, inside ``window``.

    A span belongs to the window when it starts inside it.  Returns
    ``(self_s, total_s, counters, requests)`` where ``requests`` counts the
    root ``serve.request`` spans.
    """
    lo, hi = window
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    requests = 0
    for dump in dumps:
        spans = [span for span in dump["spans"] if lo <= span[START] < hi]
        children: dict[int, list[tuple[float, float]]] = {}
        for span in dump["spans"]:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append(
                    (span[START], span[END]))
        for span in spans:
            name = span[NAME]
            duration = span[END] - span[START]
            covered = _covered(span[START], span[END],
                               children.get(span[ID], ()))
            self_s[name] = self_s.get(name, 0.0) + duration - covered
            total_s[name] = total_s.get(name, 0.0) + duration
            for counter, amount in (span[COUNTS] or {}).items():
                counters[counter] = counters.get(counter, 0) + amount
            if name == "serve.request":
                requests += 1
    return self_s, total_s, counters, requests


def consistency(dumps: list[dict[str, Any]]) -> dict[str, tuple[int, int]]:
    """Counter -> (traced total, program's own delta), whole lifetime."""
    out: dict[str, tuple[int, int]] = {}
    for name in GLOBAL_COUNTERS:
        traced = program = 0
        for dump in dumps:
            program += dump["globals"].get(name, 0)
            traced += dump["unscoped"].get(name, 0)
            for span in dump["spans"]:
                traced += (span[COUNTS] or {}).get(name, 0)
        out[name] = (traced, program)
    return out


def layer_metrics(dumps: list[dict[str, Any]], window: tuple[float, float],
                  client_latency_s: float, response_bytes: float
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of one traced window, per operation.

    ``client_latency_s`` and ``response_bytes`` are the client's per-op
    means over the same window.  Returns ``(metrics, self_ms_by_span)``;
    the second maps every span name seen to its self time per op, for the
    human-readable breakdown.
    """
    self_s, total_s, counters, requests = self_times(dumps, window)
    ops = max(requests, 1)
    metrics: dict[str, float] = {}
    for metric, (kind, source, scale) in LAYER_METRICS.items():
        if kind == "count":
            value = counters.get(source, 0)
        elif kind == "self":
            value = self_s.get(source, 0.0)
        else:
            value = total_s.get(source, 0.0)
        metrics[metric] = value * scale / ops
    in_service = total_s.get("api.submit", 0.0) / ops
    metrics["serve.http_overhead_ms"] = (client_latency_s - in_service) * 1e3
    metrics["serve.unattributed_ms"] = sum(
        self_s.get(name, 0.0) for name in CONTAINER_SPANS) * 1e3 / ops
    hits = counters.get("api.response_cache.hits", 0)
    lookups = hits + counters.get("api.response_cache.misses", 0)
    metrics["api.response_cache.hit_ratio"] = hits / lookups if lookups \
        else 0.0
    metrics["api.response_bytes"] = response_bytes
    # Set-up cost, not per op: every process, the whole traced lifetime.
    metrics["rf.scipy_import_ms"] = 1e3 * sum(
        span[END] - span[START] for dump in dumps for span in dump["spans"]
        if span[NAME] == "rf.scipy_import")
    breakdown = {name: value * 1e3 / ops
                 for name, value in sorted(self_s.items())}
    return metrics, breakdown
