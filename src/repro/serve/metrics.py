"""Request metrics for the serving layer: latency histograms and counters.

:class:`ServerMetrics` is the in-process store behind ``GET /v1/metrics``:
every handled request lands one observation (endpoint label, status code,
wall-clock latency), experiment names are counted as requests name them,
and :meth:`snapshot` renders the whole state as one JSON-ready mapping —
combined with the :meth:`ResponseCache.stats` snapshot and the job
manager's counters by the handler.

Everything is guarded by one lock; observations are a few dict updates, so
contention is negligible next to the engine work being measured.  The
histogram is cumulative (Prometheus ``le`` convention): ``buckets[i]``
counts requests at or under ``LATENCY_BUCKETS_S[i]``, with the implicit
``+Inf`` bucket equal to ``count``.
"""

from __future__ import annotations

import threading
import time

#: Histogram bucket upper bounds, in seconds.  Spans the service's real
#: dynamic range: microsecond cache hits through multi-minute yield
#: searches.  The implicit +Inf bucket catches anything slower.
LATENCY_BUCKETS_S = (0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0)


class BucketHistogram:
    """Cumulative bucket counts in the Prometheus ``le`` convention.

    ``le_dict()[str(bound)]`` counts observations at or under ``bound``;
    the implicit ``+Inf`` bucket equals ``count``.  Not self-locking: every
    holder (:class:`ServerMetrics`, the job manager) already serialises its
    observations under its own lock, so a second lock here would only add
    contention.
    """

    __slots__ = ("bounds", "buckets", "count", "total")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1

    def le_dict(self) -> dict[str, int]:
        histogram = {f"{bound:g}": count
                     for bound, count in zip(self.bounds, self.buckets)}
        histogram["+Inf"] = self.count
        return histogram


class _EndpointStats:
    """Per-endpoint counters: one latency histogram plus status classes."""

    __slots__ = ("errors", "max_s", "latency", "by_status")

    def __init__(self) -> None:
        self.errors = 0
        self.max_s = 0.0
        self.latency = BucketHistogram(LATENCY_BUCKETS_S)
        self.by_status: dict[int, int] = {}

    def observe(self, status: int, elapsed_s: float) -> None:
        if status >= 400:
            self.errors += 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s
        self.latency.observe(elapsed_s)

    def to_dict(self) -> dict:
        count = self.latency.count
        return {
            "count": count,
            "errors": self.errors,
            "total_s": self.latency.total,
            "max_s": self.max_s,
            "mean_s": self.latency.total / count if count else 0.0,
            "by_status": {str(code): count
                          for code, count in sorted(self.by_status.items())},
            "latency_le_s": self.latency.le_dict(),
        }


class ServerMetrics:
    """Thread-safe request metrics for one server process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._endpoints: dict[str, _EndpointStats] = {}
        self._experiments: dict[str, int] = {}
        self._shed = 0

    def observe(self, endpoint: str, status: int, elapsed_s: float) -> None:
        """Record one handled request (called once per request, always)."""
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = self._endpoints[endpoint] = _EndpointStats()
            stats.observe(int(status), float(elapsed_s))
            if status == 429:
                self._shed += 1

    def count_experiment(self, name: str, count: int = 1) -> None:
        """Count requested work per experiment name (spec, batch and jobs)."""
        with self._lock:
            self._experiments[name] = self._experiments.get(name, 0) + count

    def snapshot(self) -> dict:
        """JSON-ready state: uptime, per-endpoint histograms, counters."""
        with self._lock:
            return {
                "uptime_s": time.monotonic() - self._started_monotonic,
                "requests": {name: stats.to_dict()
                             for name, stats in
                             sorted(self._endpoints.items())},
                "experiments": dict(sorted(self._experiments.items())),
                "load_shed_total": self._shed,
            }
