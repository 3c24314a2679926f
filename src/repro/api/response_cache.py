"""Request-level response cache: in-memory LRU over an on-disk store.

This is the layer *above* the sweep engine's :class:`~repro.sweep.cache.\
SpecCache`: where the spec cache remembers solved per-(design, mode)
intermediates so a re-run skips the sizing bisections, the response cache
remembers the **entire encoded answer** to a request, keyed on
``(design fingerprint, experiment, resolved-grid hash)`` — a repeated
identical request never reaches the engine at all (zero sizing bisections,
asserted in ``tests/test_api.py``).

Both tiers follow the same discipline as the spec cache: content-addressed
keys (the request key already folds in :data:`~repro.api.request.\
API_VERSION`), atomic writes, corrupt entries degrading to recompute, and a
:data:`RESPONSE_CACHE_VERSION` stamped on every disk entry so numbers
computed by an older engine miss without touching the wire contract.
The in-memory tier is a bounded LRU so a long-lived server keeps its hot
designs resident without growing unboundedly; the disk tier is shared by
every service instance pointed at the directory (CLI runs, server restarts).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path

from repro.sweep.cache import atomic_write_json

#: Default capacity of the in-memory LRU tier.
DEFAULT_LRU_SIZE = 128

#: Semantics version of the disk entries; bump on any change to what the
#: cached numbers are.  Entries without the stamp predate it (version 1).
RESPONSE_CACHE_VERSION = 2
_VERSION_FIELD = "response_cache_version"


class ResponseCache:
    """Two-tier (memory LRU + optional disk) store of encoded responses.

    Parameters
    ----------
    directory:
        Where the disk tier lives; ``None`` keeps the cache memory-only.
    lru_size:
        Capacity of the memory tier; 0 disables it (disk-only).

    Values are the JSON-ready payloads of :meth:`SpecResponse.to_dict`'s
    ``result`` field plus the identifying metadata; the service rebuilds a
    :class:`~repro.api.request.SpecResponse` around them on a hit.
    """

    def __init__(self, directory: str | Path | None = None,
                 lru_size: int = DEFAULT_LRU_SIZE) -> None:
        if lru_size < 0:
            raise ValueError("lru_size must be non-negative")
        self.directory = Path(directory) if directory is not None else None
        self.lru_size = int(lru_size)
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- keys -----------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    # -- load / store ---------------------------------------------------------

    def load(self, key: str) -> tuple[dict, str] | None:
        """``(entry, tier)`` for a request key, or ``None`` on miss.

        ``tier`` is ``"memory"`` or ``"disk"``.  A disk hit is promoted into
        the memory tier.  Any unreadable, malformed or other-version disk
        entry counts as corrupt and misses (the next store overwrites it).
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.memory_hits += 1
                return entry, "memory"
        if self.directory is None:
            with self._lock:
                self.misses += 1
            return None
        try:
            text = self._path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict) or entry.get("request_key") != key:
                raise ValueError("malformed response-cache entry")
            if entry.pop(_VERSION_FIELD, None) != RESPONSE_CACHE_VERSION:
                raise ValueError("response-cache version mismatch")
        except ValueError:
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self._remember(key, entry)
            self.disk_hits += 1
        return entry, "disk"

    def store(self, key: str, entry: dict) -> None:
        """Persist one response entry under its request key (atomically)."""
        if entry.get("request_key") != key:
            raise ValueError("entry's request_key must match the store key")
        with self._lock:
            self._remember(key, entry)
            self.stores += 1
        if self.directory is None:
            return
        atomic_write_json(self._path(key),
                          {**entry, _VERSION_FIELD: RESPONSE_CACHE_VERSION})

    def _remember(self, key: str, entry: dict) -> None:
        """Insert into the LRU tier, evicting the least recent past capacity."""
        if self.lru_size == 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.lru_size:
            self._memory.popitem(last=False)

    # -- introspection --------------------------------------------------------

    @property
    def memory_size(self) -> int:
        """Entries currently resident in the LRU tier.

        Taken under the cache lock: the metrics endpoint polls this while
        request threads mutate the ``OrderedDict``, and ``len()`` during a
        concurrent re-link is exactly the racy read the lock exists for.
        """
        with self._lock:
            return len(self._memory)

    def stats(self) -> dict:
        """One consistent, JSON-ready snapshot of the cache counters.

        This is what ``GET /v1/metrics`` serves: every counter and the
        derived hit rate read under one lock acquisition, so the numbers
        are mutually consistent even under concurrent traffic (counters
        summed from separate locked reads could tear — e.g. a hit landing
        between reading ``memory_hits`` and ``misses`` skews the rate).
        """
        with self._lock:
            hits = self.memory_hits + self.disk_hits
            lookups = hits + self.misses
            return {
                "memory_entries": len(self._memory),
                "lru_size": self.lru_size,
                "disk_tier": self.directory is not None,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
                "hit_rate": hits / lookups if lookups else 0.0,
            }

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier is untouched)."""
        with self._lock:
            self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.directory) if self.directory else "memory-only"
        return (f"ResponseCache({where!r}, lru={self.memory_size}/"
                f"{self.lru_size}, mem_hits={self.memory_hits}, "
                f"disk_hits={self.disk_hits}, misses={self.misses})")
