"""Content-addressed on-disk cache of evaluated mixer cells.

Every engine evaluates the same unit of work: one **cell**, a (design,
mode) pair, optionally under a plan (the waveform engine's stimulus, the
digital engine's bit widths).  :class:`CellCache` persists the cell's
expensive result — the spec engine's solved
:class:`~repro.core.reconfigurable_mixer.SpecIntermediates`, the waveform
and digital engines' measure arrays — keyed on a content hash of

* the cache's **namespace** (``"spec"``, ``"waveform"``, ``"digital"``) and
  its **version**,
* :meth:`MixerDesign.fingerprint` (a SHA-256 over the canonical parameter
  dictionary),
* the :class:`~repro.core.config.MixerMode`, and
* the plan's ``content_hash()`` (none for the spec engine),

so a re-run of a Monte-Carlo grid, a refined sweep or a parallel shard in
another process skips the cell's sizing, FFT or quantization work entirely.
Each engine declares one subclass naming its namespace, version and codec:
:class:`SpecCache` here, :class:`~repro.waveform.cache.WaveformCache` and
:class:`~repro.digital.cache.DigitalIfCache` beside their engines.

Key properties:

* **one SQLite database per directory** — every namespace's entries live
  in the ``cells`` table of :data:`DATABASE_NAME` (WAL mode; needs a local
  file system), a rowid table: with 0.5-1.1 KB rows under random keys, the
  older ``WITHOUT ROWID`` table's commits slowed as it grew (directories
  holding one keep it).  The same database holds the
  :class:`~repro.api.response_cache.ResponseCache` disk tier in its
  ``responses`` table; both go through :func:`read_rows` and
  :func:`write_rows`.  ``*.json`` entries of the older file-per-entry
  layouts are ignored;
* **block I/O** — an engine run makes one :meth:`~CellCache.load_many`
  (one ``SELECT … WHERE key IN (…)``) and one :meth:`~CellCache.store_many`
  (one ``INSERT OR REPLACE`` transaction); ``load``/``store`` are blocks
  of one;
* **content-addressed** — any design parameter, mode or plan change maps to
  a different entry, and the namespace keeps the engines apart;
* **versioned invalidation** — bump a cache's ``version`` whenever the
  meaning of its payload changes (new spec model, changed units): old
  entries stop matching and are recomputed, never reinterpreted;
* **corruption-safe** — the stored identity is checked on every load and
  the codec validates the payload; any malformed or mismatched entry (or a
  file that is not a database) is a miss, and the recomputed cell replaces
  the entry;
* **failure-tolerant** — a failed write (full disk, read-only or broken
  database) counts every cell of the block in ``write_errors`` and is
  otherwise ignored: the caller already holds the computed result;
* **switchable** — pass ``cache=None``/``False`` (the default everywhere)
  for no caching; ``REPRO_SWEEP_CACHE_DIR`` overrides the default
  directory of ``cache=True``.

Cache instances are cheap, picklable handles around a directory.  A
process holds at most one connection per directory and
:data:`_MAX_CONNECTIONS` in all; a forked child never touches the ones it
inherited.  Processes sharing a directory (the shards of a
:class:`~repro.sweep.parallel.ShardedRunner`) are serialised by SQLite.
``sqlite3`` is imported on first use, so caching off never loads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import SpecIntermediates

#: Environment variable overriding the default cache directory.
DIRECTORY_ENV = "REPRO_SWEEP_CACHE_DIR"

#: The SQLite file holding every entry of one cache directory.
DATABASE_NAME = "cells.sqlite"

_MAX_CONNECTIONS = 4  # least recently used closes first
_MAX_KEYS = 999  # per ``IN (…)``: SQLite's historical parameter limit

_lock = threading.Lock()
_connections: OrderedDict = OrderedDict()  # database path -> connection
# A forked child's copies of the parent's connections: never used, and
# never closed, since closing one could disturb the parent's file locks.
_inherited: list = []


def _forget_inherited() -> None:
    global _lock
    _lock = threading.Lock()
    _inherited.extend(_connections.values())
    _connections.clear()


os.register_at_fork(after_in_child=_forget_inherited)


def _open(path: Path):
    import sqlite3
    connection = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
    try:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA cache_size=-256")  # KiB, not ~2 MB
        # Rowid tables (see the module docstring); an older directory's
        # WITHOUT ROWID cells table is kept: every statement works on both.
        for table in ("cells", "responses"):
            connection.execute(f"CREATE TABLE IF NOT EXISTS {table} (key "
                               "TEXT PRIMARY KEY, entry TEXT NOT NULL)")
    except BaseException:
        connection.close()
        raise
    return connection


def _connection(directory: Path, create: bool):
    """This process's connection to ``directory``'s database (hold ``_lock``).

    ``None`` when the database does not exist and ``create`` is false, so
    a read never creates files.
    """
    path = directory / DATABASE_NAME
    connection = _connections.pop(path, None)
    if connection is None:
        if not create and not path.exists():
            return None
        directory.mkdir(parents=True, exist_ok=True)
        connection = _open(path)
    _connections[path] = connection
    while len(_connections) > _MAX_CONNECTIONS:
        _connections.popitem(last=False)[1].close()
    return connection


def read_rows(directory: Path, table: str,
              keys: list[str]) -> dict[str, str] | None:
    """The stored ``{key: entry}`` rows of ``table`` among ``keys``.

    A directory without a database reads as empty (a read never creates
    one); ``None`` when the database cannot be read.
    """
    import sqlite3
    rows = {}
    try:
        with _lock:
            connection = _connection(directory, create=False)
            if connection is None:
                return rows
            for start in range(0, len(keys), _MAX_KEYS):
                chunk = keys[start:start + _MAX_KEYS]
                rows.update(connection.execute(
                    f"SELECT key, entry FROM {table} WHERE key IN "
                    f"({','.join('?' * len(chunk))})", chunk))
    except (OSError, sqlite3.Error):
        return None
    return rows


def write_rows(directory: Path, table: str, rows: list) -> bool:
    """Insert or replace ``(key, entry)`` rows of ``table`` in one transaction.

    ``False`` when the write fails (full disk, read-only or broken
    database).
    """
    import sqlite3
    try:
        with _lock:
            connection = _connection(directory, create=True)
            with connection:
                connection.executemany(
                    f"INSERT OR REPLACE INTO {table} VALUES (?, ?)", rows)
    except (OSError, sqlite3.Error):
        return False
    return True


def default_cache_dir() -> Path:
    """The directory used when caching is requested without an explicit path."""
    override = os.environ.get(DIRECTORY_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mixer" / "cells"


class CellCache:
    """Directory-backed store of one engine's per-cell results.

    Subclasses declare ``namespace``, ``version`` and ``codec``; the codec
    turns a cell's value into JSON-ready data (``encode(value, mode,
    plan)``, raising ``ValueError`` on a value that does not fit the cell)
    and back (``decode(data, mode, plan)``, raising ``KeyError``,
    ``TypeError`` or ``ValueError`` on anything malformed).

    The per-instance ``hits`` / ``misses`` / ``stores`` / ``corrupt`` /
    ``write_errors`` counters count cells, for this process only — the
    directory itself may be shared with other processes.
    """

    namespace: str
    version: int
    codec: object

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.write_errors = 0

    # -- keys -----------------------------------------------------------------

    def _entry(self, design: MixerDesign, mode: MixerMode,
               plan) -> tuple[str, dict]:
        """The entry's key and the identity stamped inside it.

        The design fingerprint and the plan hash are computed once here;
        a load compares the stored identity instead of re-hashing.
        """
        identity = {"namespace": self.namespace,
                    "version": self.version,
                    "design": design.fingerprint(),
                    "mode": mode.value,
                    "plan": None if plan is None else plan.content_hash()}
        key = hashlib.sha256(json.dumps(
            identity, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        return key.hexdigest(), identity

    def entry_key(self, design: MixerDesign, mode: MixerMode,
                  plan=None) -> str:
        """Database key of the entry for one (design, mode, plan) cell."""
        return self._entry(design, mode, plan)[0]

    # -- load / store ---------------------------------------------------------

    def load_many(self, cells) -> list:
        """The cached value of each ``(design, mode, plan)`` cell, or ``None``.

        One query reads the block.  Every failure — a missing row, an
        unreadable database, an entry of another cell, a payload the codec
        rejects — is a miss, so the caller recomputes and stores the cell.
        """
        cells = list(cells)
        entries = [self._entry(design, mode, plan)
                   for design, mode, plan in cells]
        rows = read_rows(self.directory, "cells",
                         [key for key, _ in entries])
        if rows is None:
            self.corrupt += len(cells)
            self.misses += len(cells)
            return [None] * len(cells)
        return [self._decode(rows.get(key), identity, mode, plan)
                for (key, identity), (_, mode, plan) in zip(entries, cells)]

    def _decode(self, text: str | None, identity: dict, mode: MixerMode,
                plan):
        """One row's value (a counted hit), or ``None`` (a counted miss)."""
        if text is None:
            self.misses += 1
            return None
        try:
            entry = json.loads(text)
            if entry["identity"] != identity:
                raise ValueError("cache entry identity mismatch")
            value = self.codec.decode(entry["payload"], mode, plan)
        except (KeyError, TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store_many(self, cells) -> None:
        """Persist each ``(design, mode, value, plan)`` cell in one transaction.

        Every value is encoded first, so a codec ``ValueError`` writes
        nothing.  A write failing with ``OSError`` or ``sqlite3.Error``
        counts every cell in ``write_errors`` and is dropped: the cache is
        an accelerator, never a reason to fail.
        """
        rows = []
        for design, mode, value, plan in cells:
            payload = self.codec.encode(value, mode, plan)
            key, identity = self._entry(design, mode, plan)
            rows.append((key, json.dumps(
                {"identity": identity, "payload": payload}, sort_keys=True)))
        if not rows:
            return
        if write_rows(self.directory, "cells", rows):
            self.stores += len(rows)
        else:
            self.write_errors += len(rows)

    def load(self, design: MixerDesign, mode: MixerMode, plan=None):
        """The cached value for one cell, or ``None`` (a block of one)."""
        return self.load_many([(design, mode, plan)])[0]

    def store(self, design: MixerDesign, mode: MixerMode, value,
              plan=None) -> None:
        """Persist one evaluated cell (a block of one)."""
        self.store_many([(design, mode, value, plan)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({str(self.directory)!r}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores})")


class _SpecCodec:
    """:class:`SpecIntermediates` of the cell's own mode, as a dict."""

    @staticmethod
    def encode(value: SpecIntermediates, mode: MixerMode, plan) -> dict:
        if value.mode is not mode:
            raise ValueError(f"intermediates are for mode "
                             f"{value.mode.value!r}, not {mode.value!r}")
        return value.to_dict()

    @staticmethod
    def decode(data, mode: MixerMode, plan) -> SpecIntermediates:
        value = SpecIntermediates.from_dict(data)
        if value.mode is not mode:
            raise ValueError("cached mode mismatch")
        return value


@dataclass(frozen=True)
class MeasuresCodec:
    """One 1-D float array per ``plan.measures`` name.

    Every array runs along the plan's swept axis, whose values are the plan
    attribute named ``axis`` (input powers, ADC bit widths...).
    """

    axis: str

    def encode(self, value: dict, mode: MixerMode, plan) -> dict:
        missing = sorted(set(plan.measures) - set(value))
        if missing:
            raise ValueError(f"measures are missing {missing}")
        return {name: np.asarray(value[name], dtype=float).tolist()
                for name in plan.measures}

    def decode(self, data, mode: MixerMode, plan) -> dict[str, np.ndarray]:
        shape = (len(getattr(plan, self.axis)),)
        measures = {}
        for name in plan.measures:
            values = np.asarray(data[name], dtype=float)
            if values.shape != shape:
                raise ValueError(f"measure {name!r} has the wrong length")
            measures[name] = values
        return measures


def fill_cached_measures(cache: CellCache | None, plan, records, modes,
                         data: dict[str, np.ndarray]) -> list:
    """Fill ``data``'s cached (design, mode) cells with one block read.

    Returns ``(design index, mode index, record)`` of each cell left to
    compute — every cell when ``cache`` is ``None``.
    """
    cells = [(i, j, record) for i, record in enumerate(records)
             for j in range(len(modes))]
    if cache is None:
        return cells
    loaded = cache.load_many((record, modes[j], plan) for _, j, record in cells)
    for (i, j, _), cached in zip(cells, loaded):
        if cached is not None:
            for measure in plan.measures:
                data[measure][i, j] = cached[measure]
    return [cell for cell, cached in zip(cells, loaded) if cached is None]


class SpecCache(CellCache):
    """The spec engine's cells: solved :class:`SpecIntermediates` records."""

    namespace = "spec"
    version = 3
    codec = _SpecCodec()
    # Each cache class owns its load/store so per-engine instrumentation
    # can wrap one namespace without touching the others.
    load = CellCache.load
    store = CellCache.store


def resolve_cache(cache, kind: type[CellCache] = SpecCache
                  ) -> CellCache | None:
    """Normalise a user-facing ``cache=`` option into a ``kind`` cache.

    Accepted values: ``None``/``False`` (caching off — the default
    everywhere), ``True`` (cache under :func:`default_cache_dir`), a
    string/``Path`` (cache under that directory), an instance of ``kind``
    (used as-is), or any other :class:`CellCache` — the entry points take
    **one** ``cache=`` option for every engine, so another engine's cache
    lends its directory.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, kind):
        return cache
    if isinstance(cache, CellCache):
        return kind(cache.directory)
    if cache is True:
        return kind(default_cache_dir())
    if isinstance(cache, (str, Path)):
        return kind(cache)
    raise TypeError(
        "cache must be None/False, True, a directory path, or a CellCache; "
        f"got {type(cache).__name__}")
