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

* **content-addressed** — any design parameter, mode or plan change maps to
  a different entry, and the namespace keeps the engines apart, so all
  three can share one directory;
* **versioned invalidation** — bump a cache's ``version`` whenever the
  meaning of its payload changes (new spec model, changed units): old
  entries stop matching and are recomputed, never reinterpreted;
* **corruption-safe** — entries are written atomically (temp file +
  ``os.replace``); any unreadable, malformed or mismatched entry is a miss
  and is overwritten by the recomputed cell;
* **failure-tolerant** — a failed write (full disk, read-only directory)
  is counted in ``write_errors`` and otherwise ignored: the caller already
  holds the computed result;
* **switchable** — pass ``cache=None``/``False`` (the default everywhere)
  for no caching, or set ``REPRO_SWEEP_CACHE=off`` in the environment to
  force-disable caching even where code requests it;
  ``REPRO_SWEEP_CACHE_DIR`` overrides the default directory.

Cache instances are cheap, picklable handles around a directory; separate
processes (the shards of a :class:`~repro.sweep.parallel.ShardedRunner`)
can share one directory safely because entries are immutable once written
and writes are atomic.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import SpecIntermediates

#: Environment variable that force-disables caching when set to one of
#: ``off``/``0``/``false``/``no`` (case-insensitive).
DISABLE_ENV = "REPRO_SWEEP_CACHE"

#: Environment variable overriding the default cache directory.
DIRECTORY_ENV = "REPRO_SWEEP_CACHE_DIR"

_DISABLE_VALUES = {"off", "0", "false", "no"}


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write a JSON payload so readers never observe a partial entry.

    The bytes go to a temp file unique to this process *and thread* (the
    threaded HTTP server writes cache entries from concurrent handler
    threads, where a pid-only suffix would race), then move into place with
    ``os.replace`` — atomic on POSIX.  Concurrent writers of the same entry
    at worst race to install identical content.  A failed write removes its
    temp file before the error propagates.  Shared by :class:`CellCache`
    and the API layer's response cache.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        temp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            temp.unlink(missing_ok=True)
        raise


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
    ``write_errors`` counters cover this process only — the directory
    itself may be shared with other processes.
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
               plan) -> tuple[Path, dict]:
        """The entry path and the identity stamped inside it.

        The design fingerprint and the plan hash are computed once here;
        :meth:`load` compares the stored identity instead of re-hashing.
        """
        identity = {"namespace": self.namespace,
                    "version": self.version,
                    "design": design.fingerprint(),
                    "mode": mode.value,
                    "plan": None if plan is None else plan.content_hash()}
        key = hashlib.sha256(json.dumps(
            identity, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        return self.directory / f"{key.hexdigest()}.json", identity

    def entry_path(self, design: MixerDesign, mode: MixerMode,
                   plan=None) -> Path:
        """Filesystem path of the entry for one (design, mode, plan) cell."""
        return self._entry(design, mode, plan)[0]

    # -- load / store ---------------------------------------------------------

    def load(self, design: MixerDesign, mode: MixerMode, plan=None):
        """The cached value for a cell, or ``None`` on miss/corruption.

        Every failure mode — missing or unreadable file, malformed JSON,
        another namespace/version/design/mode/plan, a payload the codec
        rejects — degrades to a miss so the caller recomputes (and the
        subsequent :meth:`store` replaces the bad entry).
        """
        path, identity = self._entry(design, mode, plan)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.corrupt += 1
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

    def store(self, design: MixerDesign, mode: MixerMode, value,
              plan=None) -> None:
        """Persist one evaluated cell atomically (see :func:`atomic_write_json`).

        Concurrent shards or server threads never observe a half-written
        entry — at worst they race to write identical content.  A write
        that fails with ``OSError`` is counted in ``write_errors`` and
        dropped: the cache is an accelerator, never a reason to fail.
        """
        payload = self.codec.encode(value, mode, plan)
        path, identity = self._entry(design, mode, plan)
        try:
            atomic_write_json(path, {"identity": identity, "payload": payload})
        except OSError:
            self.write_errors += 1
            return
        self.stores += 1

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
    lends its directory.  Whatever the caller asked for,
    ``REPRO_SWEEP_CACHE=off`` in the environment wins and disables caching.
    """
    if cache is None or cache is False:
        return None
    if os.environ.get(DISABLE_ENV, "").strip().lower() in _DISABLE_VALUES:
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
