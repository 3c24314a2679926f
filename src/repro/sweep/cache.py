"""Content-addressed on-disk cache of solved spec intermediates.

The expensive part of every sweep cell is frequency-independent: sizing the
Gm devices (an 80-step width bisection per transconductor), solving the bias
point, and deriving the linearity/noise/power scalars — everything bundled
into :class:`~repro.core.reconfigurable_mixer.SpecIntermediates`.  This
module persists those solutions to disk, keyed on a stable content hash of
the ``(MixerDesign, MixerMode)`` pair, so a re-run of a Monte-Carlo grid, a
refined frequency sweep, or a parallel shard in another process skips the
bisections entirely.

Key properties:

* **content-addressed** — the key is derived from
  :meth:`MixerDesign.fingerprint` (a SHA-256 over the canonical parameter
  dictionary), the mode, and :data:`CACHE_VERSION`; any design parameter
  change, however small, maps to a different entry;
* **versioned invalidation** — bump :data:`CACHE_VERSION` whenever the
  meaning of a cached field changes (new spec model, changed units): old
  entries stop matching and are recomputed, never reinterpreted;
* **corruption-safe** — entries are written atomically (temp file +
  ``os.replace``) and any unreadable/malformed entry is treated as a miss
  and overwritten by the recomputed solution;
* **switchable** — pass ``cache=None``/``False`` (the default everywhere)
  for no caching, or set ``REPRO_SWEEP_CACHE=off`` in the environment to
  force-disable caching even where code requests it;
  ``REPRO_SWEEP_CACHE_DIR`` overrides the default directory.

Cache instances are cheap handles around a directory; separate processes
(the shards of :class:`~repro.sweep.parallel.ParallelSweepRunner`) can share
one directory safely because entries are immutable once written and writes
are atomic.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import SpecIntermediates

#: Schema/semantics version of the cached payloads.  Bump on any change to
#: what the cached numbers mean; old entries then miss and are recomputed.
CACHE_VERSION = 2

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
    at worst race to install identical content.  Shared by
    :class:`SpecCache` and the API layer's response cache.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    temp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(temp, path)


def cache_disabled_by_env() -> bool:
    """True when the environment force-disables the spec cache."""
    return os.environ.get(DISABLE_ENV, "").strip().lower() in _DISABLE_VALUES


def default_cache_dir() -> Path:
    """The directory used when caching is requested without an explicit path."""
    override = os.environ.get(DIRECTORY_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mixer" / "sweep-intermediates"


class SpecCache:
    """Directory-backed store of :class:`SpecIntermediates` solutions.

    Parameters
    ----------
    directory:
        Where entries live; created lazily on the first store.

    The per-instance ``hits`` / ``misses`` / ``stores`` / ``corrupt``
    counters cover this process only — the directory itself may be shared
    with other processes.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- keys -----------------------------------------------------------------

    def _key(self, fingerprint: str, mode: MixerMode) -> str:
        payload = json.dumps(
            {"cache_version": CACHE_VERSION,
             "design": fingerprint,
             "mode": mode.value},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, fingerprint: str, mode: MixerMode) -> Path:
        return self.directory / f"{self._key(fingerprint, mode)}.json"

    def entry_key(self, design: MixerDesign, mode: MixerMode) -> str:
        """Content hash naming the entry for one (design, mode) cell."""
        return self._key(design.fingerprint(), mode)

    def entry_path(self, design: MixerDesign, mode: MixerMode) -> Path:
        """Filesystem path of the entry for one (design, mode) cell."""
        return self._path(design.fingerprint(), mode)

    # -- load / store ---------------------------------------------------------

    def load(self, design: MixerDesign,
             mode: MixerMode) -> SpecIntermediates | None:
        """The cached solution for a cell, or ``None`` on miss/corruption.

        Every failure mode — missing file, unreadable file, malformed JSON,
        wrong version, wrong fingerprint, missing or non-numeric fields —
        degrades to a miss so the caller recomputes (and the subsequent
        :meth:`store` replaces the bad entry).
        """
        fingerprint = design.fingerprint()
        path = self._path(fingerprint, mode)
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
            payload = json.loads(text)
            if payload["cache_version"] != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            if payload["design_fingerprint"] != fingerprint:
                raise ValueError("design fingerprint mismatch")
            intermediates = SpecIntermediates.from_dict(payload["intermediates"])
            if intermediates.mode is not mode:
                raise ValueError("cached mode mismatch")
        except (KeyError, TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return intermediates

    def store(self, design: MixerDesign, mode: MixerMode,
              intermediates: SpecIntermediates) -> None:
        """Persist one solved cell, atomically (see :func:`atomic_write_json`).

        Concurrent shards or server threads never observe a half-written
        entry — at worst they race to write identical content.
        """
        if intermediates.mode is not mode:
            raise ValueError(
                f"intermediates are for mode {intermediates.mode.value!r}, "
                f"not {mode.value!r}")
        fingerprint = design.fingerprint()
        atomic_write_json(self._path(fingerprint, mode), {
            "cache_version": CACHE_VERSION,
            "design_fingerprint": fingerprint,
            "intermediates": intermediates.to_dict(),
        })
        self.stores += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpecCache({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")


def resolve_cache(cache) -> SpecCache | None:
    """Normalise a user-facing ``cache=`` option into a cache (or ``None``).

    Accepted values: ``None``/``False`` (caching off — the default
    everywhere), ``True`` (cache under :func:`default_cache_dir`), a
    string/``Path`` (cache under that directory), or an existing
    :class:`SpecCache` (used as-is).  Whatever the caller asked for,
    ``REPRO_SWEEP_CACHE=off`` in the environment wins and disables caching.
    """
    if cache is None or cache is False:
        return None
    if cache_disabled_by_env():
        return None
    if isinstance(cache, SpecCache):
        return cache
    if cache is True:
        return SpecCache(default_cache_dir())
    if isinstance(cache, (str, Path)):
        return SpecCache(cache)
    raise TypeError(
        "cache must be None/False, True, a directory path, or a SpecCache; "
        f"got {type(cache).__name__}")
