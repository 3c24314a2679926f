"""Content-addressed on-disk cache of waveform-bench measures.

The expensive part of a waveform cell is the batched time-domain evaluation
plus FFT — building the stimulus block, pushing it through the nonlinear
device model and reading the product bins.  This module persists the
resulting measure arrays per **(design, mode, stimulus plan)** cell, keyed
on a content hash of

* :meth:`MixerDesign.fingerprint` (stable SHA-256 of the design record),
* the :class:`~repro.core.config.MixerMode`,
* :meth:`StimulusPlan.content_hash` (tones, powers, grid, LO), and
* :data:`WAVEFORM_CACHE_VERSION`,

so a warm re-run of Fig. 10, the IIP2 check or a P1dB sweep performs **zero
FFT evaluations** (observable through
:func:`repro.waveform.engine.waveform_fft_count`, mirroring the sweep
cache's zero-sizing-bisection bar).  The storage discipline is shared with
:class:`~repro.sweep.cache.SpecCache`: atomic writes via
:func:`~repro.sweep.cache.atomic_write_json`, corrupt or mismatched entries
degrade to a recompute, and the ``REPRO_SWEEP_CACHE=off`` kill-switch
disables this cache too (one environment knob governs every engine cache).
Both caches can share one directory — their key payloads differ, so entries
never collide.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.sweep.cache import (
    DIRECTORY_ENV,
    SpecCache,
    atomic_write_json,
    cache_disabled_by_env,
)
from repro.waveform.plan import StimulusPlan

#: Schema/semantics version of the cached payloads; bump on any change to
#: what the cached measures mean — old entries then miss and are recomputed.
WAVEFORM_CACHE_VERSION = 2


def default_waveform_cache_dir() -> Path:
    """The directory used when caching is requested without an explicit path.

    Honours the same ``REPRO_SWEEP_CACHE_DIR`` override as the spec cache
    (the two caches coexist in one directory without collisions); the
    fallback is a sibling of the spec-intermediates directory.
    """
    override = os.environ.get(DIRECTORY_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mixer" / "waveform-measures"


class WaveformCache:
    """Directory-backed store of per-(design, mode, plan) measure arrays.

    The per-instance ``hits`` / ``misses`` / ``stores`` / ``corrupt``
    counters cover this process only — the directory itself may be shared
    with other processes (parallel waveform shards write atomically).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- keys -----------------------------------------------------------------

    def _key(self, fingerprint: str, mode: MixerMode, plan_hash: str) -> str:
        payload = json.dumps(
            {"waveform_cache_version": WAVEFORM_CACHE_VERSION,
             "design": fingerprint,
             "mode": mode.value,
             "plan": plan_hash},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def entry_key(self, design: MixerDesign, mode: MixerMode,
                  plan: StimulusPlan) -> str:
        """Content hash naming the entry for one (design, mode, plan) cell."""
        return self._key(design.fingerprint(), mode, plan.content_hash())

    def entry_path(self, design: MixerDesign, mode: MixerMode,
                   plan: StimulusPlan) -> Path:
        """Filesystem path of the entry for one (design, mode, plan) cell."""
        return self.directory / f"{self.entry_key(design, mode, plan)}.json"

    # -- load / store ---------------------------------------------------------

    def load(self, design: MixerDesign, mode: MixerMode,
             plan: StimulusPlan) -> dict[str, np.ndarray] | None:
        """The cached measures for a cell, or ``None`` on miss/corruption.

        Every failure mode — missing/unreadable file, malformed JSON, wrong
        version/fingerprint/plan, missing measures, wrong lengths — degrades
        to a miss so the caller recomputes (and the subsequent :meth:`store`
        replaces the bad entry).
        """
        path = self.entry_path(design, mode, plan)
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
            if payload["waveform_cache_version"] != WAVEFORM_CACHE_VERSION:
                raise ValueError("cache version mismatch")
            if payload["design_fingerprint"] != design.fingerprint():
                raise ValueError("design fingerprint mismatch")
            if payload["plan"] != plan.content_hash():
                raise ValueError("plan hash mismatch")
            raw = payload["measures"]
            measures: dict[str, np.ndarray] = {}
            for name in plan.measures:
                values = np.asarray(raw[name], dtype=float)
                if values.shape != (len(plan.input_powers_dbm),):
                    raise ValueError(f"measure {name!r} has the wrong length")
                measures[name] = values
        except (KeyError, TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return measures

    def store(self, design: MixerDesign, mode: MixerMode, plan: StimulusPlan,
              measures: dict[str, np.ndarray]) -> None:
        """Persist one evaluated cell, atomically.

        Concurrent shards never observe a half-written entry — at worst they
        race to install identical content.
        """
        missing = sorted(set(plan.measures) - set(measures))
        if missing:
            raise ValueError(f"measures are missing {missing} for a "
                             f"{plan.kind} plan")
        atomic_write_json(self.entry_path(design, mode, plan), {
            "waveform_cache_version": WAVEFORM_CACHE_VERSION,
            "design_fingerprint": design.fingerprint(),
            "mode": mode.value,
            "plan": plan.content_hash(),
            "measures": {name: np.asarray(measures[name],
                                          dtype=float).tolist()
                         for name in plan.measures},
        })
        self.stores += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WaveformCache({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")


def resolve_waveform_cache(cache) -> WaveformCache | None:
    """Normalise a user-facing ``cache=`` option into a cache (or ``None``).

    Accepted values mirror :func:`repro.sweep.cache.resolve_cache`:
    ``None``/``False`` (off — the default), ``True`` (the default
    directory), a string/``Path``, a :class:`WaveformCache`, or a
    :class:`~repro.sweep.cache.SpecCache` — the experiment entry points take
    **one** ``cache=`` option for both engines, so a spec cache's directory
    is adopted for the waveform measures too.  ``REPRO_SWEEP_CACHE=off``
    wins over everything.
    """
    if cache is None or cache is False:
        return None
    if cache_disabled_by_env():
        return None
    if isinstance(cache, WaveformCache):
        return cache
    if isinstance(cache, SpecCache):
        return WaveformCache(cache.directory)
    if cache is True:
        return WaveformCache(default_waveform_cache_dir())
    if isinstance(cache, (str, Path)):
        return WaveformCache(cache)
    raise TypeError(
        "cache must be None/False, True, a directory path, a WaveformCache "
        f"or a SpecCache; got {type(cache).__name__}")
