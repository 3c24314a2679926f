"""Tests for the on-disk cell cache (fingerprints, hits, invalidation).

:class:`TestCellCacheContract` runs one contract over all three engine
namespaces (spec, waveform, digital); the engine-specific warm-run gates
live beside each engine's other tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import sqlite3
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import repro.sweep.cache as cache_module
from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer, SpecIntermediates
from repro.core.transconductance import sizing_solve_count
from repro.digital import DigitalIfCache, DigitalIfRunner, digital_if_plan
from repro.sweep import (
    SpecCache,
    SweepRunner,
    resolve_cache,
    run_monte_carlo,
)
from repro.sweep.montecarlo import DeviceSpread, sample_design
from repro.waveform import WaveformCache, WaveformRunner, two_tone_plan


class TestFingerprint:
    def test_stable_and_content_addressed(self, design):
        assert design.fingerprint() == design.fingerprint()
        assert design.fingerprint() == MixerDesign().fingerprint()
        assert len(design.fingerprint()) == 64

    def test_any_parameter_change_moves_the_fingerprint(self, design):
        assert replace(design, load_resistance=3.46e3).fingerprint() != \
            design.fingerprint()
        corner = replace(design, technology=design.technology.corner(
            "ss", vth_shift=0.04))
        assert corner.fingerprint() != design.fingerprint()

    def test_canonical_dict_covers_technology(self, design):
        payload = design.canonical_dict()
        assert payload["technology"]["vth_n"] == design.technology.vth_n
        assert payload["load_resistance"] == design.load_resistance

    def test_canonical_dict_equals_dataclasses_asdict(self, design):
        # The field walk must keep the content (and so every fingerprint)
        # of the deep-copying ``asdict`` it replaced.
        corner = replace(design, technology=design.technology.corner(
            "ff", vth_shift=-0.03, mobility_scale=1.1))
        drawn = sample_design(design, np.random.default_rng(5),
                              DeviceSpread(), "mc-0003")
        for record in (design, corner, drawn):
            assert record.canonical_dict() == asdict(record)
            assert list(record.canonical_dict()) == list(asdict(record))
            assert record.technology.to_dict() == asdict(record.technology)


def _fingerprint_in_worker(design: MixerDesign) -> tuple[str | None, str]:
    """(memo the worker received, fingerprint it reports)."""
    return design.__dict__.get("_fingerprint"), design.fingerprint()


class TestFingerprintMemo:
    """The per-instance fingerprint memo changes nothing observable."""

    def test_memo_equals_a_fresh_hash(self):
        design = MixerDesign(load_resistance=3.47e3)
        memo = design.fingerprint()
        fresh = hashlib.sha256(json.dumps(
            design.canonical_dict(), sort_keys=True,
            separators=(",", ":")).encode("utf-8")).hexdigest()
        assert memo == fresh
        assert design.fingerprint() is memo

    def test_replace_hashes_afresh(self, design):
        design.fingerprint()
        moved = replace(design, tca_gm=design.tca_gm * 1.01)
        assert "_fingerprint" not in moved.__dict__
        assert moved.fingerprint() != design.fingerprint()
        assert replace(moved, tca_gm=design.tca_gm).fingerprint() == \
            design.fingerprint()

    def test_pickled_to_a_shard_worker_keeps_the_value(self):
        design = MixerDesign(feedback_resistance=3.8e3)
        expected = design.fingerprint()
        assert pickle.loads(pickle.dumps(design)).__dict__["_fingerprint"] \
            == expected
        with ProcessPoolExecutor(max_workers=1) as pool:
            received, reported = pool.submit(_fingerprint_in_worker,
                                             design).result()
        assert received == expected and reported == expected

    def test_equality_and_hash_unaffected(self):
        memoized, plain = MixerDesign(), MixerDesign()
        memoized.fingerprint()
        assert "_fingerprint" in memoized.__dict__
        assert "_fingerprint" not in plain.__dict__
        assert memoized == plain and hash(memoized) == hash(plain)
        assert memoized.canonical_dict() == plain.canonical_dict()
        assert repr(memoized) == repr(plain)


class TestRunnerIntegration:
    def test_cold_vs_warm_equality_and_no_sizing(self, design, tmp_path):
        """The acceptance gate: a warm cache skips every sizing solve."""
        grid = dict(rf_frequencies=[1e9, 2.405e9], if_frequencies=[5e6])
        cold_runner = SweepRunner(design, cache=tmp_path)
        before = sizing_solve_count()
        cold = cold_runner.run(**grid)
        assert sizing_solve_count() - before > 0
        assert cold_runner.cache.stores == 2  # one entry per mode

        warm_runner = SweepRunner(design, cache=tmp_path)
        before = sizing_solve_count()
        warm = warm_runner.run(**grid)
        assert sizing_solve_count() - before == 0
        assert warm_runner.cache.hits == 2
        for spec in cold.spec_names:
            np.testing.assert_array_equal(warm.data[spec], cold.data[spec])

    def test_failed_write_is_counted_not_raised(self, design, tmp_path,
                                                monkeypatch):
        SweepRunner(design, cache=tmp_path).run(modes=[MixerMode.PASSIVE])

        def read_only(path):
            return sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                                   check_same_thread=False)

        # A fresh connection registry, so the next store opens read-only
        # and its INSERT fails with sqlite3.OperationalError.
        monkeypatch.setattr(cache_module, "_open", read_only)
        monkeypatch.setattr(cache_module, "_connections", OrderedDict())
        runner = SweepRunner(design, cache=tmp_path)
        result = runner.run(modes=[MixerMode.ACTIVE])
        uncached = SweepRunner(design).run(modes=[MixerMode.ACTIVE])
        for spec in uncached.spec_names:
            np.testing.assert_array_equal(result.data[spec],
                                          uncached.data[spec])
        assert runner.cache.write_errors == 1
        assert runner.cache.stores == 0
        assert list(_rows(tmp_path)) == [
            runner.cache.entry_key(design, MixerMode.PASSIVE)]


#: The mode every contract cell is evaluated in.
MODE = MixerMode.ACTIVE


@contextlib.contextmanager
def _database(directory: Path):
    """A second, test-side connection to a cache directory's database."""
    connection = sqlite3.connect(directory / cache_module.DATABASE_NAME)
    try:
        with connection:
            yield connection
    finally:
        connection.close()


def _rows(directory: Path) -> dict[str, str]:
    """Every stored entry of a cache directory, by key."""
    with _database(directory) as connection:
        return dict(connection.execute("SELECT key, entry FROM cells"))


def _schema(directory: Path) -> str:
    """The ``CREATE TABLE`` statement of a directory's cells table."""
    with _database(directory) as connection:
        return connection.execute("SELECT sql FROM sqlite_master "
                                  "WHERE name = 'cells'").fetchone()[0]


@dataclass(frozen=True)
class Namespace:
    """One engine's cache flavour, its inline engine and its plan."""

    kind: type
    engine: type
    plan: object = None

    def run(self, design: MixerDesign, cache) -> dict[str, np.ndarray]:
        args = () if self.plan is None else (self.plan,)
        result = self.engine(design, cache=cache).run(*args, modes=[MODE])
        return result.data


def _assert_same(data: dict, expected: dict) -> None:
    assert data.keys() == expected.keys()
    for name in expected:
        np.testing.assert_array_equal(data[name], expected[name])


def _drop_a_payload_field(text: str) -> str:
    entry = json.loads(text)
    del entry["payload"][next(iter(entry["payload"]))]
    return json.dumps(entry)


def _another_design(text: str) -> str:
    # An entry copied in from another design's path.
    entry = json.loads(text)
    entry["identity"]["design"] = "0" * 64
    return json.dumps(entry)


def _previous_format(text: str) -> str:
    # The shape every namespace wrote before the shared cell cache.
    entry = json.loads(text)
    return json.dumps({"cache_version": 2, "waveform_cache_version": 2,
                       "digital_cache_version": 2,
                       "design_fingerprint": entry["identity"]["design"],
                       "mode": entry["identity"]["mode"],
                       "plan": entry["identity"]["plan"],
                       "intermediates": entry["payload"],
                       "measures": entry["payload"]})


CORRUPTIONS = {
    "not_json": lambda text: "{not json",
    "not_a_mapping": lambda text: "[1, 2]",
    "payload_field_dropped": _drop_a_payload_field,
    "another_design": _another_design,
    "previous_format": _previous_format,
}


@pytest.fixture(scope="module")
def namespaces(sample_rate, num_samples) -> dict[str, Namespace]:
    wave_plan = two_tone_plan(2.405e9, 2.407e9, (-45.0, -43.0, -41.0),
                              sample_rate, num_samples, lo_frequency=2.4e9)
    return {"spec": Namespace(SpecCache, SweepRunner),
            "waveform": Namespace(WaveformCache, WaveformRunner, wave_plan),
            "digital": Namespace(DigitalIfCache, DigitalIfRunner,
                                 digital_if_plan(adc_bits=(6, 10)))}


@pytest.fixture(params=["spec", "waveform", "digital"])
def namespace(request, namespaces) -> Namespace:
    return namespaces[request.param]


class TestCellCacheContract:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(),
                             ids=CORRUPTIONS.keys())
    def test_corrupt_entry_misses_and_is_rewritten(self, namespace, design,
                                                   tmp_path, corrupt):
        cold = namespace.run(design, tmp_path)
        key = namespace.kind(tmp_path).entry_key(design, MODE, namespace.plan)
        with _database(tmp_path) as connection:
            connection.execute("UPDATE cells SET entry = ? WHERE key = ?",
                               (corrupt(_rows(tmp_path)[key]), key))
        cache = namespace.kind(tmp_path)
        _assert_same(namespace.run(design, cache), cold)
        assert (cache.corrupt, cache.hits, cache.stores) == (1, 0, 1)
        # The rewritten entry is healthy again.
        assert namespace.kind(tmp_path).load(design, MODE,
                                             namespace.plan) is not None

    def test_version_bump_misses(self, namespace, design, tmp_path,
                                 monkeypatch):
        cold = namespace.run(design, tmp_path)
        monkeypatch.setattr(namespace.kind, "version",
                            namespace.kind.version + 1)
        cache = namespace.kind(tmp_path)
        _assert_same(namespace.run(design, cache), cold)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)

    def test_store_rejects_a_value_for_another_cell(self, namespace, design,
                                                    tmp_path):
        if namespace.plan is None:
            wrong, match = ReconfigurableMixer(
                design, MixerMode.PASSIVE).spec_intermediates(), "mode"
        else:
            wrong, match = {}, "missing"
        cache = namespace.kind(tmp_path)
        with pytest.raises(ValueError, match=match):
            cache.store(design, MODE, wrong, namespace.plan)
        assert cache.stores == 0
        assert list(tmp_path.iterdir()) == []

    def test_resolve_accepts_every_form(self, namespace, namespaces,
                                        tmp_path, monkeypatch):
        kind = namespace.kind
        assert resolve_cache(None, kind) is None
        assert resolve_cache(False, kind) is None
        own = kind(tmp_path)
        assert resolve_cache(own, kind) is own
        for other in namespaces.values():
            adopted = resolve_cache(other.kind(tmp_path), kind)
            assert type(adopted) is kind
            assert adopted.directory == tmp_path
        assert resolve_cache(str(tmp_path), kind).directory == tmp_path
        assert resolve_cache(tmp_path, kind).directory == tmp_path
        monkeypatch.setenv(cache_module.DIRECTORY_ENV, str(tmp_path / "d"))
        assert resolve_cache(True, kind).directory == tmp_path / "d"
        with pytest.raises(TypeError, match="cache"):
            resolve_cache(1.5, kind)

    def test_namespaces_share_one_directory(self, namespaces, design,
                                            tmp_path, monkeypatch):
        cold = {name: ns.run(design, tmp_path)
                for name, ns in namespaces.items()}
        assert len(_rows(tmp_path)) == 3
        variant = replace(design, degeneration_resistance=75.0)
        keys = {ns.kind(tmp_path).entry_key(record, mode, ns.plan)
                for ns in namespaces.values()
                for record in (design, variant) for mode in MixerMode}
        assert len(keys) == 3 * 2 * len(MixerMode)
        for bumped, bumped_ns in namespaces.items():
            with monkeypatch.context() as patched:
                patched.setattr(bumped_ns.kind, "version",
                                bumped_ns.kind.version + 1)
                for name, ns in namespaces.items():
                    cache = ns.kind(tmp_path)
                    _assert_same(ns.run(design, cache), cold[name])
                    assert cache.hits == (0 if name == bumped else 1)


    def test_not_a_database_degrades_to_uncached(self, namespace, design,
                                                 tmp_path):
        expected = namespace.run(design, None)
        (tmp_path / cache_module.DATABASE_NAME).write_bytes(b"junk" * 512)
        for _ in range(2):
            cache = namespace.kind(tmp_path)
            _assert_same(namespace.run(design, cache), expected)
            assert (cache.hits, cache.misses, cache.stores,
                    cache.write_errors) == (0, 1, 0, 1)

    def test_without_rowid_table_still_serves(self, namespace, design,
                                              tmp_path):
        # Directories written before the cells table became a rowid table
        # hold a WITHOUT ROWID table; it is kept and served unchanged.
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        expected = namespace.run(design, fresh)
        assert "WITHOUT ROWID" not in _schema(fresh)
        with _database(fresh) as connection:
            assert connection.execute("SELECT rowid FROM cells").fetchall()
        old.mkdir()
        with _database(old) as connection:
            connection.execute("CREATE TABLE cells (key TEXT PRIMARY KEY, "
                               "entry TEXT NOT NULL) WITHOUT ROWID")
            connection.executemany("INSERT INTO cells VALUES (?, ?)",
                                   _rows(fresh).items())
        cache = namespace.kind(old)
        _assert_same(namespace.run(design, cache), expected)
        assert (cache.hits, cache.misses, cache.stores) == (1, 0, 0)

        other = replace(design, degeneration_resistance=75.0)
        cache = namespace.kind(old)
        _assert_same(namespace.run(other, cache), namespace.run(other, None))
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)

        key = cache.entry_key(design, MODE, namespace.plan)
        with _database(old) as connection:
            connection.execute("UPDATE cells SET entry = ? WHERE key = ?",
                               ("{not json", key))
        cache = namespace.kind(old)
        _assert_same(namespace.run(design, cache), expected)
        assert (cache.corrupt, cache.hits, cache.stores) == (1, 0, 1)
        assert len(_rows(old)) == 2
        assert "WITHOUT ROWID" in _schema(old)

    def test_one_block_read_and_one_block_store_per_run(
            self, namespace, design, tmp_path, monkeypatch):
        calls = []
        for name in ("load_many", "store_many"):
            def spy(self, cells, name=name,
                    original=getattr(cache_module.CellCache, name)):
                cells = list(cells)
                calls.append((name, len(cells)))
                return original(self, cells)
            monkeypatch.setattr(cache_module.CellCache, name, spy)
        args = () if namespace.plan is None else (namespace.plan,)
        designs = [design, replace(design, degeneration_resistance=75.0)]
        cells = len(designs) * len(MixerMode)
        for stored in (cells, 0):  # cold, then warm
            calls.clear()
            cache = namespace.kind(tmp_path)
            namespace.engine(design, cache=cache).run(*args, designs=designs)
            assert calls == [("load_many", cells), ("store_many", stored)]
            assert cache.hits == cells - stored

    def test_two_processes_write_the_same_cells(self, namespace, design,
                                                tmp_path):
        designs = [replace(design, tca_gm=design.tca_gm * (1 + 0.01 * k))
                   for k in range(3)]
        uncached = _run_designs(namespace, designs, None)[0]
        # This process holds a connection to the directory when the
        # workers fork; they must open their own.
        _run_designs(namespace, designs[:1], tmp_path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            shards = list(pool.map(_run_designs, [namespace] * 2,
                                   [designs] * 2, [tmp_path] * 2))
        for data, write_errors in shards:
            _assert_same(data, uncached)
            assert write_errors == 0
        assert len(_rows(tmp_path)) == len(designs) * len(MixerMode)
        warm = namespace.kind(tmp_path)
        _assert_same(_run_designs(namespace, designs, warm)[0], uncached)
        assert warm.hits == len(designs) * len(MixerMode)

    def test_threads_share_the_connection_registry(self, design, tmp_path):
        # More threads than cores and more directories than open
        # connections, so evictions race with reads and writes.
        value = ReconfigurableMixer(design, MODE).spec_intermediates()
        directories = [tmp_path / f"d{index}" for index in
                       range(cache_module._MAX_CONNECTIONS + 2)]
        caches, errors = [], []

        def hammer(offset: int) -> None:
            try:
                for round_ in range(20):
                    directory = directories[(offset + round_)
                                            % len(directories)]
                    cache = SpecCache(directory)
                    caches.append(cache)
                    cache.store(design, MODE, value)
                    assert cache.load(design, MODE) == value
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sum(cache.hits for cache in caches) == 6 * 20
        assert sum(cache.write_errors + cache.corrupt
                   for cache in caches) == 0
        assert len(cache_module._connections) <= \
            cache_module._MAX_CONNECTIONS

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_open_connections_stay_bounded(self, design, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        cells = SpecCache(tmp_path / "source")
        SweepRunner(design, cache=cells).run(modes=[MODE])
        value = cells.load(design, MODE)
        for index in range(3 * cache_module._MAX_CONNECTIONS):
            SpecCache(tmp_path / f"d{index}").store(design, MODE, value)
        assert len(cache_module._connections) <= \
            cache_module._MAX_CONNECTIONS
        # Three descriptors (database, WAL, shared memory) per connection.
        assert len(os.listdir("/proc/self/fd")) - before <= \
            3 * cache_module._MAX_CONNECTIONS


def _run_designs(namespace: Namespace, designs, cache
                 ) -> tuple[dict[str, np.ndarray], int]:
    """(the engine's data over ``designs``, its cache's write errors)."""
    args = () if namespace.plan is None else (namespace.plan,)
    runner = namespace.engine(designs[0], cache=cache)
    data = runner.run(*args, designs=designs).data
    return data, 0 if runner.cache is None else runner.cache.write_errors


class TestSpecIntermediatesSerialization:
    def test_round_trip(self, active_mixer):
        intermediates = active_mixer.spec_intermediates()
        assert SpecIntermediates.from_dict(
            intermediates.to_dict()) == intermediates

    def test_from_dict_rejects_bad_payloads(self, active_mixer):
        payload = active_mixer.spec_intermediates().to_dict()
        with pytest.raises(KeyError):
            SpecIntermediates.from_dict(
                {k: v for k, v in payload.items() if k != "iip3_dbm"})
        bad = dict(payload, power_mw="9.36")
        with pytest.raises(TypeError):
            SpecIntermediates.from_dict(bad)
        with pytest.raises(ValueError):
            SpecIntermediates.from_dict(dict(payload, mode="triode"))


class TestMonteCarloCache:
    def test_cached_rerun_matches_and_skips_sizing(self, design, tmp_path):
        cold = run_monte_carlo(design, num_samples=4, seed=13, cache=tmp_path)
        before = sizing_solve_count()
        warm = run_monte_carlo(design, num_samples=4, seed=13, cache=tmp_path)
        assert sizing_solve_count() - before == 0
        for spec in cold.sweep.spec_names:
            np.testing.assert_array_equal(warm.sweep.data[spec],
                                          cold.sweep.data[spec])
