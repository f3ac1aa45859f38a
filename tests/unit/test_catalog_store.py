"""Unit tests for the reloading CatalogStore."""

import os
import types

import pytest

import repro.catalog.store as store_module
from repro.catalog import CatalogStore, SystemCatalog
from repro.errors import CatalogError

from tests.unit.test_catalog import _stats


def _write(path, *records):
    catalog = SystemCatalog()
    for stats in records:
        catalog.put(stats)
    catalog.save(path)
    return catalog


def _touch(path, offset_ns):
    """Give ``path`` a distinct mtime without sleeping."""
    info = os.stat(path)
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + offset_ns))


class TestCatalogStore:
    def test_missing_file_is_actionable(self, tmp_path):
        store = CatalogStore(tmp_path / "none.json")
        with pytest.raises(CatalogError) as exc_info:
            store.catalog()
        assert "repro fit" in str(exc_info.value)

    def test_read_pairs_bytes_with_their_snapshot(self, tmp_path):
        path = tmp_path / "catalog.json"
        store = CatalogStore(path)
        assert store.read() is None  # no file: nothing served
        _write(path, _stats("t.a"))
        data, snapshot = store.read()
        assert data == path.read_bytes()
        assert "t.a" in snapshot
        # One read shares the served state with catalog().
        assert store.catalog() is snapshot
        assert store.generation == 1
        path.write_bytes(b"{not json")
        with pytest.raises(CatalogError):
            store.read()

    def test_serves_records(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats("t.a"), _stats("t.b"))
        store = CatalogStore(path)
        assert store.get("t.a").index_name == "t.a"
        assert "t.b" in store
        assert sorted(store) == ["t.a", "t.b"]
        assert len(store) == 2

    def test_same_file_same_snapshot_object(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        first = store.catalog()
        assert store.catalog() is first
        assert store.generation == 1

    def test_reloads_on_change(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats("t.a"))
        store = CatalogStore(path)
        assert "t.b" not in store
        generation = store.generation
        _write(path, _stats("t.a"), _stats("t.b"))
        _touch(path, 5_000_000)
        assert "t.b" in store
        assert store.generation > generation

    def test_unchanged_file_does_not_bump_generation(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        store.catalog()
        generation = store.generation
        for _ in range(3):
            store.catalog()
        assert store.generation == generation

    def test_invalidate_forces_reparse(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        first = store.catalog()
        store.invalidate()
        assert store.catalog() is not first

    def test_snapshot_cache_is_bounded(self, tmp_path):
        path = tmp_path / "catalog.json"
        store = CatalogStore(path, cache_size=2)
        for i in range(4):
            _write(path, _stats(f"t.{i}"))
            _touch(path, (i + 1) * 5_000_000)
            store.catalog()
        assert len(store._snapshots) <= 2

    def test_flip_back_serves_the_cached_snapshot(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "catalog.json"
        parses = []
        from_json = SystemCatalog.from_json.__func__

        def counting_from_json(cls, text):
            parses.append(text)
            return from_json(cls, text)

        monkeypatch.setattr(
            SystemCatalog, "from_json", classmethod(counting_from_json)
        )
        store = CatalogStore(path)
        served, generations = [], []
        for name in ("t.a", "t.b", "t.a"):
            _write(path, _stats(name))
            served.append(store.catalog())
            generations.append(store.generation)
        assert served[2] is served[0]
        assert served[1] is not served[0]
        assert len(parses) == 2
        assert generations == [1, 2, 3]

    def test_unchanged_bytes_are_not_rehashed(self, tmp_path, monkeypatch):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        first = store.catalog()

        def no_hashing(*_args):
            raise AssertionError("unchanged catalog bytes were hashed")

        monkeypatch.setattr(
            store_module, "hashlib", types.SimpleNamespace(sha256=no_hashing)
        )
        assert store.catalog() is first
        assert store.generation == 1

    def test_save_round_trips_through_store(self, tmp_path):
        path = tmp_path / "catalog.json"
        store = CatalogStore(path)
        catalog = SystemCatalog()
        catalog.put(_stats("t.new"))
        store.save(catalog)
        assert store.get("t.new").index_name == "t.new"

    def test_bad_cache_size(self, tmp_path):
        with pytest.raises(CatalogError):
            CatalogStore(tmp_path / "c.json", cache_size=0)

    def test_same_size_rewrite_with_same_mtime_is_detected(self, tmp_path):
        # Regression: the old (mtime, size, inode) stamp could not see a
        # rewrite that preserved the file size and landed within mtime
        # granularity (or had its mtime restored).  The content stamp must.
        path = tmp_path / "catalog.json"
        _write(path, _stats("t.a"))
        store = CatalogStore(path)
        assert "t.a" in store
        generation = store.generation
        info = os.stat(path)

        # Same-length rewrite ("t.a" -> "t.b"), then restore the mtime so
        # every stat-based field matches the snapshot the store cached.
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("t.a", "t.b"), encoding="utf-8")
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
        after = os.stat(path)
        assert after.st_size == info.st_size
        assert after.st_mtime_ns == info.st_mtime_ns

        assert "t.b" in store
        assert "t.a" not in store
        assert store.generation > generation
