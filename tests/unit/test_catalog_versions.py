"""Unit tests for the catalog store's version history."""

import os

import pytest

from repro.catalog import CatalogStore, SystemCatalog
from repro.errors import CatalogError
from repro.resilience import ResilientCatalogStore

from tests.unit.test_catalog import _stats


def _catalog_text(*names):
    catalog = SystemCatalog()
    for name in names:
        catalog.put(_stats(name))
    return catalog.to_json()


def _touch(path, offset_ns):
    info = os.stat(path)
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + offset_ns))


class TestVersionedSave:
    def test_history_zero_keeps_no_versions(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json")
        assert store.history == 0
        assert store.save_text(_catalog_text("t.a")) is None
        assert store.versions() == []
        assert store.current_version() is None

    def test_negative_history_rejected(self, tmp_path):
        with pytest.raises(CatalogError):
            CatalogStore(tmp_path / "catalog.json", history=-1)

    def test_saves_archive_and_number_monotonically(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=3)
        ids = [
            store.save_text(_catalog_text(name))
            for name in ("t.a", "t.b", "t.c")
        ]
        assert ids == [1, 2, 3]
        assert store.versions() == [1, 2, 3]
        assert store.current_version() == 3

    def test_history_prunes_oldest(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        for name in ("t.a", "t.b", "t.c", "t.d"):
            store.save_text(_catalog_text(name))
        assert store.versions() == [3, 4]
        assert store.current_version() == 4

    def test_archive_lives_beside_catalog(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        version = store.save_text(_catalog_text("t.a"))
        archived = store.version_path(version)
        assert archived.parent == store.versions_dir
        assert archived.read_text() == store.path.read_text()

    def test_load_version_roundtrips(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        store.save_text(_catalog_text("t.a"))
        version = store.save_text(_catalog_text("t.b"))
        assert "t.b" in store.load_version(version)

    def test_load_missing_version_is_actionable(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        store.save_text(_catalog_text("t.a"))
        with pytest.raises(CatalogError):
            store.load_version(99)

    def test_save_catalog_object_archives_too(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        catalog = SystemCatalog()
        catalog.put(_stats("t.a"))
        store.save(catalog)
        assert store.versions() == [1]
        assert store.current_version() == 1

    def test_current_version_none_when_file_missing(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        assert store.current_version() is None

    def test_current_version_none_when_file_diverged(self, tmp_path):
        store = CatalogStore(tmp_path / "catalog.json", history=2)
        store.save_text(_catalog_text("t.a"))
        # An out-of-band write (no archive): nothing matches.
        store.path.write_text(_catalog_text("t.z"))
        assert store.current_version() is None

    def test_same_size_rewrite_resolves_current_version(self, tmp_path):
        """Regression: a same-size, same-mtime rewrite (the reload
        blind spot content stamping closes) still resolves the right
        current version."""
        store = CatalogStore(tmp_path / "catalog.json", history=3)
        store.save_text(_catalog_text("t.aa"))
        mtime = os.stat(store.path).st_mtime_ns
        store.save_text(_catalog_text("t.ab"))  # same byte length
        os.utime(store.path, ns=(mtime, mtime))
        assert len(_catalog_text("t.aa")) == len(_catalog_text("t.ab"))
        assert store.current_version() == 2


class TestResilientStoreVersions:
    def test_history_passes_through(self, tmp_path):
        store = ResilientCatalogStore(
            tmp_path / "catalog.json", history=2
        )
        assert store.history == 2
        store.save_text(_catalog_text("t.a"))
        store.save_text(_catalog_text("t.b"))
        store.save_text(_catalog_text("t.c"))
        assert store.versions() == [2, 3]
        assert store.current_version() == 3
