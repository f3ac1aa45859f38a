"""A reloading, caching view over a catalog file.

In the paper's deployment the catalog lives in the DBMS and is read by
every query compilation; here it lives in a JSON file that a statistics
pass rewrites periodically (atomically — see
:meth:`~repro.catalog.catalog.SystemCatalog.save`) while many serving
processes keep reading it.  :class:`CatalogStore` is the reader's side of
that contract:

* **one read per access, bytes compared first** — each access reads the
  file exactly once.  When the bytes equal the last-served bytes the
  current snapshot is returned as is: a byte comparison, no hashing, no
  parse.  Only when they differ is the content stamp ``(size, sha256)``
  computed, the snapshot cache consulted (and the bytes parsed on a
  miss), and the generation bumped.  An earlier revision stamped
  ``(mtime_ns, size, inode)`` from a separate ``stat(2)``; that had two
  real bugs: a same-size in-place rewrite landing within mtime
  granularity was invisible (stale statistics served forever), and the
  stat/parse pair could straddle a concurrent rewrite (TOCTOU).
  Deciding on the content itself closes both — every byte change is
  seen on the next access, and the stamp and the parse always describe
  the same bytes;
* **bounded snapshot cache** — recently parsed snapshots are kept in a
  small LRU keyed by stamp, so a writer flapping between generations (or
  tests restoring a previous file) does not force a reparse per flip;
* **generation counter** — bumps whenever the served snapshot changes.
  A new snapshot object is served exactly then, so downstream caches
  (the estimation engine's bound estimators) key on the object itself.

The last-served bytes and their snapshot are held as one tuple and
replaced whole, so a reader never pairs one version's bytes with
another version's snapshot.  The store does not otherwise lock: callers
sharing one store across threads serialize access (the engine does).

All filesystem access goes through a :class:`CatalogIO` object — the
seam the resilience layer's fault injector wraps (see
:mod:`repro.resilience.faults`) and the hook a test can replace without
monkeypatching globals.

With ``history > 0`` the store additionally keeps a **versioned
catalog history**: every :meth:`CatalogStore.save` first archives the
intended bytes as ``v<NNNNNNNN>.json`` under ``<path>.versions/`` and
only then publishes them to the main file, retaining the newest
``history`` versions.  The history is for inspection:
:meth:`CatalogStore.versions` lists what is retained,
:meth:`CatalogStore.load_version` parses one version, and
:meth:`CatalogStore.current_version` says which archived version the
main file's bytes currently match (``None`` after an out-of-band edit
or a torn publish).  Nothing restores from it: the refresh controller
rolls a failed publish back to the bytes its cycle read through
:meth:`CatalogStore.read`.  Version bookkeeping deliberately bypasses
:class:`CatalogIO`: an injected fault on the *publish* never touches
the archive.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.catalog.catalog import (
    IndexStatistics,
    SystemCatalog,
    atomic_write_text,
)
from repro.errors import CatalogError

#: Parsed snapshots kept per store; catalogs are small, flapping is rare.
DEFAULT_SNAPSHOT_CACHE = 4

#: Directory suffix holding archived catalog versions.
VERSIONS_SUFFIX = ".versions"

#: Archived version file name pattern (``v%08d.json``).
_VERSION_PREFIX = "v"
_VERSION_SUFFIX = ".json"

#: ``(size, sha256 hexdigest)`` of the file content.
_Stamp = Tuple[int, str]


class CatalogIO:
    """Real filesystem access used by :class:`CatalogStore`.

    Deliberately tiny: one read primitive, one atomic-write primitive,
    one rename primitive.  The resilience layer's
    :class:`~repro.resilience.faults.FaultInjector` subclasses this to
    inject deterministic failures on exactly these operations.
    """

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        """The complete current content of ``path``."""
        with open(path, "rb") as handle:
            return handle.read()

    def save_text(self, path: Union[str, Path], text: str) -> None:
        """Atomically replace ``path`` with ``text``."""
        atomic_write_text(path, text)

    def replace(
        self, src: Union[str, Path], dst: Union[str, Path]
    ) -> None:
        """Atomic rename (used to quarantine corrupt files)."""
        os.replace(src, dst)


class CatalogStore:
    """Serve :class:`SystemCatalog` snapshots from a file, reloading on
    change."""

    def __init__(
        self,
        path: Union[str, Path],
        cache_size: int = DEFAULT_SNAPSHOT_CACHE,
        io: Optional[CatalogIO] = None,
        history: int = 0,
    ) -> None:
        if cache_size < 1:
            raise CatalogError(
                f"cache_size must be >= 1, got {cache_size}"
            )
        if history < 0:
            raise CatalogError(
                f"history must be >= 0, got {history}"
            )
        self._path = Path(path)
        self._cache_size = cache_size
        self._io = io or CatalogIO()
        self._history = history
        self._snapshots: "OrderedDict[_Stamp, SystemCatalog]" = OrderedDict()
        # The last-served (bytes, snapshot) pair, replaced whole.
        self._served: Optional[Tuple[bytes, SystemCatalog]] = None
        self._generation = 0
        # In-process floor for version ids: never reuse an id this store
        # already assigned, even after retention pruned its file.
        self._next_version = 1

    @property
    def path(self) -> Path:
        """The catalog file this store serves."""
        return self._path

    @property
    def io(self) -> CatalogIO:
        """The I/O object all file access goes through."""
        return self._io

    @property
    def generation(self) -> int:
        """Increments every time the served snapshot changes."""
        return self._generation

    def _read(self) -> bytes:
        """One read of the catalog file.

        Raises :class:`~repro.errors.CatalogError` when the file does
        not exist; any other :class:`OSError` (the transient class)
        propagates for the caller — or a resilient subclass — to handle.
        """
        try:
            return self._io.read_bytes(self._path)
        except FileNotFoundError:
            raise CatalogError(
                f"catalog file {str(self._path)!r} does not exist; run "
                f"statistics collection (e.g. `repro fit --catalog ...`) "
                f"first"
            ) from None

    def _snapshot(self, data: bytes) -> SystemCatalog:
        """The snapshot for the bytes ``data`` just read.

        Unchanged bytes return the served snapshot after one byte
        comparison.  Changed bytes are stamped, served from the
        snapshot cache or parsed, and bump :attr:`generation`.
        """
        served = self._served
        if served is not None and served[0] == data:
            return served[1]
        stamp = (len(data), hashlib.sha256(data).hexdigest())
        snapshot = self._snapshots.get(stamp)
        if snapshot is None:
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CatalogError(
                    f"catalog file {str(self._path)!r} is not valid "
                    f"UTF-8: {exc}"
                ) from exc
            snapshot = SystemCatalog.from_json(text)
            self._snapshots[stamp] = snapshot
            while len(self._snapshots) > self._cache_size:
                self._snapshots.popitem(last=False)
        else:
            self._snapshots.move_to_end(stamp)
        self._served = (data, snapshot)
        self._generation += 1
        return snapshot

    def catalog(self) -> SystemCatalog:
        """The current snapshot, reloaded iff the file's bytes changed."""
        return self._snapshot(self._read())

    def read(self) -> Optional[Tuple[bytes, SystemCatalog]]:
        """One read of the catalog file: its bytes and their snapshot.

        ``None`` when the file does not exist.  A read fault
        (:class:`OSError`) propagates, and bytes that do not parse
        raise :class:`~repro.errors.CatalogError`.
        """
        try:
            data = self._io.read_bytes(self._path)
        except FileNotFoundError:
            return None
        return data, self._snapshot(data)

    def get(self, index_name: str) -> IndexStatistics:
        """Statistics for one index from the current snapshot."""
        return self.catalog().get(index_name)

    def __contains__(self, index_name: str) -> bool:
        return index_name in self.catalog()

    def __iter__(self) -> Iterator[str]:
        return iter(self.catalog())

    def __len__(self) -> int:
        return len(self.catalog())

    def invalidate(self) -> None:
        """Drop all cached snapshots; the next access reparses the file."""
        self._snapshots.clear()
        self._served = None
        self._generation += 1

    def save(self, catalog: SystemCatalog) -> None:
        """Atomically write ``catalog`` to this store's file.

        The write goes through this store's :class:`CatalogIO` (so
        injected write faults apply); the next :meth:`catalog` call
        picks the new file up through the normal byte check (and bumps
        :attr:`generation` accordingly).  With ``history > 0`` the
        intended bytes are archived as a new version *before* the
        publish — see :meth:`save_text`.
        """
        self.save_text(catalog.to_json())

    def save_text(self, text: str) -> Optional[int]:
        """Publish ``text`` as the catalog's new content.

        With ``history > 0``, the intended bytes are first archived
        (archive-then-publish: a version id labels a publish *attempt*,
        and the archive is durable even when the publish itself is torn
        or fails) and the oldest versions beyond the retention bound are
        pruned.  Returns the archived version id, or ``None`` when the
        store keeps no history.
        """
        version: Optional[int] = None
        if self._history > 0:
            version = self._archive_version(text)
        self._io.save_text(self._path, text)
        return version

    # ------------------------------------------------------------------
    # Versioned history
    # ------------------------------------------------------------------
    @property
    def history(self) -> int:
        """Retained version count (0 = no history kept)."""
        return self._history

    @property
    def versions_dir(self) -> Path:
        """Directory holding archived catalog versions."""
        return self._path.with_name(self._path.name + VERSIONS_SUFFIX)

    def version_path(self, version: int) -> Path:
        """The archive file for ``version``."""
        return self.versions_dir / (
            f"{_VERSION_PREFIX}{version:08d}{_VERSION_SUFFIX}"
        )

    def versions(self) -> List[int]:
        """Retained version ids, oldest first."""
        directory = self.versions_dir
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            name = entry.name
            if (
                name.startswith(_VERSION_PREFIX)
                and name.endswith(_VERSION_SUFFIX)
            ):
                digits = name[
                    len(_VERSION_PREFIX):-len(_VERSION_SUFFIX)
                ]
                if digits.isdigit():
                    found.append(int(digits))
        return sorted(found)

    def current_version(self) -> Optional[int]:
        """The archived version whose bytes the main file matches.

        ``None`` when no history is kept, the main file is missing, or
        its bytes match no retained version (an out-of-band edit, a torn
        publish, or a pre-history file).  Version bookkeeping reads the
        filesystem directly — deliberately not through :attr:`io` — so
        injected read faults cannot make an inspection lie about where
        the store stands.
        """
        try:
            current = hashlib.sha256(
                self._path.read_bytes()
            ).hexdigest()
        except OSError:
            return None
        for version in reversed(self.versions()):
            try:
                archived = self.version_path(version).read_bytes()
            except OSError:
                continue
            if hashlib.sha256(archived).hexdigest() == current:
                return version
        return None

    def load_version(self, version: int) -> SystemCatalog:
        """Parse one archived version (without touching the main file)."""
        path = self.version_path(version)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            raise CatalogError(
                f"catalog version {version} is not retained "
                f"(no file at {str(path)!r})"
            ) from None
        return SystemCatalog.from_json(text)

    def _archive_version(self, text: str) -> int:
        """Write ``text`` as the next version; prune beyond retention."""
        retained = self.versions()
        floor = retained[-1] + 1 if retained else 1
        version = max(self._next_version, floor)
        self._next_version = version + 1
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.version_path(version), text)
        self._prune(self._history)
        return version

    def _prune(self, keep: int) -> None:
        retained = self.versions()
        for stale in retained[: max(0, len(retained) - keep)]:
            try:
                self.version_path(stale).unlink()
            except OSError:
                pass

    def __repr__(self) -> str:
        return (
            f"CatalogStore(path={str(self._path)!r}, "
            f"generation={self._generation})"
        )
