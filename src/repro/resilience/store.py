"""A catalog store that survives transient faults and corruption.

:class:`ResilientCatalogStore` hardens the plain
:class:`~repro.catalog.store.CatalogStore` for serving paths where the
estimator is advisory infrastructure — the optimizer keeps compiling even
when statistics I/O misbehaves:

* **transient faults** (any :class:`OSError` from the read) are retried
  under a bounded :class:`~repro.resilience.retry.RetryPolicy` with
  deterministic jittered backoff;
* **persistent corruption** (the file reads but does not parse) is
  *quarantined*: the damaged file is atomically renamed to
  ``<name>.quarantined`` so the next statistics pass writes a fresh one
  and repeated reads stop re-parsing garbage;
* after either failure class — and after quarantine leaves no file at
  all — the store keeps serving the **last known good** snapshot,
  counting every such stale serve; it raises only when it has never
  successfully parsed a catalog, because then there is truly nothing to
  answer with.

Every recovery action is counted (:meth:`metrics`), so a deployment can
tell "healthy" from "limping along on a stale snapshot" — the truthful-
metrics requirement the chaos suite pins.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.catalog.catalog import SystemCatalog
from repro.catalog.store import (
    DEFAULT_SNAPSHOT_CACHE,
    CatalogIO,
    CatalogStore,
)
from repro.errors import CatalogError
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry
from repro.resilience.retry import RetryPolicy, call_with_retry

#: Appended to the catalog file name when a corrupt file is set aside.
QUARANTINE_SUFFIX = ".quarantined"


def _bind_catalog_counters(registry: MetricsRegistry) -> Dict[str, object]:
    """Resolve the four catalog counter children on ``registry`` once."""
    return {
        "reads": instruments.catalog_reads(registry).labels(),
        "retries": instruments.catalog_retries(registry).labels(),
        "quarantines": instruments.catalog_quarantines(
            registry
        ).labels(),
        "stale_serves": instruments.catalog_stale_serves(
            registry
        ).labels(),
    }


class ResilientCatalogStore(CatalogStore):
    """A :class:`CatalogStore` with retry, quarantine, and stale serving.

    Drop-in for the plain store (``isinstance`` checks and the engine's
    snapshot-based invalidation work unchanged); ``sleep`` and the
    retry RNG seed are injectable so tests replay exact schedules
    without wall-clock delay.
    """

    def __init__(
        self,
        path: Union[str, Path],
        cache_size: int = DEFAULT_SNAPSHOT_CACHE,
        io: Optional[CatalogIO] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        quarantine: bool = True,
        registry: Optional[MetricsRegistry] = None,
        history: int = 0,
    ) -> None:
        super().__init__(
            path, cache_size=cache_size, io=io, history=history
        )
        self._retry = retry or RetryPolicy()
        self._retry_rng = random.Random(seed)
        self._sleep = sleep
        self._quarantine_enabled = quarantine
        self._last_good: Optional[SystemCatalog] = None
        # Recovery counters live on one metrics registry: the store's
        # own always-enabled one by default (so ``metrics()`` stays
        # truthful with no setup), or a caller-provided registry, which
        # forwards to the export while one is attached.
        self._counters = _bind_catalog_counters(
            registry if registry is not None else MetricsRegistry()
        )

    @property
    def quarantine_path(self) -> Path:
        """Where a corrupt catalog file is moved."""
        return self._path.with_name(self._path.name + QUARANTINE_SUFFIX)

    def catalog(self) -> SystemCatalog:
        """The current snapshot, surviving faults where possible.

        Raises :class:`~repro.errors.CatalogError` only when recovery is
        impossible: the file is unreadable or unparseable *and* no
        previous read ever succeeded.
        """
        self._counters["reads"].inc()
        try:
            data, retries = call_with_retry(
                self._read,
                self._retry,
                retry_on=(OSError,),
                sleep=self._sleep,
                rng=self._retry_rng,
            )
            if retries:
                self._counters["retries"].inc(retries)
        except OSError as exc:
            return self._serve_stale(
                f"transient read faults exhausted the retry budget "
                f"({self._retry.attempts} attempts): {exc}",
                exc,
            )
        except CatalogError as exc:
            # _read maps a missing file to CatalogError; after a
            # quarantine this is the steady state until the next
            # statistics pass rewrites the file.
            return self._serve_stale(str(exc), exc)
        try:
            snapshot = self._snapshot(data)
        except CatalogError as exc:
            self._quarantine()
            return self._serve_stale(
                f"catalog file failed to parse and was quarantined: "
                f"{exc}",
                exc,
            )
        self._last_good = snapshot
        return snapshot

    def _quarantine(self) -> None:
        """Atomically set the (corrupt) catalog file aside."""
        if not self._quarantine_enabled:
            return
        try:
            self._io.replace(self._path, self.quarantine_path)
        except OSError:
            return
        self._counters["quarantines"].inc()

    def _serve_stale(
        self, reason: str, cause: Exception
    ) -> SystemCatalog:
        if self._last_good is not None:
            self._counters["stale_serves"].inc()
            return self._last_good
        raise CatalogError(
            f"catalog {str(self._path)!r} is unavailable and no "
            f"last-known-good snapshot exists: {reason}"
        ) from cause

    def metrics(self) -> Dict[str, object]:
        """Recovery counters (all truthful, all monotone).

        A view over the store's metrics registry, shaped exactly like
        the pre-registry dict (pinned by the equality tests).
        """
        return {
            "reads": self._counters["reads"].value,
            "retries": self._counters["retries"].value,
            "quarantines": self._counters["quarantines"].value,
            "stale_serves": self._counters["stale_serves"].value,
            "has_last_good": self._last_good is not None,
        }

    def __repr__(self) -> str:
        return (
            f"ResilientCatalogStore(path={str(self._path)!r}, "
            f"generation={self._generation}, "
            f"stale_serves={self._counters['stale_serves'].value})"
        )
