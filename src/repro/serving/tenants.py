"""Per-tenant catalog namespaces for the serving tier.

A multi-tenant estimation service must never let one tenant's
statistics — or one tenant's *damage* — leak into another's answers.
:class:`TenantCatalogs` gives each tenant an isolated directory under
one root::

    <root>/<tenant>/catalog.json

and serves each through its own
:class:`~repro.resilience.store.ResilientCatalogStore` wrapped in its
own :class:`~repro.engine.EstimationEngine`.  Isolation falls out of
the layout: a corrupt catalog is quarantined *inside its tenant's
directory* (``catalog.json.quarantined``), its store limps along on its
own last-known-good snapshot, and no other tenant's store ever reads
the damaged bytes.  Generations, bound-estimator caches, breakers, and
recovery counters are all per tenant.

Tenant names are a closed vocabulary (``[a-z0-9][a-z0-9_-]{0,63}``) so
a request can never name a path outside the root — ``..``, ``/``, and
friends are rejected before any filesystem access.

The engine cache is LRU-bounded: a deployment with more tenants than
``cache_size`` keeps the hot ones resident and rebuilds cold ones on
demand (the catalog file is the durable state; an eviction only costs a
re-parse).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.catalog.catalog import SystemCatalog
from repro.engine import EstimationEngine
from repro.errors import ServingError
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import BreakerPolicy
from repro.resilience.store import ResilientCatalogStore

#: Tenant engines kept resident per :class:`TenantCatalogs`.
DEFAULT_TENANT_CACHE = 32

#: File name every tenant's statistics live under.
CATALOG_FILE = "catalog.json"

_TENANT_NAME = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")


def validate_tenant_name(name: object) -> str:
    """``name`` if it is a legal tenant name, else :class:`ServingError`.

    The grammar is deliberately narrow — lowercase alphanumerics plus
    ``-``/``_``, starting alphanumeric, at most 64 characters — so a
    tenant name is always a safe single path component.
    """
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ServingError(
            f"invalid tenant name {name!r}: must match "
            f"[a-z0-9][a-z0-9_-]{{0,63}}"
        )
    return name


class TenantCatalogs:
    """An LRU-bounded map of tenant name -> isolated serving engine.

    Thread-safe: the serving tier's executing thread (its dispatcher
    or an idle caller), its grid/advise callers and any management
    thread (provisioning a tenant, listing tenants) may call in
    concurrently.  ``engine_options`` are forwarded to every
    :class:`~repro.engine.EstimationEngine` built (``fallback_chain``,
    ``breaker_policy``, ...), so degraded-mode serving policy is uniform
    across tenants while the state it guards stays per tenant.
    """

    def __init__(
        self,
        root: Union[str, Path],
        cache_size: int = DEFAULT_TENANT_CACHE,
        fallback_chain: Optional[Sequence[str]] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        store_factory: Optional[
            Callable[[Path], ResilientCatalogStore]
        ] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_size < 1:
            raise ServingError(
                f"tenant cache_size must be >= 1, got {cache_size}"
            )
        self._root = Path(root)
        self._cache_size = cache_size
        self._fallback_chain = (
            tuple(fallback_chain) if fallback_chain else None
        )
        self._breaker_policy = breaker_policy
        self._store_factory = store_factory
        self._engines: "OrderedDict[str, EstimationEngine]" = OrderedDict()
        self._lock = threading.Lock()
        if registry is None:
            registry = MetricsRegistry()
        self._active_gauge = instruments.serving_tenants_active(
            registry
        ).labels()
        self._eviction_counter = instruments.serving_tenant_evictions(
            registry
        ).labels()

    @property
    def root(self) -> Path:
        """The directory all tenant namespaces live under."""
        return self._root

    def catalog_path(self, tenant: str) -> Path:
        """Where ``tenant``'s statistics file lives (name validated)."""
        return self._root / validate_tenant_name(tenant) / CATALOG_FILE

    def tenant_names(self) -> List[str]:
        """Sorted tenants that have a catalog file on disk."""
        if not self._root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self._root.iterdir()
            if entry.is_dir()
            and _TENANT_NAME.match(entry.name)
            and (entry / CATALOG_FILE).exists()
        )

    def save(self, tenant: str, catalog: SystemCatalog) -> Path:
        """Provision/refresh ``tenant``'s namespace with ``catalog``.

        Creates the tenant directory on first use and writes the file
        atomically through the tenant's own store, so resident engines
        pick the new statistics up via the normal generation bump.
        """
        path = self.catalog_path(tenant)
        path.parent.mkdir(parents=True, exist_ok=True)
        store = self.engine(tenant).source
        store.save(catalog)
        return path

    def _build_engine(self, tenant: str) -> EstimationEngine:
        path = self.catalog_path(tenant)
        if self._store_factory is not None:
            store = self._store_factory(path)
        else:
            store = ResilientCatalogStore(path)
        return EstimationEngine(
            store,
            fallback_chain=self._fallback_chain,
            breaker_policy=self._breaker_policy,
        )

    def engine(self, tenant: str) -> EstimationEngine:
        """The (cached) serving engine for ``tenant``.

        Building an engine never touches the catalog file — a tenant
        with no statistics yet only fails when asked to estimate, with
        the store's own "run statistics collection first" error.
        """
        tenant = validate_tenant_name(tenant)
        with self._lock:
            engine = self._engines.get(tenant)
            if engine is not None:
                self._engines.move_to_end(tenant)
                return engine
            engine = self._build_engine(tenant)
            self._engines[tenant] = engine
            while len(self._engines) > self._cache_size:
                self._engines.popitem(last=False)
                self._eviction_counter.inc()
            self._active_gauge.set(len(self._engines))
            return engine

    def resident_tenants(self) -> List[str]:
        """Tenants whose engines are currently cached (LRU order)."""
        with self._lock:
            return list(self._engines)

    def metrics(self) -> Dict[str, object]:
        """Cache occupancy and eviction counters (truthful)."""
        with self._lock:
            return {
                "resident": len(self._engines),
                "cache_size": self._cache_size,
                "evictions": self._eviction_counter.value,
            }

    def __repr__(self) -> str:
        return (
            f"TenantCatalogs(root={str(self._root)!r}, "
            f"resident={len(self._engines)}/{self._cache_size})"
        )
