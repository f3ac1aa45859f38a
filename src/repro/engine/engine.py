"""The estimation engine: the serving side of the EPFIS split.

The paper separates statistics *collection* (LRU-Fit, run while "statistics
are being gathered for other purposes") from statistics *consumption*
(Est-IO, run on every optimizer call).  :class:`EstimationEngine` is the
consumption side packaged as one long-lived object, the way a query
compiler would hold it:

* it reads catalog records through a :class:`~repro.catalog.CatalogStore`
  (or a plain in-memory :class:`~repro.catalog.SystemCatalog`),
* it resolves ``(index_name, estimator_name)`` to a *bound* estimator via
  the estimator registry, caching the binding in a bounded LRU so repeated
  compilations of the same shape pay construction cost once,
* it resolves exactly one catalog snapshot per call, binds from that
  snapshot, and drops its bindings exactly when the snapshot object
  changes (the store serves a new one only when the file's bytes do),
* it counts calls, estimates, and wall-clock latency per estimator, the
  observability hook a high-traffic deployment graphs first,
* and — when configured with a ``fallback_chain`` and/or a
  ``breaker_policy`` — it serves in *degraded mode*: a failing estimator
  trips a per-name circuit breaker and the next chain member answers
  instead, so the optimizer never sees an exception as long as any
  member can produce an estimate (see DESIGN.md, "Resilience
  architecture").
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.catalog.catalog import IndexStatistics, SystemCatalog
from repro.catalog.store import CatalogStore
from repro.errors import EngineError, ReproError
from repro.estimators.base import PageFetchEstimator
from repro.estimators.registry import available_estimators, get_estimator
from repro.obs import instruments
from repro.obs.metrics import NS_TO_SECONDS, MetricsRegistry
from repro.obs.tracing import span as obs_span
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.types import ScanSelectivity

#: Bound (index, estimator) pairs kept alive per engine.
DEFAULT_ESTIMATOR_CACHE = 256


def _bind_engine_families(registry: MetricsRegistry) -> Dict[str, object]:
    """Resolve the per-estimator serving families on ``registry`` once."""
    return {
        "latency": instruments.engine_call_latency(registry),
        "estimates": instruments.engine_estimates(registry),
        "errors": instruments.engine_errors(registry),
        "degraded": instruments.engine_degraded_serves(registry),
    }


@dataclass(frozen=True)
class _CacheKey:
    index_name: str
    estimator_name: str
    options: Tuple[Tuple[str, object], ...] = field(default=())
    #: Replacement policy of the catalog record the binding was built
    #: from.  Keying on it means refitting an index under another policy
    #: (same name, same snapshot object for in-memory catalogs) can never
    #: serve an estimator bound to the old policy's curve.
    policy: str = "lru"


class EstimationEngine:
    """Answer page-fetch queries from catalog statistics, by name.

    ``catalog`` may be a :class:`~repro.catalog.SystemCatalog` (static
    in-memory statistics), a :class:`~repro.catalog.CatalogStore`
    (file-backed, auto-reloading — including the resilient subclass), or
    a path (wrapped in a store).

    ``fallback_chain`` names registry estimators tried, in order, when a
    requested estimator fails (the requested name is always tried
    first); ``breaker_policy`` adds a per-estimator circuit breaker so a
    repeatedly failing member is skipped until its cooldown elapses.
    With neither configured the engine behaves exactly as before:
    estimator exceptions propagate unchanged.

    One engine may be shared across threads: catalog access and the
    binding cache are guarded by one lock, so a rewrite observed by one
    thread can never clear the cache under another thread's lookup.
    """

    def __init__(
        self,
        catalog: Union[SystemCatalog, CatalogStore, str, Path],
        cache_size: int = DEFAULT_ESTIMATOR_CACHE,
        fallback_chain: Optional[Sequence[str]] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_size < 1:
            raise EngineError(f"cache_size must be >= 1, got {cache_size}")
        if isinstance(catalog, (str, Path)):
            catalog = CatalogStore(catalog)
        if not isinstance(catalog, (SystemCatalog, CatalogStore)):
            raise EngineError(
                f"catalog must be a SystemCatalog, CatalogStore, or path, "
                f"got {type(catalog).__name__}"
            )
        self._source = catalog
        self._cache_size = cache_size
        self._bound: "OrderedDict[_CacheKey, PageFetchEstimator]" = (
            OrderedDict()
        )
        # The snapshot the bindings were built from; holding it keeps
        # the identity check below sound.
        self._bound_snapshot: Optional[SystemCatalog] = None
        self._lock = threading.RLock()
        # Serving counters live on one metrics registry: the engine's
        # own always-enabled one by default (``metrics()`` stays
        # truthful with no setup) or a caller-provided registry, which
        # forwards to the export while one is attached.  Latencies are
        # accumulated as integer nanoseconds inside the registry and
        # converted to seconds only in views/snapshots, so a nanosecond
        # can never vanish into a large float running total.
        self._registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._fam = _bind_engine_families(self._registry)
        if fallback_chain is not None:
            known = set(available_estimators())
            normalized = []
            for name in fallback_chain:
                key = str(name).lower()
                if key not in known:
                    raise EngineError(
                        f"unknown fallback estimator {name!r}; "
                        f"available: {', '.join(sorted(known))}"
                    )
                if key not in normalized:
                    normalized.append(key)
            fallback_chain = tuple(normalized)
        self._fallback: Optional[Tuple[str, ...]] = fallback_chain
        self._breaker_policy = breaker_policy
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._clock = clock

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------
    @property
    def source(self) -> Union[SystemCatalog, CatalogStore]:
        """The catalog (or store) this engine serves from."""
        return self._source

    def catalog(self) -> SystemCatalog:
        """The current catalog snapshot (reloaded if file-backed)."""
        if isinstance(self._source, CatalogStore):
            with self._lock:
                return self._source.catalog()
        return self._source

    def statistics(self, index_name: str) -> IndexStatistics:
        """The catalog record for one index."""
        return self.catalog().get(index_name)

    def index_names(self) -> List[str]:
        """Sorted names of every index the engine can estimate for."""
        return list(self.catalog())

    # ------------------------------------------------------------------
    # Estimator binding
    # ------------------------------------------------------------------
    def estimator(
        self, index_name: str, estimator_name: str, **options
    ) -> PageFetchEstimator:
        """The bound estimator for ``(index_name, estimator_name)``.

        The catalog is read once: the record comes from that snapshot,
        and the cached bindings are dropped first when the snapshot is
        not the one they were built from.  Bindings are cached (LRU,
        ``cache_size`` entries); ``options`` are forwarded to the
        registry factory and participate in the cache key, as does the
        record's fitted ``policy`` (so an in-place refit of an
        in-memory catalog under another replacement policy invalidates
        the binding even though the snapshot object stays the same).
        """
        with self._lock:
            snapshot = self.catalog()
            if snapshot is not self._bound_snapshot:
                self._bound.clear()
                self._bound_snapshot = snapshot
            stats = snapshot.get(index_name)
            key = _CacheKey(
                index_name,
                estimator_name,
                tuple(sorted(options.items())),
                policy=stats.policy,
            )
            bound = self._bound.get(key)
            if bound is None:
                bound = get_estimator(estimator_name, stats, **options)
                self._bound[key] = bound
                while len(self._bound) > self._cache_size:
                    self._bound.popitem(last=False)
            else:
                self._bound.move_to_end(key)
            return bound

    # ------------------------------------------------------------------
    # Degraded-mode serving
    # ------------------------------------------------------------------
    @property
    def fallback_chain(self) -> Optional[Tuple[str, ...]]:
        """The configured fallback estimator names (normalized)."""
        return self._fallback

    def _resilient(self) -> bool:
        return (
            self._fallback is not None
            or self._breaker_policy is not None
        )

    def _breaker_for(self, name: str) -> Optional[CircuitBreaker]:
        if self._breaker_policy is None:
            return None
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                self._breaker_policy,
                clock=self._clock,
                registry=self._registry,
                name=name,
            )
            self._breakers[name] = breaker
        return breaker

    def _serve(
        self,
        index_name: str,
        estimator_name: str,
        options: dict,
        call: Callable[[PageFetchEstimator], Tuple[object, int]],
    ):
        """Run ``call`` against the first chain member that can answer.

        ``call`` maps a bound estimator to ``(result, estimate_count)``.
        Without resilience configured this is the legacy single-try
        path — exceptions propagate unchanged.
        """
        if not self._resilient():
            with obs_span(
                "engine-serve",
                index=index_name,
                estimator=estimator_name,
            ):
                bound = self.estimator(
                    index_name, estimator_name, **options
                )
                started = time.perf_counter_ns()
                result, count = call(bound)
                self._record(
                    estimator_name,
                    count,
                    time.perf_counter_ns() - started,
                )
            return result
        requested = estimator_name.lower()
        chain = [requested]
        chain.extend(
            name for name in (self._fallback or ()) if name != requested
        )
        last_error: Optional[Exception] = None
        skipped: List[str] = []
        for name in chain:
            breaker = self._breaker_for(name)
            if breaker is not None and not breaker.allow():
                skipped.append(name)
                continue
            try:
                with obs_span(
                    "engine-serve", index=index_name, estimator=name
                ):
                    bound = self.estimator(
                        index_name,
                        name,
                        **(options if name == requested else {}),
                    )
                    started = time.perf_counter_ns()
                    result, count = call(bound)
                    elapsed = time.perf_counter_ns() - started
            except ReproError as exc:
                last_error = exc
                self._count("errors", name)
                if breaker is not None:
                    breaker.record_failure()
                continue
            if breaker is not None:
                breaker.record_success()
            self._record(name, count, elapsed)
            if name != requested:
                self._count("degraded", requested)
            return result
        raise EngineError(
            f"no estimator in the chain {chain} could answer for index "
            f"{index_name!r}"
            + (f" (breaker-open: {skipped})" if skipped else "")
            + (f"; last error: {last_error}" if last_error else "")
        ) from last_error

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(
        self,
        index_name: str,
        estimator_name: str,
        selectivity: ScanSelectivity,
        buffer_pages: int,
        **options,
    ) -> float:
        """One page-fetch estimate (the optimizer's per-plan question)."""
        return self._serve(
            index_name,
            estimator_name,
            options,
            lambda bound: (bound.estimate(selectivity, buffer_pages), 1),
        )

    def estimate_many(
        self,
        index_name: str,
        estimator_name: str,
        pairs: Iterable[Tuple[ScanSelectivity, int]],
        **options,
    ) -> List[float]:
        """Batched estimates through the estimator's fast path."""
        pairs = list(pairs)
        return self._serve(
            index_name,
            estimator_name,
            options,
            lambda bound: (bound.estimate_many(pairs), len(pairs)),
        )

    def estimate_grid(
        self,
        index_name: str,
        estimator_name: str,
        selectivities: Sequence[ScanSelectivity],
        buffer_pages: Sequence[int],
        **options,
    ) -> List[List[float]]:
        """Cross-product estimates, one row per buffer size."""
        return self._serve(
            index_name,
            estimator_name,
            options,
            lambda bound: (
                bound.estimate_grid(selectivities, buffer_pages),
                len(selectivities) * len(buffer_pages),
            ),
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _count(self, family: str, estimator_name: str) -> None:
        self._fam[family].labels(estimator=estimator_name.lower()).inc()

    def _record(
        self, estimator_name: str, estimates: int, elapsed_ns: int
    ) -> None:
        name = estimator_name.lower()
        self._fam["latency"].labels(estimator=name).observe(elapsed_ns)
        if estimates:
            self._fam["estimates"].labels(estimator=name).inc(estimates)

    def metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-estimator serving counters, as plain dicts.

        ``errors`` counts calls that raised; ``degraded_serves`` counts
        requests that *asked* for an estimator but were answered by a
        fallback-chain member instead.  Read straight off the engine's
        registry families; latency sums are exact integer nanoseconds
        there, converted to seconds here.
        """
        fam = self._fam
        names = sorted({
            key[0] for family in fam.values() for key in family.children()
        })
        views = {}
        for name in names:
            latency = fam["latency"].labels(estimator=name)
            calls = latency.count
            seconds = latency.sum * NS_TO_SECONDS
            views[name] = {
                "calls": calls,
                "estimates": fam["estimates"].labels(estimator=name).value,
                "seconds": seconds,
                "mean_call_us": 1e6 * seconds / calls if calls else 0.0,
                "errors": fam["errors"].labels(estimator=name).value,
                "degraded_serves": fam["degraded"].labels(
                    estimator=name
                ).value,
            }
        return views

    def breaker_states(self) -> Dict[str, str]:
        """Current circuit-breaker state per estimator name.

        Empty when no breaker policy is configured; states are
        ``closed``, ``open``, or ``half-open`` (the open → half-open
        transition happens lazily as the cooldown elapses).
        """
        return {
            name: breaker.state
            for name, breaker in sorted(self._breakers.items())
        }

    def cached_estimators(self) -> int:
        """Number of currently bound (index, estimator) pairs."""
        return len(self._bound)

    def reset_metrics(self) -> None:
        """Zero the serving counters (e.g. between load phases)."""
        for family in self._fam.values():
            family.clear()

    def __repr__(self) -> str:
        return (
            f"EstimationEngine(source={self._source!r}, "
            f"bound={len(self._bound)})"
        )
