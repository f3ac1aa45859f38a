"""Estimation serving: catalog records in, page-fetch estimates out.

The engine is the query-compilation half of the paper packaged for a
long-running process: a :class:`EstimationEngine` holds a catalog (file or
in-memory), binds named estimators to per-index statistics through the
estimator registry, caches the bindings, and counts per-estimator calls
and latency.  See DESIGN.md, "Estimation serving architecture".
"""

from repro.engine.engine import DEFAULT_ESTIMATOR_CACHE, EstimationEngine

__all__ = [
    "DEFAULT_ESTIMATOR_CACHE",
    "EstimationEngine",
]
