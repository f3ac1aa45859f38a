"""Chaos suite: degraded-mode serving under injected catalog faults.

Replays the verification corpus' statistics through an
:class:`EstimationEngine` backed by a :class:`ResilientCatalogStore`
whose I/O is perturbed by every fault class the injector knows.  The
acceptance bar: once a statistics pass has succeeded, ``estimate`` never
raises for any (index, estimator) pair, and the recovery metrics
truthfully report what the engine survived.

The injection seed is pinned (``REPRO_CHAOS_SEED``, default 0) so a CI
failure replays locally bit-for-bit.
"""

import os

import pytest

from repro.catalog import SystemCatalog
from repro.engine import EstimationEngine
from repro.resilience import (
    BreakerPolicy,
    FaultInjector,
    FaultRule,
    ResilientCatalogStore,
    RetryPolicy,
)
from repro.types import ScanSelectivity
from repro.verify import (
    GOLDEN_ESTIMATORS,
    statistics_for_case,
    verification_corpus,
)

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: dc needs index key spans a bare trace does not have (same exclusion
#: as the golden corpus); everything else must answer under chaos.
ESTIMATORS = GOLDEN_ESTIMATORS

PROBES = (ScanSelectivity(0.01), ScanSelectivity(0.5))
BUFFERS = (5, 64)

#: The injected-fault classes, each as (name, rules) — every catalog
#: read/write class the injector models.
FAULT_CLASSES = (
    ("transient-read", [FaultRule("read", "transient", rate=0.6)]),
    ("corrupt-read", [FaultRule("read", "corrupt")]),
    ("torn-write", [FaultRule("write", "torn-write")]),
    ("mtime-collision", [FaultRule("write", "mtime-collision")]),
    ("missing-file", None),  # the file is deleted outright
)


def _small_cases():
    return [
        case for case in verification_corpus() if case.references <= 4000
    ]


@pytest.fixture(scope="module")
def corpus_catalog():
    """One catalog record per small corpus case (module-scoped: the
    statistics passes dominate this suite's runtime)."""
    catalog = SystemCatalog()
    for case in _small_cases():
        catalog.put(statistics_for_case(case))
    return catalog


def _primed_engine(tmp_path, catalog, rules, name):
    """An engine whose store survived one clean read, then faces chaos."""
    path = tmp_path / f"{name}.json"
    catalog.save(path)
    store = ResilientCatalogStore(
        path,
        retry=RetryPolicy(attempts=4),
        seed=CHAOS_SEED,
        sleep=lambda _t: None,
    )
    store.catalog()  # the statistics pass completed before the storm
    if rules is None:
        path.unlink()
    else:
        store._io = FaultInjector(rules, seed=CHAOS_SEED)
    return EstimationEngine(
        store,
        fallback_chain=["epfis", "ml", "unclustered"],
        breaker_policy=BreakerPolicy(failure_threshold=3),
    )


def _serve_everything(engine, catalog):
    """Every (index, estimator, probe, buffer) cell; returns the count."""
    served = 0
    for index_name in catalog:
        for estimator in ESTIMATORS:
            for sel in PROBES:
                for buffers in BUFFERS:
                    value = engine.estimate(
                        index_name, estimator, sel, buffers
                    )
                    assert value >= 0.0
                    served += 1
    return served


@pytest.mark.parametrize(
    "fault_name,rules", FAULT_CLASSES, ids=[n for n, _r in FAULT_CLASSES]
)
def test_estimate_never_raises_under_faults(
    tmp_path, corpus_catalog, fault_name, rules
):
    engine = _primed_engine(tmp_path, corpus_catalog, rules, fault_name)
    if fault_name == "torn-write":
        # The fault storm is on writes: a statistics refresh tears.
        engine.source.save(corpus_catalog)
    served = _serve_everything(engine, corpus_catalog)
    assert served == (
        len(list(corpus_catalog)) * len(ESTIMATORS)
        * len(PROBES) * len(BUFFERS)
    )


def test_transient_metrics_are_truthful(tmp_path, corpus_catalog):
    engine = _primed_engine(
        tmp_path,
        corpus_catalog,
        [FaultRule("read", "transient", rate=0.6)],
        "transient-metrics",
    )
    _serve_everything(engine, corpus_catalog)
    metrics = engine.source.metrics()
    assert metrics["reads"] > 0
    # rate=0.6 over hundreds of reads must retry at least once.
    assert metrics["retries"] > 0
    assert metrics["has_last_good"] is True
    injected = engine.source.io.injected[("read", "transient")]
    assert injected >= metrics["retries"]


def test_corruption_quarantines_and_serves_stale(tmp_path, corpus_catalog):
    engine = _primed_engine(
        tmp_path,
        corpus_catalog,
        [FaultRule("read", "corrupt")],
        "corrupt-metrics",
    )
    _serve_everything(engine, corpus_catalog)
    store = engine.source
    metrics = store.metrics()
    assert metrics["quarantines"] == 1
    assert store.quarantine_path.exists()
    assert not store.path.exists()
    assert metrics["stale_serves"] > 0


def test_missing_file_serves_stale(tmp_path, corpus_catalog):
    engine = _primed_engine(
        tmp_path, corpus_catalog, None, "missing-metrics"
    )
    _serve_everything(engine, corpus_catalog)
    metrics = engine.source.metrics()
    assert metrics["stale_serves"] > 0
    assert metrics["quarantines"] == 0


def test_mtime_collision_rewrite_is_still_picked_up(
    tmp_path, corpus_catalog
):
    # The write fault preserves size and mtime; the content stamp must
    # still see the new statistics (the PR's staleness-bug regression,
    # end to end).
    engine = _primed_engine(
        tmp_path,
        corpus_catalog,
        [FaultRule("write", "mtime-collision")],
        "mtime-metrics",
    )
    names = list(corpus_catalog)
    reduced = SystemCatalog()
    for name in names[1:]:
        reduced.put(corpus_catalog.get(name))
    generation = engine.source.generation
    # Shorter content gets padded back to the old size, and the old
    # mtime is restored — stat-identical, content-different.
    engine.source.save(reduced)
    engine.catalog()
    assert engine.source.generation > generation
    assert names[0] not in engine.catalog()
    _serve_everything(engine, reduced)


def test_broken_estimator_degrades_not_raises(tmp_path, corpus_catalog):
    from repro.errors import EstimationError
    from repro.estimators.base import PageFetchEstimator
    from repro.estimators.registry import _FACTORIES, register_estimator

    class Broken(PageFetchEstimator):
        name = "chaos-broken"

        def estimate(self, selectivity, buffer_pages):
            raise EstimationError("injected estimator failure")

    register_estimator("chaos-broken", lambda stats: Broken())
    try:
        path = tmp_path / "estimator-chaos.json"
        corpus_catalog.save(path)
        engine = EstimationEngine(
            path,
            fallback_chain=["epfis", "unclustered"],
            breaker_policy=BreakerPolicy(failure_threshold=2),
        )
        for index_name in corpus_catalog:
            for sel in PROBES:
                value = engine.estimate(
                    index_name, "chaos-broken", sel, BUFFERS[0]
                )
                assert value >= 0.0
        metrics = engine.metrics().values()
        degraded = len(list(corpus_catalog)) * len(PROBES)
        assert sum(m["degraded_serves"] for m in metrics) == degraded
        assert 0 < sum(m["errors"] for m in metrics) <= degraded
        assert engine.breaker_states()["chaos-broken"] == "open"
    finally:
        _FACTORIES.pop("chaos-broken", None)


@pytest.mark.slow
def test_full_corpus_under_every_fault_class(tmp_path):
    catalog = SystemCatalog()
    for case in verification_corpus():
        catalog.put(statistics_for_case(case))
    for fault_name, rules in FAULT_CLASSES:
        engine = _primed_engine(
            tmp_path, catalog, rules, f"full-{fault_name}"
        )
        if fault_name == "torn-write":
            engine.source.save(catalog)
        _serve_everything(engine, catalog)
