"""Unit tests for the EstimationEngine serving layer."""

import dataclasses
import os

import pytest

from repro.catalog import CatalogStore, SystemCatalog
from repro.catalog.store import CatalogIO
from repro.engine import EstimationEngine
from repro.errors import CatalogError, EngineError, EstimationError
from repro.estimators import LRUFit, PAPER_ESTIMATOR_NAMES
from repro.resilience.store import ResilientCatalogStore
from repro.types import ScanSelectivity


@pytest.fixture(scope="module")
def catalog(clustered_dataset, unclustered_dataset):
    cat = SystemCatalog()
    for dataset in (clustered_dataset, unclustered_dataset):
        cat.put(LRUFit().run(dataset.index))
    return cat


@pytest.fixture()
def engine(catalog):
    return EstimationEngine(catalog)


class TestConstruction:
    def test_from_catalog(self, catalog):
        engine = EstimationEngine(catalog)
        assert len(engine.index_names()) == 2

    def test_from_path(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        catalog.save(path)
        engine = EstimationEngine(path)
        assert isinstance(engine.source, CatalogStore)
        assert len(engine.index_names()) == 2

    def test_rejects_garbage_source(self):
        with pytest.raises(EngineError):
            EstimationEngine(42)

    def test_rejects_bad_cache_size(self, catalog):
        with pytest.raises(EngineError):
            EstimationEngine(catalog, cache_size=0)


class TestResolution:
    def test_binds_every_paper_estimator(self, engine, catalog):
        name = next(iter(catalog))
        for estimator_name in PAPER_ESTIMATOR_NAMES:
            bound = engine.estimator(name, estimator_name)
            assert bound.estimate(ScanSelectivity(0.1), 10) >= 0.0

    def test_binding_is_cached(self, engine, catalog):
        name = next(iter(catalog))
        assert engine.estimator(name, "epfis") is engine.estimator(
            name, "epfis"
        )
        assert engine.cached_estimators() == 1

    def test_options_fork_the_binding(self, engine, catalog):
        name = next(iter(catalog))
        default = engine.estimator(name, "epfis")
        literal = engine.estimator(name, "epfis", phi_rule="literal-max")
        assert default is not literal

    def test_unknown_estimator(self, engine, catalog):
        with pytest.raises(EstimationError) as exc_info:
            engine.estimator(next(iter(catalog)), "nope")
        assert "available" in str(exc_info.value)

    def test_unknown_index(self, engine):
        with pytest.raises(CatalogError):
            engine.estimator("missing.index", "epfis")

    def test_cache_is_bounded(self, catalog):
        engine = EstimationEngine(catalog, cache_size=3)
        name = next(iter(catalog))
        for estimator_name in PAPER_ESTIMATOR_NAMES:
            engine.estimator(name, estimator_name)
        assert engine.cached_estimators() <= 3


class TestQueries:
    def test_single_matches_direct(self, engine, catalog):
        name = next(iter(catalog))
        stats = catalog.get(name)
        from repro.estimators import EPFISEstimator

        direct = EPFISEstimator.from_statistics(stats)
        sel = ScanSelectivity(0.2)
        assert engine.estimate(name, "epfis", sel, 25) == direct.estimate(
            sel, 25
        )

    def test_batch_matches_singles(self, engine, catalog):
        name = next(iter(catalog))
        pairs = [
            (ScanSelectivity(s), b)
            for s in (0.01, 0.2, 0.9)
            for b in (5, 25, 90)
        ]
        batched = engine.estimate_many(name, "epfis", pairs)
        singles = [
            engine.estimate(name, "epfis", sel, b) for sel, b in pairs
        ]
        assert batched == singles

    def test_grid_shape(self, engine, catalog):
        name = next(iter(catalog))
        grid = engine.estimate_grid(
            name,
            "ml",
            [ScanSelectivity(0.1), ScanSelectivity(0.5)],
            [10, 20, 40],
        )
        assert len(grid) == 3
        assert all(len(row) == 2 for row in grid)


class TestReload:
    def test_rebinds_after_catalog_change(self, catalog, tmp_path,
                                          skewed_dataset):
        path = tmp_path / "catalog.json"
        catalog.save(path)
        engine = EstimationEngine(path)
        name = engine.index_names()[0]
        before = engine.estimator(name, "epfis")
        assert engine.estimator(name, "epfis") is before

        grown = SystemCatalog.from_json(catalog.to_json())
        grown.put(LRUFit().run(skewed_dataset.index))
        grown.save(path)
        info = os.stat(path)
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 5_000_000))

        assert len(engine.index_names()) == 3
        assert engine.estimator(name, "epfis") is not before


class _ScriptedIO(CatalogIO):
    """Serves ``v1`` for the first ``switch_after`` reads, ``v2`` after.

    A rewrite that lands at an exact read count, with no file involved.
    """

    def __init__(self, v1: bytes, v2: bytes, switch_after: int) -> None:
        self._versions = (v1, v2)
        self._switch_after = switch_after
        self.reads = 0

    def last_read_was_v2(self) -> bool:
        return self.reads > self._switch_after

    def read_bytes(self, path):
        self.reads += 1
        return self._versions[self.last_read_was_v2()]


def _calls(engine, name, selectivity, pages):
    """The three query shapes, each reduced to its one estimate."""
    return (
        lambda: engine.estimate(name, "epfis", selectivity, pages),
        lambda: engine.estimate_many(
            name, "epfis", [(selectivity, pages)]
        )[0],
        lambda: engine.estimate_grid(
            name, "epfis", [selectivity], [pages]
        )[0][0],
    )


@pytest.mark.parametrize(
    "store_cls", [CatalogStore, ResilientCatalogStore]
)
class TestOneSnapshotPerCall:
    def test_each_call_reads_the_catalog_once(
        self, catalog, store_cls, tmp_path
    ):
        data = catalog.to_json().encode("utf-8")
        io = _ScriptedIO(data, data, switch_after=0)
        engine = EstimationEngine(store_cls(tmp_path / "c.json", io=io))
        name = next(iter(catalog))
        # Twice round: a cold binding cache, then a warm one.
        for call in _calls(engine, name, ScanSelectivity(0.2), 25) * 2:
            before = io.reads
            call()
            assert io.reads == before + 1

    @pytest.mark.parametrize("switch_after", [1, 2, 3, 4])
    def test_answer_comes_from_the_last_read(
        self, catalog, store_cls, switch_after, tmp_path
    ):
        # A rewrite lands after read ``switch_after``; whichever call
        # it lands in must answer from the bytes that call read last,
        # never from a binding built under the older snapshot.
        name, other = sorted(catalog)
        sel = ScanSelectivity(0.2)
        versions = []
        for stats in (
            catalog.get(name),
            dataclasses.replace(catalog.get(other), index_name=name),
        ):
            version = SystemCatalog()
            version.put(stats)
            versions.append(version)
        expected = [
            EstimationEngine(version).estimate(name, "epfis", sel, 25)
            for version in versions
        ]
        assert expected[0] != expected[1]
        io = _ScriptedIO(
            *(v.to_json().encode("utf-8") for v in versions),
            switch_after=switch_after,
        )
        engine = EstimationEngine(store_cls(tmp_path / "c.json", io=io))
        for call in _calls(engine, name, sel, 25) * 2:
            answer = call()
            assert answer == expected[io.last_read_was_v2()]


class TestMetrics:
    def test_counts_calls_and_estimates(self, engine, catalog):
        name = next(iter(catalog))
        engine.estimate(name, "epfis", ScanSelectivity(0.1), 10)
        engine.estimate_many(
            name, "EPFIS", [(ScanSelectivity(0.2), 10)] * 4
        )
        metrics = engine.metrics()
        assert metrics["epfis"]["calls"] == 2
        assert metrics["epfis"]["estimates"] == 5
        assert metrics["epfis"]["seconds"] >= 0.0
        assert metrics["epfis"]["mean_call_us"] >= 0.0

    def test_reset(self, engine, catalog):
        name = next(iter(catalog))
        engine.estimate(name, "dc", ScanSelectivity(0.1), 10)
        engine.reset_metrics()
        assert engine.metrics() == {}

    def test_counters_accumulate_across_repeated_calls(
        self, engine, catalog
    ):
        """Per-estimator tallies are independent and keep accumulating:
        the bound-estimator cache must not swallow accounting."""
        name = next(iter(catalog))
        for _ in range(7):
            engine.estimate(name, "epfis", ScanSelectivity(0.3), 25)
        for _ in range(3):
            engine.estimate_many(
                name, "ml", [(ScanSelectivity(0.1), 10)] * 5
            )
        metrics = engine.metrics()
        assert set(metrics) == {"epfis", "ml"}
        assert metrics["epfis"]["calls"] == 7
        assert metrics["epfis"]["estimates"] == 7
        assert metrics["ml"]["calls"] == 3
        assert metrics["ml"]["estimates"] == 15
        for per in metrics.values():
            assert per["seconds"] >= 0.0
            assert per["mean_call_us"] >= 0.0

    def test_grid_counts_every_cell(self, engine, catalog):
        name = next(iter(catalog))
        engine.estimate_grid(
            name, "epfis",
            [ScanSelectivity(0.1), ScanSelectivity(0.5)],
            [5, 10, 20],
        )
        metrics = engine.metrics()
        assert metrics["epfis"]["calls"] == 1
        assert metrics["epfis"]["estimates"] == 6
