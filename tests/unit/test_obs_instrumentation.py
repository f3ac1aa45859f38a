"""Instrumentation-site tests: kernels, checkpoints, engine, store,
breakers, serving and refresh recording onto the metrics registry —
with the legacy ``metrics()`` dict shapes pinned by equality, and the
forwarding of component registries into the export."""

import json

import pytest

from repro.buffer.kernels import available_kernels, get_kernel
from repro.catalog import CatalogStore, SystemCatalog
from repro.engine import EstimationEngine
from repro.estimators import LRUFit
from repro.obs import instruments
from repro.obs.metrics import (
    NS_TO_SECONDS,
    MetricsRegistry,
    global_registry,
)
from repro.obs.session import observability_session
from repro.refresh import DriftingFeed, RefreshConfig, RefreshController
from repro.resilience import (
    BreakerPolicy,
    Checkpointer,
    CheckpointPolicy,
    CircuitBreaker,
    ResilientCatalogStore,
)
from repro.serving import EstimateRequest, EstimationServer
from repro.trace.paper_scale import PaperScaleSpec
from repro.types import ScanSelectivity

TRACE = [0, 1, 2, 0, 1, 3, 0, 2, 1, 0]


@pytest.fixture()
def enabled_global():
    """Enable the process-global registry for one test, then restore
    its disabled, empty default state."""
    registry = global_registry()
    registry.enable()
    try:
        yield registry
    finally:
        registry.disable()
        registry.clear()


@pytest.fixture(scope="module")
def catalog(clustered_dataset):
    cat = SystemCatalog()
    cat.put(LRUFit().run(clustered_dataset.index))
    return cat


class TestKernelProfiling:
    def test_stream_records_references_and_throughput(
        self, enabled_global
    ):
        stream = get_kernel("baseline").stream()
        stream.feed(TRACE[:5])
        stream.feed(TRACE[5:])
        stream.finish()
        refs = instruments.kernel_references().labels(
            kernel="baseline"
        )
        assert refs.value == len(TRACE)
        seconds = instruments.kernel_feed_seconds().labels(
            kernel="baseline"
        )
        assert seconds.value > 0  # integer nanoseconds
        assert isinstance(seconds.value, int)
        rate = instruments.kernel_references_per_second().labels(
            kernel="baseline"
        )
        assert rate.value > 0

    def test_analyze_records_too(self, enabled_global):
        get_kernel("sampled").analyze(TRACE)
        refs = instruments.kernel_references().labels(kernel="sampled")
        assert refs.value == len(TRACE)

    def test_every_kernel_stream_is_tagged(self):
        for name in available_kernels():
            assert get_kernel(name).stream().kernel_name == name

    def test_disabled_registry_records_nothing(self):
        registry = global_registry()
        assert not registry.enabled
        get_kernel("baseline").analyze(TRACE)
        family = registry.get(instruments.KERNEL_REFERENCES_TOTAL)
        assert family is None or family.children() == {}


class TestCheckpointTimings:
    def test_save_and_load_observed(self, tmp_path, enabled_global):
        checkpointer = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=1)
        )
        stream = get_kernel("baseline").stream()
        stream.feed(TRACE)
        checkpointer.save(stream, len(TRACE), "digest", "baseline")
        checkpointer.load()
        saves = instruments.checkpoint_save_seconds().labels()
        loads = instruments.checkpoint_load_seconds().labels()
        assert saves.count == 1 and saves.sum > 0
        assert loads.count == 1 and loads.sum > 0

    def test_untimed_when_disabled(self, tmp_path):
        checkpointer = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=1)
        )
        stream = get_kernel("baseline").stream()
        stream.feed(TRACE)
        checkpointer.save(stream, len(TRACE), "digest", "baseline")
        family = global_registry().get(
            instruments.CHECKPOINT_SAVE_SECONDS
        )
        assert family is None or all(
            child.count == 0 for child in family.children().values()
        )


class TestEngineMigration:
    def test_legacy_metrics_shape_pinned(self, catalog):
        engine = EstimationEngine(catalog)
        name = engine.index_names()[0]
        engine.estimate(name, "epfis", ScanSelectivity(0.1), 10)
        engine.estimate_many(
            name, "epfis", [(ScanSelectivity(0.2), 10)] * 3
        )
        metrics = engine.metrics()
        assert set(metrics) == {"epfis"}
        stats = metrics["epfis"]
        # The exact pre-registry dict shape, pinned.
        assert set(stats) == {
            "calls", "estimates", "seconds", "mean_call_us",
            "errors", "degraded_serves",
        }
        assert stats["calls"] == 2
        assert stats["estimates"] == 4
        assert stats["errors"] == 0
        assert stats["degraded_serves"] == 0
        assert stats["seconds"] > 0
        assert stats["mean_call_us"] == pytest.approx(
            1e6 * stats["seconds"] / stats["calls"]
        )
        assert json.dumps(metrics)  # stays JSON-serializable

    def test_reset_metrics(self, catalog):
        engine = EstimationEngine(catalog)
        name = engine.index_names()[0]
        engine.estimate(name, "epfis", ScanSelectivity(0.1), 10)
        engine.reset_metrics()
        assert engine.metrics() == {}

    def test_latency_sum_is_exact_nanoseconds(self, catalog):
        # Regression: the old float-seconds accumulator lost short
        # calls once the running total grew large; integer-ns storage
        # with snapshot-time conversion cannot.
        engine = EstimationEngine(catalog)
        big, tiny = 10**18, 1
        engine._record("epfis", 1, big)
        for _ in range(3):
            engine._record("epfis", 1, tiny)
        latency = engine._fam["latency"].labels(estimator="epfis")
        assert latency.sum == big + 3  # exact, as an int
        assert float(big) + tiny == float(big)  # floats would lose it
        assert engine.metrics()["epfis"]["seconds"] == (
            (big + 3) * NS_TO_SECONDS
        )

    def test_serves_mirror_onto_global_registry(
        self, catalog, enabled_global
    ):
        engine = EstimationEngine(catalog)
        name = engine.index_names()[0]
        engine.estimate(name, "epfis", ScanSelectivity(0.1), 10)
        mirrored = instruments.engine_call_latency(
            enabled_global
        ).labels(estimator="epfis")
        assert mirrored.count == 1

    def test_explicit_registry_is_used_directly(self, catalog):
        registry = MetricsRegistry()
        engine = EstimationEngine(catalog, registry=registry)
        name = engine.index_names()[0]
        engine.estimate(name, "epfis", ScanSelectivity(0.1), 10)
        latency = instruments.engine_call_latency(registry).labels(
            estimator="epfis"
        )
        assert latency.count == 1
        assert engine.metrics()["epfis"]["calls"] == 1


class TestStoreMigration:
    def test_legacy_metrics_shape_pinned(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        catalog.save(path)
        store = ResilientCatalogStore(path)
        store.catalog()
        store.catalog()
        assert store.metrics() == {
            "reads": 2,
            "retries": 0,
            "quarantines": 0,
            "stale_serves": 0,
            "has_last_good": True,
        }

    def test_quarantine_and_stale_serve_counted(
        self, catalog, tmp_path, enabled_global
    ):
        path = tmp_path / "catalog.json"
        catalog.save(path)
        store = ResilientCatalogStore(path)
        store.catalog()
        path.write_text("{ not json", encoding="utf-8")
        store.catalog()  # quarantines, then serves stale
        metrics = store.metrics()
        assert metrics["quarantines"] == 1
        assert metrics["stale_serves"] >= 1
        # Mirrored onto the enabled global registry as well.
        mirrored = instruments.catalog_quarantines(
            enabled_global
        ).labels()
        assert mirrored.value == 1


class TestBreakerMigration:
    def test_state_gauge_and_opens_counter(self):
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_seconds=5.0),
            clock=lambda: clock["now"],
            registry=registry,
            name="epfis",
        )
        gauge = instruments.breaker_state(registry).labels(
            estimator="epfis"
        )
        opens = instruments.breaker_opens(registry).labels(
            estimator="epfis"
        )
        assert gauge.value == instruments.BREAKER_STATE_VALUES["closed"]
        breaker.record_failure()
        breaker.record_failure()  # trips
        assert breaker.state == "open"
        assert gauge.value == instruments.BREAKER_STATE_VALUES["open"]
        assert opens.value == 1
        clock["now"] = 6.0
        assert breaker.state == "half-open"
        assert gauge.value == (
            instruments.BREAKER_STATE_VALUES["half-open"]
        )
        breaker.record_success()
        assert gauge.value == instruments.BREAKER_STATE_VALUES["closed"]
        assert breaker.opens == 1  # legacy attribute still truthful

    def test_breaker_without_registry_keeps_local_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record_failure()
        assert breaker.opens == 1


class TestStandardFamilies:
    def test_register_standard_families_declares_all(self):
        registry = MetricsRegistry(enabled=False)
        instruments.register_standard_families(registry)
        names = [family.name for family in registry.families()]
        assert names == instruments.standard_family_names()
        # Label-less families materialize an explicit zero sample.
        reads = registry.get(instruments.CATALOG_READS_TOTAL)
        assert reads.children() != {}


def _export(path, body):
    """Run ``body`` inside one export session; the exported samples."""
    with observability_session(metrics_out=str(path)):
        body()
    return dict(
        line.rsplit(" ", 1)
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    )


class TestComponentOutlivesExportSession:
    """A long-lived component feeds every export session, not only the
    first.  Regression: each global mirror cached the child it bound
    before the first session's ``clear()`` dropped it, so the second
    session exported 0 for every such family."""

    def test_catalog_store(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        catalog.save(path)
        store = ResilientCatalogStore(path)

        def reads(count):
            return lambda: [store.catalog() for _ in range(count)]

        _export(tmp_path / "first.prom", reads(3))
        samples = _export(tmp_path / "second.prom", reads(5))
        assert samples[instruments.CATALOG_READS_TOTAL] == "5"
        assert store.metrics()["reads"] == 8

    def test_estimation_server(self, catalog, tmp_path):
        root = tmp_path / "tenants"
        (root / "t0").mkdir(parents=True)
        catalog.save(root / "t0" / "catalog.json")
        request = EstimateRequest(
            tenant="t0",
            index=list(catalog)[0],
            estimator="epfis",
            sigma=0.1,
            buffer_pages=10,
        )

        with EstimationServer(root) as server:

            def requests(count):
                return lambda: [
                    server.estimate(request) for _ in range(count)
                ]

            _export(tmp_path / "first.prom", requests(3))
            samples = _export(tmp_path / "second.prom", requests(5))
            assert server.metrics()["requests"] == 8
        assert samples[instruments.SERVING_BATCHES_TOTAL] == "5"
        requests_total = instruments.SERVING_REQUESTS_TOTAL
        assert samples[f'{requests_total}{{tenant="t0"}}'] == "5"

    def test_refresh_controller(self, tmp_path):
        controller = RefreshController(
            CatalogStore(tmp_path / "catalog.json", history=4),
            DriftingFeed.stationary(
                PaperScaleSpec(refs=1, pages=120, pattern="zipf", seed=7)
            ),
            RefreshConfig(
                index_name="orders_idx",
                window_refs=4_000,
                checkpoint_every=1_000,
                drift_threshold=0.0,
            ),
            tmp_path / "state",
        )
        _export(tmp_path / "first.prom", lambda: controller.run(1))
        samples = _export(
            tmp_path / "second.prom", lambda: controller.run(2)
        )
        assert samples[instruments.REFRESH_PUBLISHES_TOTAL] == "2"
        assert controller.metrics()["publishes"] == 3
