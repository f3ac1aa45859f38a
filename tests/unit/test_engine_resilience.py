"""Unit tests for degraded-mode serving in the estimation engine."""

import pytest

from repro.catalog import SystemCatalog
from repro.engine import EstimationEngine
from repro.errors import EngineError, EstimationError
from repro.estimators.base import PageFetchEstimator
from repro.estimators.registry import _FACTORIES, register_estimator
from repro.resilience import BreakerPolicy
from repro.types import ScanSelectivity

from tests.unit.test_catalog import _stats


SEL = ScanSelectivity(0.1)


def _catalog():
    catalog = SystemCatalog()
    catalog.put(_stats("t.a"))
    return catalog


class _FailingEstimator(PageFetchEstimator):
    name = "boom"

    def estimate(self, selectivity, buffer_pages):
        raise EstimationError("boom is permanently broken")


class _ConstantEstimator(PageFetchEstimator):
    name = "boom"

    def estimate(self, selectivity, buffer_pages):
        return 42.0


@pytest.fixture
def boom():
    """A registry estimator whose every call raises EstimationError."""
    register_estimator("boom", lambda stats: _FailingEstimator())
    yield "boom"
    _FACTORIES.pop("boom", None)


def _engine(**kwargs):
    return EstimationEngine(_catalog(), **kwargs)


class TestFallbackChain:
    def test_unknown_fallback_name_rejected(self):
        with pytest.raises(EngineError) as exc_info:
            _engine(fallback_chain=["epfis", "nonesuch"])
        assert "nonesuch" in str(exc_info.value)

    def test_chain_is_normalized_and_deduped(self):
        engine = _engine(fallback_chain=["ML", "epfis", "ml"])
        assert engine.fallback_chain == ("ml", "epfis")

    def test_fallback_serves_when_primary_fails(self, boom):
        engine = _engine(fallback_chain=["unclustered"])
        direct = _engine().estimate("t.a", "unclustered", SEL, 50)
        served = engine.estimate("t.a", boom, SEL, 50)
        assert served == direct

        metrics = engine.metrics()
        assert metrics["boom"]["errors"] == 1
        assert metrics["boom"]["degraded_serves"] == 1
        assert metrics["boom"]["calls"] == 0
        assert metrics["unclustered"]["calls"] == 1

    def test_healthy_primary_is_not_degraded(self):
        engine = _engine(fallback_chain=["unclustered"])
        engine.estimate("t.a", "epfis", SEL, 50)
        metrics = engine.metrics()
        assert metrics["epfis"]["calls"] == 1
        assert metrics["epfis"]["degraded_serves"] == 0
        assert "unclustered" not in metrics

    def test_requested_name_is_not_retried_as_fallback(self, boom):
        engine = _engine(fallback_chain=[boom, "unclustered"])
        engine.estimate("t.a", boom, SEL, 50)
        assert engine.metrics()["boom"]["errors"] == 1

    def test_exhausted_chain_raises_engine_error(self, boom):
        engine = _engine(fallback_chain=[])
        with pytest.raises(EngineError) as exc_info:
            engine.estimate("t.a", boom, SEL, 50)
        message = str(exc_info.value)
        assert "boom" in message
        assert "permanently broken" in message
        assert isinstance(exc_info.value.__cause__, EstimationError)

    def test_estimate_many_and_grid_fall_back(self, boom):
        engine = _engine(fallback_chain=["unclustered"])
        many = engine.estimate_many("t.a", boom, [(SEL, 50), (SEL, 60)])
        assert len(many) == 2
        grid = engine.estimate_grid("t.a", boom, [SEL], [50, 60])
        assert len(grid) == 2
        assert engine.metrics()["boom"]["degraded_serves"] == 2

    def test_legacy_behavior_without_configuration(self, boom):
        engine = _engine()
        with pytest.raises(EstimationError):
            engine.estimate("t.a", boom, SEL, 50)


class TestCircuitBreaker:
    def _engine(self, now, **kwargs):
        kwargs.setdefault(
            "breaker_policy",
            BreakerPolicy(failure_threshold=2, cooldown_seconds=10.0),
        )
        kwargs.setdefault("fallback_chain", ["unclustered"])
        return _engine(clock=lambda: now[0], **kwargs)

    def test_breaker_trips_after_threshold(self, boom):
        now = [0.0]
        engine = self._engine(now)
        engine.estimate("t.a", boom, SEL, 50)
        assert engine.breaker_states()[boom] == "closed"
        engine.estimate("t.a", boom, SEL, 50)
        assert engine.breaker_states()[boom] == "open"

    def test_open_breaker_skips_primary(self, boom):
        now = [0.0]
        engine = self._engine(now)
        for _ in range(3):
            engine.estimate("t.a", boom, SEL, 50)
        # Two real failures tripped the breaker; the third call skipped
        # the primary outright.
        assert engine.metrics()["boom"]["errors"] == 2
        assert engine.metrics()["boom"]["degraded_serves"] == 3

    def test_cooldown_reopens_probing(self, boom):
        now = [0.0]
        engine = self._engine(now)
        for _ in range(2):
            engine.estimate("t.a", boom, SEL, 50)
        assert engine.breaker_states()[boom] == "open"
        now[0] = 10.0
        assert engine.breaker_states()[boom] == "half-open"
        # The probe fails -> re-trips immediately.
        engine.estimate("t.a", boom, SEL, 50)
        assert engine.breaker_states()[boom] == "open"
        assert engine.metrics()["boom"]["errors"] == 3

    def test_recovered_estimator_closes_breaker(self, boom):
        now = [0.0]
        engine = self._engine(now)
        for _ in range(2):
            engine.estimate("t.a", boom, SEL, 50)
        assert engine.breaker_states()[boom] == "open"
        # The estimator comes back healthy.
        register_estimator(
            "boom", lambda stats: _ConstantEstimator(), replace=True
        )
        engine._bound.clear()  # drop the cached broken binding
        now[0] = 10.0
        assert engine.estimate("t.a", boom, SEL, 50) == 42.0
        assert engine.breaker_states()[boom] == "closed"
        assert engine.metrics()["boom"]["calls"] == 1

    def test_all_chain_members_open_raises(self, boom):
        now = [0.0]
        engine = _engine(
            breaker_policy=BreakerPolicy(
                failure_threshold=1, cooldown_seconds=10.0
            ),
            fallback_chain=[],
            clock=lambda: now[0],
        )
        with pytest.raises(EngineError):
            engine.estimate("t.a", boom, SEL, 50)
        with pytest.raises(EngineError) as exc_info:
            engine.estimate("t.a", boom, SEL, 50)
        assert "breaker-open" in str(exc_info.value)


class TestResilienceMetrics:
    def test_rollup_shape(self, boom):
        engine = _engine(
            fallback_chain=["unclustered"],
            breaker_policy=BreakerPolicy(failure_threshold=2),
        )
        engine.estimate("t.a", boom, SEL, 50)
        metrics = engine.metrics()
        assert metrics["boom"]["degraded_serves"] == 1
        assert metrics["boom"]["errors"] == 1
        assert metrics["unclustered"]["calls"] == 1
        assert engine.breaker_states() == {
            "boom": "closed", "unclustered": "closed",
        }
        # A plain SystemCatalog source keeps no store counters.
        assert not hasattr(engine.source, "metrics")

    def test_rollup_includes_resilient_store_metrics(self, tmp_path):
        from repro.catalog import SystemCatalog
        from repro.resilience import ResilientCatalogStore

        path = tmp_path / "catalog.json"
        catalog = SystemCatalog()
        catalog.put(_stats("t.a"))
        catalog.save(path)
        store = ResilientCatalogStore(path, sleep=lambda _t: None)
        engine = EstimationEngine(store, fallback_chain=["unclustered"])
        engine.estimate("t.a", "epfis", SEL, 50)
        catalog_metrics = engine.source.metrics()
        assert catalog_metrics["reads"] >= 1
        assert catalog_metrics["has_last_good"] is True

    def test_plain_engine_rollup_is_empty(self):
        engine = _engine()
        assert engine.metrics() == {}
        assert engine.breaker_states() == {}
