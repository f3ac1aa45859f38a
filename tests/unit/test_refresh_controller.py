"""Unit tests for the online catalog refresh controller."""

import json
from pathlib import Path

import pytest

from repro.catalog import CatalogStore, IndexStatistics, SystemCatalog
from repro.catalog.store import CatalogIO
from repro.errors import CatalogError, RefreshError
from repro.obs.metrics import MetricsRegistry
from repro.refresh import (
    DriftingFeed,
    RefreshConfig,
    RefreshController,
    RefreshState,
)
from repro.resilience import BreakerPolicy, FaultInjector, FaultRule
from repro.trace.paper_scale import PaperScaleSpec

INDEX = "orders_idx"
SPEC = PaperScaleSpec(refs=1, pages=120, pattern="zipf", seed=7)


def _controller(tmp_path, clock=None, history=4, **config_overrides):
    config_kwargs = dict(
        index_name=INDEX, window_refs=4_000, checkpoint_every=1_000
    )
    config_kwargs.update(config_overrides)
    store = CatalogStore(tmp_path / "catalog.json", history=history)
    kwargs = {"registry": MetricsRegistry()}
    if clock is not None:
        kwargs["clock"] = clock
    return RefreshController(
        store,
        DriftingFeed.stationary(SPEC),
        RefreshConfig(**config_kwargs),
        tmp_path / "state",
        **kwargs,
    )


class TestConfigValidation:
    def test_defaults_valid(self):
        RefreshConfig(index_name=INDEX)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"index_name": ""},
            {"window_refs": 0},
            {"decay": 1.0},
            {"decay": -0.1},
            {"drift_threshold": -1.0},
            {"checkpoint_every": 0},
            {"feed_retries": -1},
            {"publish_retries": -1},
            {"kernel": "no-such-kernel"},
            {"policy": "no-such-policy"},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        kwargs = dict(index_name=INDEX)
        kwargs.update(overrides)
        with pytest.raises(RefreshError):
            RefreshConfig(**kwargs)


class TestControllerConstruction:
    def test_history_zero_publishes_and_rolls_back(self, tmp_path):
        """A store that keeps no history serves the loop too: its
        publishes carry no version id, and a rollback restores the
        bytes the cycle read."""
        controller = _controller(
            tmp_path,
            history=0,
            drift_threshold=0.0,
            corrupt_publish_cycles=(1,),
        )
        first = controller.run_cycle()
        assert (first.action, first.version) == ("published", None)
        good = controller.store.path.read_bytes()
        assert controller.run_cycle().action == "rolled-back"
        assert controller.store.path.read_bytes() == good
        assert controller.store.versions() == []
        assert controller.run_cycle().action == "published"

    def test_requires_catalog_store(self, tmp_path):
        with pytest.raises(RefreshError):
            RefreshController(
                object(),
                DriftingFeed.stationary(SPEC),
                RefreshConfig(index_name=INDEX),
                tmp_path / "state",
            )


class TestRefreshCycles:
    def test_first_cycle_publishes(self, tmp_path):
        controller = _controller(tmp_path)
        result = controller.run_cycle()
        assert result.action == "published"
        assert result.version == 1
        assert result.cycle == 0
        assert (result.start_ref, result.stop_ref) == (0, 4_000)
        assert controller.store.get(INDEX).index_name == INDEX

    def test_stationary_feed_skips_at_loose_threshold(self, tmp_path):
        controller = _controller(tmp_path, drift_threshold=5.0)
        first, second = controller.run(2)
        assert first.action == "published"  # nothing served yet
        assert second.action == "skipped-below-threshold"
        assert second.version is None
        assert controller.store.current_version() == 1

    def test_windows_tile_the_feed(self, tmp_path):
        controller = _controller(tmp_path)
        results = controller.run(3)
        assert [(r.start_ref, r.stop_ref) for r in results] == [
            (0, 4_000),
            (4_000, 8_000),
            (8_000, 12_000),
        ]

    def test_published_record_carries_policy(self, tmp_path):
        controller = _controller(tmp_path, policy="clock")
        controller.run_cycle()
        assert controller.store.get(INDEX).policy == "clock"

    def test_run_validates_cycles(self, tmp_path):
        with pytest.raises(RefreshError):
            _controller(tmp_path).run(0)


class TestStatePersistence:
    def test_state_resumes_across_controllers(self, tmp_path):
        first = _controller(tmp_path)
        first.run(2)
        second = _controller(tmp_path)
        assert second.state.position == 8_000
        assert second.state.cycle == 2
        result = second.run_cycle()
        assert (result.cycle, result.start_ref) == (2, 8_000)

    def test_previous_record_round_trips_exactly(self, tmp_path):
        controller = _controller(tmp_path)
        controller.run_cycle()
        resumed = _controller(tmp_path)
        assert (
            resumed.state.previous.to_dict()
            == controller.state.previous.to_dict()
        )

    def test_corrupt_state_fails_loudly(self, tmp_path):
        controller = _controller(tmp_path)
        controller.run_cycle()
        controller.state_path.write_text("{bad json")
        with pytest.raises(RefreshError):
            _controller(tmp_path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        with pytest.raises(RefreshError):
            RefreshState.from_dict({"schema_version": 99})


class TestDecayedBlend:
    def test_decay_pulls_candidate_toward_previous(self, tmp_path):
        """With heavy decay the second cycle's emitted curve sits
        closer to the first cycle's than the raw window fit does."""
        heavy = _controller(tmp_path, decay=0.9, drift_threshold=5.0)
        heavy.run(2)
        raw = _controller(
            tmp_path / "raw", decay=0.0, drift_threshold=5.0
        )
        raw.run(2)

        def spread(controller):
            state_file = controller.state_path
            previous = json.loads(state_file.read_text())["previous"]
            return previous["f_min"]

        first_fit = CatalogStore(
            tmp_path / "catalog.json", history=4
        ).get(INDEX)
        assert abs(spread(heavy) - first_fit.f_min) <= abs(
            spread(raw) - first_fit.f_min
        )

    def test_blend_stays_inside_validation_bounds(self, tmp_path):
        controller = _controller(tmp_path, decay=0.9)
        for result in controller.run(3):
            assert result.action in (
                "published",
                "skipped-below-threshold",
            )


class TestRollbackDrill:
    def test_corrupt_publish_rolls_back(self, tmp_path):
        controller = _controller(
            tmp_path, drift_threshold=0.0, corrupt_publish_cycles=(1,)
        )
        controller.run_cycle()
        good = controller.store.path.read_bytes()
        result = controller.run_cycle()
        assert result.action == "rolled-back"
        assert controller.store.path.read_bytes() == good
        assert controller.store.current_version() == 1
        assert controller.store.versions() == [1]

    def test_failed_candidate_is_quarantined(self, tmp_path):
        controller = _controller(
            tmp_path, drift_threshold=0.0, corrupt_publish_cycles=(1,)
        )
        controller.run(2)
        files = sorted(controller.quarantine_dir.iterdir())
        assert [f.name for f in files] == ["cycle-000001.json"]
        payload = json.loads(files[0].read_text())
        assert payload["cycle"] == 1
        assert payload["candidate"]["index_name"] == INDEX

    def test_loop_recovers_after_rollback(self, tmp_path):
        controller = _controller(
            tmp_path, drift_threshold=0.0, corrupt_publish_cycles=(1,)
        )
        results = controller.run(3)
        assert [r.action for r in results] == [
            "published",
            "rolled-back",
            "published",
        ]
        # The bad attempt's id is never reused.
        assert results[2].version == 3
        assert controller.store.versions() == [1, 3]

    def test_breaker_opens_after_consecutive_failures(self, tmp_path):
        now = [0.0]
        controller = _controller(
            tmp_path,
            clock=lambda: now[0],
            drift_threshold=0.0,
            corrupt_publish_cycles=(1, 2),
            breaker_policy=BreakerPolicy(
                failure_threshold=2, cooldown_seconds=60.0
            ),
        )
        results = controller.run(4)
        assert [r.action for r in results] == [
            "published",
            "rolled-back",
            "rolled-back",
            "breaker-open",
        ]
        assert controller.breaker.state == "open"
        # After the cooldown the half-open probe publishes and closes
        # the breaker again.
        now[0] = 61.0
        assert controller.run_cycle().action == "published"
        assert controller.breaker.state == "closed"

    def test_breaker_open_cycle_does_not_advance_versions(
        self, tmp_path
    ):
        now = [0.0]
        controller = _controller(
            tmp_path,
            clock=lambda: now[0],
            drift_threshold=0.0,
            corrupt_publish_cycles=(1, 2),
            breaker_policy=BreakerPolicy(failure_threshold=2),
        )
        controller.run(4)
        assert controller.store.versions() == [1]
        assert controller.store.current_version() == 1


class TestMetrics:
    def test_counters_are_truthful(self, tmp_path):
        controller = _controller(
            tmp_path, drift_threshold=0.0, corrupt_publish_cycles=(1,)
        )
        controller.run(3)
        metrics = controller.metrics()
        assert metrics["cycles"] == {"published": 2, "rolled-back": 1}
        assert metrics["drift_detected"] == 3
        assert metrics["publishes"] == 2
        assert metrics["rollbacks"] == 1
        assert metrics["quarantined"] == 1

    def test_skip_counts_no_drift(self, tmp_path):
        controller = _controller(tmp_path, drift_threshold=5.0)
        controller.run(2)
        metrics = controller.metrics()
        assert metrics["cycles"] == {
            "published": 1,
            "skipped-below-threshold": 1,
        }
        assert metrics["drift_detected"] == 1


class TestHistoryFloor:
    """There is no history floor.  One cycle archives up to
    publish_retries + 1 candidate versions and prunes to ``history``
    each time, which may evict last-known-good's archived version; the
    rollback restores the bytes the cycle read, so it never needs
    it."""

    def test_exhausted_publish_retries_keep_last_good(self, tmp_path):
        """A cycle whose every publish attempt faults (archiving a
        version each time) restores last-known-good and keeps its
        archived version when the history is deep enough."""
        controller = _controller(tmp_path, drift_threshold=0.0)
        controller.run_cycle()
        good = controller.store.path.read_bytes()
        controller.store._io = FaultInjector(
            [FaultRule("write", "transient")]
        )
        result = controller.run_cycle()
        assert result.action == "rolled-back"
        assert controller.store.path.read_bytes() == good
        assert controller.store.current_version() == 1
        assert controller.store.versions() == [1]

    def test_history_below_attempts_restores_bytes(self, tmp_path):
        """At history=1 the first faulted attempt prunes
        last-known-good's archived version; the rollback still
        restores the bytes and leaves no attempt version behind."""
        controller = _controller(
            tmp_path, history=1, drift_threshold=0.0
        )
        controller.run_cycle()
        good = controller.store.path.read_bytes()
        controller.store._io = FaultInjector(
            [FaultRule("write", "transient")]
        )
        result = controller.run_cycle()
        assert result.action == "rolled-back"
        assert controller.store.path.read_bytes() == good
        assert controller.store.versions() == []


class TestRollbackFallback:
    def test_pruned_last_good_falls_back_to_pre_publish_bytes(
        self, tmp_path
    ):
        """If the archive loses last-known-good (an out-of-band
        writer), rollback still restores the bytes the cycle read: it
        never reads the archive."""
        controller = _controller(
            tmp_path, drift_threshold=0.0, corrupt_publish_cycles=(1,)
        )
        controller.run_cycle()
        good = controller.store.path.read_bytes()
        controller.store.version_path(1).unlink()
        result = controller.run_cycle()
        assert result.action == "rolled-back"
        assert controller.store.path.read_bytes() == good
        # Every surviving archived version was an abandoned attempt
        # from the failed cycle: none may linger as a "good" version.
        assert controller.store.versions() == []
        # The loop keeps going: the next clean cycle publishes.
        assert controller.run_cycle().action == "published"


class _RecordingIO(CatalogIO):
    """Logs each catalog read and publish through the store's IO."""

    def __init__(self, events):
        self.events = events

    def read_bytes(self, path):
        self.events.append("read")
        return super().read_bytes(path)

    def save_text(self, path, text):
        self.events.append("save")
        super().save_text(path, text)


class TestOneCatalogRead:
    def test_publishing_cycle_reads_the_catalog_once(
        self, tmp_path, monkeypatch
    ):
        """One read, through the store, supplies the served record,
        the co-resident indexes and the bytes a rollback restores;
        nothing reads the main file or the archive behind it."""
        controller = _controller(tmp_path, drift_threshold=0.0)
        controller.run_cycle()
        events = []
        controller.store._io = _RecordingIO(events)
        store = controller.store
        direct_read = Path.read_bytes

        def logged(path):
            if path == store.path or path.parent == store.versions_dir:
                events.append("read")
            return direct_read(path)

        monkeypatch.setattr(Path, "read_bytes", logged)
        assert controller.run_cycle().action == "published"
        assert events[: events.index("save")] == ["read"]

    def test_transient_read_fault_does_not_force_publish(
        self, tmp_path
    ):
        """One retried read fault is not "nothing served": a cycle
        below the threshold still skips."""
        controller = _controller(tmp_path, drift_threshold=5.0)
        controller.run_cycle()
        controller.store._io = FaultInjector(
            [FaultRule("read", "transient", limit=1)]
        )
        result = controller.run_cycle()
        assert result.action == "skipped-below-threshold"
        assert controller.store.versions() == [1]

    def test_non_utf8_catalog_fails_before_publish(self, tmp_path):
        """A catalog that is not UTF-8 raises before any publish, so
        a rollback only ever restores bytes that parsed."""
        controller = _controller(tmp_path, drift_threshold=0.0)
        controller.run_cycle()
        raw = b"\xff\xfe not utf-8"
        controller.store.path.write_bytes(raw)
        with pytest.raises(CatalogError):
            controller.run_cycle()
        assert controller.store.path.read_bytes() == raw
        assert controller.store.versions() == [1]
        assert not controller.rollback_path.exists()


def _add_second_index(store, name="other_idx"):
    record = store.get(INDEX).to_dict()
    record["index_name"] = name
    merged = SystemCatalog()
    merged.put(store.get(INDEX))
    merged.put(IndexStatistics.from_dict(record))
    store.save(merged)


class TestCoResidentIndexes:
    def test_transient_read_fault_preserves_other_indexes(
        self, tmp_path
    ):
        """A retried transient read while rendering the merged catalog
        must not publish a candidate-only file."""
        controller = _controller(tmp_path, drift_threshold=0.0)
        controller.run_cycle()
        _add_second_index(controller.store)
        controller.store._io = FaultInjector(
            [FaultRule("read", "transient", limit=2)]
        )
        result = controller.run_cycle()
        assert result.action == "published"
        final = CatalogStore(tmp_path / "catalog.json").catalog()
        assert INDEX in final
        assert "other_idx" in final

    def test_persistent_read_faults_propagate_instead_of_dropping(
        self, tmp_path
    ):
        controller = _controller(tmp_path, drift_threshold=0.0)
        controller.run_cycle()
        _add_second_index(controller.store)
        before = controller.store.path.read_bytes()
        controller.store._io = FaultInjector(
            [FaultRule("read", "transient")]
        )
        with pytest.raises(OSError):
            controller.run_cycle()
        assert controller.store.path.read_bytes() == before

    def test_corrupt_existing_catalog_fails_loudly(self, tmp_path):
        controller = _controller(tmp_path, drift_threshold=0.0)
        controller.run_cycle()
        controller.store.path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CatalogError):
            controller.run_cycle()
