"""Chaos suite for the online refresh loop.

Three gates, each pinned by a deterministic fault schedule
(``REPRO_CHAOS_SEED`` replays a CI failure locally bit-for-bit):

* **Kill-and-resume** — a refresh cycle killed mid-window (feed fault,
  process death between publish and state save, or between a failed
  validation and its rollback) and resumed produces a byte-identical
  catalog and loop state to an uninterrupted run.
* **Fault storm** — transient/corrupt/torn faults injected into both
  the feed and the catalog I/O never leave a corrupt *served* catalog
  behind: every cycle, including one whose catalog read faulted past
  its retries, ends with the main file parseable and equal to a
  validated version.
* **Forced bad candidate** — a deliberately corrupted publish is
  caught by post-publish validation, quarantined, and rolled back;
  a serving-tier engine over the same store keeps answering the
  last-known-good record exactly, and picks up genuine roll-forwards
  without restart.
"""

from __future__ import annotations

import os

import pytest

from repro.catalog import CatalogStore
from repro.engine import EstimationEngine
from repro.errors import CatalogError, FeedError
from repro.estimators.registry import get_estimator
from repro.obs.metrics import MetricsRegistry
from repro.refresh import (
    DriftingFeed,
    FaultyFeed,
    RefreshConfig,
    RefreshController,
)
from repro.resilience import FaultInjector, FaultRule
from repro.trace.paper_scale import PaperScaleSpec
from repro.types import ScanSelectivity

pytestmark = [pytest.mark.refresh, pytest.mark.chaos]

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

INDEX = "orders_idx"
SPEC = PaperScaleSpec(refs=1, pages=120, pattern="zipf", seed=7)


def _controller(
    root, feed=None, registry=True, clock=None, **config_overrides
):
    config_kwargs = dict(
        index_name=INDEX, window_refs=4_000, checkpoint_every=1_000
    )
    config_kwargs.update(config_overrides)
    store = CatalogStore(root / "catalog.json", history=4)
    kwargs = {} if clock is None else {"clock": clock}
    return RefreshController(
        store,
        feed if feed is not None else DriftingFeed.stationary(SPEC),
        RefreshConfig(**config_kwargs),
        root / "state",
        registry=MetricsRegistry() if registry else None,
        **kwargs,
    )


def _artifacts(root):
    return (
        (root / "catalog.json").read_bytes(),
        (root / "state" / "refresh-state.json").read_bytes(),
    )


class TestKillAndResume:
    def test_feed_death_mid_window_resumes_byte_identical(
        self, tmp_path
    ):
        # Windows span multiple trace chunks so the kill can land
        # mid-window, after a checkpoint snapshot.
        wide = dict(window_refs=9_000)
        reference = tmp_path / "ref"
        reference.mkdir()
        _controller(reference, **wide).run(2)

        killed = tmp_path / "killed"
        killed.mkdir()
        _controller(killed, **wide).run_cycle()
        # Cycle 1 dies on an unretried feed fault *after* the first
        # checkpoint snapshot landed.
        faulty = FaultyFeed(
            DriftingFeed.stationary(SPEC),
            period=1,
            limit=1,
            seed=CHAOS_SEED,
        )
        faulty._fired.add(9_000)  # let the window's first chunk through
        with pytest.raises(FeedError):
            _controller(
                killed, feed=faulty, feed_retries=0, **wide
            ).run_cycle()
        checkpoint_dir = killed / "state" / "cycle-ckpt"
        assert checkpoint_dir.exists() and any(checkpoint_dir.iterdir())

        # "Process restart": a fresh controller over the same state.
        _controller(killed, **wide).run_cycle()
        assert _artifacts(killed) == _artifacts(reference)

    def test_death_between_publish_and_state_save(
        self, tmp_path, monkeypatch
    ):
        reference = tmp_path / "ref"
        reference.mkdir()
        _controller(reference).run(2)

        killed = tmp_path / "killed"
        killed.mkdir()
        _controller(killed).run_cycle()
        controller = _controller(killed)

        def die():
            raise KeyboardInterrupt("killed before state save")

        monkeypatch.setattr(controller, "_save_state", die)
        with pytest.raises(KeyboardInterrupt):
            controller.run_cycle()

        # The publish landed but the loop state did not advance: the
        # restarted cycle recomputes the identical candidate, sees no
        # drift against its own publish, and converges byte-identical.
        resumed = _controller(killed)
        assert resumed.state.cycle == 1
        result = resumed.run_cycle()
        assert result.action == "skipped-below-threshold"
        assert (killed / "catalog.json").read_bytes() == _artifacts(
            reference
        )[0]

    def test_death_between_failed_validation_and_rollback(
        self, tmp_path, monkeypatch
    ):
        drill = dict(drift_threshold=0.0, corrupt_publish_cycles=(1,))
        reference = tmp_path / "ref"
        reference.mkdir()
        finished = _controller(reference, **drill)
        finished.run(3)

        killed = tmp_path / "killed"
        killed.mkdir()
        _controller(killed, **drill).run_cycle()
        good = (killed / "catalog.json").read_bytes()
        controller = _controller(killed, **drill)

        def die(before, newest):
            raise KeyboardInterrupt("killed before rollback")

        monkeypatch.setattr(controller, "_rollback", die)
        with pytest.raises(KeyboardInterrupt):
            controller.run_cycle()
        with pytest.raises(CatalogError):
            CatalogStore(killed / "catalog.json").catalog()

        # "Process restart": the new controller finishes the rollback
        # before it runs anything, then replays the drill cycle.
        resumed = _controller(killed, **drill)
        assert (killed / "catalog.json").read_bytes() == good
        assert not resumed.rollback_path.exists()
        assert resumed.state.cycle == 1
        resumed.run(2)
        assert _artifacts(killed) == _artifacts(reference)
        assert resumed.store.versions() == finished.store.versions()
        assert resumed.store.versions() == [1, 3]

    def test_resumed_run_equals_fault_free_run_under_retries(
        self, tmp_path
    ):
        reference = tmp_path / "ref"
        reference.mkdir()
        _controller(reference).run(3)

        stormy = tmp_path / "storm"
        stormy.mkdir()
        faulty = FaultyFeed(
            DriftingFeed.stationary(SPEC), period=2, seed=CHAOS_SEED
        )
        _controller(stormy, feed=faulty, feed_retries=64).run(3)
        assert faulty.faults > 0, "the schedule must actually fire"
        assert _artifacts(stormy) == _artifacts(reference)


class TestFaultStorm:
    STORM_RULES = (
        FaultRule("write", "torn-write", rate=0.4),
        FaultRule("write", "transient", rate=0.2),
        FaultRule("read", "transient", rate=0.2),
    )

    def test_catalog_and_feed_faults_never_serve_corruption(
        self, tmp_path
    ):
        faulty_feed = FaultyFeed(
            DriftingFeed.stationary(SPEC), period=3, seed=CHAOS_SEED
        )
        # A fake clock that outruns the breaker cooldown between
        # cycles: an opened breaker always gets its half-open probe, so
        # the storm exercises roll-forward, rollback, AND recovery.
        now = [0.0]
        controller = _controller(
            tmp_path,
            feed=faulty_feed,
            feed_retries=64,
            drift_threshold=0.0,  # publish every cycle: max exposure
            clock=lambda: now[0],
        )
        controller.store._io = FaultInjector(
            list(self.STORM_RULES), seed=CHAOS_SEED
        )
        # At least six cycles exercise the gate; then keep going (the
        # per-attempt failure odds are seed-dependent) until a publish
        # proves the loop recovers, bounded so a regression still fails
        # fast instead of spinning.
        published = rolled_back = 0
        for cycle in range(16):
            try:
                action = controller.run_cycle().action
            except OSError:
                # The cycle's one catalog read faulted past its retry
                # budget and propagated, before any publish (pinned by
                # test_persistent_read_faults_propagate_instead_of_
                # dropping): a cycle that published nothing.
                action = None
            now[0] += 31.0  # default cooldown is 30s
            if action == "published":
                published += 1
            elif action == "rolled-back":
                rolled_back += 1
            # Gate: after every cycle the *served* catalog parses and
            # matches a validated state — no torn publish survives.
            # Before the first successful publish there is no
            # last-known-good, so a torn publish is defended by
            # removing the corrupt bytes: absent, never corrupt.
            if not (tmp_path / "catalog.json").exists():
                assert published == 0
                continue
            readback = CatalogStore(tmp_path / "catalog.json")
            snapshot = readback.catalog()
            assert INDEX in snapshot
            if action == "published":
                assert (
                    snapshot.get(INDEX).to_dict()
                    == controller.state.previous.to_dict()
                )
            if cycle >= 5 and published >= 1:
                break
        metrics = controller.metrics()
        assert published == metrics["publishes"]
        assert rolled_back == metrics["rollbacks"]
        assert metrics["quarantined"] == metrics["rollbacks"]
        assert published >= 1, "the loop must make progress under storm"

    def test_torn_every_publish_always_rolls_back(self, tmp_path):
        controller = _controller(tmp_path, drift_threshold=0.0)
        # Seed a good version before the storm.
        controller.run_cycle()
        good = controller.store.path.read_bytes()
        controller.store._io = FaultInjector(
            [FaultRule("write", "torn-write")], seed=CHAOS_SEED
        )
        for _ in range(2):
            result = controller.run_cycle()
            if result.action == "breaker-open":
                break
            assert result.action == "rolled-back"
            assert controller.store.path.read_bytes() == good
        assert controller.metrics()["rollbacks"] >= 1


class TestForcedBadCandidate:
    def _probe(self, stats):
        return get_estimator("epfis", stats).estimate_many(
            [
                (ScanSelectivity(0.05), stats.b_min),
                (ScanSelectivity(0.4), stats.b_max),
            ]
        )

    def test_serving_engine_keeps_last_known_good(self, tmp_path):
        controller = _controller(
            tmp_path, drift_threshold=0.0, corrupt_publish_cycles=(1,)
        )
        controller.run_cycle()
        store = controller.store
        # A long-lived serving engine over the same store — no restart
        # anywhere in this test.
        engine = EstimationEngine(store)
        good_stats = engine.statistics(INDEX)
        good_answers = self._probe(good_stats)

        result = controller.run_cycle()
        assert result.action == "rolled-back"
        assert engine.statistics(INDEX).to_dict() == good_stats.to_dict()
        assert self._probe(engine.statistics(INDEX)) == good_answers

        # The next clean cycle rolls the same engine forward without a
        # restart: generation-based invalidation picks up the publish.
        result = controller.run_cycle()
        assert result.action == "published"
        fresh = engine.statistics(INDEX)
        assert fresh.to_dict() == controller.state.previous.to_dict()

    def test_serving_tier_pickup_through_tenants(self, tmp_path):
        from repro.serving import (
            EstimateRequest,
            EstimationServer,
            TenantCatalogs,
        )

        tenants = TenantCatalogs(tmp_path)
        controller = _controller(
            tmp_path / "t0",
            drift_threshold=0.0,
            corrupt_publish_cycles=(1,),
        )
        controller.run_cycle()
        request = EstimateRequest(
            tenant="t0",
            index=INDEX,
            estimator="epfis",
            sigma=0.1,
            buffer_pages=16,
        )
        with EstimationServer(tenants) as server:
            first = server.estimate(request)
            direct = get_estimator(
                "epfis", controller.state.previous
            ).estimate_many([(ScanSelectivity(0.1), 16)])[0]
            assert first == direct

            # A rolled-back cycle must not move the served answer.
            assert controller.run_cycle().action == "rolled-back"
            assert server.estimate(request) == first

            # A clean roll-forward is picked up with no restart.
            assert controller.run_cycle().action == "published"
            bumped = server.estimate(request)
            expected = get_estimator(
                "epfis", controller.state.previous
            ).estimate_many([(ScanSelectivity(0.1), 16)])[0]
            assert bumped == expected
