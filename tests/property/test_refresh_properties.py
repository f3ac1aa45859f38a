"""Property test for the refresh loop's one rollback path.

A cycle reads the catalog once and, when its publish fails validation,
restores exactly those bytes and deletes the versions its attempts
archived.  So across any catalog fault schedule, history depth and
retry budget: a cycle that does not publish (rolled back, skipped,
breaker-open, or raising the retried read fault) leaves the served
bytes as it found them and no version newer than the newest before
it, and a cycle that publishes serves exactly the record the loop
emitted.  Each example runs in a fresh directory; the profiles in
``tests/conftest.py`` keep the example stream deterministic.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import CatalogStore
from repro.obs.metrics import MetricsRegistry
from repro.refresh import DriftingFeed, RefreshConfig, RefreshController
from repro.resilience import FaultInjector, FaultRule
from repro.trace.paper_scale import PaperScaleSpec

pytestmark = pytest.mark.refresh

INDEX = "orders_idx"
SPEC = PaperScaleSpec(refs=1, pages=120, pattern="zipf", seed=7)
CYCLES = 4

rates = st.sampled_from((0.0, 0.15, 0.4))


def _served_bytes(path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


@settings(max_examples=40)
@given(
    history=st.integers(min_value=0, max_value=4),
    publish_retries=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    drill=st.sets(st.integers(min_value=0, max_value=CYCLES - 1)),
    transient_write=rates,
    torn_write=rates,
    mtime_collision=rates,
    transient_read=rates,
)
def test_unpublished_cycle_leaves_served_bytes_unchanged(
    history,
    publish_retries,
    seed,
    drill,
    transient_write,
    torn_write,
    mtime_collision,
    transient_read,
):
    io = FaultInjector(
        [
            FaultRule("write", "transient", rate=transient_write),
            FaultRule("write", "torn-write", rate=torn_write),
            FaultRule("write", "mtime-collision", rate=mtime_collision),
            FaultRule("read", "transient", rate=transient_read),
        ],
        seed=seed,
    )
    # Past the breaker cooldown every cycle, so each one may publish.
    now = [0.0]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "catalog.json"
        store = CatalogStore(path, io=io, history=history)
        controller = RefreshController(
            store,
            DriftingFeed.stationary(SPEC),
            RefreshConfig(
                index_name=INDEX,
                window_refs=2_000,
                checkpoint_every=1_000,
                drift_threshold=0.0,
                publish_retries=publish_retries,
                corrupt_publish_cycles=tuple(sorted(drill)),
            ),
            Path(root) / "state",
            registry=MetricsRegistry(),
            clock=lambda: now[0],
        )
        for _ in range(CYCLES):
            before = _served_bytes(path)
            newest = max(store.versions(), default=0)
            try:
                action = controller.run_cycle().action
            except OSError:
                action = None  # the one read faulted past its retries
            now[0] += 31.0
            if action == "published":
                served = CatalogStore(path).get(INDEX)
                assert served.to_dict() == controller.state.previous.to_dict()
            else:
                assert _served_bytes(path) == before
                assert max(store.versions(), default=0) <= newest
            assert not controller.rollback_path.exists()
