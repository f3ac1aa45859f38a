"""Concurrency stress: the serving stack under rolling catalog bumps.

Eight client threads hammer one tenant through the micro-batching
server while a writer repeatedly republishes the tenant's catalog,
alternating between two fitted versions of the *same* index name.  The
store's atomic save plus the engine's generation-based invalidation
must make every concurrently observed estimate equal one of the two
versions' exact values — a torn read, a stale bound estimator, or a
half-visible save would all surface as a third value.

The truthfulness contract is checked on the same run: no retries (an
atomic replace never exposes a partial file), no quarantines, no
rejections with an ample queue, and a generation counter that actually
moved.  The ``slow``-marked soak repeats the whole dance through the
closed-loop load generator at larger scale.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest

from repro.catalog.catalog import SystemCatalog
from repro.datagen.synthetic import SyntheticSpec, build_synthetic_dataset
from repro.engine import EstimationEngine
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.serving import (
    EstimateRequest,
    EstimationServer,
    GridRequest,
    ServingConfig,
    TenantCatalogs,
)
from repro.serving.loadgen import (
    InProcessTransport,
    WorkloadSpec,
    request_stream,
    run_closed_loop,
)
from repro.types import ScanSelectivity

pytestmark = pytest.mark.serving

INDEX = "stress.key"
SIGMA = 0.1
BUFFERS = 32


def _fitted_stats(records: int, seed: int):
    spec = SyntheticSpec(
        records=records,
        distinct_values=40,
        records_per_page=20,
        theta=0.5,
        window=0.2,
        noise=0.05,
        seed=seed,
        name=f"stress-{seed}",
    )
    dataset = build_synthetic_dataset(spec)
    return LRUFit(LRUFitConfig(segments=6)).run(dataset.index)


def _versions():
    """Two catalogs for the same index name with distinct estimates."""
    catalogs, values = [], []
    for seed in (101, 202):
        stats = dataclasses.replace(
            _fitted_stats(records=1_200, seed=seed), index_name=INDEX
        )
        catalog = SystemCatalog()
        catalog.put(stats)
        catalogs.append(catalog)
        values.append(
            EstimationEngine(catalog).estimate(
                INDEX, "epfis", ScanSelectivity(SIGMA), BUFFERS
            )
        )
    assert values[0] != values[1], "versions must be distinguishable"
    return catalogs, values


def _hammer(tmp_path, readers, reads_per_reader, bumps, bump_sleep):
    catalogs, values = _versions()
    tenants = TenantCatalogs(tmp_path)
    tenants.save("t0", catalogs[0])

    request = EstimateRequest(
        tenant="t0", index=INDEX, estimator="epfis", sigma=SIGMA,
        buffer_pages=BUFFERS,
    )
    config = ServingConfig(
        max_queue=readers * reads_per_reader + bumps + 8
    )
    observed = [[] for _ in range(readers)]
    barrier = threading.Barrier(readers + 1)

    with EstimationServer(tenants, config) as server:

        def reader(slot) -> None:
            barrier.wait()
            for _ in range(reads_per_reader):
                observed[slot].append(server.estimate(request))

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(readers)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        last = 0
        for bump in range(1, bumps + 1):
            last = bump % 2
            tenants.save("t0", catalogs[last])
            time.sleep(bump_sleep)
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)

        # After the writer has settled, the server must serve the
        # final published version — invalidation actually happened.
        assert server.estimate(request) == values[last]

        store = tenants.engine("t0").source
        store_metrics = store.metrics()
        server_metrics = server.metrics()

    flat = [value for slot in observed for value in slot]
    assert len(flat) == readers * reads_per_reader
    torn = [value for value in flat if value not in values]
    assert not torn, f"saw values outside both versions: {torn[:5]}"

    # Truthful counters: atomic saves mean no retries and nothing to
    # quarantine; the ample queue means nothing was shed.
    assert store_metrics["retries"] == 0
    assert store_metrics["quarantines"] == 0
    assert store_metrics["stale_serves"] == 0
    assert store.generation >= 2
    assert sum(server_metrics["rejected"].values()) == 0
    assert server_metrics["completed"] == len(flat) + 1


class TestRollingBumpStress:
    def test_eight_threads_under_rolling_catalog_bumps(self, tmp_path):
        _hammer(
            tmp_path,
            readers=8,
            reads_per_reader=120,
            bumps=10,
            bump_sleep=0.01,
        )


@pytest.fixture()
def fine_thread_switching():
    """Switch threads every 10 us so short races actually interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class TestGridBesideDispatcher:
    def test_grid_threads_share_the_engine_with_the_dispatcher(
        self, tmp_path, fine_thread_switching
    ):
        """Grid requests run the tenant's engine on their own threads
        while the dispatcher runs it for submitted estimates, and a
        writer flips the catalog under both.  Every response must be
        ``ok`` and carry one of the two versions' values: a binding
        cache cleared under another thread's lookup would surface as
        an exception or an error response."""
        catalogs, values = _versions()
        tenants = TenantCatalogs(tmp_path)
        tenants.save("t0", catalogs[0])
        estimate = EstimateRequest(
            tenant="t0", index=INDEX, estimator="epfis", sigma=SIGMA,
            buffer_pages=BUFFERS,
        )
        grid = GridRequest(
            tenant="t0", estimator="epfis", indexes=(INDEX,),
            selectivities=((SIGMA, 1.0),), buffers=(BUFFERS,),
        )
        rounds = 150
        observed, failures = [], []
        stop = threading.Event()

        def grid_client() -> None:
            for _ in range(rounds):
                response = server.grid_respond(grid)
                observed.append(
                    response.curves[INDEX][0][0] if response.ok
                    else response.error
                )

        def estimate_client() -> None:
            for _ in range(rounds):
                response = server.respond(estimate)
                observed.append(
                    response.estimate if response.ok else response.error
                )

        def guarded(target):
            def run() -> None:
                try:
                    target()
                except Exception as exc:  # noqa: BLE001 — reported
                    failures.append(repr(exc))
            return run

        def churn() -> None:
            flip = 0
            while not stop.is_set():
                flip ^= 1
                tenants.save("t0", catalogs[flip])
                time.sleep(0.001)

        with EstimationServer(tenants) as server:
            writer = threading.Thread(target=guarded(churn), daemon=True)
            clients = [
                threading.Thread(target=guarded(target), daemon=True)
                for target in (grid_client, estimate_client) * 3
            ]
            writer.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120.0)
            stop.set()
            writer.join(timeout=30.0)
            assert not any(t.is_alive() for t in [writer, *clients])

        assert not failures, failures[:3]
        assert len(observed) == 6 * rounds
        strays = [value for value in observed if value not in values]
        assert not strays, strays[:3]


@pytest.mark.slow
class TestServingSoak:
    def test_loadgen_soak_under_catalog_churn(self, tmp_path):
        """Closed-loop load through the generator during churn.

        Larger and longer than the unit stress: the full loadgen path
        (round-robin deal, per-worker tallies, accounting) runs while
        the catalog flaps, and the accounting invariant must hold with
        zero errors — version churn is invisible to callers.
        """
        catalogs, values = _versions()
        tenants = TenantCatalogs(tmp_path)
        tenants.save("t0", catalogs[0])
        spec = WorkloadSpec(
            tenants=("t0",), indexes=(INDEX,), estimators=("epfis",),
            seed=9,
        )
        requests = request_stream(spec, 6_000)
        config = ServingConfig(max_queue=len(requests) + 1)
        stop = threading.Event()

        def churn() -> None:
            flip = 0
            while not stop.is_set():
                flip ^= 1
                tenants.save("t0", catalogs[flip])
                time.sleep(0.02)

        writer = threading.Thread(target=churn, daemon=True)
        with EstimationServer(tenants, config) as server:
            writer.start()
            try:
                result = run_closed_loop(
                    lambda: InProcessTransport(server),
                    requests,
                    clients=8,
                    server=server,
                )
            finally:
                stop.set()
                writer.join(timeout=30.0)
            store = tenants.engine("t0").source

        assert result.accounted
        assert result.errors == 0
        assert result.rejected == 0
        assert result.completed == len(requests)
        assert store.metrics()["quarantines"] == 0
        assert store.metrics()["retries"] == 0
        assert store.generation >= 2
