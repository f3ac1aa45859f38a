"""The serving tier's smoke gate on a small multi-tenant deployment.

Two tenants of 1,500 fitted records each; every catalog is padded to
eight records (the hot index plus seven cold clones), so each engine
call reads and compares a catalog file wider than the one record it
serves.  A 160-request seed-0 stream targets the hot indexes, as
optimizer compilations concentrate on hot tables.  Over that stream:

* every answer through the micro-batcher equals the serial
  ``engine.estimate`` value exactly (batching groups calls to the same
  pure function of one catalog record, so equality is exact);
* no request goes dropped-but-unreported (``sent == completed +
  rejected + errors``) in the 8-client batched closed loop, the
  8-client ``max_batch=1`` closed loop, or an open loop scheduled at
  1.5x the batched loop's measured rate into a 64-slot admission
  queue, where any shed must be counted;
* the batched closed loop's p99 stays under a loose stall bound, which
  catches a stuck dispatcher, not scheduling jitter.
"""

from __future__ import annotations

import pytest

from repro.serving.loadgen import (
    InProcessTransport,
    WorkloadSpec,
    request_stream,
    run_closed_loop,
    run_open_loop,
)
from repro.serving.server import EstimationServer, ServingConfig
from repro.types import ScanSelectivity

from tests.helpers import provision_tenants

pytestmark = pytest.mark.serving

CLIENTS = 8
P99_BOUND_MS = 250.0


def test_smoke_deployment_is_exact_accounted_and_unstalled(tmp_path):
    tenants = provision_tenants(
        tmp_path, tenant_count=2, records=1_500, seed=0,
        catalog_breadth=8,
    )
    names = tenants.tenant_names()
    spec = WorkloadSpec(
        tenants=tuple(names),
        tenant_indexes=tuple(
            (name, tuple(
                index
                for index in tenants.engine(name).index_names()
                if ".cold" not in index
            ))
            for name in names
        ),
        seed=0,
    )
    requests = request_stream(spec, 160)
    serial = [
        tenants.engine(r.tenant).estimate(
            r.index,
            r.estimator,
            ScanSelectivity(r.sigma, r.sargable),
            r.buffer_pages,
            **dict(r.options),
        )
        for r in requests
    ]

    # The queue bound exceeds the burst, so admission sheds none of the
    # comparison set.
    batched = ServingConfig(max_queue=len(requests) + 1)
    with EstimationServer(tmp_path, batched) as server:
        futures = [server.submit(r) for r in requests]
        assert [f.result(timeout=60.0) for f in futures] == serial

    def closed_loop(config):
        with EstimationServer(tmp_path, config) as server:
            return run_closed_loop(
                lambda: InProcessTransport(server), requests,
                clients=CLIENTS, server=server,
            )

    closed = closed_loop(batched)
    one_call = closed_loop(ServingConfig(
        max_batch=1, batch_window_ms=0.0, max_queue=len(requests) + 1,
    ))
    assert closed.accounted and closed.completed == len(requests)
    assert one_call.accounted and one_call.completed == len(requests)
    assert closed.latency_ms()["p99"] <= P99_BOUND_MS

    with EstimationServer(tmp_path, ServingConfig(max_queue=64)) as server:
        open_loop = run_open_loop(
            server, requests, qps=max(200.0, closed.sustained_qps * 1.5)
        )
    assert open_loop.accounted
