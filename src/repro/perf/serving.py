"""The BENCH_serving benchmark: micro-batched serving throughput as JSON.

Provisions a deterministic multi-tenant deployment — each tenant gets
its own LRU-Fit catalog under an isolated namespace, padded to
*production breadth*: one hot fitted index plus ``catalog_breadth - 1``
cold records cloned from it.  The padding models what a real namespace
holds (the paper's GWL database spans 57 tables with multiple indexed
columns each, i.e. on the order of a hundred catalog records), and it
matters for honesty: the per-call fixed cost the micro-batcher
amortizes is dominated by the one catalog read per engine call and its
byte comparison against the last-served bytes, which scale with the
catalog *file*, not with the one record a request touches.  Traffic
still targets each tenant's hot index — optimizer compilations
concentrate on hot tables — so batches group per tenant, not per cold
record.

The benchmark then measures the serving tier over one seeded request
stream:

* **serial engine reference** — one thread, one
  :meth:`~repro.engine.EstimationEngine.estimate` call per request,
  straight against the per-tenant engines (no serving tier at all).
  Reported for scale, and its values are the ground truth for the
  identity check.
* **one-request-per-call baseline** — the serving path with batching
  disabled (``max_batch=1``) at the same 8 concurrent clients: every
  request pays the full engine-call fixed cost (one catalog read and
  byte comparison, binding-cache lookup, metrics), and a request whose
  client finds the server busy also pays one dispatcher round-trip
  (a lone request runs inline on its client's thread in both modes).
  This is the baseline the speedup criterion is defined against — same
  clients, same stream, batching off.
* **closed loop, batched** — the same stream through
  :class:`~repro.serving.server.EstimationServer` with 8 concurrent
  clients (:func:`~repro.serving.loadgen.run_closed_loop`): concurrency
  becomes batch size, the per-engine-call fixed cost amortizes across
  the batch, and sustained QPS, p50/p99 latency, and the batch-size
  histogram are recorded.  Both closed-loop modes run ``repeats``
  interleaved repetitions and the criterion compares **medians** —
  thread-scheduling noise at this scale is +-20% per rep, far larger
  than the signal a single rep could resolve.
* **open loop** — fixed-rate arrivals above the measured capacity with
  a small admission queue, demonstrating honest shedding: every
  rejected request is counted and ``sent == completed + rejected +
  errors`` is asserted.

Correctness rides along: every request is also answered once through
the batcher and compared against the serial value — the acceptance
criteria require **zero** mismatches (estimates are pure functions of
the catalog record, and ``estimate_many`` is the same code path, so
equality is exact, not approximate).

Gates: batched closed-loop throughput >= ``MIN_SPEEDUP``x the
one-request-per-call baseline on a full run (reported but not enforced
under ``smoke=True`` — a starved CI runner can't sustain the
concurrency the speedup needs); identity and accounting are enforced
on every run, and the smoke p99 must stay under ``SMOKE_P99_BOUND_MS``
(a deliberately loose bound that catches pathological stalls, not
jitter).  The speedup ratio measures how much per-call fixed cost
batching amortizes.  An unchanged catalog costs one read and one byte
comparison per call, so little is left to amortize: on a 2-core host a
full run reads 1.2-1.4x and fails that gate.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.catalog.catalog import SystemCatalog
from repro.datagen.synthetic import SyntheticSpec, build_synthetic_dataset
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.serving.loadgen import (
    InProcessTransport,
    WorkloadSpec,
    request_stream,
    run_closed_loop,
    run_open_loop,
    stream_digest,
)
from repro.serving.server import EstimationServer, ServingConfig
from repro.serving.tenants import TenantCatalogs
from repro.types import ScanSelectivity

#: Full-run gate: batched QPS over one-request-per-call serving QPS.
MIN_SPEEDUP = 2.0
#: Smoke gate: closed-loop p99 bound (loose; catches stalls, not jitter).
SMOKE_P99_BOUND_MS = 250.0
#: Closed-loop concurrency the acceptance criterion is defined at.
BENCH_CLIENTS = 8

#: Closed-loop repetitions per mode; the criterion compares medians.
DEFAULT_REPEATS = 5

#: Catalog records per tenant namespace (one hot + the rest cold).
#: Calibrated to the paper's GWL database: 57 tables, multiple indexed
#: columns each — on the order of a hundred fitted records.
FULL_CATALOG_BREADTH = 96

_FULL_TENANTS = 2
_FULL_RECORDS = 3_000
_FULL_REQUESTS = 2_000
_SMOKE_TENANTS = 2
_SMOKE_RECORDS = 1_500
_SMOKE_REQUESTS = 160
_SMOKE_CATALOG_BREADTH = 8
_SMOKE_REPEATS = 2


def provision_tenants(
    root: Path,
    tenant_count: int,
    records: int,
    seed: int = 0,
    segments: int = 6,
    catalog_breadth: int = 1,
) -> TenantCatalogs:
    """Build ``tenant_count`` namespaces with fitted catalogs.

    Tenant ``k`` gets a synthetic dataset seeded ``seed + k`` — every
    namespace holds a differently named hot index, exactly the
    deployment shape ``repro loadgen`` discovers with per-tenant index
    pools.  ``catalog_breadth > 1`` pads each catalog with cold records
    cloned from the hot one (suffix ``.cold<j>``), sizing the catalog
    file like a production namespace without fitting every index.
    """
    tenants = TenantCatalogs(root)
    for k in range(tenant_count):
        dataset = build_synthetic_dataset(SyntheticSpec(
            records=records,
            distinct_values=max(50, records // 20),
            records_per_page=20,
            theta=0.86,
            window=0.2,
            seed=seed + k,
        ))
        stats = LRUFit(LRUFitConfig(segments=segments)).run(dataset.index)
        catalog = SystemCatalog()
        catalog.put(stats)
        for j in range(catalog_breadth - 1):
            catalog.put(dataclasses.replace(
                stats, index_name=f"{stats.index_name}.cold{j}"
            ))
        tenants.save(f"tenant-{k}", catalog)
    return tenants


def _workload(tenants: TenantCatalogs, seed: int) -> WorkloadSpec:
    # Traffic targets each tenant's hot indexes only; the ``.cold``
    # padding records exist to size the catalog file, not to be read.
    pools = tuple(
        (name, tuple(
            index
            for index in tenants.engine(name).index_names()
            if ".cold" not in index
        ))
        for name in tenants.tenant_names()
    )
    return WorkloadSpec(
        tenants=tuple(name for name, _ in pools),
        tenant_indexes=pools,
        seed=seed,
    )


def serial_baseline(
    tenants: TenantCatalogs, requests: Sequence
) -> Dict[str, object]:
    """One thread, one ``estimate`` call per request; values kept.

    The returned ``values`` list (aligned with ``requests``) is the
    ground truth the batched identity check compares against.
    """
    values: List[float] = []
    latencies_ns: List[int] = []
    started = time.perf_counter()
    for request in requests:
        engine = tenants.engine(request.tenant)
        t0 = time.perf_counter_ns()
        values.append(engine.estimate(
            request.index,
            request.estimator,
            ScanSelectivity(request.sigma, request.sargable),
            request.buffer_pages,
            **dict(request.options),
        ))
        latencies_ns.append(time.perf_counter_ns() - t0)
    wall = time.perf_counter() - started
    ordered = sorted(latencies_ns)
    mid = ordered[len(ordered) // 2] / 1e6 if ordered else 0.0
    p99 = (
        ordered[min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))]
        / 1e6 if ordered else 0.0
    )
    return {
        "requests": len(requests),
        "wall_seconds": wall,
        "qps": len(requests) / wall if wall > 0 else 0.0,
        "p50_ms": mid,
        "p99_ms": p99,
        "values": values,
    }


def batched_identity(
    server: EstimationServer,
    requests: Sequence,
    serial_values: Sequence[float],
) -> Dict[str, object]:
    """Answer every request through the batcher; compare exactly."""
    futures = [server.submit(request) for request in requests]
    mismatches = 0
    for future, expected in zip(futures, serial_values):
        if future.result(timeout=60.0) != expected:
            mismatches += 1
    return {"compared": len(requests), "mismatches": mismatches}


def _median_rep(results: List) -> "object":
    """The repetition with the median sustained QPS."""
    ordered = sorted(results, key=lambda r: r.sustained_qps)
    return ordered[len(ordered) // 2]


def run_serving_benchmark(
    out_path: Path,
    tenant_root: Optional[Path] = None,
    seed: int = 0,
    clients: int = BENCH_CLIENTS,
    repeats: Optional[int] = None,
    smoke: bool = False,
) -> Dict:
    """Run the serving benchmark and write ``out_path``.

    ``tenant_root`` defaults to a temporary directory torn down after
    the run; pass a path to inspect the provisioned namespaces.
    """
    import tempfile

    tenant_count = _SMOKE_TENANTS if smoke else _FULL_TENANTS
    records = _SMOKE_RECORDS if smoke else _FULL_RECORDS
    request_count = _SMOKE_REQUESTS if smoke else _FULL_REQUESTS
    breadth = _SMOKE_CATALOG_BREADTH if smoke else FULL_CATALOG_BREADTH
    if repeats is None:
        repeats = _SMOKE_REPEATS if smoke else DEFAULT_REPEATS

    cleanup = None
    if tenant_root is None:
        cleanup = tempfile.TemporaryDirectory(prefix="bench-serving-")
        tenant_root = Path(cleanup.name)
    try:
        tenants = provision_tenants(
            tenant_root, tenant_count, records, seed=seed,
            catalog_breadth=breadth,
        )
        spec = _workload(tenants, seed)
        requests = request_stream(spec, request_count)
        digest = stream_digest(requests)

        serial = serial_baseline(tenants, requests)
        serial_values = serial.pop("values")

        # Identity: every request once through the batcher, compared
        # exactly.  The queue bound must exceed the burst or admission
        # would (truthfully) shed part of the comparison set.
        config = ServingConfig(max_queue=len(requests) + 1)
        with EstimationServer(tenant_root, config) as server:
            identity = batched_identity(server, requests, serial_values)

        # Closed-loop repetitions, interleaved so drift (cache state,
        # host load) hits both modes alike.  The baseline is the same
        # clients and stream with batching off — every request is its
        # own engine call, on the dispatcher or (server idle) inline.
        unbatched_config = ServingConfig(
            max_batch=1, batch_window_ms=0.0,
            max_queue=len(requests) + 1,
        )
        unbatched_reps, closed_reps = [], []
        for _ in range(repeats):
            with EstimationServer(tenant_root, unbatched_config) as server:
                unbatched_reps.append(run_closed_loop(
                    lambda: InProcessTransport(server),
                    requests,
                    clients=clients,
                    server=server,
                ))
            with EstimationServer(tenant_root, config) as server:
                closed_reps.append(run_closed_loop(
                    lambda: InProcessTransport(server),
                    requests,
                    clients=clients,
                    server=server,
                ))
        unbatched = _median_rep(unbatched_reps)
        closed = _median_rep(closed_reps)

        # Open loop above measured capacity with a small queue: the
        # point is honest shedding, so sheds are expected and counted.
        open_qps = max(200.0, closed.sustained_qps * 1.5)
        open_config = ServingConfig(max_queue=64)
        with EstimationServer(tenant_root, open_config) as server:
            open_loop = run_open_loop(server, requests, qps=open_qps)

        speedup = (
            closed.sustained_qps / unbatched.sustained_qps
            if unbatched.sustained_qps > 0 else 0.0
        )
        p99_ms = closed.latency_ms()["p99"]
        accounted = (
            all(r.accounted for r in closed_reps)
            and all(r.accounted for r in unbatched_reps)
            and open_loop.accounted
        )
        criteria = {
            "min_speedup": MIN_SPEEDUP,
            "speedup": round(speedup, 3),
            "speedup_met": speedup >= MIN_SPEEDUP,
            "identity_exact": identity["mismatches"] == 0,
            "accounted": accounted,
            "smoke_p99_bound_ms": SMOKE_P99_BOUND_MS,
            "p99_ms": round(p99_ms, 3),
            "p99_within_bound": p99_ms <= SMOKE_P99_BOUND_MS,
            "clients": clients,
            "repeats": repeats,
            "meaningful": not smoke,
        }
        # Identity and accounting gate every run; the speedup gate only
        # full runs (smoke runners can't sustain the concurrency).
        criteria["passed"] = (
            criteria["identity_exact"]
            and criteria["accounted"]
            and criteria["p99_within_bound"]
            and (criteria["speedup_met"] or smoke)
        )

        document = {
            "schema": "bench-serving/v1",
            "smoke": smoke,
            "workload": {
                "tenants": tenant_count,
                "records_per_tenant": records,
                "catalog_breadth": breadth,
                "requests": request_count,
                "seed": seed,
                "digest": digest,
            },
            "serial": {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in serial.items()
            },
            "unbatched": unbatched.to_dict(),
            "unbatched_qps_reps": [
                round(r.sustained_qps, 1) for r in unbatched_reps
            ],
            "closed_loop": closed.to_dict(),
            "closed_loop_qps_reps": [
                round(r.sustained_qps, 1) for r in closed_reps
            ],
            "open_loop": open_loop.to_dict(),
            "identity": identity,
            "criteria": criteria,
        }
        out_path = Path(out_path)
        out_path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return document
    finally:
        if cleanup is not None:
            cleanup.cleanup()
