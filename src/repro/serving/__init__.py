"""Estimation-as-a-service: the multi-tenant serving tier.

The paper's Est-IO estimates are consumed at query-compilation time —
thousands of cheap calls per second against shared statistics.  This
package turns the in-process :class:`~repro.engine.EstimationEngine`
into that service:

* :mod:`repro.serving.server` — the micro-batching request loop
  (:class:`EstimationServer`): a lone request runs on its caller's
  thread, concurrent submissions coalesce into the engine's
  ``estimate_many`` fast path, and both are byte-identical to serial
  calls;
* :mod:`repro.serving.tenants` — per-tenant catalog namespaces over
  :class:`~repro.resilience.store.ResilientCatalogStore`
  (:class:`TenantCatalogs`): isolated directories, independent
  generations and quarantine, an LRU-bounded engine cache;
* :mod:`repro.serving.admission` — queue-depth shedding with truthful
  per-reason reject counters (:class:`AdmissionController`);
* :mod:`repro.serving.netserver` — the NDJSON-over-TCP front end
  (``repro serve``);
* :mod:`repro.serving.loadgen` — the deterministic closed-/open-loop
  load generator (``repro loadgen`` and the end-to-end benchmark's
  serving workloads);
* :mod:`repro.serving.protocol` — the wire format both ends share.
"""

from repro.serving.admission import (
    DEFAULT_MAX_QUEUE,
    STATE_ACCEPTING,
    STATE_CLOSED,
    STATE_SHEDDING,
    AdmissionController,
)
from repro.serving.loadgen import (
    LoadgenResult,
    TCPTransport,
    WorkloadSpec,
    request_stream,
    run_closed_loop,
    run_open_loop,
    stream_digest,
)
from repro.serving.netserver import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServingTCPServer,
)
from repro.serving.protocol import (
    AdviseRequest,
    AdviseResponse,
    EstimateRequest,
    EstimateResponse,
    GridRequest,
    GridResponse,
    decode_any,
    decode_request,
    decode_response,
    encode,
)
from repro.serving.server import (
    DEFAULT_BATCH_WINDOW_MS,
    DEFAULT_MAX_BATCH,
    EstimationServer,
    ServingConfig,
)
from repro.serving.tenants import (
    DEFAULT_TENANT_CACHE,
    TenantCatalogs,
    validate_tenant_name,
)

__all__ = [
    "AdmissionController",
    "AdviseRequest",
    "AdviseResponse",
    "DEFAULT_BATCH_WINDOW_MS",
    "DEFAULT_HOST",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_PORT",
    "DEFAULT_TENANT_CACHE",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationServer",
    "GridRequest",
    "GridResponse",
    "LoadgenResult",
    "STATE_ACCEPTING",
    "STATE_CLOSED",
    "STATE_SHEDDING",
    "ServingConfig",
    "ServingTCPServer",
    "TCPTransport",
    "TenantCatalogs",
    "WorkloadSpec",
    "decode_any",
    "decode_request",
    "decode_response",
    "encode",
    "request_stream",
    "run_closed_loop",
    "run_open_loop",
    "stream_digest",
    "validate_tenant_name",
]
