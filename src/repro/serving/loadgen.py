"""A deterministic closed- and open-loop load generator.

The serving tier's acceptance bar is quantitative — p50/p99 latency,
sustained QPS, batched-vs-serial speedup — so the traffic that produces
those numbers must be replayable.  :func:`request_stream` derives the
entire request sequence (tenant, index, estimator, selectivity, buffer
size) from one seed; two runs with the same workload spec issue
byte-identical requests in the same per-client order, and the stream's
SHA-256 digest is recorded alongside the results so a benchmark JSON
can be traced back to its exact traffic.

Two driving disciplines, the standard pair from the load-testing
literature:

* **closed loop** — ``clients`` workers each keep exactly one request
  outstanding (think: optimizer threads blocking on estimates).
  Throughput is an *output*; this is the mode the batched-vs-serial
  speedup criterion uses, because concurrency is what the micro-batcher
  converts into batch size.
* **open loop** — requests arrive on a fixed schedule (``qps``),
  regardless of completions (think: independent query arrivals).  This
  is the mode that exercises admission control honestly: when the
  service falls behind, the queue grows and the controller sheds, and
  every shed is counted.

Accounting is truthful by construction and checked:
``sent == completed + rejected + errors`` or
:attr:`LoadgenResult.accounted` is False (the CI smoke gate fails on
it — "zero dropped-but-unreported requests").
"""

from __future__ import annotations

import hashlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServingError
from repro.serving.protocol import (
    CODE_REJECTED,
    EstimateRequest,
    decode_response,
    encode,
)
from repro.serving.server import EstimationServer

#: Default selectivities and buffer sizes the generated stream draws from.
DEFAULT_SIGMAS = (0.02, 0.05, 0.1, 0.2)
DEFAULT_BUFFERS = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class WorkloadSpec:
    """What traffic to generate, fully determined by ``seed``.

    ``indexes`` is the shared index-name pool every tenant serves;
    ``tenant_indexes`` overrides the pool per tenant (``(tenant,
    (index, ...))`` pairs) for deployments where namespaces hold
    differently named indexes — the ``repro loadgen`` discovery path.
    """

    tenants: Tuple[str, ...]
    indexes: Tuple[str, ...] = ()
    estimators: Tuple[str, ...] = ("epfis",)
    sigmas: Tuple[float, ...] = DEFAULT_SIGMAS
    buffers: Tuple[int, ...] = DEFAULT_BUFFERS
    tenant_indexes: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name, values in (
            ("tenants", self.tenants),
            ("estimators", self.estimators), ("sigmas", self.sigmas),
            ("buffers", self.buffers),
        ):
            if not values:
                raise ServingError(
                    f"workload spec needs at least one entry in {name}"
                )
        pools = dict(self.tenant_indexes)
        for tenant in self.tenants:
            if not pools.get(tenant, self.indexes):
                raise ServingError(
                    f"workload spec has no index pool for tenant "
                    f"{tenant!r}: set indexes or tenant_indexes"
                )


def request_stream(
    spec: WorkloadSpec, count: int
) -> List[EstimateRequest]:
    """The first ``count`` requests of the workload (deterministic)."""
    rng = random.Random(spec.seed)
    pools = dict(spec.tenant_indexes)
    requests = []
    for i in range(count):
        tenant = rng.choice(spec.tenants)
        requests.append(
            EstimateRequest(
                tenant=tenant,
                index=rng.choice(pools.get(tenant, spec.indexes)),
                estimator=rng.choice(spec.estimators),
                sigma=rng.choice(spec.sigmas),
                buffer_pages=rng.choice(spec.buffers),
                request_id=i,
            )
        )
    return requests


def stream_digest(requests: Sequence[EstimateRequest]) -> str:
    """SHA-256 over the canonical wire encoding of the stream."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(encode(request).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class InProcessTransport:
    """Drive an :class:`EstimationServer` directly (no sockets)."""

    def __init__(self, server: EstimationServer) -> None:
        self._server = server

    def call(self, request: EstimateRequest) -> float:
        """Submit one request and block for its answer."""
        return self._server.estimate(request)

    def close(self) -> None:
        """Nothing to release for the in-process path."""


class TCPTransport:
    """One persistent NDJSON connection to a serving socket."""

    def __init__(self, host: str, port: int) -> None:
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=30.0
            )
        except OSError as exc:
            raise ServingError(
                f"cannot connect to serving socket {host}:{port}: {exc}"
            ) from exc
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def call(self, request: EstimateRequest) -> float:
        """Write one request line and block for its response line."""
        self._sock.sendall(encode(request).encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ServingError("serving connection closed mid-request")
        response = decode_response(line)
        if response.ok:
            return response.estimate
        if response.code == CODE_REJECTED:
            raise ServingError(response.error)
        raise ReproError(response.error)

    def close(self) -> None:
        """Close the connection (best effort)."""
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


TransportFactory = Callable[[], object]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _percentile(sorted_ns: Sequence[int], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample, in ms."""
    if not sorted_ns:
        return 0.0
    index = min(
        len(sorted_ns) - 1, max(0, round(q * (len(sorted_ns) - 1)))
    )
    return sorted_ns[index] / 1e6


@dataclass
class LoadgenResult:
    """Everything one load-generation run truthfully observed."""

    mode: str
    clients: int
    target_qps: Optional[float]
    sent: int
    completed: int
    rejected: int
    errors: int
    wall_seconds: float
    latencies_ns: List[int] = field(default_factory=list, repr=False)
    workload_digest: str = ""
    server_metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def sustained_qps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def accounted(self) -> bool:
        """True iff no request went dropped-but-unreported."""
        return self.sent == self.completed + self.rejected + self.errors

    def latency_ms(self) -> Dict[str, float]:
        """p50/p99/mean/max end-to-end latency, in milliseconds."""
        ordered = sorted(self.latencies_ns)
        mean = (
            sum(ordered) / len(ordered) / 1e6 if ordered else 0.0
        )
        return {
            "p50": _percentile(ordered, 0.50),
            "p99": _percentile(ordered, 0.99),
            "mean": mean,
            "max": ordered[-1] / 1e6 if ordered else 0.0,
        }

    def to_dict(self) -> dict:
        """The result as a JSON-ready document (benchmark artifact)."""
        return {
            "mode": self.mode,
            "clients": self.clients,
            "target_qps": self.target_qps,
            "sent": self.sent,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "accounted": self.accounted,
            "wall_seconds": self.wall_seconds,
            "sustained_qps": self.sustained_qps,
            "latency_ms": self.latency_ms(),
            "workload_digest": self.workload_digest,
            "server": self.server_metrics,
        }


class _Tally:
    """Thread-safe shared counters for the worker threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_ns: List[int] = []
        self.completed = 0
        self.rejected = 0
        self.errors = 0

    def record(self, elapsed_ns: int) -> None:
        with self.lock:
            self.latencies_ns.append(elapsed_ns)
            self.completed += 1

    def record_rejected(self) -> None:
        with self.lock:
            self.rejected += 1

    def record_error(self) -> None:
        with self.lock:
            self.errors += 1


# ----------------------------------------------------------------------
# Driving disciplines
# ----------------------------------------------------------------------
def run_closed_loop(
    transport_factory: TransportFactory,
    requests: Sequence[EstimateRequest],
    clients: int,
    server: Optional[EstimationServer] = None,
) -> LoadgenResult:
    """``clients`` workers, one outstanding request each.

    Requests are dealt round-robin (request ``i`` to client ``i %
    clients``), so the per-client sequences are deterministic; each
    worker owns its own transport.
    """
    if clients < 1:
        raise ServingError(f"clients must be >= 1, got {clients}")
    barrier = threading.Barrier(clients + 1)
    # One tally per worker, merged after the join: a shared lock on the
    # record path would sit directly on the closed-loop critical path
    # (a client's turnaround between an answer and its next request is
    # part of every closed-loop cycle, and the server batches only the
    # requests that are in flight together).
    tallies = [_Tally() for _ in range(clients)]

    def worker(
        worker_requests: Sequence[EstimateRequest], tally: _Tally
    ) -> None:
        transport = transport_factory()
        latencies = tally.latencies_ns
        try:
            barrier.wait()
            for request in worker_requests:
                started = time.perf_counter_ns()
                try:
                    transport.call(request)
                except ServingError:
                    tally.rejected += 1
                except ReproError:
                    tally.errors += 1
                else:
                    latencies.append(time.perf_counter_ns() - started)
        finally:
            transport.close()

    threads = [
        threading.Thread(
            target=worker,
            args=(requests[k::clients], tallies[k]),
            daemon=True,
        )
        for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    latencies_ns: List[int] = []
    for tally in tallies:
        latencies_ns.extend(tally.latencies_ns)
    return LoadgenResult(
        mode="closed",
        clients=clients,
        target_qps=None,
        sent=len(requests),
        completed=len(latencies_ns),
        rejected=sum(tally.rejected for tally in tallies),
        errors=sum(tally.errors for tally in tallies),
        wall_seconds=wall,
        latencies_ns=latencies_ns,
        workload_digest=stream_digest(requests),
        server_metrics=server.metrics() if server is not None else {},
    )


def run_open_loop(
    server: EstimationServer,
    requests: Sequence[EstimateRequest],
    qps: float,
) -> LoadgenResult:
    """Submit on a fixed arrival schedule, never waiting for answers.

    Arrival ``i`` is scheduled at ``i / qps`` seconds; when the run
    falls behind schedule it submits immediately (no coordinated
    omission: latency is measured from the *submit*, not the intended
    arrival, and sheds are counted instead of silently skipped).
    """
    if qps <= 0:
        raise ServingError(f"qps must be > 0, got {qps}")
    tally = _Tally()
    futures = []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        scheduled = start + i / qps
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted = time.perf_counter_ns()
        try:
            future = server.submit(request)
        except ServingError:
            tally.record_rejected()
            continue
        future.add_done_callback(
            lambda f, t0=submitted: (
                tally.record_error()
                if f.exception() is not None
                else tally.record(time.perf_counter_ns() - t0)
            )
        )
        futures.append(future)
    for future in futures:
        try:
            future.result(timeout=60.0)
        except ReproError:
            pass  # already tallied by the callback
    wall = time.perf_counter() - start
    return LoadgenResult(
        mode="open",
        clients=1,
        target_qps=qps,
        sent=len(requests),
        completed=tally.completed,
        rejected=tally.rejected,
        errors=tally.errors,
        wall_seconds=wall,
        latencies_ns=tally.latencies_ns,
        workload_digest=stream_digest(requests),
        server_metrics=server.metrics(),
    )
