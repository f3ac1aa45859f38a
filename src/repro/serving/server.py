"""The estimation server: a micro-batching, multi-tenant request loop.

The paper's consumption side (Est-IO) is meant to answer thousands of
optimizer compilations per second against shared statistics.  The
per-call cost of :meth:`~repro.engine.EstimationEngine.estimate` is
dominated by fixed overhead — one catalog read plus a byte comparison
against the last-served bytes (both O(file size); stamping and parsing
happen only when the bytes changed), the binding-cache lookup, metrics
— not by evaluating the six-segment curve.  :class:`EstimationServer`
amortizes that overhead the way a high-QPS service does:

* **request loop** — callers :meth:`submit` requests from any thread
  and get a :class:`concurrent.futures.Future`, which one dispatcher
  thread answers.  A synchronous :meth:`estimate` caller (which is
  what :meth:`respond`, the TCP front end and the in-process load
  generator use) that finds the server *idle* — nothing admitted in
  flight and no other caller inside :meth:`estimate` — runs its
  request on its own thread instead, through the same grouping and
  ``estimate_many`` code, so a lone request pays neither the queue
  hand-off to the dispatcher nor the wake-up back.  :meth:`grid` and
  :meth:`advise` run on the caller's thread against the same tenant
  engine, which guards its catalog access and binding cache with its
  own lock;
* **micro-batching** — the dispatcher drains whatever is queued, waits
  up to ``batch_window_ms`` for stragglers, groups requests by
  ``(tenant, index, estimator, options)`` and answers each group with
  **one** :meth:`~repro.engine.EstimationEngine.estimate_many` call —
  the existing batched fast path, so results are byte-identical to N
  serial ``engine.estimate`` calls (property-tested).  Only one batch
  executes at a time: the dispatcher holds the executor lock from its
  first request until its batch is answered, and an idle caller that
  finds the lock held queues its request, so requests that arrive
  during an inline run coalesce into the dispatcher's next batch;
* **admission control** — queue-depth shedding through
  :class:`~repro.serving.admission.AdmissionController`; every shed
  request is counted, so ``sent == completed + rejected`` always;
* **tenant isolation** — requests route through
  :class:`~repro.serving.tenants.TenantCatalogs`: independent stores,
  generations, quarantine files, and breakers per tenant.  A group
  whose engine fails fails *only its own futures*; other groups in the
  same batch still answer.

Shutdown is truthful too: :meth:`close` stops admission, **drains**
everything already admitted (every accepted future completes, inline
runs included), then joins the dispatcher.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError, ServingError
from repro.obs import instruments
from repro.obs.metrics import NS_TO_SECONDS, MetricsRegistry
from repro.obs.tracing import span as obs_span
from repro.resilience.breaker import BreakerPolicy
from repro.serving.admission import (
    DEFAULT_MAX_QUEUE,
    AdmissionController,
)
from repro.serving.protocol import (
    CODE_ERROR,
    CODE_REJECTED,
    AdviseRequest,
    AdviseResponse,
    EstimateRequest,
    EstimateResponse,
    GridRequest,
    GridResponse,
)
from repro.serving.tenants import DEFAULT_TENANT_CACHE, TenantCatalogs
from repro.types import ScanSelectivity

#: How long the dispatcher waits for stragglers after the first request.
DEFAULT_BATCH_WINDOW_MS = 2.0
#: Most requests coalesced into one engine call.
DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for one :class:`EstimationServer`.

    ``batch_window_ms`` and ``max_batch`` shape the dispatcher's
    batches; ``max_queue`` is the admission bound on requests in
    flight; ``tenant_cache`` bounds resident tenant engines;
    ``fallback_chain`` and ``breaker_policy`` configure every tenant
    engine's degraded mode.  There is one dispatcher thread and no knob
    for more: only one batch executes at a time, so extra dispatchers
    would only split batches.
    """

    batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS
    max_batch: int = DEFAULT_MAX_BATCH
    max_queue: int = DEFAULT_MAX_QUEUE
    tenant_cache: int = DEFAULT_TENANT_CACHE
    fallback_chain: Optional[Tuple[str, ...]] = None
    breaker_policy: Optional[BreakerPolicy] = None

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ServingError(
                f"batch_window_ms must be >= 0, got "
                f"{self.batch_window_ms}"
            )
        if self.max_batch < 1:
            raise ServingError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )


class _Pending:
    """One admitted request with its future.

    ``selectivity`` carries the :class:`ScanSelectivity` already built
    (and thereby validated) during admission, so execution does not
    construct it a second time on the hot path.
    """

    __slots__ = ("request", "future", "selectivity", "enqueued_ns")

    def __init__(
        self, request: EstimateRequest, selectivity: ScanSelectivity
    ) -> None:
        self.request = request
        self.future: "Future[float]" = Future()
        self.selectivity = selectivity
        self.enqueued_ns = time.perf_counter_ns()


class EstimationServer:
    """Serve estimate requests: inline when idle, else micro-batched."""

    def __init__(
        self,
        tenants: Union[TenantCatalogs, str, Path],
        config: Optional[ServingConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._config = config or ServingConfig()
        self._registry = (
            registry if registry is not None else MetricsRegistry()
        )
        if not isinstance(tenants, TenantCatalogs):
            tenants = TenantCatalogs(
                tenants,
                cache_size=self._config.tenant_cache,
                fallback_chain=self._config.fallback_chain,
                breaker_policy=self._config.breaker_policy,
                registry=self._registry,
            )
        self._tenants = tenants
        self._admission = AdmissionController(
            self._config.max_queue, registry=self._registry
        )
        self._queue: "queue.Queue[_Pending]" = queue.Queue()
        # Admitted requests not yet answered, and synchronous callers
        # inside estimate(); both guarded by _inflight_lock.
        self._inflight = 0
        self._callers = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        # Held by whoever executes a batch: the dispatcher from its
        # first request until the batch is answered, or an idle caller
        # running its own request.  One batch executes at a time.
        self._executor = threading.Lock()
        registry = self._registry
        self._requests = instruments.serving_requests(registry)
        # Bound child handles, cached per tenant: labels() resolution
        # is measurable on the submit hot path.
        self._tenant_counters: Dict[str, object] = {}
        self._batches = instruments.serving_batches(registry).labels()
        self._batch_size_family = instruments.serving_batch_size(registry)
        self._batch_size = self._batch_size_family.labels()
        self._depth_gauge = instruments.serving_queue_depth(
            registry
        ).labels()
        self._latency = instruments.serving_latency(registry).labels()
        self._advisor_requests = instruments.advisor_grid_requests(
            registry
        )
        self._started = False
        self._stopping = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-serving-dispatcher",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimationServer":
        """Start the dispatcher thread (idempotent)."""
        if not self._started:
            self._started = True
            self._dispatcher.start()
        return self

    def __enter__(self) -> "EstimationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop admission, drain every admitted request, stop.

        Every request admitted before the close — queued or running
        inline on its caller's thread — is completed (with a result or
        an estimator error) before the dispatcher exits: shutdown never
        silently drops an admitted request.
        """
        self._admission.close()
        with self._idle:
            self._idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )
        self._stopping = True
        if self._started:
            self._dispatcher.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> TenantCatalogs:
        """The tenant namespace map this server routes through."""
        return self._tenants

    @property
    def config(self) -> ServingConfig:
        """This server's tuning knobs."""
        return self._config

    def _validate(self, request: EstimateRequest) -> ScanSelectivity:
        from repro.serving.tenants import validate_tenant_name

        try:
            validate_tenant_name(request.tenant)
        except ServingError as exc:
            raise self._admission.reject_invalid(str(exc)) from None
        if request.buffer_pages < 1:
            raise self._admission.reject_invalid(
                f"buffer_pages must be >= 1, got {request.buffer_pages}"
            )
        try:
            return ScanSelectivity(request.sigma, request.sargable)
        except ValueError as exc:
            raise self._admission.reject_invalid(str(exc)) from None

    def _admit(
        self, request: EstimateRequest, caller: bool = False
    ) -> Tuple[_Pending, bool]:
        """Validate, admit and count ``request``.

        ``caller`` marks a synchronous :meth:`estimate` caller, which
        stays counted in ``_callers`` until it leaves.  Also returns
        whether the server was idle at admission: nothing in flight
        and no synchronous caller inside :meth:`estimate`.
        """
        if not self._started:
            raise ServingError(
                "server is not started; call start() or use it as a "
                "context manager"
            )
        selectivity = self._validate(request)
        with self._inflight_lock:
            self._admission.admit(self._inflight)
            idle = self._inflight == 0 and self._callers == 0
            self._inflight += 1
            self._callers += caller
        pending = _Pending(request, selectivity)
        counter = self._tenant_counters.get(request.tenant)
        if counter is None:
            counter = self._requests.labels(tenant=request.tenant)
            self._tenant_counters[request.tenant] = counter
        counter.inc()
        return pending, idle

    def submit(self, request: EstimateRequest) -> "Future[float]":
        """Admit ``request`` and return its future, or raise.

        Raises :class:`~repro.errors.ServingError` when the request is
        malformed or admission sheds it; both paths increment the
        truthful ``rejected`` counter first.  The returned future
        resolves to the estimate, or raises the estimator's own error.
        """
        pending, _ = self._admit(request)
        self._queue.put(pending)
        return pending.future

    def estimate(
        self, request: EstimateRequest, timeout: Optional[float] = None
    ) -> float:
        """Admit ``request`` and return its estimate, or raise.

        Raises like :meth:`submit`, or with the estimator's own error.
        When the server is idle the request runs on this thread; else
        it is queued for the dispatcher and ``timeout`` bounds the
        wait.  The caller count is what keeps this fair: a thread
        looping on :meth:`estimate` would otherwise keep finding the
        server idle and run request after request while holding the
        GIL, starving the callers the dispatcher has just answered —
        they still count here until they return.
        """
        pending, idle = self._admit(request, caller=True)
        try:
            if idle and self._executor.acquire(blocking=False):
                try:
                    self._execute([pending])
                finally:
                    self._executor.release()
            else:
                self._queue.put(pending)
            return pending.future.result(timeout=timeout)
        finally:
            with self._inflight_lock:
                self._callers -= 1

    def respond(self, request: EstimateRequest) -> EstimateResponse:
        """:meth:`estimate` packaged as a wire response.

        Rejections and estimator failures both become truthful
        ``ok=false`` responses instead of exceptions — the TCP front
        end's one-stop call.
        """
        try:
            value = self.estimate(request)
        except ServingError as exc:
            return EstimateResponse(
                request_id=request.request_id, ok=False,
                error=str(exc), code=CODE_REJECTED,
            )
        except ReproError as exc:
            return EstimateResponse(
                request_id=request.request_id, ok=False,
                error=str(exc), code=CODE_ERROR,
            )
        return EstimateResponse(
            request_id=request.request_id, ok=True, estimate=value
        )

    # ------------------------------------------------------------------
    # Batched advisory paths (caller-thread; batched by construction)
    # ------------------------------------------------------------------
    def _admit_advisory(self, tenant: str) -> None:
        """Admission for the caller-thread paths.

        Grid/advise requests never ride the micro-batch queue — each is
        already one batched engine call — but they honour the same
        closed/shedding gates and tenant-name vocabulary, and count
        into the same truthful request/reject families.
        """
        from repro.serving.tenants import validate_tenant_name

        try:
            validate_tenant_name(tenant)
        except ServingError as exc:
            raise self._admission.reject_invalid(str(exc)) from None
        with self._inflight_lock:
            self._admission.admit(self._inflight)
        counter = self._tenant_counters.get(tenant)
        if counter is None:
            counter = self._requests.labels(tenant=tenant)
            self._tenant_counters[tenant] = counter
        counter.inc()

    def grid(self, request: GridRequest) -> Dict[str, List[List[float]]]:
        """Answer one batched multi-index grid request, or raise.

        One :meth:`~repro.engine.EstimationEngine.estimate_grid` call
        per named index — results are byte-identical to the equivalent
        per-point :meth:`estimate` fan-out (pinned in tests).
        """
        if not self._started:
            raise ServingError(
                "server is not started; call start() or use it as a "
                "context manager"
            )
        self._admit_advisory(request.tenant)
        selectivities = []
        for sigma, sargable in request.selectivities:
            try:
                selectivities.append(ScanSelectivity(sigma, sargable))
            except ValueError as exc:
                raise self._admission.reject_invalid(str(exc)) from None
        for pages in request.buffers:
            if pages < 1:
                raise self._admission.reject_invalid(
                    f"buffer_pages must be >= 1, got {pages}"
                )
        with obs_span(
            "serving-grid",
            tenant=request.tenant,
            indexes=len(request.indexes),
            estimator=request.estimator,
        ):
            engine = self._tenants.engine(request.tenant)
            curves = {
                name: engine.estimate_grid(
                    name,
                    request.estimator,
                    selectivities,
                    list(request.buffers),
                    **dict(request.options),
                )
                for name in request.indexes
            }
        self._advisor_requests.labels(kind="grid").inc()
        return curves

    def grid_respond(self, request: GridRequest) -> GridResponse:
        """:meth:`grid` packaged as a truthful wire response."""
        try:
            curves = self.grid(request)
        except ServingError as exc:
            return GridResponse(
                request_id=request.request_id, ok=False,
                error=str(exc), code=CODE_REJECTED,
            )
        except ReproError as exc:
            return GridResponse(
                request_id=request.request_id, ok=False,
                error=str(exc), code=CODE_ERROR,
            )
        return GridResponse(
            request_id=request.request_id, ok=True, curves=curves
        )

    def advise(self, request: AdviseRequest) -> dict:
        """Answer one fleet advisory from the tenant's live catalog.

        Runs the same :func:`repro.advisor.advise` pipeline as the
        offline CLI against this tenant's serving engine, so the report
        dict is byte-identical to the CLI's for the same statistics and
        spec (pinned in tests).
        """
        if not self._started:
            raise ServingError(
                "server is not started; call start() or use it as a "
                "context manager"
            )
        from repro.advisor import AdvisorSpec, advise

        self._admit_advisory(request.tenant)
        try:
            spec = AdvisorSpec.from_dict(request.spec)
        except ReproError as exc:
            raise self._admission.reject_invalid(str(exc)) from None
        engine = self._tenants.engine(request.tenant)
        report = advise(
            engine, spec, registry=self._registry, path="serving"
        )
        self._advisor_requests.labels(kind="advise").inc()
        return report.to_dict()

    def advise_respond(self, request: AdviseRequest) -> AdviseResponse:
        """:meth:`advise` packaged as a truthful wire response."""
        try:
            report = self.advise(request)
        except ServingError as exc:
            return AdviseResponse(
                request_id=request.request_id, ok=False,
                error=str(exc), code=CODE_REJECTED,
            )
        except ReproError as exc:
            return AdviseResponse(
                request_id=request.request_id, ok=False,
                error=str(exc), code=CODE_ERROR,
            )
        return AdviseResponse(
            request_id=request.request_id, ok=True, report=report
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _collect_batch(self, first: _Pending) -> List[_Pending]:
        """Coalesce the window's worth of requests after ``first``.

        Runs under the executor lock, so nothing else is executing:
        the window closes early once every admitted request is in this
        batch.  Nothing else *can* arrive until some future resolves
        (their closed-loop callers are blocked on them), so waiting out
        the window would add latency without adding batch size.
        Open-loop arrivals that land after the early close simply seed
        the next batch.
        """
        batch = [first]
        deadline = (
            time.perf_counter()
            + self._config.batch_window_ms / 1000.0
        )
        while len(batch) < self._config.max_batch:
            with self._inflight_lock:
                if len(batch) >= self._inflight:
                    break
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                # Window elapsed: take whatever is already queued, but
                # stop waiting for new arrivals.
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            else:
                try:
                    batch.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
        return batch

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            with self._executor:
                batch = self._collect_batch(first)
                self._depth_gauge.set(self._queue.qsize())
                self._execute(batch)

    def _execute(self, batch: List[_Pending]) -> None:
        groups: "OrderedDict[Tuple, List[_Pending]]" = OrderedDict()
        for pending in batch:
            groups.setdefault(
                pending.request.batch_key(), []
            ).append(pending)
        self._batches.inc()
        self._batch_size.observe(len(batch))
        for key, members in groups.items():
            self._execute_group(key, members)
        with self._idle:
            self._inflight -= len(batch)
            if self._inflight == 0:
                self._idle.notify_all()

    def _execute_group(
        self, key: Tuple, members: List[_Pending]
    ) -> None:
        tenant, index_name, estimator_name, options = key
        try:
            with obs_span(
                "serving-batch",
                tenant=tenant,
                index=index_name,
                estimator=estimator_name,
                size=len(members),
            ):
                engine = self._tenants.engine(tenant)
                pairs = [
                    (p.selectivity, p.request.buffer_pages)
                    for p in members
                ]
                values = engine.estimate_many(
                    index_name,
                    estimator_name,
                    pairs,
                    **dict(options),
                )
        except Exception as exc:  # noqa: BLE001 — forwarded, not hidden
            for pending in members:
                pending.future.set_exception(exc)
            self._observe_latency(members)
            return
        for pending, value in zip(members, values):
            pending.future.set_result(value)
        self._observe_latency(members)

    def _observe_latency(self, members: Sequence[_Pending]) -> None:
        now = time.perf_counter_ns()
        for pending in members:
            self._latency.observe(now - pending.enqueued_ns)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def admission(self) -> AdmissionController:
        """The admission controller (for state/reject introspection)."""
        return self._admission

    def state(self) -> str:
        """Admission state at the current queue depth."""
        with self._inflight_lock:
            return self._admission.state(self._inflight)

    def metrics(self) -> Dict[str, object]:
        """One truthful snapshot of the serving counters."""
        latency = self._latency
        child = self._batch_size
        histogram: Dict[str, int] = {}
        bounds = list(self._batch_size_family.buckets) + [None]
        for bound, count in zip(bounds, child.bucket_counts()):
            if count:
                key = "+Inf" if bound is None else f"<={bound:g}"
                histogram[key] = count
        return {
            "requests": sum(
                child.value
                for child in self._requests.children().values()
            ),
            "batches": self._batches.value,
            "batch_size_histogram": histogram,
            "mean_batch_size": (
                child.sum / child.count if child.count else 0.0
            ),
            "rejected": self._admission.rejected(),
            "latency_seconds_sum": latency.sum * NS_TO_SECONDS,
            "completed": latency.count,
            "tenants": self._tenants.metrics(),
        }

    def __repr__(self) -> str:
        return (
            f"EstimationServer(tenants={self._tenants!r}, "
            f"state={self.state()!r})"
        )
