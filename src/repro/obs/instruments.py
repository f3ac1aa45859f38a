"""The catalog of standard metric families this codebase exports.

Every instrumentation site goes through one of these accessors, so a
family is always declared with the same type, labels, buckets, and
scale no matter which subsystem touches it first.  A site calls the
accessor on one registry — its component's (which forwards to the
process-global registry while an export is attached, see
:mod:`repro.obs.metrics`) or, with no argument, the global one — and
the forwarded family is declared on the global registry with that same
signature.

Durations are declared in **integer nanoseconds** with a snapshot-time
scale of 1e-9: exporters show seconds (the Prometheus convention), the
registry never loses sub-microsecond resolution to float summation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.obs.metrics import (
    NS_TO_SECONDS,
    MetricFamily,
    MetricsRegistry,
    global_registry,
)

# ----------------------------------------------------------------------
# Kernel profiling (global registry; recorded by KernelStream)
# ----------------------------------------------------------------------
KERNEL_REFERENCES_TOTAL = "repro_kernel_references_total"
KERNEL_FEED_SECONDS_TOTAL = "repro_kernel_feed_seconds_total"
KERNEL_REFERENCES_PER_SECOND = "repro_kernel_references_per_second"

# ----------------------------------------------------------------------
# Sharded passes (global registry; recorded by the shard orchestrator)
# ----------------------------------------------------------------------
SHARD_FEED_SECONDS_TOTAL = "repro_shard_feed_seconds_total"
SHARD_MERGE_SECONDS_TOTAL = "repro_shard_merge_seconds_total"
SHARD_SEAM_REUSES_TOTAL = "repro_shard_seam_reuses_total"

# ----------------------------------------------------------------------
# Checkpoint profiling (global registry; recorded by Checkpointer)
# ----------------------------------------------------------------------
CHECKPOINT_SAVE_SECONDS = "repro_checkpoint_save_seconds"
CHECKPOINT_LOAD_SECONDS = "repro_checkpoint_load_seconds"

# ----------------------------------------------------------------------
# Engine serving (per-engine registry; also recorded by the experiment
# runner's per-estimator Est-IO stage on the global registry)
# ----------------------------------------------------------------------
ENGINE_CALL_LATENCY_SECONDS = "repro_engine_call_latency_seconds"
ENGINE_ESTIMATES_TOTAL = "repro_engine_estimates_total"
ENGINE_ERRORS_TOTAL = "repro_engine_errors_total"
ENGINE_DEGRADED_SERVES_TOTAL = "repro_engine_degraded_serves_total"

# ----------------------------------------------------------------------
# Resilient catalog store
# ----------------------------------------------------------------------
CATALOG_READS_TOTAL = "repro_catalog_reads_total"
CATALOG_RETRIES_TOTAL = "repro_catalog_retries_total"
CATALOG_QUARANTINES_TOTAL = "repro_catalog_quarantines_total"
CATALOG_STALE_SERVES_TOTAL = "repro_catalog_stale_serves_total"

# ----------------------------------------------------------------------
# Serving tier (per-server registry; see repro.serving)
# ----------------------------------------------------------------------
SERVING_REQUESTS_TOTAL = "repro_serving_requests_total"
SERVING_REJECTED_TOTAL = "repro_serving_rejected_total"
SERVING_BATCHES_TOTAL = "repro_serving_batches_total"
SERVING_BATCH_SIZE = "repro_serving_batch_size"
SERVING_QUEUE_DEPTH = "repro_serving_queue_depth"
SERVING_LATENCY_SECONDS = "repro_serving_latency_seconds"
SERVING_TENANTS_ACTIVE = "repro_serving_tenants_active"
SERVING_TENANT_EVICTIONS_TOTAL = "repro_serving_tenant_evictions_total"

#: Micro-batch size buckets (requests coalesced per engine call).
BATCH_SIZE_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

# ----------------------------------------------------------------------
# Online catalog refresh (per-controller registry; see repro.refresh)
# ----------------------------------------------------------------------
REFRESH_CYCLES_TOTAL = "repro_refresh_cycles_total"
REFRESH_DRIFT_DETECTED_TOTAL = "repro_refresh_drift_detected_total"
REFRESH_PUBLISHES_TOTAL = "repro_refresh_publishes_total"
REFRESH_ROLLBACKS_TOTAL = "repro_refresh_rollbacks_total"
REFRESH_QUARANTINED_CANDIDATES_TOTAL = (
    "repro_refresh_quarantined_candidates_total"
)
REFRESH_CYCLE_SECONDS = "repro_refresh_cycle_seconds"

# ----------------------------------------------------------------------
# Fleet buffer advisor (see repro.advisor)
# ----------------------------------------------------------------------
ADVISOR_RUNS_TOTAL = "repro_advisor_runs_total"
ADVISOR_CURVE_POINTS_TOTAL = "repro_advisor_curve_points_total"
ADVISOR_ALLOCATION_SECONDS = "repro_advisor_allocation_seconds"
ADVISOR_ORACLE_CHECKS_TOTAL = "repro_advisor_oracle_checks_total"
ADVISOR_GRID_REQUESTS_TOTAL = "repro_advisor_grid_requests_total"

# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------
BREAKER_STATE = "repro_breaker_state"
BREAKER_OPENS_TOTAL = "repro_breaker_opens_total"

#: Gauge encoding of :mod:`repro.resilience.breaker` states.
BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}


def _registry(registry: MetricsRegistry = None) -> MetricsRegistry:
    return registry if registry is not None else global_registry()


def kernel_references(registry=None) -> MetricFamily:
    """Total page references consumed, per kernel."""
    return _registry(registry).counter(
        KERNEL_REFERENCES_TOTAL,
        "Page references consumed by stack-distance kernel streams.",
        ("kernel",),
    )


def kernel_feed_seconds(registry=None) -> MetricFamily:
    """Total wall-clock time inside kernel ``feed``, per kernel."""
    return _registry(registry).counter(
        KERNEL_FEED_SECONDS_TOTAL,
        "Wall-clock seconds spent consuming references, per kernel.",
        ("kernel",),
        scale=NS_TO_SECONDS,
    )


def kernel_references_per_second(registry=None) -> MetricFamily:
    """Throughput of the most recently finished stream, per kernel."""
    return _registry(registry).gauge(
        KERNEL_REFERENCES_PER_SECOND,
        "References/second of the last finished kernel stream.",
        ("kernel",),
    )


def shard_feed_seconds(registry=None) -> MetricFamily:
    """Per-shard feed time of sharded passes, labeled by shard ordinal."""
    return _registry(registry).counter(
        SHARD_FEED_SECONDS_TOTAL,
        "Wall-clock seconds each shard of a sharded pass spent feeding "
        "its kernel stream.",
        ("kernel", "shard"),
        scale=NS_TO_SECONDS,
    )


def shard_merge_seconds(registry=None) -> MetricFamily:
    """Time spent merging shard summaries into one curve."""
    return _registry(registry).counter(
        SHARD_MERGE_SECONDS_TOTAL,
        "Wall-clock seconds spent merging shard summaries.",
        ("kernel",),
        scale=NS_TO_SECONDS,
    )


def shard_seam_reuses(registry=None) -> MetricFamily:
    """Seam corrections: first-local-accesses resolved as reuses."""
    return _registry(registry).counter(
        SHARD_SEAM_REUSES_TOTAL,
        "Shard-boundary first-accesses resolved as reuses of earlier "
        "shards during the merge.",
        ("kernel",),
    )


def checkpoint_save_seconds(registry=None) -> MetricFamily:
    """Latency distribution of checkpoint snapshot saves."""
    return _registry(registry).histogram(
        CHECKPOINT_SAVE_SECONDS,
        "Latency of LRU-Fit checkpoint snapshot saves.",
    )


def checkpoint_load_seconds(registry=None) -> MetricFamily:
    """Latency distribution of checkpoint loads (resume path)."""
    return _registry(registry).histogram(
        CHECKPOINT_LOAD_SECONDS,
        "Latency of LRU-Fit checkpoint loads.",
    )


def engine_call_latency(registry=None) -> MetricFamily:
    """Per-estimator serving latency histogram (count == calls)."""
    return _registry(registry).histogram(
        ENGINE_CALL_LATENCY_SECONDS,
        "Latency of estimator serving calls.",
        ("estimator",),
    )


def engine_estimates(registry=None) -> MetricFamily:
    """Individual estimates produced, per estimator."""
    return _registry(registry).counter(
        ENGINE_ESTIMATES_TOTAL,
        "Individual page-fetch estimates produced.",
        ("estimator",),
    )


def engine_errors(registry=None) -> MetricFamily:
    """Calls that raised, per estimator."""
    return _registry(registry).counter(
        ENGINE_ERRORS_TOTAL,
        "Estimator serving calls that raised.",
        ("estimator",),
    )


def engine_degraded_serves(registry=None) -> MetricFamily:
    """Requests answered by a fallback-chain member, per requested name."""
    return _registry(registry).counter(
        ENGINE_DEGRADED_SERVES_TOTAL,
        "Requests answered by a fallback estimator instead of the "
        "requested one.",
        ("estimator",),
    )


def catalog_reads(registry=None) -> MetricFamily:
    """Catalog snapshot requests against a resilient store."""
    return _registry(registry).counter(
        CATALOG_READS_TOTAL,
        "Catalog snapshot requests served by the resilient store.",
    )


def catalog_retries(registry=None) -> MetricFamily:
    """Transient-fault read retries."""
    return _registry(registry).counter(
        CATALOG_RETRIES_TOTAL,
        "Catalog read retries after transient faults.",
    )


def catalog_quarantines(registry=None) -> MetricFamily:
    """Corrupt catalog files set aside."""
    return _registry(registry).counter(
        CATALOG_QUARANTINES_TOTAL,
        "Corrupt catalog files quarantined.",
    )


def catalog_stale_serves(registry=None) -> MetricFamily:
    """Requests served from the last-known-good snapshot."""
    return _registry(registry).counter(
        CATALOG_STALE_SERVES_TOTAL,
        "Catalog requests answered from the last-known-good snapshot.",
    )


def serving_requests(registry=None) -> MetricFamily:
    """Requests admitted by the serving tier, per tenant."""
    return _registry(registry).counter(
        SERVING_REQUESTS_TOTAL,
        "Estimate requests admitted by the serving tier.",
        ("tenant",),
    )


def serving_rejected(registry=None) -> MetricFamily:
    """Requests turned away before execution, per reason."""
    return _registry(registry).counter(
        SERVING_REJECTED_TOTAL,
        "Estimate requests rejected by admission control "
        "(queue_full, closed, invalid).",
        ("reason",),
    )


def serving_batches(registry=None) -> MetricFamily:
    """Engine calls issued by the micro-batcher."""
    return _registry(registry).counter(
        SERVING_BATCHES_TOTAL,
        "Micro-batched engine calls issued by the serving tier.",
    )


def serving_batch_size(registry=None) -> MetricFamily:
    """Distribution of requests coalesced per engine call."""
    return _registry(registry).histogram(
        SERVING_BATCH_SIZE,
        "Requests coalesced into one batched engine call.",
        buckets=BATCH_SIZE_BUCKETS,
        scale=1.0,
    )


def serving_queue_depth(registry=None) -> MetricFamily:
    """Requests queued but not yet dispatched."""
    return _registry(registry).gauge(
        SERVING_QUEUE_DEPTH,
        "Admitted requests waiting for the micro-batcher.",
    )


def serving_latency(registry=None) -> MetricFamily:
    """End-to-end request latency (submit to completed future)."""
    return _registry(registry).histogram(
        SERVING_LATENCY_SECONDS,
        "End-to-end serving latency per request.",
    )


def serving_tenants_active(registry=None) -> MetricFamily:
    """Tenant engines currently resident in the LRU cache."""
    return _registry(registry).gauge(
        SERVING_TENANTS_ACTIVE,
        "Tenant engines currently resident in the serving cache.",
    )


def serving_tenant_evictions(registry=None) -> MetricFamily:
    """Tenant engines evicted by the bounded cache."""
    return _registry(registry).counter(
        SERVING_TENANT_EVICTIONS_TOTAL,
        "Tenant engines evicted from the bounded serving cache.",
    )


def refresh_cycles(registry=None) -> MetricFamily:
    """Refresh cycles completed, by outcome action."""
    return _registry(registry).counter(
        REFRESH_CYCLES_TOTAL,
        "Catalog refresh cycles completed, by outcome action "
        "(published, skipped-below-threshold, breaker-open, "
        "rolled-back).",
        ("action",),
    )


def refresh_drift_detected(registry=None) -> MetricFamily:
    """Cycles whose candidate drifted beyond the publish threshold."""
    return _registry(registry).counter(
        REFRESH_DRIFT_DETECTED_TOTAL,
        "Refresh cycles whose candidate curve drifted from the served "
        "catalog beyond the publish threshold.",
    )


def refresh_publishes(registry=None) -> MetricFamily:
    """Roll-forwards that passed post-publish validation."""
    return _registry(registry).counter(
        REFRESH_PUBLISHES_TOTAL,
        "Catalog versions rolled forward and validated by the refresh "
        "loop.",
    )


def refresh_rollbacks(registry=None) -> MetricFamily:
    """Publishes undone after failing post-publish validation."""
    return _registry(registry).counter(
        REFRESH_ROLLBACKS_TOTAL,
        "Refresh publishes rolled back to last-known-good after "
        "failing post-publish validation.",
    )


def refresh_quarantined_candidates(registry=None) -> MetricFamily:
    """Candidate records set aside after failing validation."""
    return _registry(registry).counter(
        REFRESH_QUARANTINED_CANDIDATES_TOTAL,
        "Refresh candidate records quarantined after failing "
        "post-publish validation.",
    )


def refresh_cycle_seconds(registry=None) -> MetricFamily:
    """Wall-clock latency distribution of refresh cycles."""
    return _registry(registry).histogram(
        REFRESH_CYCLE_SECONDS,
        "Wall-clock latency of one catalog refresh cycle.",
    )


def advisor_runs(registry=None) -> MetricFamily:
    """Advisory runs completed, by entry path (cli, serving, library)."""
    return _registry(registry).counter(
        ADVISOR_RUNS_TOTAL,
        "Fleet buffer advisories completed, by entry path.",
        ("path",),
    )


def advisor_curve_points(registry=None) -> MetricFamily:
    """Grid points evaluated while building fleet curves."""
    return _registry(registry).counter(
        ADVISOR_CURVE_POINTS_TOTAL,
        "Fetch-curve grid points evaluated for fleet advisories.",
    )


def advisor_allocation_seconds(registry=None) -> MetricFamily:
    """Wall-clock latency of one full budget-sweep allocation."""
    return _registry(registry).histogram(
        ADVISOR_ALLOCATION_SECONDS,
        "Wall-clock latency of one fleet advisory (curves through "
        "pricing).",
    )


def advisor_oracle_checks(registry=None) -> MetricFamily:
    """Greedy-vs-DP differential checks, by result (match, skipped)."""
    return _registry(registry).counter(
        ADVISOR_ORACLE_CHECKS_TOTAL,
        "Greedy-vs-DP oracle verifications of advisor allocations, by "
        "result (match, mismatch, skipped).",
        ("result",),
    )


def advisor_grid_requests(registry=None) -> MetricFamily:
    """Batched grid/advise requests answered by the serving tier."""
    return _registry(registry).counter(
        ADVISOR_GRID_REQUESTS_TOTAL,
        "Batched multi-index grid and advise requests answered by the "
        "serving tier.",
        ("kind",),
    )


def breaker_state(registry=None) -> MetricFamily:
    """Current breaker state (0 closed, 1 half-open, 2 open)."""
    return _registry(registry).gauge(
        BREAKER_STATE,
        "Circuit-breaker state: 0=closed, 1=half-open, 2=open.",
        ("estimator",),
    )


def breaker_opens(registry=None) -> MetricFamily:
    """Times a breaker tripped open, per estimator."""
    return _registry(registry).counter(
        BREAKER_OPENS_TOTAL,
        "Times a circuit breaker tripped open.",
        ("estimator",),
    )


#: Accessors for every standard family, in export order.
_STANDARD_ACCESSORS = (
    advisor_allocation_seconds,
    advisor_curve_points,
    advisor_grid_requests,
    advisor_oracle_checks,
    advisor_runs,
    breaker_opens,
    breaker_state,
    catalog_quarantines,
    catalog_reads,
    catalog_retries,
    catalog_stale_serves,
    checkpoint_load_seconds,
    checkpoint_save_seconds,
    engine_call_latency,
    engine_degraded_serves,
    engine_errors,
    engine_estimates,
    kernel_feed_seconds,
    kernel_references,
    kernel_references_per_second,
    refresh_cycle_seconds,
    refresh_cycles,
    refresh_drift_detected,
    refresh_publishes,
    refresh_quarantined_candidates,
    refresh_rollbacks,
    serving_batch_size,
    serving_batches,
    serving_latency,
    serving_queue_depth,
    serving_rejected,
    serving_requests,
    serving_tenant_evictions,
    serving_tenants_active,
    shard_feed_seconds,
    shard_merge_seconds,
    shard_seam_reuses,
)


def standard_family_names() -> List[str]:
    """Names of every standard family, sorted."""
    probe = MetricsRegistry(enabled=False)
    return sorted(
        accessor(probe).name for accessor in _STANDARD_ACCESSORS
    )


def register_standard_families(registry=None) -> None:
    """Declare every standard family on ``registry``.

    Exports then always carry the full family schema (``# HELP`` /
    ``# TYPE``) even for families nothing recorded into during the run;
    label-less families additionally materialize their zero-valued
    sample so dashboards see an explicit 0 rather than an absence.
    """
    registry = _registry(registry)
    for accessor in _STANDARD_ACCESSORS:
        family = accessor(registry)
        if not family.labelnames:
            family.labels()
