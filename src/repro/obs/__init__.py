"""Observability: metrics registry, structured tracing, exporters.

The subsystem has four layers:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry`
  holding counter/gauge/histogram families; the process-global
  registry (:func:`global_registry`) is disabled by default so
  instrumentation costs one branch until an exporter is attached, and
  every other registry forwards its mutations to it while it is on.
* :mod:`repro.obs.tracing` — :class:`Tracer`/:class:`Span` context
  managers with parent links, an injectable clock, and a JSONL sink;
  library code records through the module-level :func:`span` helper.
* :mod:`repro.obs.export` — Prometheus text and canonical-JSONL
  renderers over registry snapshots (validated by
  :mod:`repro.obs.promcheck`).
* :mod:`repro.obs.session` — :func:`observability_session`, the CLI's
  enable → run → export → restore wrapper.
"""

from repro.obs.export import to_jsonl, to_prometheus
from repro.obs.instruments import (
    register_standard_families,
    standard_family_names,
)
from repro.obs.metrics import (
    COUNTER,
    DURATION_BUCKETS_NS,
    GAUGE,
    HISTOGRAM,
    NS_TO_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    global_registry,
)
# repro.obs.promcheck and repro.obs.overhead are deliberately NOT
# imported here: each doubles as ``python -m repro.obs.<name>`` and
# importing it from its parent package would trigger runpy's
# found-in-sys.modules warning.
from repro.obs.session import observability_session
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    set_active_tracer,
    span,
)

__all__ = [
    "COUNTER",
    "Counter",
    "DURATION_BUCKETS_NS",
    "GAUGE",
    "Gauge",
    "HISTOGRAM",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NS_TO_SECONDS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "active_tracer",
    "global_registry",
    "observability_session",
    "register_standard_families",
    "set_active_tracer",
    "span",
    "standard_family_names",
    "to_jsonl",
    "to_prometheus",
]
