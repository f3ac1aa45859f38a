"""Thread-safe metrics primitives: registry, counters, gauges, histograms.

One :class:`MetricsRegistry` holds *families* — a named metric plus its
label names — and each family holds one instrument per distinct label
value tuple.  Three instrument kinds cover everything this codebase
reports:

* :class:`Counter` — monotone totals (references consumed, catalog
  retries, degraded serves);
* :class:`Gauge` — last-written values (breaker state, kernel
  references/sec);
* :class:`Histogram` — distributions over fixed buckets.  The default
  buckets are log-spaced *nanosecond* latency buckets
  (:data:`DURATION_BUCKETS_NS`) with a ``scale`` of 1e-9, so durations
  are **accumulated as exact integers** and only converted to seconds at
  snapshot time — float-sum resolution loss (a nanosecond vanishing into
  a large running total) cannot happen inside the registry.

Instruments are cheap to hold and cheap to skip: every mutation first
checks the owning registry's ``enabled`` flag, so a disabled registry
reduces instrumentation to one attribute load and a branch.  The
process-wide registry returned by :func:`global_registry` is **disabled
by default** — deep instrumentation sites (kernel streams, checkpoint
I/O) stay no-op-cheap until an exporter is attached (the CLI's
``--metrics-out`` flag, or :func:`repro.obs.session.observability_session`).

Every other registry — a component's own, always enabled so its views
stay truthful with no setup — **forwards** each mutation to the family
of the same name and labels on the global registry, and only while
that registry is enabled.  That one rule is how component counters
reach the export: an instrumentation site makes one call into one
registry.  The global family is declared on first forward with the
local family's kind, help, labels, buckets and scale (a signature clash
raises :class:`~repro.errors.ObservabilityError`).  The global child is
looked up by label key on every forwarded mutation, never cached, so an
export session's ``clear()`` cannot orphan it; the two registries'
locks are never held at once.  While the global registry is disabled,
forwarding costs one flag check.

Snapshots (:meth:`MetricsRegistry.snapshot`) are canonical — families
sorted by name, samples sorted by label values — so the exporters in
:mod:`repro.obs.export` produce byte-stable output from equal state.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ObservabilityError

#: Instrument kinds, as reported in snapshots and exports.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Fixed log-spaced latency buckets in integer nanoseconds: 1 us, 4 us,
#: 16 us, ... ~268 s.  Powers of four keep the bucket count small (14)
#: while spanning every latency this codebase can plausibly observe.
DURATION_BUCKETS_NS: Tuple[int, ...] = tuple(
    1_000 * 4 ** i for i in range(14)
)

#: Snapshot scale converting nanosecond accumulations to seconds.
NS_TO_SECONDS = 1e-9

Number = Union[int, float]


def _valid_metric_name(name: str) -> bool:
    if not name or not isinstance(name, str):
        return False
    head = name[0]
    if not (head.isascii() and (head.isalpha() or head == "_")):
        return False
    return all(
        c.isascii() and (c.isalnum() or c == "_") for c in name
    )


class _Instrument:
    """Shared plumbing: every instrument belongs to one family, under
    one label key (the key its mutations are forwarded under)."""

    __slots__ = ("_family", "_key")

    def __init__(
        self, family: "MetricFamily", key: Tuple[str, ...]
    ) -> None:
        self._family = family
        self._key = key


class Counter(_Instrument):
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(
        self, family: "MetricFamily", key: Tuple[str, ...]
    ) -> None:
        super().__init__(family, key)
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (>= 0) to the total; no-op when disabled."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self._family.name!r} cannot decrease "
                f"(inc({amount}))"
            )
        family = self._family
        if family._registry._enabled:
            with family._lock:
                self._value += amount
        if _GLOBAL._enabled and family._registry is not _GLOBAL:
            family._exported(self._key).inc(amount)

    @property
    def value(self) -> Number:
        """The raw (unscaled) accumulated total."""
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down; reports the last write."""

    __slots__ = ("_value",)

    def __init__(
        self, family: "MetricFamily", key: Tuple[str, ...]
    ) -> None:
        super().__init__(family, key)
        self._value: Number = 0

    def set(self, value: Number) -> None:
        """Overwrite the gauge; no-op when the registry is disabled."""
        family = self._family
        if family._registry._enabled:
            with family._lock:
                self._value = value
        if _GLOBAL._enabled and family._registry is not _GLOBAL:
            family._exported(self._key).set(value)

    @property
    def value(self) -> Number:
        """The raw (unscaled) current value."""
        return self._value


class Histogram(_Instrument):
    """A fixed-bucket distribution with an exact running sum.

    Observations land in the first bucket whose upper bound is >= the
    value (Prometheus ``le`` semantics); values above the last bound go
    to the implicit ``+Inf`` bucket.  The sum is accumulated with plain
    ``+`` — integer observations (e.g. nanoseconds) therefore stay
    exact at any magnitude.
    """

    __slots__ = ("_bucket_counts", "_sum", "_count")

    def __init__(
        self, family: "MetricFamily", key: Tuple[str, ...]
    ) -> None:
        super().__init__(family, key)
        self._bucket_counts = [0] * (len(family.buckets) + 1)
        self._sum: Number = 0
        self._count = 0

    def observe(self, value: Number) -> None:
        """Record one observation; no-op when the registry is disabled."""
        family = self._family
        if family._registry._enabled:
            index = bisect.bisect_left(family.buckets, value)
            with family._lock:
                self._bucket_counts[index] += 1
                self._sum += value
                self._count += 1
        if _GLOBAL._enabled and family._registry is not _GLOBAL:
            family._exported(self._key).observe(value)

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def sum(self) -> Number:
        """The raw (unscaled) exact sum of every observation."""
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is ``+Inf``."""
        with self._family._lock:
            return list(self._bucket_counts)


_KIND_FACTORY = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricFamily:
    """One named metric: shared metadata plus per-label-set children."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        kind: str,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[Number, ...]] = None,
        scale: float = 1.0,
    ) -> None:
        if not _valid_metric_name(name):
            raise ObservabilityError(
                f"invalid metric name {name!r} (want "
                f"[a-zA-Z_][a-zA-Z0-9_]*)"
            )
        for label in labelnames:
            if not _valid_metric_name(label):
                raise ObservabilityError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        if kind == HISTOGRAM:
            buckets = tuple(buckets or DURATION_BUCKETS_NS)
            if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
                buckets
            ):
                raise ObservabilityError(
                    f"histogram {name!r} buckets must be strictly "
                    f"increasing, got {buckets}"
                )
            if not buckets:
                raise ObservabilityError(
                    f"histogram {name!r} needs at least one bucket"
                )
        else:
            buckets = None
        self._registry = registry
        self._lock = registry._lock
        self.kind = kind
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.buckets: Tuple[Number, ...] = buckets or ()
        self.scale = scale
        self._children: Dict[
            Tuple[str, ...], Union[Counter, Gauge, Histogram]
        ] = {}
        # The same-named family on the global registry; declared on the
        # first forwarded mutation (families are never dropped, so the
        # reference stays valid — children are, so they are not kept).
        self._export_family: Optional["MetricFamily"] = None

    def _signature(self) -> tuple:
        return (
            self.kind, self.labelnames, self.buckets, self.scale,
        )

    def labels(self, **labelvalues: object):
        """The child instrument for one label value assignment.

        Children are created on first use and kept for the registry's
        lifetime (snapshot continuity); label values are stringified.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labelvalues)}"
            )
        return self._child(
            tuple(str(labelvalues[n]) for n in self.labelnames)
        )

    def _child(self, key: Tuple[str, ...]):
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _KIND_FACTORY[self.kind](self, key)
                    self._children[key] = child
        return child

    def _exported(self, key: Tuple[str, ...]):
        """The global registry's child for ``key``, looked up afresh."""
        target = self._export_family
        if target is None:
            target = _GLOBAL._family(
                self.kind, self.name, self.help, self.labelnames,
                buckets=self.buckets, scale=self.scale,
            )
            self._export_family = target
        return target._child(key)

    def children(self) -> Dict[Tuple[str, ...], object]:
        """A copy of the label-tuple -> instrument mapping."""
        with self._lock:
            return dict(self._children)

    def clear(self) -> None:
        """Drop every child (label sets disappear from snapshots)."""
        with self._lock:
            self._children.clear()

    def _scaled(self, value: Number) -> Number:
        return value if self.scale == 1.0 else value * self.scale

    def _sample(self, key: Tuple[str, ...], child) -> dict:
        labels = dict(zip(self.labelnames, key))
        if self.kind == HISTOGRAM:
            cumulative = 0
            rendered = []
            for bound, count in zip(
                self.buckets, child._bucket_counts
            ):
                cumulative += count
                rendered.append([self._scaled(bound), cumulative])
            rendered.append([None, child._count])  # +Inf
            return {
                "labels": labels,
                "buckets": rendered,
                "sum": self._scaled(child._sum),
                "count": child._count,
            }
        return {"labels": labels, "value": self._scaled(child._value)}

    def snapshot(self) -> dict:
        """Canonical snapshot of this family (samples label-sorted)."""
        with self._lock:
            samples = [
                self._sample(key, child)
                for key, child in sorted(self._children.items())
            ]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": samples,
        }


class MetricsRegistry:
    """A collection of metric families with one shared lock.

    ``enabled`` gates every mutation: instruments created from a
    disabled registry exist (and can be snapshotted — all zeros) but
    record nothing.  :func:`global_registry` returns the process-wide
    instance used by deep instrumentation sites, disabled by default;
    every other registry forwards its mutations there while it is
    enabled (see the module docstring).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}
        self._enabled = enabled

    # ------------------------------------------------------------------
    # Enablement
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether instruments bound to this registry record anything."""
        return self._enabled

    def enable(self) -> None:
        """Start recording."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording (existing values are kept; see :meth:`reset`)."""
        self._enabled = False

    # ------------------------------------------------------------------
    # Family declaration (idempotent)
    # ------------------------------------------------------------------
    def _family(
        self,
        kind: str,
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        buckets: Optional[Tuple[Number, ...]] = None,
        scale: float = 1.0,
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                candidate = MetricFamily(
                    self, kind, name, help_text, labelnames,
                    buckets=buckets, scale=scale,
                )
                if existing._signature() != candidate._signature():
                    raise ObservabilityError(
                        f"metric {name!r} re-declared with a different "
                        f"type/labels/buckets/scale"
                    )
                return existing
            family = MetricFamily(
                self, kind, name, help_text, labelnames,
                buckets=buckets, scale=scale,
            )
            self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        scale: float = 1.0,
    ) -> MetricFamily:
        """Get or declare a counter family."""
        return self._family(
            COUNTER, name, help_text, labelnames, scale=scale
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        scale: float = 1.0,
    ) -> MetricFamily:
        """Get or declare a gauge family."""
        return self._family(
            GAUGE, name, help_text, labelnames, scale=scale
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Tuple[Number, ...]] = None,
        scale: float = NS_TO_SECONDS,
    ) -> MetricFamily:
        """Get or declare a histogram family.

        Defaults to the fixed log-spaced nanosecond latency buckets with
        a seconds conversion applied only at snapshot time.
        """
        return self._family(
            HISTOGRAM, name, help_text, labelnames,
            buckets=buckets or DURATION_BUCKETS_NS, scale=scale,
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        """Every declared family, sorted by name."""
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family named ``name``, or ``None``."""
        return self._families.get(name)

    def snapshot(self) -> dict:
        """One canonical snapshot of every family (see the exporters)."""
        return {"families": [f.snapshot() for f in self.families()]}

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every value (keep families and label sets).

        ``prefix`` restricts the reset to families whose name starts
        with it — e.g. one subsystem's metrics on a shared registry.
        """
        with self._lock:
            for family in self._families.values():
                if prefix is not None and not family.name.startswith(
                    prefix
                ):
                    continue
                for child in family._children.values():
                    if isinstance(child, Histogram):
                        child._bucket_counts = [0] * (
                            len(family.buckets) + 1
                        )
                        child._sum = 0
                        child._count = 0
                    else:
                        child._value = 0

    def clear(self, prefix: Optional[str] = None) -> None:
        """Drop every child (label sets vanish; families stay declared).

        ``prefix`` restricts the clear like :meth:`reset`.
        """
        with self._lock:
            for family in self._families.values():
                if prefix is not None and not family.name.startswith(
                    prefix
                ):
                    continue
                family._children.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(enabled={self._enabled}, "
            f"families={len(self._families)})"
        )


#: The process-wide registry deep instrumentation records into and
#: every other registry forwards to.  Disabled by default: attaching an
#: exporter (CLI ``--metrics-out``) enables it for the duration of the
#: run.
_GLOBAL = MetricsRegistry(enabled=False)


def global_registry() -> MetricsRegistry:
    """The process-wide (default-disabled) registry."""
    return _GLOBAL
