"""The advisory pipeline: curves → allocation → oracle → pricing.

:func:`advise` is the one entry point every surface shares — the
``repro advise`` CLI, the serving tier's ``advise`` request, and direct
library use all call it with an :class:`AdvisorSpec` and get back an
:class:`AdvisorReport` whose :meth:`~AdvisorReport.to_dict` is pure and
deterministic (sorted keys, plain floats).  Byte-identity between the
offline CLI path and the multi-tenant server path is pinned in tests on
exactly that property.

Per budget point the pipeline runs greedy marginal-gain allocation over
the fleet's convex envelopes and — in ``auto``/``always`` oracle mode —
differentially verifies it against the exhaustive DP.  A mismatch is a
*bug*, not a degraded answer: it raises :class:`AdvisorError` after
counting ``repro_advisor_oracle_checks_total{result="mismatch"}``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.advisor.allocator import (
    AllocationResult,
    dp_allocate,
    greedy_allocate,
    oracle_applicable,
)
from repro.advisor.curves import FleetCurve, evaluate_fleet
from repro.advisor.pricing import FleetPricing, price_allocation
from repro.advisor.workload import AdvisorSpec
from repro.catalog.catalog import SystemCatalog
from repro.catalog.store import CatalogStore
from repro.engine.engine import EstimationEngine
from repro.errors import AdvisorError
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span as obs_span

#: Default budget sweep, as fractions of the fleet's total table pages.
DEFAULT_SWEEP_FRACTIONS = (
    (1, 8), (1, 4), (1, 2), (3, 4), (1, 1),
)


@dataclass(frozen=True)
class SweepPoint:
    """One budget point of the sweep: allocation, oracle verdict, price."""

    budget: int
    allocation: AllocationResult
    oracle: str
    pricing: FleetPricing

    def to_dict(self) -> dict:
        """One JSON-ready sweep row: allocation, pricing, oracle verdict."""
        doc = self.pricing.to_dict()
        doc["pages"] = {
            name: self.allocation.pages[name]
            for name in sorted(self.allocation.pages)
        }
        doc["envelope_total_rate"] = float(self.allocation.total)
        doc["oracle"] = self.oracle
        return doc


@dataclass(frozen=True)
class AdvisorReport:
    """The full advisory: spec echo, per-index curves, budget sweep."""

    spec: AdvisorSpec
    curves: Dict[str, FleetCurve]
    sweep: Tuple[SweepPoint, ...]

    def to_dict(self) -> dict:
        """Deterministic JSON-ready form (the wire/`--out` payload)."""
        return {
            "spec": self.spec.to_dict(),
            "break_even_interval_s": (
                self.spec.costs.break_even_interval_s()
            ),
            "fleet": {
                name: {
                    "policy": curve.policy,
                    "table_pages": curve.table_pages,
                    "cap": curve.cap,
                    "unconstrained_rate": curve.rate_at(0),
                }
                for name, curve in sorted(self.curves.items())
            },
            "sweep": [point.to_dict() for point in self.sweep],
        }

    def to_json(self) -> str:
        """Canonical one-line JSON (the byte-identity form)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )


def default_budget_sweep(
    engine: EstimationEngine, spec: AdvisorSpec
) -> Tuple[int, ...]:
    """Budget sweep derived from the fleet's total table pages.

    Used when the spec lists no budgets: fractions
    :data:`DEFAULT_SWEEP_FRACTIONS` of ``Σ table_pages``, deduplicated
    (tiny fleets collapse adjacent fractions to the same page count).
    """
    total = 0
    for workload in spec.fleet:
        try:
            total += engine.statistics(workload.index).table_pages
        except Exception as exc:
            raise AdvisorError(
                f"fleet index {workload.index!r} is not in the "
                f"catalog: {exc}"
            ) from exc
    return tuple(
        sorted({
            max(1, total * num // den)
            for num, den in DEFAULT_SWEEP_FRACTIONS
        })
    )


def _check_oracle(
    envelopes: Dict[str, tuple],
    budget: int,
    greedy: AllocationResult,
    mode: str,
) -> str:
    """Run the DP oracle per the spec's mode; return the verdict label."""
    if mode == "never":
        return "skipped"
    if mode == "auto" and not oracle_applicable(envelopes, budget):
        return "skipped"
    oracle = dp_allocate(envelopes, budget)
    if (
        oracle.total == greedy.total
        and dict(oracle.pages) == dict(greedy.pages)
    ):
        return "match"
    return "mismatch"


def advise(
    source: Union[
        EstimationEngine, SystemCatalog, CatalogStore, str, Path
    ],
    spec: AdvisorSpec,
    registry: Optional[MetricsRegistry] = None,
    path: str = "library",
) -> AdvisorReport:
    """Produce a budget-sweep advisory for ``spec``'s fleet.

    ``source`` is anything :class:`EstimationEngine` accepts, or an
    already-built engine (the serving tier passes its per-tenant one so
    advisories see exactly the catalog that tenant's estimates see).
    ``path`` labels ``repro_advisor_runs_total`` (``cli``, ``serving``,
    ``library``); the advisor families record on ``registry``, the
    process-global one by default.
    """
    if not isinstance(source, EstimationEngine):
        source = EstimationEngine(source)
    oracle_checks = instruments.advisor_oracle_checks(registry)
    started = time.perf_counter_ns()
    with obs_span("advise", fleet=len(spec.fleet), path=path):
        budgets = spec.budgets or default_budget_sweep(source, spec)
        with obs_span("advise-curves", indexes=len(spec.fleet)):
            curves = evaluate_fleet(source, spec, max(budgets))
        points = sum(
            curve.cap * len(spec.workload_for(name).classes)
            for name, curve in curves.items()
        )
        envelopes = {
            name: curve.envelope for name, curve in curves.items()
        }
        sweep = []
        for budget in budgets:
            with obs_span("advise-allocate", budget=budget):
                allocation = greedy_allocate(envelopes, budget)
                verdict = _check_oracle(
                    envelopes, budget, allocation, spec.oracle
                )
            oracle_checks.labels(result=verdict).inc()
            if verdict == "mismatch":
                raise AdvisorError(
                    f"greedy/DP oracle divergence at budget {budget}: "
                    f"greedy={dict(allocation.pages)} "
                    f"total={float(allocation.total)!r}"
                )
            with obs_span("advise-price", budget=budget):
                pricing = price_allocation(
                    curves, allocation.pages, budget, spec.costs
                )
            sweep.append(
                SweepPoint(
                    budget=budget,
                    allocation=allocation,
                    oracle=verdict,
                    pricing=pricing,
                )
            )
    elapsed = time.perf_counter_ns() - started
    instruments.advisor_runs(registry).labels(path=path).inc()
    instruments.advisor_curve_points(registry).labels().inc(points)
    instruments.advisor_allocation_seconds(registry).labels().observe(
        elapsed
    )
    return AdvisorReport(
        spec=spec, curves=curves, sweep=tuple(sweep)
    )
