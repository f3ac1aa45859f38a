"""Deterministic builders shared by test modules.

* :func:`build_uniform_trace` and :func:`build_zipf_trace` — the two
  50,000-reference, 1,250-page kernel traces (uniform, and Zipf 0.86
  shuffled) that the sampled kernel's band-error tests run on.
* :func:`provision_tenants` — fitted per-tenant catalogs laid out the
  way ``repro serve``/``repro loadgen`` discover them.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import List

from repro.catalog.catalog import SystemCatalog
from repro.datagen.synthetic import SyntheticSpec, build_synthetic_dataset
from repro.datagen.zipf import zipf_counts
from repro.estimators.epfis import LRUFit
from repro.serving.tenants import TenantCatalogs

TRACE_LENGTH = 50_000
TRACE_PAGES = 1_250
#: Zipf skew of the skewed trace (the paper's 80-20 rule).
TRACE_THETA = 0.86


def build_uniform_trace(
    length: int = TRACE_LENGTH, pages: int = TRACE_PAGES
) -> List[int]:
    """The uniform kernel trace (``random.Random(5)`` page draws)."""
    rng = random.Random(5)
    return [rng.randrange(pages) for _ in range(length)]


def build_zipf_trace(
    length: int = TRACE_LENGTH, pages: int = TRACE_PAGES
) -> List[int]:
    """A Zipf-skewed trace: per-page counts from the paper's generator,
    shuffled by ``random.Random(11)``."""
    counts = zipf_counts(length, pages, TRACE_THETA)
    trace: List[int] = []
    for page, count in enumerate(counts):
        trace.extend([page] * count)
    random.Random(11).shuffle(trace)
    return trace


def provision_tenants(
    root: Path,
    tenant_count: int,
    records: int,
    seed: int = 0,
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
        stats = LRUFit().run(dataset.index)
        catalog = SystemCatalog()
        catalog.put(stats)
        for j in range(catalog_breadth - 1):
            catalog.put(dataclasses.replace(
                stats, index_name=f"{stats.index_name}.cold{j}"
            ))
        tenants.save(f"tenant-{k}", catalog)
    return tenants
