"""The BENCH_shard benchmark: sharded LRU-Fit scaling as JSON.

Times a single-process pass of one kernel (the registry default) over a
paper-scale trace (see :mod:`repro.trace.paper_scale`), then a sharded
pass at each requested worker count (``shards == workers``), and writes
the scaling curve to ``BENCH_shard.json``:

* per-worker wall time, per-shard feed times, and merge time;
* speedup versus the single-process pass, both as measured wall clock
  and as the pass's *critical path* (slowest shard + merge) — the wall
  speedup a machine with enough cores would observe;
* whether the merged curve is fetch-for-fetch identical to the
  single-pass exact curve (it must be);
* the sampled kernel's merged-curve band error versus the exact curve.

Wall-clock speedup only materializes when the host actually has cores to
run shards on, so the acceptance criteria record a ``basis``: ``wall``
on hosts with >= 4 cores, ``critical_path`` otherwise (the profile of a
sharded pass is deterministic work, so the critical path is a faithful
stand-in on starved CI runners).  On a critical-path basis the shards
are timed *serially* — a fork pool wider than the core count would
contend with itself and inflate every per-shard time, corrupting the
very quantity being estimated.  The gates: >= 2.5x at 4 workers on a
full run, >= 1.2x at 2 workers on a smoke run.

``smoke=True`` shrinks the trace and worker set so the harness runs
inside the tier-1 suite in about a second; criteria are computed but
flagged not meaningful (speedups need the full trace).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.buffer.kernels import (
    DEFAULT_KERNEL,
    SAMPLED_BAND_ERROR_BOUND,
    get_kernel,
    run_sharded_pass,
)
from repro.perf.timing import evaluation_band
from repro.trace.paper_scale import (
    PAPER_SCALE_PAGES,
    PAPER_SCALE_REFS,
    paper_scale_source,
)

DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)

#: Full-run gate: wall (or critical-path) speedup at 4 workers.
MIN_SPEEDUP_AT_4_WORKERS = 2.5
#: Smoke-run gate: speedup at 2 workers.
MIN_SMOKE_SPEEDUP_AT_2_WORKERS = 1.2
#: Hosts with fewer cores than this are judged on the critical path.
_WALL_BASIS_MIN_CORES = 4

_SMOKE_REFS = 60_000
_SMOKE_PAGES = 2_000
_SMOKE_WORKER_COUNTS = (1, 2)


def single_pass(kernel: str, source) -> Dict:
    """One-shot streamed pass over ``source``: curve plus wall time.

    Streams the source's chunks through the kernel exactly the way each
    shard worker does, so shard generation cost is charged to both sides
    of the speedup equally.
    """
    stream = get_kernel(kernel).stream()
    started = time.perf_counter_ns()
    for chunk in source.chunks(0, source.total_refs):
        stream.feed(chunk)
    curve = stream.finish()
    wall_ns = time.perf_counter_ns() - started
    return {"kernel": kernel, "curve": curve, "wall_ns": wall_ns}


def shard_timing(
    source,
    shards: int,
    workers: int,
    kernel: str = DEFAULT_KERNEL,
    exact_curve=None,
) -> Dict:
    """One sharded pass, profiled into a JSON-friendly row.

    ``exact_curve`` (the single-pass curve) enables the
    ``merged_equals_exact`` verdict; the row's ``curve`` key carries the
    merged curve for callers that compare further.
    """
    started = time.perf_counter_ns()
    result = run_sharded_pass(source, shards, workers=workers, kernel=kernel)
    wall_ns = time.perf_counter_ns() - started
    critical_ns = max(result.per_shard_feed_ns) + result.merge_ns
    row = {
        "workers": workers,
        "shards": result.shards,
        "wall_ns": wall_ns,
        "wall_ms": round(wall_ns / 1e6, 3),
        "per_shard_feed_ms": [
            round(ns / 1e6, 3) for ns in result.per_shard_feed_ns
        ],
        "merge_ms": round(result.merge_ns / 1e6, 3),
        "critical_path_ns": critical_ns,
        "critical_path_ms": round(critical_ns / 1e6, 3),
        "seam_reuses": (
            result.seam.seam_reuses if result.seam is not None else None
        ),
        "curve": result.curve,
    }
    if exact_curve is not None:
        row["merged_equals_exact"] = result.curve == exact_curve
    return row


def _band_error(curve, band: Sequence[int], exact_fetches) -> float:
    """Worst relative F(B) deviation from the exact curve, as a ratio."""
    return max(
        abs(curve.fetches(b) - f) / f
        for b, f in zip(band, exact_fetches)
        if f
    )


def run_shard_benchmark(
    out_path: Optional[Path] = None,
    refs: int = PAPER_SCALE_REFS,
    pages: int = PAPER_SCALE_PAGES,
    pattern: str = "zipf",
    seed: int = 0,
    kernel: str = DEFAULT_KERNEL,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    smoke: bool = False,
) -> Dict:
    """Run the shard scaling benchmark; optionally write ``out_path``.

    Returns the full result document.  ``smoke=True`` shrinks everything
    for a roughly one-second structural run (used by the tier-1 suite
    and the CI shard stage).
    """
    if smoke:
        refs = min(refs, _SMOKE_REFS)
        pages = min(pages, _SMOKE_PAGES)
        worker_counts = _SMOKE_WORKER_COUNTS
    worker_counts = tuple(worker_counts)
    host_cores = os.cpu_count() or 1
    basis = (
        "wall" if host_cores >= _WALL_BASIS_MIN_CORES else "critical_path"
    )
    source = paper_scale_source(
        pattern=pattern, refs=refs, pages=pages, seed=seed
    )

    reference = single_pass(kernel, source)
    single_ns = reference["wall_ns"]
    exact_curve = reference["curve"]
    band = evaluation_band(exact_curve.distinct_pages)
    exact_fetches = [exact_curve.fetches(b) for b in band]

    rows: List[Dict] = []
    for workers in worker_counts:
        # On a critical-path basis, time shards serially: a pool wider
        # than the core count contends with itself and inflates the
        # per-shard times the critical path is computed from.
        pool_workers = workers if basis == "wall" else 1
        row = shard_timing(
            source, workers, pool_workers, kernel, exact_curve=exact_curve
        )
        row.pop("curve")
        row["workers"] = workers
        row["pool_workers"] = pool_workers
        row["speedup_wall"] = round(single_ns / row["wall_ns"], 3)
        row["speedup_critical_path"] = round(
            single_ns / row["critical_path_ns"], 3
        )
        rows.append(row)

    # Sampled merge quality: a sharded sampled pass at the widest shard
    # count must reproduce the single sampled pass bit for bit (the
    # merge-correctness claim, valid at any scale); its band error
    # versus the exact curve is the sampled kernel's own documented
    # error, only meaningful at full trace scale.
    sampled_shards = max(worker_counts)
    sampled_single = single_pass("sampled", source)
    sampled_row = shard_timing(source, sampled_shards, 1, "sampled")
    sampled_curve = sampled_row.pop("curve")
    sampled_merge_exact = sampled_curve == sampled_single["curve"]
    sampled_error = _band_error(sampled_curve, band, exact_fetches)

    speedup_key = (
        "speedup_wall" if basis == "wall" else "speedup_critical_path"
    )
    by_workers = {row["workers"]: row for row in rows}
    gate_workers = 2 if smoke else 4
    gate_min = (
        MIN_SMOKE_SPEEDUP_AT_2_WORKERS if smoke
        else MIN_SPEEDUP_AT_4_WORKERS
    )
    gate_row = by_workers.get(gate_workers)
    gate_speedup = gate_row[speedup_key] if gate_row else None
    merged_exact_everywhere = all(
        row["merged_equals_exact"] for row in rows
    )
    criteria = {
        "basis": basis,
        "host_cores": host_cores,
        "gate_workers": gate_workers,
        "min_speedup": gate_min,
        "speedup": gate_speedup,
        "merged_exact_everywhere": merged_exact_everywhere,
        "sampled_merge_exact": sampled_merge_exact,
        "sampled_band_error_pct": round(100.0 * sampled_error, 4),
        "sampled_max_band_error_pct": 100.0 * SAMPLED_BAND_ERROR_BOUND,
        "meaningful": not smoke,
        "passed": (
            merged_exact_everywhere
            and sampled_merge_exact
            # The sampled kernel's band error needs the full trace scale
            # to be meaningful; at smoke scale only the bit-identity of
            # the merge is judged.
            and (smoke or sampled_error <= SAMPLED_BAND_ERROR_BOUND)
            and gate_speedup is not None
            and gate_speedup >= gate_min
        ),
    }

    document = {
        "schema": 1,
        "generated_by": "benchmarks/run_shard_bench.py",
        "config": {
            "refs": refs,
            "pages": pages,
            "pattern": pattern,
            "seed": seed,
            "kernel": kernel,
            "worker_counts": list(worker_counts),
            "smoke": smoke,
            "host_cores": host_cores,
        },
        "single_pass": {
            "kernel": kernel,
            "wall_ns": single_ns,
            "wall_ms": round(single_ns / 1e6, 3),
        },
        "sharded": rows,
        "sampled": {
            "shards": sampled_shards,
            "wall_ms": sampled_row["wall_ms"],
            "merge_ms": sampled_row["merge_ms"],
            "merged_equals_single_pass": sampled_merge_exact,
            "band_error_pct": round(100.0 * sampled_error, 4),
            "bound_pct": 100.0 * SAMPLED_BAND_ERROR_BOUND,
        },
        "criteria": criteria,
    }
    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(
            json.dumps(document, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
    return document
