"""Performance measurement utilities for the stack-distance kernels.

* :mod:`repro.perf.timing` — time every registered kernel on one trace and
  check agreement against the exact baseline (used by ``repro perf``).
* :mod:`repro.perf.shard` — the BENCH_shard benchmark: sharded LRU-Fit
  scaling over a paper-scale trace (per-worker wall/critical-path
  speedups, merged-vs-exact verdicts, sampled merge error), written to
  ``BENCH_shard.json``.
"""

from repro.perf.shard import (
    run_shard_benchmark,
    shard_timing,
    single_pass,
)
from repro.perf.timing import (
    KernelComparison,
    KernelTiming,
    compare_kernels,
    evaluation_band,
)

__all__ = [
    "KernelComparison",
    "KernelTiming",
    "compare_kernels",
    "evaluation_band",
    "run_shard_benchmark",
    "shard_timing",
    "single_pass",
]
