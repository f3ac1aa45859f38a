"""Performance measurement utilities for the stack-distance kernels.

* :mod:`repro.perf.timing` — time every registered kernel on one trace and
  check agreement against the exact baseline (used by ``repro perf``).
* :mod:`repro.perf.harness` — the reproducible BENCH_core benchmark:
  uniform and Zipf traces, per-kernel medians and speedups, and the
  acceptance criteria (numpy >= 3x when numpy imports, sampled >= 10x
  within its documented error bound), written to ``BENCH_core.json``.
* :mod:`repro.perf.shard` — the BENCH_shard benchmark: sharded LRU-Fit
  scaling over a paper-scale trace (per-worker wall/critical-path
  speedups, merged-vs-exact verdicts, sampled merge error), written to
  ``BENCH_shard.json``.
* :mod:`repro.perf.serving` — the BENCH_serving benchmark: micro-batched
  serving throughput vs the serial one-call baseline, plus the
  batched-vs-serial identity check and honest-shedding open-loop
  section, written to ``BENCH_serving.json``.
"""

from repro.perf.harness import (
    build_uniform_trace,
    build_zipf_trace,
    run_core_benchmark,
)
from repro.perf.serving import (
    provision_tenants,
    run_serving_benchmark,
    serial_baseline,
)
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
    "build_uniform_trace",
    "build_zipf_trace",
    "compare_kernels",
    "evaluation_band",
    "provision_tenants",
    "run_core_benchmark",
    "run_serving_benchmark",
    "run_shard_benchmark",
    "serial_baseline",
    "shard_timing",
    "single_pass",
]
