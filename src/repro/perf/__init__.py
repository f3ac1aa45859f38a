"""Performance measurement utilities for the stack-distance kernels.

:mod:`repro.perf.timing` times every registered kernel on one trace and
checks exact-kernel agreement against the baseline, and times one
sharded pass against one streamed pass by wall clock (both used by
``repro perf``).
"""

from repro.perf.timing import (
    KernelComparison,
    KernelTiming,
    compare_kernels,
    evaluation_band,
    shard_timing,
    single_pass,
)

__all__ = [
    "KernelComparison",
    "KernelTiming",
    "compare_kernels",
    "evaluation_band",
    "shard_timing",
    "single_pass",
]
