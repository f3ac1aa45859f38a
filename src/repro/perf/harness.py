"""The BENCH_core benchmark: kernel speedups recorded as JSON.

Runs every registered kernel over two deterministic traces — the classic
50,000-reference uniform bench trace (``random.Random(5)`` over 1,250
pages, the same fixture ``benchmarks/bench_core_performance.py`` uses) and
a Zipf-skewed variant — and writes per-kernel medians, speedups versus the
baseline, and error/agreement data to ``BENCH_core.json`` along with the
acceptance criteria:

* ``numpy`` at least 3x faster than ``baseline`` (only when numpy
  imports; without it the criterion does not apply);
* ``sampled`` at least 10x faster with max relative F(B) error on the
  evaluation band within the documented 5% bound.

``smoke=True`` shrinks the traces and repeats so the harness itself can run
inside the tier-1 test suite in well under a second; criteria are reported
but not meaningful at smoke scale (speedups need the full trace), so the
JSON records whether the run was a smoke run.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.buffer.kernels import (
    HAVE_NUMPY,
    SAMPLED_BAND_ERROR_BOUND,
    get_kernel,
)
from repro.datagen.zipf import zipf_counts
from repro.errors import KernelError
from repro.obs.metrics import global_registry
from repro.perf.timing import KernelComparison, compare_kernels

#: The canonical bench-trace shape (see benchmarks/bench_core_performance.py).
DEFAULT_TRACE_LENGTH = 50_000
DEFAULT_PAGES = 1_250
#: Zipf skew of the secondary trace (the paper's 80-20 rule).
DEFAULT_THETA = 0.86

_MIN_NUMPY_SPEEDUP = 3.0
_MIN_SAMPLED_SPEEDUP = 10.0


def build_uniform_trace(
    length: int = DEFAULT_TRACE_LENGTH,
    pages: int = DEFAULT_PAGES,
    seed: int = 5,
) -> List[int]:
    """The uniform bench trace (deterministic in ``seed``)."""
    rng = random.Random(seed)
    return [rng.randrange(pages) for _ in range(length)]


def build_zipf_trace(
    length: int = DEFAULT_TRACE_LENGTH,
    pages: int = DEFAULT_PAGES,
    theta: float = DEFAULT_THETA,
    seed: int = 11,
) -> List[int]:
    """A Zipf-skewed trace: per-page counts from the paper's generator,
    shuffled deterministically."""
    counts = zipf_counts(length, pages, theta)
    trace: List[int] = []
    for page, count in enumerate(counts):
        trace.extend([page] * count)
    random.Random(seed).shuffle(trace)
    return trace


#: The bound the overhead guard enforces: an *enabled* global registry
#: may slow the instrumented kernel hot path by at most this much.
INSTRUMENTATION_OVERHEAD_BOUND_PCT = 5.0

#: Trace shape for the overhead measurement; modest enough to stay
#: sub-second at smoke scale, large enough to dominate timer noise.
_OVERHEAD_TRACE_LENGTH = 8_000
_OVERHEAD_PAGES = 400


def measure_instrumentation_overhead(
    kernel: str = "baseline",
    trace_length: int = _OVERHEAD_TRACE_LENGTH,
    pages: int = _OVERHEAD_PAGES,
    repeats: int = 5,
) -> Dict:
    """Instrumented-vs-uninstrumented kernel throughput, as percent.

    Times the kernel's full analyze pass with the process-global
    registry disabled and enabled, taking the minimum of ``repeats``
    runs each (minimum-of-N is the standard noise filter for
    microbenchmarks — any one run can only be slowed by interference).
    The prior enabled/disabled state and any recorded values of the
    global registry are restored afterwards.
    """
    trace = build_uniform_trace(trace_length, pages, seed=7)
    impl = get_kernel(kernel)
    registry = global_registry()
    was_enabled = registry.enabled
    chunk = 1_024  # exercise the instrumented chunked feed path

    def _one_pass() -> None:
        stream = impl.stream()
        for i in range(0, len(trace), chunk):
            stream.feed(trace[i:i + chunk])
        stream.finish()

    def _pass_ns() -> int:
        best = None
        for _ in range(repeats):
            started = time.perf_counter_ns()
            _one_pass()
            elapsed = time.perf_counter_ns() - started
            if best is None or elapsed < best:
                best = elapsed
        return best

    try:
        registry.disable()
        _one_pass()  # warmup (allocator, caches)
        disabled_ns = _pass_ns()
        registry.enable()
        enabled_ns = _pass_ns()
    finally:
        if was_enabled:
            registry.enable()
        else:
            registry.disable()
            registry.clear(prefix="repro_kernel_")
    overhead_pct = (
        100.0 * (enabled_ns - disabled_ns) / disabled_ns
        if disabled_ns
        else 0.0
    )
    return {
        "kernel": kernel,
        "references": trace_length,
        "repeats": repeats,
        "disabled_ns": disabled_ns,
        "enabled_ns": enabled_ns,
        "overhead_pct": round(overhead_pct, 3),
        "bound_pct": INSTRUMENTATION_OVERHEAD_BOUND_PCT,
        "ok": overhead_pct <= INSTRUMENTATION_OVERHEAD_BOUND_PCT,
    }


def _comparison_dict(comparison: KernelComparison) -> Dict:
    """JSON-friendly rendering of one trace's kernel comparison."""
    return {
        "references": comparison.references,
        "distinct_pages": comparison.distinct_pages,
        "kernels": {
            t.kernel: {
                "exact": t.exact,
                "median_ns": t.median_ns,
                "median_ms": round(t.median_ns / 1e6, 3),
                "speedup_vs_baseline": round(t.speedup, 3),
                "max_rel_error_pct": round(t.max_rel_error_pct, 4),
                "agrees_with_baseline": t.agrees,
            }
            for t in comparison.timings
        },
    }


def run_core_benchmark(
    out_path: Optional[Path] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    pages: int = DEFAULT_PAGES,
    repeats: int = 5,
    kernels: Optional[Sequence[str]] = None,
    smoke: bool = False,
) -> Dict:
    """Run the core kernel benchmark; optionally write ``out_path``.

    Returns the full result document.  ``smoke=True`` shrinks everything
    for a sub-second structural run (used by the tier-1 suite).
    """
    if smoke:
        trace_length = min(trace_length, 4_000)
        pages = min(pages, 300)
        repeats = 1

    uniform = compare_kernels(
        build_uniform_trace(trace_length, pages), kernels, repeats
    )
    zipf = compare_kernels(
        build_zipf_trace(trace_length, pages), kernels, repeats
    )

    criteria: Dict = {
        "numpy_min_speedup": _MIN_NUMPY_SPEEDUP,
        "sampled_min_speedup": _MIN_SAMPLED_SPEEDUP,
        "sampled_max_band_error_pct": 100.0 * SAMPLED_BAND_ERROR_BOUND,
        "measured_on": "uniform",
        "meaningful": not smoke,
    }
    try:
        # Without numpy the numpy criterion does not apply.
        vectorized = uniform.timing("numpy") if HAVE_NUMPY else None
        sampled = uniform.timing("sampled")
        criteria.update(
            {
                "numpy_speedup": (
                    round(vectorized.speedup, 3) if vectorized else None
                ),
                "sampled_speedup": round(sampled.speedup, 3),
                "sampled_band_error_pct": round(
                    sampled.max_rel_error_pct, 4
                ),
                "passed": (
                    (
                        vectorized is None
                        or vectorized.speedup >= _MIN_NUMPY_SPEEDUP
                    )
                    and sampled.speedup >= _MIN_SAMPLED_SPEEDUP
                    and sampled.max_rel_error_pct
                    <= 100.0 * SAMPLED_BAND_ERROR_BOUND
                    and uniform.all_agree
                    and zipf.all_agree
                ),
            }
        )
    except KernelError:  # kernels filtered out: criteria not applicable
        criteria["passed"] = None

    # Observability guard: an enabled metrics registry must not slow the
    # kernel hot path by more than the documented bound.  Measured even
    # in smoke runs (the measurement is minimum-of-N over its own fixed
    # trace, so it stays meaningful at smoke scale).
    try:
        instrumentation = measure_instrumentation_overhead(
            repeats=2 if smoke else 5
        )
    except KernelError:  # baseline filtered out of a custom kernel set
        instrumentation = None

    document = {
        "schema": 1,
        "generated_by": "benchmarks/run_core_bench.py",
        "config": {
            "trace_length": trace_length,
            "pages": pages,
            "repeats": repeats,
            "uniform_seed": 5,
            "zipf_seed": 11,
            "zipf_theta": DEFAULT_THETA,
            "smoke": smoke,
        },
        "traces": {
            "uniform": _comparison_dict(uniform),
            "zipf": _comparison_dict(zipf),
        },
        "criteria": criteria,
        "instrumentation": instrumentation,
    }
    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(
            json.dumps(document, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
    return document
