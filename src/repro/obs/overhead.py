"""The instrumentation-overhead gate: an enabled registry costs <= 5 %.

Times the ``baseline`` kernel's chunked stream over a fixed
8,000-reference uniform trace with the process-global registry disabled
and then enabled, in interleaved pairs, and reports the median of the
per-pair ratios as a percentage.  A slow spell on the host then lands
inside one pair and moves one ratio, instead of reading as overhead the
way comparing a block of disabled passes with a later block of enabled
passes does.  ``baseline`` runs with or without numpy.

Run it as a script; it takes no options, prints one line and exits 1
when the overhead is over the bound::

    python -m repro.obs.overhead
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
import time
from typing import Dict, List, Optional

from repro.buffer.kernels import get_kernel
from repro.errors import ObservabilityError
from repro.obs.metrics import global_registry

#: The bound the gate enforces: an *enabled* global registry may slow
#: the instrumented kernel hot path by at most this much.
INSTRUMENTATION_OVERHEAD_BOUND_PCT = 5.0

KERNEL = "baseline"
#: Trace shape: large enough that a pass dominates timer noise, small
#: enough that the whole measurement takes about a second.
TRACE_LENGTH = 8_000
PAGES = 400
#: Disabled/enabled pairs; the report is the median of their ratios.
PAIRS = 9
#: Feed chunk size, so the measurement exercises the chunked feed path.
_CHUNK = 1_024


def measure_instrumentation_overhead() -> Dict:
    """Enabled-vs-disabled registry cost of one kernel pass, as percent.

    The global registry must be disabled on entry, as it is in a fresh
    process: the enabled passes record into it, and on an enabled
    registry those records would land among the live values.  Raises
    :class:`~repro.errors.ObservabilityError` otherwise.  On return the
    registry is disabled again and its ``repro_kernel_`` families, which
    the enabled passes recorded into, are cleared.
    """
    registry = global_registry()
    if registry.enabled:
        raise ObservabilityError(
            "the global metrics registry is enabled; the overhead "
            "measurement would record its own passes into it"
        )
    rng = random.Random(7)
    trace = [rng.randrange(PAGES) for _ in range(TRACE_LENGTH)]
    impl = get_kernel(KERNEL)

    def _pass_ns() -> int:
        started = time.perf_counter_ns()
        stream = impl.stream()
        for i in range(0, len(trace), _CHUNK):
            stream.feed(trace[i:i + _CHUNK])
        stream.finish()
        return time.perf_counter_ns() - started

    ratios: List[float] = []
    # A garbage collection landing in one pass of a pair would read as
    # that pass's cost, so collections run only between pairs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _pass_ns()  # warmup (allocator, caches)
        for _ in range(PAIRS):
            gc.collect()
            disabled_ns = _pass_ns()
            registry.enable()
            enabled_ns = _pass_ns()
            registry.disable()
            ratios.append(enabled_ns / disabled_ns)
    finally:
        if gc_was_enabled:
            gc.enable()
        registry.disable()
        registry.clear(prefix="repro_kernel_")
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    return {
        "kernel": KERNEL,
        "references": TRACE_LENGTH,
        "pairs": PAIRS,
        "overhead_pct": round(overhead_pct, 3),
        "bound_pct": INSTRUMENTATION_OVERHEAD_BOUND_PCT,
        "ok": overhead_pct <= INSTRUMENTATION_OVERHEAD_BOUND_PCT,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Measure, print one line, and return 0 within the bound, else 1."""
    argparse.ArgumentParser(
        prog="python -m repro.obs.overhead",
        description="Gate the metrics registry's cost on the kernel "
        "hot path (no options).",
    ).parse_args(argv)
    report = measure_instrumentation_overhead()
    print(
        f"instrumentation overhead: {report['overhead_pct']:+.2f}% "
        f"(bound {report['bound_pct']:.0f}%, median of "
        f"{report['pairs']} pairs, {report['kernel']} kernel, "
        f"{report['references']} refs)  "
        f"{'ok' if report['ok'] else 'OVER BUDGET'}"
    )
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
