#!/usr/bin/env python
"""Run the core kernel benchmark and write BENCH_core.json.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_core_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_core_bench.py --smoke    # structure only

The full run takes a couple of minutes (five repeats of every kernel over
two 50,000-reference traces) and records the acceptance criteria: numpy
>= 3x over baseline (when numpy imports), sampled >= 10x within its
documented 5% band error.
``--smoke`` shrinks everything for a sub-second structural check — the same
mode the tier-1 test suite exercises.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.harness import (  # noqa: E402 (path bootstrap above)
    DEFAULT_PAGES,
    DEFAULT_TRACE_LENGTH,
    run_core_benchmark,
)


def main(argv=None) -> int:
    """Parse arguments, run the benchmark, print a one-line summary."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_core.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--trace-length", type=int,
                        default=DEFAULT_TRACE_LENGTH)
    parser.add_argument("--pages", type=int, default=DEFAULT_PAGES)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces, one repeat (structural check)")
    args = parser.parse_args(argv)

    document = run_core_benchmark(
        out_path=args.out,
        trace_length=args.trace_length,
        pages=args.pages,
        repeats=args.repeats,
        smoke=args.smoke,
    )
    criteria = document["criteria"]
    kernels = document["traces"]["uniform"]["kernels"]
    for name, row in kernels.items():
        print(
            f"{name:9s} {row['median_ms']:9.2f} ms  "
            f"{row['speedup_vs_baseline']:6.2f}x  "
            f"err {row['max_rel_error_pct']:6.2f}%  "
            f"{'ok' if row['agrees_with_baseline'] else 'MISMATCH'}"
        )
    instrumentation = document.get("instrumentation")
    if instrumentation is not None:
        print(
            f"instrumentation overhead: "
            f"{instrumentation['overhead_pct']:+.2f}% "
            f"(bound {instrumentation['bound_pct']:.0f}%)  "
            f"{'ok' if instrumentation['ok'] else 'OVER BUDGET'}"
        )
    print(f"criteria passed: {criteria.get('passed')}  -> {args.out}")
    # The instrumentation bound is enforced even in smoke runs: the
    # overhead measurement uses its own fixed trace and stays meaningful
    # at smoke scale, unlike the kernel speedup criteria.
    if instrumentation is not None and not instrumentation["ok"]:
        return 1
    return 0 if criteria.get("passed") or args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
