#!/usr/bin/env python
"""Run the shard scaling benchmark and write BENCH_shard.json.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_shard_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_shard_bench.py --smoke    # structure only

The full run streams a paper-scale trace (10^7 references over 200k
pages) through a single-process pass of the default kernel and through
sharded passes at 1/2/4/8 workers, recording wall and critical-path
speedups, the merged-vs-exact verdict at every worker count, and the
sampled kernel's merged-curve band error.  The acceptance gate
(speedup >= 2.5x at 4 workers; >= 1.2x at 2 workers under --smoke) is
judged on wall clock when the host has >= 4 cores and on the critical
path otherwise — see src/repro/perf/shard.py.  A merged curve that
diverges from the exact single pass fails the run on any host.

``--smoke`` shrinks the trace and worker set to a roughly one-second
structural check — the same mode the tier-1 suite and the CI shard
stage exercise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.shard import (  # noqa: E402 (path bootstrap above)
    DEFAULT_KERNEL,
    DEFAULT_WORKER_COUNTS,
    run_shard_benchmark,
)
from repro.trace.paper_scale import (  # noqa: E402
    PAPER_SCALE_PAGES,
    PAPER_SCALE_REFS,
)


def main(argv=None) -> int:
    """Parse arguments, run the benchmark, print a summary table."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_shard.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--refs", type=int, default=PAPER_SCALE_REFS)
    parser.add_argument("--pages", type=int, default=PAPER_SCALE_PAGES)
    parser.add_argument("--pattern", choices=("zipf", "clustered"),
                        default="zipf")
    parser.add_argument("--kernel", default=DEFAULT_KERNEL)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=list(DEFAULT_WORKER_COUNTS),
                        help="worker counts to scale over")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trace, two worker counts "
                             "(structural check)")
    args = parser.parse_args(argv)

    document = run_shard_benchmark(
        out_path=args.out,
        refs=args.refs,
        pages=args.pages,
        pattern=args.pattern,
        seed=args.seed,
        kernel=args.kernel,
        worker_counts=args.workers,
        smoke=args.smoke,
    )
    single = document["single_pass"]
    print(
        f"single-pass {single['kernel']}: {single['wall_ms']:10.1f} ms"
    )
    for row in document["sharded"]:
        print(
            f"{row['workers']:2d} workers  "
            f"wall {row['wall_ms']:10.1f} ms ({row['speedup_wall']:5.2f}x)"
            f"  critical path {row['critical_path_ms']:10.1f} ms "
            f"({row['speedup_critical_path']:5.2f}x)  "
            f"merge {row['merge_ms']:7.1f} ms  "
            f"{'exact' if row['merged_equals_exact'] else 'DIVERGED'}"
        )
    sampled = document["sampled"]
    print(
        f"sampled merge ({sampled['shards']} shards): "
        f"{'bit-identical' if sampled['merged_equals_single_pass'] else 'DIVERGED'}"
        f", band error {sampled['band_error_pct']:.2f}% "
        f"(bound {sampled['bound_pct']:.0f}%)"
    )
    criteria = document["criteria"]
    print(
        f"criteria passed: {criteria['passed']} "
        f"(basis {criteria['basis']}, {criteria['host_cores']} cores, "
        f"{criteria['speedup']}x at {criteria['gate_workers']} workers, "
        f"min {criteria['min_speedup']}x)  -> {args.out}"
    )
    # Merge correctness is enforced on every host; the speedup gate is
    # already basis-adjusted for starved runners inside the criteria.
    if not (
        criteria["merged_exact_everywhere"]
        and criteria["sampled_merge_exact"]
    ):
        return 1
    return 0 if criteria["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
