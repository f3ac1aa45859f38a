"""Command-line interface: ``python -m repro <command>``.

Commands mirror how a DBA would interact with EPFIS:

* ``generate``  — build a synthetic dataset and report its vital signs.
* ``fit``       — run LRU-Fit on a generated dataset and write the catalog.
* ``estimate``  — query a saved catalog for page-fetch estimates.
* ``experiment``— run one error-behaviour experiment (a paper figure).
* ``gwl``       — build the simulated GWL database and print Tables 2-3.
* ``locality``  — profile a dataset's index-order trace locality.
* ``contention``— simulate concurrent scans sharing one LRU pool.
* ``perf``      — time one LRU-Fit pass per stack-distance kernel.
* ``verify``    — run the differential verification harness (LRU oracle
  cross-checks, metamorphic invariants, golden-fixture regression).
* ``serve``     — serve estimates over NDJSON/TCP with micro-batching
  across per-tenant catalog namespaces (see :mod:`repro.serving`).
* ``loadgen``   — drive a deterministic closed- or open-loop load
  against the serving tier and report p50/p99 latency and QPS.
* ``refresh``   — run the online catalog refresh loop (windowed
  decayed fit, drift detection, breaker-guarded roll-forward with
  rollback) against a synthetic live feed — see :mod:`repro.refresh`.
* ``advise``    — fleet-wide buffer capacity planning: allocate a total
  page budget across a catalog's indexes by marginal fetch reduction
  (greedy over convexified PF(B) curves, DP-oracle-verified) and price
  the result with the five-minute rule — see :mod:`repro.advisor`.
* ``metrics``   — print the standard metric-family schema this build
  exports (Prometheus text or canonical JSONL).

``fit``, ``estimate``, ``experiment``, ``verify``, ``serve``,
``loadgen``, ``refresh``, and ``advise`` additionally take
``--metrics-out FILE`` (export every metric recorded during the run;
``-`` for stdout; format by extension or ``--metrics-format``) and
``--trace-out FILE`` (stream the run's span tree as JSON lines) — see
:mod:`repro.obs`.  When an export targets stdout (``-``) the command's
human-readable report moves to stderr so stdout stays machine-parseable
(``repro experiment --metrics-out - | promcheck -`` just works).
Without these flags the observability layer stays disabled and costs
nothing.

``fit`` and ``experiment`` accept ``--policy`` to run the statistics
pass under a non-LRU replacement policy kernel (``clock``, ``2q``,
``lecar-tinylfu``); the fitted curve and the catalog record carry the
policy, and ``estimate --policy`` asserts a served record was fitted
under the expected one.  ``experiment --policy-ablation`` skips the
error-behaviour experiment and instead prints the LRU-drift table (how
far each policy's fetch curve departs from the LRU curve per trace
family) — see :mod:`repro.eval.ablation`.

Every command is deterministic given its ``--seed``.  ``experiment`` is a
thin builder over the declarative :class:`~repro.eval.spec.ExperimentSpec`:
the positional flags construct a spec, ``--spec FILE`` runs a saved one,
and ``--save-spec FILE`` writes the flags out as a spec file — the three
paths produce byte-identical output for equivalent parameters.
``estimate`` serves from a saved catalog through the
:class:`~repro.engine.EstimationEngine`, so any registered estimator
(``--estimator``) can answer, not just EPFIS; ``--fallback`` arms the
engine's degraded-mode chain so a failing estimator is answered by the
next name instead of an error.

Long statistics passes survive interruption: ``fit`` and ``experiment``
accept ``--checkpoint DIR`` (periodic atomic snapshots of the kernel
state) and ``--resume`` (continue an interrupted pass from the latest
snapshot); a resumed run produces byte-identical results — see
:mod:`repro.resilience.checkpoint`.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.buffer.kernels import available_kernels, available_policy_kernels
from repro.catalog.catalog import SystemCatalog
from repro.datagen.gwl import build_gwl_database
from repro.datagen.synthetic import SyntheticSpec, build_synthetic_dataset
from repro.engine import EstimationEngine
from repro.errors import ReproError
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.estimators.registry import (
    PAPER_ESTIMATOR_NAMES,
    available_estimators,
)
from repro.eval.figures import table2_rows, table3_rows
from repro.eval.report import format_table
from repro.eval.spec import ExperimentSpec, run_experiment_spec
from repro.obs.metrics import global_registry
from repro.obs.session import observability_session
from repro.types import ScanSelectivity


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--records", type=int, default=100_000,
                        help="number of records N (default 100000)")
    parser.add_argument("--distinct", type=int, default=1_000,
                        help="distinct key values I (default 1000)")
    parser.add_argument("--records-per-page", type=int, default=40,
                        help="records per page R (default 40)")
    parser.add_argument("--theta", type=float, default=0.0,
                        help="generalized Zipf skew (0 = uniform)")
    parser.add_argument("--window", type=float, default=0.2,
                        help="window clustering parameter K in [0, 1]")
    parser.add_argument("--noise", type=float, default=0.05,
                        help="placement noise factor (default 0.05)")
    parser.add_argument("--seed", type=int, default=0)


def _spec_from_args(args: argparse.Namespace) -> SyntheticSpec:
    return SyntheticSpec(
        records=args.records,
        distinct_values=args.distinct,
        records_per_page=args.records_per_page,
        theta=args.theta,
        window=args.window,
        noise=args.noise,
        seed=args.seed,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = build_synthetic_dataset(_spec_from_args(args))
    stats = LRUFit().run(dataset.index)
    print(
        format_table(
            ["property", "value"],
            [
                ("dataset", dataset.name),
                ("pages (T)", stats.table_pages),
                ("records (N)", stats.table_records),
                ("distinct keys (I)", stats.distinct_keys),
                ("clustering factor (C)", f"{stats.clustering_factor:.4f}"),
                ("fetches at B_min", stats.f_min),
                ("fetches at B=1", stats.fetches_b1),
            ],
            title="Generated dataset",
        )
    )
    return 0


def _checkpointer_from_args(args: argparse.Namespace):
    """Build the Checkpointer for ``--checkpoint``; None when unset."""
    if not args.checkpoint:
        if args.resume:
            raise ReproError("--resume requires --checkpoint DIR")
        return None
    from repro.resilience.checkpoint import Checkpointer, CheckpointPolicy

    return Checkpointer(
        args.checkpoint,
        CheckpointPolicy(every_refs=args.checkpoint_every),
    )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.resilience.checkpoint import DEFAULT_EVERY_REFS

    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="checkpoint the statistics pass into DIR "
                             "(periodic atomic snapshots)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted pass from the latest "
                             "checkpoint in --checkpoint DIR")
    parser.add_argument("--checkpoint-every", type=int,
                        default=DEFAULT_EVERY_REFS, metavar="REFS",
                        help="snapshot cadence in consumed references "
                             f"(default {DEFAULT_EVERY_REFS})")


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=1,
                        help="split the statistics pass into N contiguous "
                             "shards merged into one curve (default 1: "
                             "single pass; exact kernels stay "
                             "bit-identical)")
    parser.add_argument("--shard-workers", type=int, default=1,
                        help="process-pool workers for the sharded pass "
                             "(1 = serial, 0 = one per core)")


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = build_synthetic_dataset(_spec_from_args(args))
    config = LRUFitConfig(
        segments=args.segments,
        grid_rule=args.grid_rule,
        shards=args.shards,
        shard_workers=args.shard_workers,
        policy=args.policy,
    )
    stats = LRUFit(config).run(
        dataset.index,
        checkpoint=_checkpointer_from_args(args),
        resume=args.resume,
    )
    from pathlib import Path

    if args.append and Path(args.catalog).exists():
        catalog = SystemCatalog.load(args.catalog)
    else:
        catalog = SystemCatalog()
    catalog.put(stats)
    catalog.save(args.catalog)
    print(
        f"wrote catalog entry {stats.index_name!r} "
        f"({stats.fpf_curve.segment_count} segments, "
        f"C = {stats.clustering_factor:.4f}, "
        f"policy = {stats.policy}) to {args.catalog}"
        + (f" ({len(catalog)} entries)" if args.append else "")
    )
    return 0


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="export metrics recorded during the run "
                             "('-' for stdout)")
    parser.add_argument("--metrics-format",
                        choices=("auto", "prom", "jsonl"), default="auto",
                        help="metrics export format (auto: by file "
                             "extension; '-' means prom)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the run's span tree as JSON lines "
                             "('-' for stdout)")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import to_jsonl, to_prometheus
    from repro.obs.instruments import register_standard_families
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    register_standard_families(registry)
    render = to_prometheus if args.format == "prom" else to_jsonl
    sys.stdout.write(render(registry.snapshot()))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    engine = EstimationEngine(
        args.catalog,
        fallback_chain=args.fallback,
        registry=global_registry(),
    )
    names = [args.index] if args.index else engine.index_names()
    selectivity = ScanSelectivity(args.sigma, args.sargable)
    rows = []
    display_name = args.estimator
    for name in names:
        if args.policy is not None:
            fitted = engine.statistics(name).policy
            if fitted != args.policy:
                raise ReproError(
                    f"catalog entry {name!r} was fitted under policy "
                    f"{fitted!r}, not {args.policy!r}; refit with "
                    f"'repro fit --policy {args.policy}' or drop "
                    f"--policy"
                )
        estimates = engine.estimate_many(
            name,
            args.estimator,
            [(selectivity, buffer_pages) for buffer_pages in args.buffers],
        )
        display_name = engine.estimator(name, args.estimator).name
        for buffer_pages, estimate in zip(args.buffers, estimates):
            rows.append((name, buffer_pages, f"{estimate:.1f}"))
    print(
        format_table(
            ["index", "buffer pages", "estimated fetches"],
            rows,
            title=(
                f"{display_name} estimates "
                f"(sigma={args.sigma}, S={args.sargable})"
            ),
        )
    )
    return 0


def _experiment_spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The positional ``experiment`` flags, as a declarative spec."""
    return ExperimentSpec(
        dataset=_spec_from_args(args),
        estimators=tuple(args.estimators or PAPER_ESTIMATOR_NAMES),
        scan_count=args.scans,
        buffer_floor=args.floor,
        kernel=args.kernel,
        workers=args.workers,
        seed=args.seed,
        shards=args.shards,
        shard_workers=args.shard_workers,
        policy=args.policy,
    )


def _cmd_policy_ablation(args: argparse.Namespace) -> int:
    """``experiment --policy-ablation``: print the LRU-drift table."""
    from repro.eval.ablation import run_policy_ablation

    result = run_policy_ablation(
        policies=args.policies,
        families=args.families,
        kernel=args.kernel,
    )
    print(
        f"LRU-drift ablation — policy fetch curves vs the "
        f"{result.kernel!r} LRU curve, per corpus family"
    )
    print(result.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.policy_ablation:
        return _cmd_policy_ablation(args)
    if args.spec:
        spec = ExperimentSpec.load(args.spec)
    else:
        spec = _experiment_spec_from_args(args)
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"wrote experiment spec to {args.save_spec}")
        return 0
    result = run_experiment_spec(
        spec,
        checkpoint=_checkpointer_from_args(args),
        resume=args.resume,
    )
    grid = result.buffer_grid
    rows = []
    for buffer_pages, percent in zip(grid, grid.percents()):
        row: List[object] = [buffer_pages, f"{percent:.0f}%"]
        for curve in result.curves:
            error = dict(curve.points)[buffer_pages]
            row.append(f"{100 * error:+.1f}")
        rows.append(row)
    print(
        format_table(
            ["B", "B/T", *(c.estimator for c in result.curves)],
            rows,
            title=f"Error metric (%) by buffer size — {result.dataset}",
        )
    )
    return 0


def _cmd_locality(args: argparse.Namespace) -> int:
    from repro.trace.locality import summarize_locality

    dataset = build_synthetic_dataset(_spec_from_args(args))
    trace = dataset.index.page_sequence()
    summary = summarize_locality(trace)
    print(
        format_table(
            ["property", "value"],
            [
                ("dataset", dataset.name),
                ("references", summary.references),
                ("distinct pages (A)", summary.distinct_pages),
                ("mean run length", f"{summary.mean_run_length:.2f}"),
                ("reuse fraction", f"{summary.reuse_fraction:.1%}"),
                ("median reuse depth", summary.median_reuse_depth),
                ("p90 reuse depth", summary.depth_p90),
            ],
            title="Index-order trace locality",
        )
    )
    return 0


def _cmd_contention(args: argparse.Namespace) -> int:
    from repro.workload.interleave import simulate_contention

    datasets = [
        build_synthetic_dataset(
            SyntheticSpec(
                records=args.records,
                distinct_values=args.distinct,
                records_per_page=args.records_per_page,
                theta=args.theta,
                window=args.window,
                noise=args.noise,
                seed=args.seed + i,
            )
        )
        for i in range(args.scans)
    ]
    traces = [d.index.page_sequence() for d in datasets]
    result = simulate_contention(traces, args.buffer)
    print(
        format_table(
            ["scan", "dedicated fetches", "shared-pool fetches"],
            [
                (i, dedicated, shared)
                for i, (dedicated, shared) in enumerate(
                    zip(result.dedicated_fetches, result.per_scan_fetches)
                )
            ],
            title=(
                f"{args.scans} full scans sharing a {args.buffer}-page "
                f"LRU pool (overhead "
                f"{100 * result.contention_overhead:+.1f}%)"
            ),
        )
    )
    return 0


def _cmd_perf_sharded(args: argparse.Namespace) -> int:
    """Time one sharded pass against the single-process equivalent."""
    from repro.buffer.kernels import DEFAULT_KERNEL, as_shard_source
    from repro.perf.timing import shard_timing, single_pass

    kernel = args.kernels[0] if args.kernels else DEFAULT_KERNEL
    if args.paper_scale:
        from repro.trace.paper_scale import (
            PAPER_SCALE_PAGES,
            PAPER_SCALE_REFS,
            paper_scale_source,
        )

        refs = (
            args.paper_refs if args.paper_refs is not None
            else PAPER_SCALE_REFS
        )
        pages = (
            args.paper_pages if args.paper_pages is not None
            else PAPER_SCALE_PAGES
        )
        source = paper_scale_source(
            pattern=args.paper_pattern,
            refs=refs,
            pages=pages,
            seed=args.seed,
        )
        origin = (
            f"paper-scale {args.paper_pattern} "
            f"({refs} refs, {pages} pages)"
        )
    else:
        dataset = build_synthetic_dataset(_spec_from_args(args))
        source = as_shard_source(dataset.index.page_sequence())
        origin = f"{dataset.name} ({source.total_refs} refs)"
    single, single_ns = single_pass(kernel, source)
    result, sharded_ns = shard_timing(
        source, max(args.shards, 1), args.shard_workers, kernel
    )
    rows = [
        (f"single {kernel}", f"{single_ns / 1e6:.1f}", "1.00x", ""),
        (
            f"sharded x{result.shards} "
            f"({args.shard_workers} worker(s))",
            f"{sharded_ns / 1e6:.1f}",
            f"{single_ns / sharded_ns:.2f}x",
            f"merge {result.merge_ns / 1e6:.1f} ms",
        ),
    ]
    print(
        format_table(
            ["pass", "wall ms", "speedup", "profile"],
            rows,
            title=f"Sharded LRU-Fit pass — {origin}",
        )
    )
    if result.curve != single:
        print(
            "error: merged curve diverged from the single pass",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.buffer.kernels import SAMPLED_BAND_ERROR_BOUND
    from repro.perf.timing import compare_kernels

    if args.paper_scale or args.shards > 1:
        return _cmd_perf_sharded(args)
    dataset = build_synthetic_dataset(_spec_from_args(args))
    trace = dataset.index.page_sequence()
    comparison = compare_kernels(
        trace, kernels=args.kernels or None, repeats=args.repeats
    )
    rows = []
    for t in comparison.timings:
        if t.exact:
            agreement = "ok" if t.agrees else "MISMATCH"
        else:
            agreement = (
                f"{'within' if t.agrees else 'over'} "
                f"{100 * SAMPLED_BAND_ERROR_BOUND:g}% bound"
            )
        rows.append(
            (
                t.kernel,
                "yes" if t.exact else "no",
                f"{t.median_ns / 1e6:.1f}",
                f"{t.speedup:.2f}x",
                f"{t.max_rel_error_pct:.2f}",
                agreement,
            )
        )
    print(
        format_table(
            ["kernel", "exact", "median ms", "speedup", "max err %",
             "agreement"],
            rows,
            title=(
                f"LRU-Fit pass per kernel — {dataset.name} "
                f"({comparison.references} refs, "
                f"{comparison.distinct_pages} pages)"
            ),
        )
    )
    if not comparison.exact_agree:
        print(
            "error: an exact kernel disagrees with baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import DEFAULT_GOLDEN_PATH, run_verification

    golden_path = (
        None if args.no_golden else (args.golden or DEFAULT_GOLDEN_PATH)
    )
    report = run_verification(
        families=args.families,
        names=args.cases,
        kernels=args.kernels,
        invariants=not args.no_invariants,
        golden_path=golden_path,
        regen=args.regen,
    )
    rows = []
    for case in report.cases:
        for result in case.differentials:
            if result.held_exact:
                status = (
                    "exact" if not result.mismatches
                    else f"{len(result.mismatches)} MISMATCHES"
                )
            else:
                status = (
                    f"band {100 * result.max_band_error:.2f}% "
                    f"/ {100 * result.error_bound:.0f}%"
                )
            if not result.streaming_consistent:
                status += " +stream-DIVERGED"
            if not result.sharded_consistent:
                status += " +shard-DIVERGED"
            rows.append(
                (
                    case.case,
                    result.kernel,
                    len(result.checked_sizes),
                    status,
                    "ok" if result.ok else "FAIL",
                )
            )
    print(
        format_table(
            ["case", "kernel", "sizes", "oracle agreement", "verdict"],
            rows,
            title=(
                f"Differential verification — {len(report.cases)} corpus "
                f"traces vs the LRU oracle"
            ),
        )
    )
    violations = [v for c in report.cases for v in c.violations]
    if args.no_invariants:
        print("invariants: skipped")
    else:
        print(f"invariants: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
    if report.regenerated_path:
        print(f"goldens: regenerated {report.regenerated_path}")
    elif args.no_golden:
        print("goldens: skipped")
    elif report.golden_drift:
        print(f"goldens: {len(report.golden_drift)} drift(s)")
        for drift in report.golden_drift:
            print(f"  {drift}")
    else:
        print("goldens: no drift")
    if not report.ok:
        print("error: verification failed", file=sys.stderr)
        return 1
    return 0


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.serving import (
        DEFAULT_BATCH_WINDOW_MS,
        DEFAULT_MAX_BATCH,
        DEFAULT_MAX_QUEUE,
        DEFAULT_TENANT_CACHE,
    )

    parser.add_argument("--tenant-root", required=True, metavar="DIR",
                        help="directory of per-tenant catalog namespaces "
                             "(<root>/<tenant>/catalog.json)")
    parser.add_argument("--batch-window-ms", type=float,
                        default=DEFAULT_BATCH_WINDOW_MS,
                        help="micro-batch coalescing window "
                             f"(default {DEFAULT_BATCH_WINDOW_MS} ms)")
    parser.add_argument("--max-batch", type=int,
                        default=DEFAULT_MAX_BATCH,
                        help="most requests coalesced per engine call "
                             f"(default {DEFAULT_MAX_BATCH})")
    parser.add_argument("--max-queue", type=int,
                        default=DEFAULT_MAX_QUEUE,
                        help="admission-control queue bound; beyond it "
                             f"requests shed (default {DEFAULT_MAX_QUEUE})")
    parser.add_argument("--tenant-cache", type=int,
                        default=DEFAULT_TENANT_CACHE,
                        help="tenant engines kept resident "
                             f"(default {DEFAULT_TENANT_CACHE})")
    parser.add_argument("--fallback", nargs="+", default=None,
                        choices=available_estimators(), metavar="NAME",
                        help="degraded-mode fallback chain for every "
                             "tenant engine")


def _serving_server(args: argparse.Namespace):
    from repro.serving import EstimationServer, ServingConfig

    config = ServingConfig(
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        tenant_cache=args.tenant_cache,
        fallback_chain=(
            tuple(args.fallback) if args.fallback else None
        ),
    )
    return EstimationServer(args.tenant_root, config).start()


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serving import ServingTCPServer

    server = _serving_server(args)
    tcp = ServingTCPServer(server, host=args.host, port=args.port)
    host, port = tcp.address
    tenants = server.tenants.tenant_names()

    # Graceful shutdown: SIGTERM/SIGINT stop accepting connections and
    # drain in-flight work instead of killing the process mid-batch.
    # The stop runs on a helper thread — socketserver's shutdown blocks
    # until the accept loop exits, and the handler interrupts that very
    # loop on the main thread, so calling it inline would deadlock.
    # Dispositions are process-global; restore them on the way out so
    # in-process callers (tests) don't leak the handlers.
    def _stop_from_signal(*_):
        threading.Thread(target=tcp.request_stop, daemon=True).start()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(
                signum, _stop_from_signal
            )
        except ValueError:
            # Not the main thread: serve without handlers.
            break

    print(
        f"serving {len(tenants)} tenant(s) "
        f"({', '.join(tenants) or 'none provisioned yet'}) "
        f"on {host}:{port} — batch window "
        f"{args.batch_window_ms} ms, max queue {args.max_queue}",
        flush=True,
    )
    if args.max_seconds is not None:
        timer = threading.Timer(args.max_seconds, tcp.request_stop)
        timer.daemon = True
        timer.start()
    try:
        tcp.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        tcp.shutdown()
    metrics = server.metrics()
    print(
        f"served {metrics['completed']} request(s) in "
        f"{metrics['batches']} batch(es); rejected "
        f"{sum(metrics['rejected'].values())} "
        f"({metrics['rejected']})"
    )
    return 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    import math

    from repro.catalog.store import CatalogStore
    from repro.refresh import (
        DriftingFeed,
        FaultyFeed,
        FeedPhase,
        RefreshConfig,
        RefreshController,
    )
    from repro.trace.paper_scale import PaperScaleSpec

    phases = [
        FeedPhase(
            0,
            PaperScaleSpec(
                refs=1,
                pages=args.pages,
                pattern=args.pattern,
                theta=args.theta,
                seed=args.seed,
            ),
        )
    ]
    if args.drift_at is not None:
        phases.append(
            FeedPhase(
                args.drift_at,
                PaperScaleSpec(
                    refs=1,
                    pages=(
                        args.drift_pages
                        if args.drift_pages is not None
                        else args.pages
                    ),
                    pattern=args.pattern,
                    theta=(
                        args.drift_theta
                        if args.drift_theta is not None
                        else args.theta
                    ),
                    seed=(
                        args.drift_seed
                        if args.drift_seed is not None
                        else args.seed + 1
                    ),
                ),
            )
        )
    feed = DriftingFeed(phases)
    if args.feed_fault_period:
        feed = FaultyFeed(
            feed, period=args.feed_fault_period, seed=args.seed
        )
    store = CatalogStore(args.catalog, history=args.history)
    config = RefreshConfig(
        index_name=args.index,
        window_refs=args.window,
        decay=args.decay,
        drift_threshold=args.drift_threshold,
        checkpoint_every=args.checkpoint_every,
        corrupt_publish_cycles=tuple(args.chaos_corrupt_publish or ()),
    )
    state_dir = (
        args.state_dir
        if args.state_dir is not None
        else f"{args.catalog}.refresh"
    )
    controller = RefreshController(store, feed, config, state_dir)
    results = controller.run(args.cycles)
    rows = [
        [
            result.cycle,
            f"[{result.start_ref}, {result.stop_ref})",
            (
                "new"
                if math.isinf(result.magnitude)
                else f"{result.magnitude:.4f}"
            ),
            result.action,
            result.version if result.version is not None else "-",
        ]
        for result in results
    ]
    print(
        format_table(
            ["cycle", "window", "drift", "action", "version"], rows
        )
    )
    metrics = controller.metrics()
    print(
        f"published {metrics['publishes']}, "
        f"rolled back {metrics['rollbacks']}, "
        f"quarantined {metrics['quarantined']}; "
        f"breaker {metrics['breaker_state']} "
        f"({metrics['breaker_opens']} open(s))"
    )
    current = store.current_version()
    print(
        f"serving version "
        f"{current if current is not None else '<none>'} "
        f"of retained {list(store.versions())}"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.serving import (
        TCPTransport,
        TenantCatalogs,
        WorkloadSpec,
        request_stream,
        run_closed_loop,
        run_open_loop,
        validate_tenant_name,
    )
    from repro.serving.loadgen import InProcessTransport

    tenants = TenantCatalogs(args.tenant_root,
                             cache_size=args.tenant_cache)
    names = args.tenant_names or tenants.tenant_names()
    if not names:
        raise ReproError(
            f"no tenant namespaces found under {args.tenant_root!r}; "
            f"provision one with `repro fit` + TenantCatalogs.save or "
            f"pass --tenant-names"
        )
    pools = []
    for name in names:
        validate_tenant_name(name)
        pools.append((name, tuple(tenants.engine(name).index_names())))
    spec = WorkloadSpec(
        tenants=tuple(names),
        tenant_indexes=tuple(pools),
        estimators=tuple(args.estimators or ("epfis",)),
        seed=args.seed,
    )
    requests = request_stream(spec, args.requests)
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            raise ReproError(
                f"--connect wants HOST:PORT, got {args.connect!r}"
            )
        if args.mode == "open":
            raise ReproError(
                "open-loop mode drives an in-process server; drop "
                "--connect or use --mode closed"
            )
        result = run_closed_loop(
            lambda: TCPTransport(host, int(port)),
            requests,
            clients=args.clients,
        )
    else:
        server = _serving_server(args)
        try:
            if args.mode == "open":
                result = run_open_loop(server, requests, qps=args.qps)
            else:
                result = run_closed_loop(
                    lambda: InProcessTransport(server),
                    requests,
                    clients=args.clients,
                    server=server,
                )
        finally:
            server.close()
    latency = result.latency_ms()
    rows = [
        ("mode", result.mode),
        ("clients", result.clients),
        ("sent", result.sent),
        ("completed", result.completed),
        ("rejected", result.rejected),
        ("errors", result.errors),
        ("sustained QPS", f"{result.sustained_qps:.0f}"),
        ("p50 latency (ms)", f"{latency['p50']:.2f}"),
        ("p99 latency (ms)", f"{latency['p99']:.2f}"),
    ]
    if result.mode == "open":
        rows.insert(2, ("target QPS", f"{args.qps:.0f}"))
    mean_batch = result.server_metrics.get("mean_batch_size")
    if mean_batch is not None:
        rows.append(("mean batch size", f"{mean_batch:.2f}"))
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Load generation — {len(names)} tenant(s), "
                f"workload {result.workload_digest[:12]}"
            ),
        )
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json_module.dump(result.to_dict(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"wrote loadgen results to {args.out}")
    if not result.accounted:
        print(
            "error: request accounting mismatch (dropped-but-"
            "unreported requests)",
            file=sys.stderr,
        )
        return 1
    return 0


def _advisor_spec_from_args(args: argparse.Namespace):
    """The ``advise`` flags, as a declarative advisor spec."""
    from repro.advisor import AdvisorSpec, CostModel, uniform_fleet

    names = args.indexes
    if not names:
        engine = EstimationEngine(args.catalog)
        names = engine.index_names()
    if not names:
        raise ReproError(
            f"catalog {args.catalog!r} holds no indexes; run "
            f"`repro fit` (with --append for a multi-index fleet) first"
        )
    return AdvisorSpec(
        fleet=uniform_fleet(names, scans_per_second=args.frequency),
        estimator=args.estimator,
        budgets=tuple(args.budgets or ()),
        costs=CostModel(
            page_bytes=args.page_bytes,
            ram_dollars_per_mb=args.ram_dollars_per_mb,
            disk_dollars=args.disk_dollars,
            disk_accesses_per_second=args.disk_iops,
            sensitivity=tuple(args.sensitivity),
        ),
        oracle=args.oracle,
    )


def _cmd_advise(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.advisor import AdvisorSpec, advise

    if args.spec:
        spec = AdvisorSpec.load(args.spec)
    else:
        spec = _advisor_spec_from_args(args)
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"wrote advisor spec to {args.save_spec}")
        return 0
    report = advise(
        args.catalog, spec, registry=global_registry(), path="cli"
    )
    doc = report.to_dict()
    sweep_rows = []
    for point in doc["sweep"]:
        allocation = " ".join(
            f"{name}={pages}"
            for name, pages in sorted(point["pages"].items())
        )
        sweep_rows.append(
            (
                point["budget"],
                point["pages_used"],
                f"{point['total_rate']:.1f}",
                f"{point['saved_rate']:.1f}",
                f"{point['ram_dollars']:.2f}",
                f"{point['disk_dollars']:.2f}",
                point["oracle"],
                allocation,
            )
        )
    print(
        format_table(
            ["budget", "used", "fetch/s", "saved/s", "RAM $",
             "disk $", "oracle", "allocation"],
            sweep_rows,
            title=(
                f"Budget sweep — {len(spec.fleet)} index(es), "
                f"estimator {spec.estimator}"
            ),
        )
    )
    final = doc["sweep"][-1]
    index_rows = []
    for entry in final["indexes"]:
        residency = entry["residency_interval_s"]
        index_rows.append(
            (
                entry["index"],
                entry["policy"],
                entry["pages"],
                f"{entry['fetch_rate']:.1f}",
                f"{entry['marginal_gain']:.3f}",
                "-" if residency is None else f"{residency:.1f}",
                "yes" if entry["pays_rent"] else "no",
            )
        )
    print()
    print(
        format_table(
            ["index", "policy", "pages", "fetch/s", "marginal gain",
             "residency s", "pays rent"],
            index_rows,
            title=f"Allocation at budget {final['budget']}",
        )
    )
    sensitivity = ", ".join(
        f"{factor} RAM price -> {interval:.0f} s"
        for factor, interval in sorted(final["sensitivity"].items())
    )
    print(
        f"five-minute-rule break-even: "
        f"{doc['break_even_interval_s']:.0f} s "
        f"(sensitivity: {sensitivity})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json_module.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote advisory report to {args.out}")
    return 0


def _cmd_gwl(args: argparse.Namespace) -> int:
    db = build_gwl_database(scale=args.scale, seed=args.seed)
    print(
        format_table(
            ["table", "pages", "records/page"],
            table2_rows(db),
            title=f"Table 2 (scale={args.scale})",
        )
    )
    print()
    print(
        format_table(
            ["column", "cardinality", "C measured (%)", "C paper (%)"],
            [
                (name, card, f"{measured:.1f}", target)
                for name, card, measured, target in table3_rows(db)
            ],
            title="Table 3",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "EPFIS reproduction: page-fetch estimation for index scans "
            "with finite LRU buffers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser(
        "generate", help="build a synthetic dataset and print statistics"
    )
    _add_spec_arguments(p_generate)
    p_generate.set_defaults(handler=_cmd_generate)

    p_fit = sub.add_parser(
        "fit", help="run LRU-Fit and persist the catalog record"
    )
    _add_spec_arguments(p_fit)
    p_fit.add_argument("--catalog", required=True,
                       help="output catalog JSON path")
    p_fit.add_argument("--append", action="store_true",
                       help="merge into an existing catalog file instead "
                            "of overwriting it (build multi-index "
                            "fleets for `repro advise`)")
    p_fit.add_argument("--segments", type=int, default=6)
    p_fit.add_argument("--grid-rule", choices=("paper", "graefe"),
                       default="paper")
    p_fit.add_argument("--policy",
                       choices=("lru",) + available_policy_kernels(),
                       default="lru",
                       help="replacement policy the fetch curve is fitted "
                            "under (default lru: the paper's stack-"
                            "distance pass)")
    _add_shard_arguments(p_fit)
    _add_checkpoint_arguments(p_fit)
    _add_obs_arguments(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_estimate = sub.add_parser(
        "estimate", help="estimate page fetches from a saved catalog"
    )
    p_estimate.add_argument("--catalog", required=True)
    p_estimate.add_argument("--index", default=None,
                            help="index name (default: all in catalog)")
    p_estimate.add_argument("--sigma", type=float, required=True,
                            help="range selectivity of the scan")
    p_estimate.add_argument("--sargable", type=float, default=1.0,
                            help="sargable-predicate selectivity S")
    p_estimate.add_argument("--buffers", type=int, nargs="+", required=True,
                            help="buffer sizes to estimate at")
    p_estimate.add_argument("--estimator", default="epfis",
                            choices=available_estimators(),
                            help="registered estimator to serve with "
                                 "(default epfis)")
    p_estimate.add_argument("--fallback", nargs="+", default=None,
                            choices=available_estimators(),
                            metavar="NAME",
                            help="degraded-mode fallback chain tried in "
                                 "order when the estimator fails")
    p_estimate.add_argument("--policy",
                            choices=("lru",) + available_policy_kernels(),
                            default=None,
                            help="assert the served record was fitted "
                                 "under this replacement policy")
    _add_obs_arguments(p_estimate)
    p_estimate.set_defaults(handler=_cmd_estimate)

    p_experiment = sub.add_parser(
        "experiment", help="run one error-behaviour experiment"
    )
    _add_spec_arguments(p_experiment)
    p_experiment.add_argument("--scans", type=int, default=100)
    p_experiment.add_argument("--floor", type=int, default=12,
                              help="smallest buffer size in the grid")
    p_experiment.add_argument("--workers", type=int, default=1,
                              help="ground-truth worker processes "
                                   "(1 = serial, 0 = one per CPU)")
    p_experiment.add_argument("--kernel", choices=available_kernels(),
                              default="baseline",
                              help="stack-distance kernel for ground truth")
    p_experiment.add_argument("--policy",
                              choices=("lru",) + available_policy_kernels(),
                              default="lru",
                              help="replacement policy for the statistics "
                                   "pass and ground truth (default lru)")
    p_experiment.add_argument("--policy-ablation", action="store_true",
                              help="print the LRU-drift table (policy "
                                   "fetch curves vs the LRU curve over "
                                   "the verification corpus) instead of "
                                   "running an experiment")
    p_experiment.add_argument("--policies", nargs="+", default=None,
                              choices=available_policy_kernels(),
                              help="policies for --policy-ablation "
                                   "(default: all registered)")
    p_experiment.add_argument("--families", nargs="+", default=None,
                              metavar="FAMILY",
                              help="corpus families for --policy-ablation "
                                   "(default: uniform, zipf, loop)")
    p_experiment.add_argument("--estimators", nargs="+", default=None,
                              choices=available_estimators(),
                              help="estimators to compare (default: the "
                                   "paper's five)")
    p_experiment.add_argument("--spec", default=None, metavar="FILE",
                              help="run a saved experiment spec (JSON); "
                                   "other experiment flags are ignored")
    p_experiment.add_argument("--save-spec", default=None, metavar="FILE",
                              help="write the equivalent spec JSON instead "
                                   "of running")
    _add_shard_arguments(p_experiment)
    _add_checkpoint_arguments(p_experiment)
    _add_obs_arguments(p_experiment)
    p_experiment.set_defaults(handler=_cmd_experiment)

    p_gwl = sub.add_parser(
        "gwl", help="build the simulated GWL database, print Tables 2-3"
    )
    p_gwl.add_argument("--scale", type=float, default=0.05)
    p_gwl.add_argument("--seed", type=int, default=0)
    p_gwl.set_defaults(handler=_cmd_gwl)

    p_locality = sub.add_parser(
        "locality", help="profile a dataset's index-order trace locality"
    )
    _add_spec_arguments(p_locality)
    p_locality.set_defaults(handler=_cmd_locality)

    p_contention = sub.add_parser(
        "contention",
        help="simulate concurrent full scans sharing one LRU pool",
    )
    _add_spec_arguments(p_contention)
    p_contention.add_argument("--scans", type=int, default=2,
                              help="number of concurrent scans")
    p_contention.add_argument("--buffer", type=int, required=True,
                              help="shared pool size in pages")
    p_contention.set_defaults(handler=_cmd_contention)

    p_perf = sub.add_parser(
        "perf",
        help="time one LRU-Fit pass per stack-distance kernel",
    )
    _add_spec_arguments(p_perf)
    p_perf.add_argument("--kernels", nargs="+", default=None,
                        choices=available_kernels(),
                        help="kernels to time (default: all registered)")
    p_perf.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per kernel (median)")
    _add_shard_arguments(p_perf)
    p_perf.add_argument("--paper-scale", action="store_true",
                        help="time the pass on a streamed paper-scale "
                             "trace instead of a synthetic dataset "
                             "(implies the sharded timing mode)")
    p_perf.add_argument("--paper-refs", type=int, default=None,
                        help="paper-scale trace length "
                             "(default 10^7 references)")
    p_perf.add_argument("--paper-pages", type=int, default=None,
                        help="paper-scale page universe (default 200000)")
    p_perf.add_argument("--paper-pattern",
                        choices=("zipf", "clustered"), default="zipf",
                        help="paper-scale reference pattern")
    p_perf.set_defaults(handler=_cmd_perf)

    p_verify = sub.add_parser(
        "verify",
        help="run the differential verification harness",
    )
    p_verify.add_argument("--families", nargs="+", default=None,
                          metavar="FAMILY",
                          help="trace families to verify (default: all)")
    p_verify.add_argument("--cases", nargs="+", default=None,
                          metavar="NAME",
                          help="corpus cases to verify (default: all)")
    p_verify.add_argument("--kernels", nargs="+", default=None,
                          choices=(
                              available_kernels()
                              + available_policy_kernels()
                          ),
                          help="kernels to cross-check (default: every "
                               "stack and policy kernel)")
    p_verify.add_argument("--no-invariants", action="store_true",
                          help="skip the metamorphic invariant stage")
    p_verify.add_argument("--no-golden", action="store_true",
                          help="skip the golden-fixture stage")
    p_verify.add_argument("--golden", default=None, metavar="FILE",
                          help="golden fixture path (default: the "
                               "committed fixture)")
    p_verify.add_argument("--regen", action="store_true",
                          help="regenerate the golden fixture instead of "
                               "comparing against it")
    _add_obs_arguments(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_serve = sub.add_parser(
        "serve",
        help="serve estimates over NDJSON/TCP with micro-batching",
    )
    _add_serving_arguments(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8337,
                         help="port to bind; 0 picks a free port "
                              "(default 8337)")
    p_serve.add_argument("--max-seconds", type=float, default=None,
                         help="stop serving after this many seconds "
                              "(default: run until interrupted)")
    _add_obs_arguments(p_serve)
    p_serve.set_defaults(handler=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a deterministic load against the serving tier",
    )
    _add_serving_arguments(p_loadgen)
    p_loadgen.add_argument("--mode", choices=("closed", "open"),
                           default="closed",
                           help="closed: N clients, one outstanding "
                                "request each; open: fixed-rate arrivals "
                                "(default closed)")
    p_loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                           help="drive a running `repro serve` socket "
                                "instead of an in-process server "
                                "(closed mode only)")
    p_loadgen.add_argument("--clients", type=int, default=8,
                           help="closed-loop client threads (default 8)")
    p_loadgen.add_argument("--requests", type=int, default=400,
                           help="requests to issue (default 400)")
    p_loadgen.add_argument("--qps", type=float, default=500.0,
                           help="open-loop arrival rate (default 500)")
    p_loadgen.add_argument("--seed", type=int, default=0,
                           help="workload stream seed (default 0)")
    p_loadgen.add_argument("--estimators", nargs="+", default=None,
                           choices=available_estimators(),
                           help="estimators the stream draws from "
                                "(default epfis)")
    p_loadgen.add_argument("--tenant-names", nargs="+", default=None,
                           metavar="NAME",
                           help="tenants to target (default: every "
                                "namespace under --tenant-root)")
    p_loadgen.add_argument("--out", default=None, metavar="FILE",
                           help="write the full result JSON here")
    _add_obs_arguments(p_loadgen)
    p_loadgen.set_defaults(handler=_cmd_loadgen)

    p_refresh = sub.add_parser(
        "refresh",
        help="run the online catalog refresh loop against a live "
             "synthetic feed",
    )
    from repro.trace.paper_scale import DEFAULT_THETA, PATTERNS

    p_refresh.add_argument("--catalog", required=True,
                           help="catalog file to keep refreshed "
                                "(version archive lives beside it)")
    p_refresh.add_argument("--index", default="paper_scale",
                           help="index name the loop maintains "
                                "(default paper_scale)")
    p_refresh.add_argument("--cycles", type=int, default=3,
                           help="refresh cycles to run (default 3)")
    p_refresh.add_argument("--window", type=int, default=20_000,
                           help="feed references consumed per cycle "
                                "(default 20000)")
    p_refresh.add_argument("--decay", type=float, default=0.5,
                           help="weight of the previously emitted curve "
                                "in the blend (default 0.5)")
    p_refresh.add_argument("--drift-threshold", type=float, default=0.01,
                           help="relative curve drift that triggers a "
                                "roll-forward (default 0.01)")
    p_refresh.add_argument("--history", type=int, default=4,
                           help="catalog versions retained beside the "
                                "file for inspection (default 4; any "
                                "value >= 0: a rollback restores the "
                                "bytes the cycle read, not an archived "
                                "version)")
    p_refresh.add_argument("--state-dir", default=None, metavar="DIR",
                           help="loop state directory (default "
                                "<catalog>.refresh)")
    p_refresh.add_argument("--checkpoint-every", type=int, default=4096,
                           metavar="REFS",
                           help="kernel-pass snapshot cadence "
                                "(default 4096)")
    p_refresh.add_argument("--pages", type=int, default=200,
                           help="distinct pages in the synthetic feed "
                                "(default 200)")
    p_refresh.add_argument("--pattern", choices=PATTERNS,
                           default="zipf",
                           help="feed reference pattern (default zipf)")
    p_refresh.add_argument("--theta", type=float, default=DEFAULT_THETA,
                           help="feed Zipf skew "
                                f"(default {DEFAULT_THETA})")
    p_refresh.add_argument("--seed", type=int, default=0)
    p_refresh.add_argument("--drift-at", type=int, default=None,
                           metavar="REF",
                           help="inject workload drift at this feed "
                                "position (second stationary phase)")
    p_refresh.add_argument("--drift-theta", type=float, default=None,
                           help="Zipf skew after --drift-at "
                                "(default: unchanged)")
    p_refresh.add_argument("--drift-pages", type=int, default=None,
                           help="distinct pages after --drift-at "
                                "(default: unchanged)")
    p_refresh.add_argument("--drift-seed", type=int, default=None,
                           help="feed seed after --drift-at "
                                "(default: --seed + 1)")
    p_refresh.add_argument("--feed-fault-period", type=int, default=None,
                           metavar="N",
                           help="chaos: inject a transient feed fault "
                                "at ~1/N chunk boundaries (retried "
                                "through the checkpoint)")
    p_refresh.add_argument("--chaos-corrupt-publish", type=int,
                           nargs="+", default=None, metavar="CYCLE",
                           help="chaos drill: corrupt the publish of "
                                "these cycles to force the "
                                "breaker-guarded rollback")
    _add_obs_arguments(p_refresh)
    p_refresh.set_defaults(handler=_cmd_refresh)

    p_advise = sub.add_parser(
        "advise",
        help="allocate a fleet page budget over PF(B) curves and "
             "price it with the five-minute rule",
    )
    p_advise.add_argument("--catalog", required=True,
                          help="catalog JSON holding the fleet's "
                               "statistics (build multi-index fleets "
                               "with `repro fit --append`)")
    p_advise.add_argument("--estimator", default="epfis",
                          choices=available_estimators(),
                          help="estimator the curves are pulled through "
                               "(default epfis)")
    p_advise.add_argument("--indexes", nargs="+", default=None,
                          metavar="NAME",
                          help="fleet indexes (default: every index in "
                               "the catalog)")
    p_advise.add_argument("--budgets", type=int, nargs="+", default=None,
                          metavar="PAGES",
                          help="total page budgets to sweep (default: "
                               "1/8..1x of the fleet's table pages)")
    p_advise.add_argument("--frequency", type=float, default=1.0,
                          help="scans/second per index for the uniform "
                               "workload (default 1.0; use --spec for "
                               "per-index mixes)")
    p_advise.add_argument("--oracle",
                          choices=("auto", "always", "never"),
                          default="auto",
                          help="greedy-vs-DP differential verification "
                               "(auto: only for small fleets)")
    p_advise.add_argument("--page-bytes", type=int, default=8192,
                          help="page size for the cost model "
                               "(default 8192)")
    p_advise.add_argument("--ram-dollars-per-mb", type=float,
                          default=0.005,
                          help="RAM capital cost per MB (default 0.005)")
    p_advise.add_argument("--disk-dollars", type=float, default=300.0,
                          help="capital cost per disk device "
                               "(default 300)")
    p_advise.add_argument("--disk-iops", type=float, default=10_000.0,
                          help="sustained accesses/second per disk "
                               "(default 10000)")
    p_advise.add_argument("--sensitivity", type=float, nargs="+",
                          default=(0.5, 2.0), metavar="FACTOR",
                          help="RAM-price scale factors to re-price the "
                               "break-even under (default 0.5 2.0)")
    p_advise.add_argument("--spec", default=None, metavar="FILE",
                          help="run a saved advisor spec (JSON); fleet "
                               "and cost flags are ignored")
    p_advise.add_argument("--save-spec", default=None, metavar="FILE",
                          help="write the equivalent spec JSON instead "
                               "of running")
    p_advise.add_argument("--out", default=None, metavar="FILE",
                          help="write the full advisory report JSON "
                               "here")
    _add_obs_arguments(p_advise)
    p_advise.set_defaults(handler=_cmd_advise)

    p_metrics = sub.add_parser(
        "metrics",
        help="print the standard metric-family schema this build exports",
    )
    p_metrics.add_argument("--format", choices=("prom", "jsonl"),
                           default="prom",
                           help="output format (default prom)")
    p_metrics.set_defaults(handler=_cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    try:
        with observability_session(
            metrics_out=metrics_out,
            trace_out=trace_out,
            metrics_format=getattr(args, "metrics_format", "auto"),
        ):
            if "-" in (metrics_out, trace_out):
                # An export claimed stdout: keep it machine-parseable
                # by moving the human-readable report to stderr.
                with contextlib.redirect_stdout(sys.stderr):
                    return args.handler(args)
            return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
