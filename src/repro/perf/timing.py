"""Timing and agreement checks across stack-distance kernels.

One trace goes through every requested kernel; each gets a median wall-time
over repeated one-shot passes, a speedup relative to the ``baseline``
kernel, and an agreement verdict against the baseline's exact curve:

* exact kernels must reproduce the baseline *bit-identically* (dataclass
  equality of the :class:`~repro.buffer.stack.FetchCurve`);
* the sampled kernel's worst relative error on the evaluation band
  ``0.05*A .. 0.9*A`` — the same band fractions every experiment in this
  repo evaluates on — is reported against its documented bound
  (:data:`~repro.buffer.kernels.SAMPLED_BAND_ERROR_BOUND`).  That bound
  is documented for the uniform and Zipf kernel traces only, so it is
  not judged: clustered index traces may exceed it.

:func:`single_pass` and :func:`shard_timing` time one streamed pass and
one sharded pass over the same shard source, by wall clock.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.buffer.kernels import (
    SAMPLED_BAND_ERROR_BOUND,
    ShardRunResult,
    available_kernels,
    get_kernel,
    run_sharded_pass,
)
from repro.errors import KernelError


def evaluation_band(distinct_pages: int) -> List[int]:
    """Buffer sizes at 5%..90% (steps of 5%) of the page universe.

    Mirrors the fractions of
    :func:`repro.eval.buffer_grid.evaluation_buffer_grid`, which is where
    every experiment queries fetch curves; the sampled kernel's error
    bound is defined over exactly this band.
    """
    sizes = sorted(
        {max(1, round(f / 100 * distinct_pages)) for f in range(5, 91, 5)}
    )
    return sizes


@dataclass(frozen=True)
class KernelTiming:
    """One kernel's measurement on one trace."""

    kernel: str
    exact: bool
    median_ns: int
    #: baseline median / this kernel's median (1.0 for baseline itself).
    speedup: float
    #: Worst relative F(B) deviation from baseline on the evaluation band,
    #: in percent (0.0 when the curves are bit-identical).
    max_rel_error_pct: float
    #: Exact kernels: bit-identical curve.  Sampled: within its bound.
    agrees: bool


@dataclass(frozen=True)
class KernelComparison:
    """All kernels' measurements on one trace, plus trace provenance."""

    references: int
    distinct_pages: int
    baseline_median_ns: int
    timings: Tuple[KernelTiming, ...]

    @property
    def exact_agree(self) -> bool:
        """True when every exact kernel reproduced ``baseline`` exactly.

        The sampled kernel's band error is reported, not judged (see
        the module docstring).
        """
        return all(t.agrees for t in self.timings if t.exact)

    def timing(self, kernel: str) -> KernelTiming:
        """The measurement row for one kernel, by name."""
        for t in self.timings:
            if t.kernel == kernel:
                return t
        raise KernelError(
            f"no timing for kernel {kernel!r}; have "
            f"{[t.kernel for t in self.timings]}"
        )


def _median_ns(fn, repeats: int) -> int:
    """Median wall time of ``repeats`` calls, in nanoseconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def compare_kernels(
    trace: Sequence[int],
    kernels: Optional[Sequence[str]] = None,
    repeats: int = 5,
    error_bound: float = SAMPLED_BAND_ERROR_BOUND,
) -> KernelComparison:
    """Time ``kernels`` (default: all registered) on ``trace``.

    The baseline kernel is always measured (it anchors the speedups and
    provides the reference curve) and is included in the result even when
    ``kernels`` omits it.
    """
    if repeats < 1:
        raise KernelError(f"repeats must be >= 1, got {repeats}")
    names = list(kernels) if kernels else list(available_kernels())
    if "baseline" not in names:
        names.insert(0, "baseline")
    # Measure baseline first so its median anchors every speedup.
    names.sort(key=lambda n: (n != "baseline", n))

    baseline = get_kernel("baseline")
    reference = baseline.analyze(trace)
    band = evaluation_band(reference.distinct_pages)
    reference_fetches = [reference.fetches(b) for b in band]
    baseline_ns = _median_ns(lambda: baseline.analyze(trace), repeats)

    timings: List[KernelTiming] = []
    for name in names:
        kern = get_kernel(name)
        if name == "baseline":
            ns, curve = baseline_ns, reference
        else:
            ns = _median_ns(lambda: kern.analyze(trace), repeats)
            curve = kern.analyze(trace)
        err = max(
            abs(curve.fetches(b) - f) / f
            for b, f in zip(band, reference_fetches)
        )
        if kern.exact:
            agrees = curve == reference
        else:
            agrees = err <= error_bound
        timings.append(
            KernelTiming(
                kernel=name,
                exact=kern.exact,
                median_ns=ns,
                speedup=baseline_ns / ns if ns else float("inf"),
                max_rel_error_pct=100.0 * err,
                agrees=agrees,
            )
        )

    return KernelComparison(
        references=reference.accesses,
        distinct_pages=reference.distinct_pages,
        baseline_median_ns=baseline_ns,
        timings=tuple(timings),
    )


def single_pass(kernel: str, source) -> Tuple[object, int]:
    """One streamed pass of ``kernel`` over a shard source.

    Streams the source's chunks exactly the way each shard worker does,
    so generation cost is charged to both sides of a sharded timing.
    Returns ``(curve, wall_ns)``.
    """
    started = time.perf_counter_ns()
    stream = get_kernel(kernel).stream()
    for chunk in source.chunks(0, source.total_refs):
        stream.feed(chunk)
    curve = stream.finish()
    return curve, time.perf_counter_ns() - started


def shard_timing(
    source, shards: int, workers: int, kernel: str
) -> Tuple[ShardRunResult, int]:
    """One sharded pass over ``source``: ``(result, wall_ns)``."""
    started = time.perf_counter_ns()
    result = run_sharded_pass(source, shards, workers=workers, kernel=kernel)
    return result, time.perf_counter_ns() - started
