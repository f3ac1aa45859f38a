"""Differential cross-validation against the direct LRU simulator.

The ground truth for everything this library computes is Section 2's
assumption: a finite buffer pool managed by LRU.  The
:class:`~repro.buffer.lru.LRUBufferPool` simulator implements that
assumption literally (one pool per buffer size, replayed reference by
reference), so it is the oracle here — slow, obvious, and independent of
every clever pass being verified.

For each corpus trace this module replays the oracle at a grid of buffer
sizes and compares:

* every registered **exact** kernel (``baseline``, and ``numpy`` when
  importable) — required to match the oracle *exactly* at every size;
* the **streaming** chunked path of each kernel — required to match that
  kernel's own one-shot analysis exactly (chunking must be invisible);
* the **sharded** merge path of each kernel — a shard-and-merge pass
  (see :mod:`repro.buffer.kernels.sharded`) must likewise reproduce the
  one-shot analysis fetch for fetch, at several shard counts;
* the **sampled** kernel — exact when its small-universe escape hatch
  applies, otherwise held to its documented relative-error band on the
  evaluation grid (see :mod:`repro.buffer.kernels.sampled`);
* every registered **policy** kernel (``clock``, ``2q``,
  ``lecar-tinylfu``) — held to exact agreement with *its own*
  :class:`~repro.buffer.pool.BufferPool` simulator, replayed here size
  by size exactly as the LRU pool is for LRU kernels.  The dormant
  :class:`~repro.buffer.clock.ClockBufferPool` thereby becomes a live
  oracle.  Policy kernels skip the sharded stage (no stack property, no
  mergeable shard summaries) but their streaming chunked path is held
  to the same chunking-invisibility contract as every other kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.buffer.kernels import (
    SAMPLED_BAND_ERROR_BOUND,
    available_kernels,
    available_policy_kernels,
    get_kernel,
    sharded_fetch_curve,
)
from repro.buffer.lru import LRUBufferPool
from repro.buffer.policies import get_policy_pool
from repro.errors import VerificationError
from repro.trace.reference import streaming_fetch_curve
from repro.verify.traces import TraceCase

#: Chunk sizes used to exercise the streaming path; deliberately awkward
#: (single refs, a prime, and a chunk larger than most corpus traces).
STREAMING_CHUNK_SIZES: Tuple[int, ...] = (1, 97, 4096)

#: Shard counts used to exercise the sharded merge path (an even split
#: and a prime one, both forcing multiple seams on corpus traces).
SHARDED_SHARD_COUNTS: Tuple[int, ...] = (2, 5)


def oracle_fetches(trace: Sequence[int], buffer_pages: int) -> int:
    """Page fetches of a real LRU pool of ``buffer_pages`` slots."""
    if buffer_pages < 1:
        raise VerificationError(
            f"buffer size must be >= 1, got {buffer_pages}"
        )
    return LRUBufferPool(buffer_pages).run(trace)


def oracle_curve(
    trace: Sequence[int], buffer_sizes: Sequence[int]
) -> List[Tuple[int, int]]:
    """``[(B, F(B)), ...]`` by direct simulation, one pool per size."""
    return [(b, oracle_fetches(trace, b)) for b in buffer_sizes]


def _chunks(
    pages: Sequence[int], chunk_size: int
) -> Iterator[Sequence[int]]:
    for start in range(0, len(pages), chunk_size):
        yield pages[start:start + chunk_size]


@dataclass(frozen=True)
class Mismatch:
    """One point where a kernel curve departed from its reference."""

    buffer_pages: int
    expected: int
    got: int

    def __str__(self) -> str:
        return (
            f"B={self.buffer_pages}: expected {self.expected}, "
            f"got {self.got}"
        )


@dataclass(frozen=True)
class DifferentialResult:
    """One (trace case, kernel) comparison against the LRU oracle."""

    case: str
    kernel: str
    #: Whether this kernel was held to exact agreement (exact kernels
    #: always; ``sampled`` when its escape hatch applies).
    held_exact: bool
    checked_sizes: Tuple[int, ...]
    #: Oracle disagreements (only populated when ``held_exact``).
    mismatches: Tuple[Mismatch, ...]
    #: Worst relative error vs the oracle over the evaluation band
    #: (approximate kernels only; 0.0 when held exact and agreeing).
    max_band_error: float
    #: The bound ``max_band_error`` is judged against (0 when exact).
    error_bound: float
    #: Whether chunk-fed streaming reproduced the one-shot analysis.
    streaming_consistent: bool
    #: Whether the shard-and-merge pass reproduced the one-shot analysis.
    sharded_consistent: bool = True

    @property
    def ok(self) -> bool:
        """True when this kernel met its contract on this trace."""
        if not self.streaming_consistent:
            return False
        if not self.sharded_consistent:
            return False
        if self.held_exact:
            return not self.mismatches
        return self.max_band_error <= self.error_bound

    def describe(self) -> str:
        """One-line human-readable verdict."""
        if self.held_exact:
            verdict = (
                "exact match" if not self.mismatches
                else f"{len(self.mismatches)} oracle mismatches "
                     f"(first: {self.mismatches[0]})"
            )
        else:
            verdict = (
                f"band error {100 * self.max_band_error:.2f}% "
                f"(bound {100 * self.error_bound:.0f}%)"
            )
        if not self.streaming_consistent:
            verdict += "; streaming DIVERGED from one-shot"
        if not self.sharded_consistent:
            verdict += "; sharded merge DIVERGED from one-shot"
        return f"{self.case}/{self.kernel}: {verdict}"


def _streaming_consistent(
    case: TraceCase, kernel_name: str, one_shot_curve, sizes: Sequence[int]
) -> bool:
    """Chunked feeding must reproduce the one-shot curve point for point.

    This holds for the sampled kernel too: its hash sample is a function
    of the reference multiset and seed, never of chunk boundaries.
    """
    for chunk_size in STREAMING_CHUNK_SIZES:
        streamed = streaming_fetch_curve(
            _chunks(case.pages, chunk_size), kernel_name
        )
        for b in sizes:
            if streamed.fetches(b) != one_shot_curve.fetches(b):
                return False
    return True


def _sharded_consistent(
    case: TraceCase, kernel_name: str, one_shot_curve, sizes: Sequence[int]
) -> bool:
    """A shard-and-merge pass must reproduce the one-shot curve.

    Exact kernels go through the seam-corrected merge; the sampled
    kernel merges per-shard hash samples under the shared seed.  Both
    are constructed to be bit-identical to the single pass, so this is
    an equality check, never a band check.
    """
    for shards in SHARDED_SHARD_COUNTS:
        merged = sharded_fetch_curve(case.pages, shards, kernel=kernel_name)
        for b in sizes:
            if merged.fetches(b) != one_shot_curve.fetches(b):
                return False
    return True


def default_verify_kernels() -> Tuple[str, ...]:
    """The kernels a default verification run checks.

    Every registered stack kernel (against the LRU oracle) plus every
    registered policy kernel (against its own pool simulator) — the
    whole policy dimension is differentially verified by default.
    """
    return available_kernels() + available_policy_kernels()


def differential_check(
    case: TraceCase,
    kernels: Optional[Sequence[str]] = None,
    oracle: Optional[Dict[int, int]] = None,
) -> List[DifferentialResult]:
    """Replay ``case`` through the oracle and every requested kernel.

    ``kernels`` defaults to :func:`default_verify_kernels` (every stack
    kernel plus every policy kernel); ``oracle`` lets a caller reuse
    precomputed *LRU* oracle fetches (keyed by buffer size) when
    checking several kernel sets over the same trace — policy kernels
    always replay their own policy's pool here, so the precomputed dict
    never applies to them.
    """
    names = (
        tuple(kernels) if kernels is not None else default_verify_kernels()
    )
    unknown = sorted(set(names) - set(default_verify_kernels()))
    if unknown:
        raise VerificationError(
            f"unknown kernels {unknown}; registered: "
            f"{', '.join(default_verify_kernels())}"
        )
    sizes = case.buffer_sizes()
    band = set(case.band_sizes())
    lru_names = [
        n for n in names if getattr(get_kernel(n), "policy", "lru") == "lru"
    ]
    if oracle is None:
        oracle = (
            {b: oracle_fetches(case.pages, b) for b in sizes}
            if lru_names
            else {}
        )
    elif lru_names:
        missing = sorted(set(sizes) - set(oracle))
        if missing:
            raise VerificationError(
                f"precomputed oracle is missing buffer sizes {missing}"
            )

    results: List[DifferentialResult] = []
    for name in names:
        kernel = get_kernel(name)
        curve = kernel.analyze(case.pages)
        if kernel.policy != "lru":
            # The ground truth for a policy kernel is its own pool
            # simulator, replayed one size at a time — fetch for fetch,
            # exactly how the LRU pool serves the stack kernels.
            truth = {
                b: get_policy_pool(kernel.policy, b).run(case.pages)
                for b in sizes
            }
            held_exact = True
        else:
            truth = oracle
            held_exact = kernel.exact or case.sampled_is_exact
        mismatches: List[Mismatch] = []
        max_band_error = 0.0
        for b in sizes:
            got = curve.fetches(b)
            want = truth[b]
            if held_exact and got != want:
                mismatches.append(Mismatch(b, want, got))
            if b in band and want:
                max_band_error = max(
                    max_band_error, abs(got - want) / want
                )
        results.append(
            DifferentialResult(
                case=case.name,
                kernel=name,
                held_exact=held_exact,
                checked_sizes=sizes,
                mismatches=tuple(mismatches),
                max_band_error=max_band_error,
                error_bound=(
                    0.0 if held_exact else SAMPLED_BAND_ERROR_BOUND
                ),
                streaming_consistent=_streaming_consistent(
                    case, name, curve, sizes
                ),
                sharded_consistent=(
                    _sharded_consistent(case, name, curve, sizes)
                    if kernel.mergeable
                    else True
                ),
            )
        )
    return results
