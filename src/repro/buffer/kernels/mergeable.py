"""Mergeable shard summaries for the exact stack-distance kernels.

A *sharded* pass (PARDA-style) splits one reference trace into N
contiguous shards and analyzes each independently.  Reuses whose previous
occurrence lies in the same shard are already exact; the only information
a shard cannot resolve locally is the depth of each *first-local-access*
— the page may be cold globally, or a seam reuse of an earlier shard.

Each exact-kernel stream therefore reduces its shard to an
:class:`ExactShardSummary` holding exactly what the seam needs:

* ``histogram`` — intra-shard reuse depths, already exact;
* ``first_seen`` — pages in first-local-access order (the seam replay
  sequence; its length is the shard's local cold-miss count);
* ``recency`` — pages in last-local-access order, oldest first (how the
  shard reorders the global LRU stack for its successors).

:func:`merge_exact_summaries` folds summaries left-to-right through one
stream of the pass's own exact kernel, which holds the global LRU stack.
Each shard's ``first_seen`` is fed normally: its reuses are exactly the
seam reuses, at their true depths, and its cold touches are exactly the
global cold misses.  Its ``recency`` is then fed uncounted
(:meth:`~repro.buffer.kernels.base.KernelStream.feed_uncounted`), which
re-stacks the shard's pages in last-access order without counting them.
The result is **bit-identical** to a single uninterrupted pass: at every
first-local-access, the pages above the page's previous touch in the
replay stream are (a) this shard's already-replayed first accesses, each
counted once, and (b) pre-shard pages whose global last access falls
inside the reuse window — together exactly the distinct pages the single
pass would count.

The sampled (SHARDS) kernel merges differently — by summing per-page
hash/count states under a shared seed; see
:func:`repro.buffer.kernels.sampled.merge_sampled_summaries`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.buffer.kernels.base import StackDistanceKernel
from repro.buffer.stack import FetchCurve
from repro.errors import KernelError


@dataclass(frozen=True)
class ExactShardSummary:
    """One shard's contribution to an exact sharded pass.

    Memory is O(distinct pages in the shard): depths are histogrammed,
    never kept as a raw per-reference list.
    """

    #: Intra-shard reuse depth -> count.  Exact; merged by summation.
    histogram: Mapping[int, int]
    #: Pages in first-local-access order (local cold misses, in order).
    first_seen: Tuple[int, ...]
    #: Pages in last-local-access order, oldest first.
    recency: Tuple[int, ...]
    #: References the shard consumed.
    references: int

    def __post_init__(self) -> None:
        if set(self.first_seen) != set(self.recency):
            raise KernelError(
                "shard summary first_seen and recency must cover the "
                "same page set"
            )
        reuses = sum(self.histogram.values())
        if len(self.first_seen) + reuses != self.references:
            raise KernelError(
                f"shard summary accounting broken: {len(self.first_seen)}"
                f" cold + {reuses} reuses != {self.references} references"
            )


@dataclass(frozen=True)
class SeamStats:
    """What the merge resolved at the shard boundaries."""

    #: First-local-accesses that turned out to be reuses of earlier
    #: shards (each contributes one corrected depth to the histogram).
    seam_reuses: int
    #: First-local-accesses that were genuinely cold globally.
    cold_misses: int
    #: Shards merged (empty shards included).
    shards: int


def merge_exact_summaries(
    summaries: Sequence[ExactShardSummary], kernel: StackDistanceKernel
) -> Tuple[FetchCurve, SeamStats]:
    """Fold shard summaries (in trace order) into the single-pass curve.

    ``kernel`` is the pass's exact kernel; one of its streams replays
    the seams.  Bit-identical to analyzing the concatenated trace with
    any exact kernel.  Raises :class:`~repro.errors.KernelError` when
    given no summaries or a kernel whose streams cannot replay, and
    :class:`~repro.errors.TraceError` when the summaries cover zero
    references (matching an empty-trace single pass).
    """
    if not summaries:
        raise KernelError("cannot merge zero shard summaries")

    stream = kernel.stream()
    histogram = Counter()
    for summary in summaries:
        stream.feed(summary.first_seen)
        stream.feed_uncounted(summary.recency)
        histogram.update(summary.histogram)
    seams = stream._histogram()
    histogram.update(seams)
    cold = stream._cold
    curve = FetchCurve.from_distances(histogram, cold)
    return curve, SeamStats(
        seam_reuses=sum(seams.values()),
        cold_misses=cold,
        shards=len(summaries),
    )
