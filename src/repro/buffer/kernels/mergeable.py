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

:func:`merge_exact_summaries` folds summaries left-to-right over a
global recency structure — each live page owns a slot, one big integer
holds a bit per occupied slot, and a depth is the popcount above a slot —
replaying each shard's ``first_seen`` sequence to resolve seam depths,
then re-stacking the shard's ``recency`` pages on top.  The result is
**bit-identical** to a single uninterrupted pass: at every
first-local-access, the pages above the previous slot are (a)
this shard's already-replayed first accesses, each counted once, and (b)
pre-shard pages whose global last access falls inside the reuse window —
together exactly the distinct pages the single pass would count.

The sampled (SHARDS) kernel merges differently — by summing per-page
hash/count states under a shared seed; see
:func:`repro.buffer.kernels.sampled.merge_sampled_summaries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.buffer.stack import FetchCurve
from repro.errors import KernelError

#: Initial/minimum slot capacity of the merge recency structure.
_MIN_CAPACITY = 4096


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
    summaries: Sequence[ExactShardSummary],
) -> Tuple[FetchCurve, SeamStats]:
    """Fold shard summaries (in trace order) into the single-pass curve.

    Bit-identical to analyzing the concatenated trace with any exact
    kernel.  Raises :class:`~repro.errors.KernelError` when given no
    summaries and :class:`~repro.errors.TraceError` when the summaries
    cover zero references (matching an empty-trace single pass).
    """
    if not summaries:
        raise KernelError("cannot merge zero shard summaries")

    histogram: Dict[int, int] = {}
    # Global recency structure: live page -> slot, one occupancy bit per
    # slot in a big integer, monotone slot assignment with periodic
    # re-packing (ordered by recency) so the mask stays O(D) bits wide.
    # Single bits are built on demand: a table of every ``1 << i`` would
    # hold sum(i) bits, quadratic in D.
    slot_of: Dict[int, int] = {}
    mask = 0
    next_slot = 0
    capacity = _MIN_CAPACITY
    seam_reuses = 0
    cold = 0

    def repack() -> None:
        nonlocal mask, next_slot, capacity
        live = sorted(slot_of.items(), key=lambda kv: kv[1])
        slot_of.clear()
        slot_of.update(
            (page, i) for i, (page, _slot) in enumerate(live)
        )
        d = len(slot_of)
        mask = (1 << d) - 1
        next_slot = d
        capacity = max(_MIN_CAPACITY, 3 * d)

    pop = slot_of.pop
    for summary in summaries:
        # Stage 1: replay the seam.  Each first-local-access either hits
        # a page still on the global stack (seam reuse: its depth is the
        # number of more recent slots, exactly as in a single pass) or is
        # a true cold miss.  Pushing the page afterwards keeps the stack
        # consistent for the pages replayed after it.
        for page in summary.first_seen:
            prev = pop(page, None)
            if prev is not None:
                depth = (mask >> (prev + 1)).bit_count() + 1
                histogram[depth] = histogram.get(depth, 0) + 1
                mask ^= 1 << prev
                seam_reuses += 1
            else:
                cold += 1
            if next_slot >= capacity:
                repack()
            slot_of[page] = next_slot
            mask |= 1 << next_slot
            next_slot += 1

        # Stage 2: intra-shard depths are already exact.
        for depth, count in summary.histogram.items():
            histogram[depth] = histogram.get(depth, 0) + count

        # Stage 3: restack the shard's pages in last-local-access order.
        # Untouched pre-shard pages keep their relative order below; the
        # shard's pages end up on top, most recent last — the global
        # stack is now exactly what a single pass would hold here.
        for page in summary.recency:
            prev = pop(page, None)
            if prev is not None:
                mask ^= 1 << prev
            if next_slot >= capacity:
                repack()
            slot_of[page] = next_slot
            mask |= 1 << next_slot
            next_slot += 1

    curve = FetchCurve.from_distances(histogram, cold)
    return curve, SeamStats(
        seam_reuses=seam_reuses,
        cold_misses=cold,
        shards=len(summaries),
    )
