"""The reference kernel: the original Fenwick-over-positions pass.

This is the exact algorithm of :func:`repro.buffer.stack.stack_distances`
(O(M log M) for M references) exposed behind the kernel interface, plus a
streaming variant whose Fenwick tree grows geometrically so references can
be fed in chunks without knowing the trace length up front.  Every other
exact kernel is validated against this one.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, Iterable, List

from repro.buffer.kernels.base import (
    KernelStream,
    StackDistanceKernel,
    _record_kernel_pass,
)
from repro.buffer.kernels.mergeable import ExactShardSummary
from repro.buffer.stack import FetchCurve, stack_distances
from repro.obs.metrics import global_registry


class _BaselineStream(KernelStream):
    """Chunk-fed Fenwick pass over trace positions."""

    def __init__(self) -> None:
        self._capacity = 1024
        self._tree: List[int] = [0] * (self._capacity + 1)
        self._last_seen: Dict[int, int] = {}
        self._distances: List[int] = []
        self._cold = 0
        self._position = 0

    def _grow(self, needed: int) -> None:
        """Double the position capacity to cover ``needed`` references.

        The tree is rebuilt from the "most recent occurrence" flags in
        O(capacity); geometric growth keeps the amortized per-reference
        cost constant, and distances are position-independent so growth
        never changes the output.
        """
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        tree = [0] * (capacity + 1)
        for pos in self._last_seen.values():
            tree[pos + 1] += 1
        for i in range(1, capacity + 1):
            parent = i + (i & -i)
            if parent <= capacity:
                tree[parent] += tree[i]
        self._capacity = capacity
        self._tree = tree

    def _consume(self, pages: Iterable[int]) -> None:
        chunk = pages if isinstance(pages, (list, tuple)) else list(pages)
        if self._position + len(chunk) > self._capacity:
            self._grow(self._position + len(chunk))
        # Same inner loop as stack_distances(), offset by the running
        # position; locals are bound once per chunk for speed.
        tree = self._tree
        n = self._capacity
        last_seen = self._last_seen
        append = self._distances.append
        get = last_seen.get
        cold = self._cold
        t = self._position
        for page in chunk:
            prev = get(page)
            if prev is None:
                cold += 1
            else:
                i = t
                hi = 0
                while i > 0:
                    hi += tree[i]
                    i -= i & -i
                i = prev + 1
                lo = 0
                while i > 0:
                    lo += tree[i]
                    i -= i & -i
                append(hi - lo + 1)
                i = prev + 1
                while i <= n:
                    tree[i] -= 1
                    i += i & -i
            i = t + 1
            while i <= n:
                tree[i] += 1
                i += i & -i
            last_seen[page] = t
            t += 1
        self._cold = cold
        self._position = t

    def feed_uncounted(self, pages: Iterable[int]) -> None:
        """Feed ``pages`` for their effect on the stack only."""
        reuses = len(self._distances)
        cold = self._cold
        self.feed(pages)
        del self._distances[reuses:]
        self._cold = cold

    def _histogram(self) -> Dict[int, int]:
        """Reuse depth -> count, for every depth that occurred."""
        return dict(Counter(self._distances))

    def _result(self) -> FetchCurve:
        return FetchCurve.from_distances(self._distances, self._cold)

    def shard_summary(self) -> ExactShardSummary:
        """Reduce this stream's shard to a mergeable summary.

        ``_last_seen`` already carries both orders the seam needs: dict
        keys in insertion order are the first-local-access sequence, and
        sorting by value (trace position) yields last-access recency.
        """
        self._close_for_summary()
        last_seen = self._last_seen
        return ExactShardSummary(
            histogram=self._histogram(),
            first_seen=tuple(last_seen),
            recency=tuple(
                sorted(last_seen, key=last_seen.__getitem__)
            ),
            references=self._position,
        )


class BaselineKernel(StackDistanceKernel):
    """Exact Fenwick-tree kernel — the library's original hot loop."""

    name = "baseline"
    exact = True

    def _new_stream(self) -> KernelStream:
        """A fresh growable-Fenwick stream."""
        return _BaselineStream()

    def analyze(self, trace: Iterable[int]) -> FetchCurve:
        """One-shot pass; sized sequences skip the growable indirection."""
        if hasattr(trace, "__len__"):
            if not global_registry().enabled:
                distances, cold = stack_distances(trace)
                return FetchCurve.from_distances(distances, cold)
            started = time.perf_counter_ns()
            distances, cold = stack_distances(trace)
            curve = FetchCurve.from_distances(distances, cold)
            _record_kernel_pass(
                self.name,
                curve.accesses,
                time.perf_counter_ns() - started,
            )
            return curve
        return super().analyze(trace)
