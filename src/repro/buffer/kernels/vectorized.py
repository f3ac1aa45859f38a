"""Optional numpy kernel: the Mattson pass as a vectorized stream.

The stack depth of a reuse at position ``t`` whose page was last touched
at ``p`` is one plus the number of distinct pages touched in ``(p, t)``.
This kernel computes it one fed block at a time, against carried state
of size O(D) for D distinct pages: every page's last (and first) access
position, all last positions in sorted order, the depth histogram, the
cold count and the stream position.  No per-reference data outlives a
feed, so memory is bounded by the page universe, not the trace.

For a block starting at global position ``s``, let ``gp[t]`` be the
previous occurrence of each reference (-1 when the page is cold) and
``dom[t] = #{s <= j < t : gp[j] <= gp[t]}`` — a 2-D dominance count over
the block alone.  Then the depth is

* ``dom[t] + s - gp[t]`` for a repeat within the block (``gp[t] >= s``);
* ``dom[t] + C - rank(gp[t])`` for a page's first touch in the block
  (``0 <= gp[t] < s``), where ``rank`` is the position of ``gp[t]`` among
  the C carried last positions, kept sorted.

Every block's work — one grouping sort, two ``searchsorted`` lookups
with sorted keys, an O(L log² L) dominance count and one histogram
update — runs inside numpy's C loops.  Feeds longer than 2**16
references are split into blocks, so ``analyze`` of a whole trace takes
the same path with bounded temporaries.

Results are bit-identical to the baseline kernel.  The module always
imports — :data:`HAVE_NUMPY` reports availability — but the kernel class
raises :class:`~repro.errors.KernelError` at construction when numpy is
missing, and :mod:`repro.buffer.kernels` only registers it when numpy
imports, keeping the package zero-dependency.
"""

from __future__ import annotations

import array
import operator
from typing import Dict, Iterable

from repro.buffer.kernels.base import KernelStream, StackDistanceKernel
from repro.buffer.kernels.mergeable import ExactShardSummary
from repro.buffer.stack import FetchCurve
from repro.errors import CheckpointError, KernelError, TraceError

try:  # pragma: no cover - exercised implicitly by the registry
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy imported and the kernel is usable.
HAVE_NUMPY = _np is not None

_INT64_MAX = (1 << 63) - 1

#: Positions within one block fit this many bits; longer feeds are split.
_POSITION_BITS = 16
_BLOCK = 1 << _POSITION_BITS
#: Blocks whose page ids span less than this sort as packed
#: ``(page, position)`` keys; ``(span << 16) | position`` stays in int64.
_PACKED_SPAN = 1 << (62 - _POSITION_BITS)


def _exact_page(page) -> int:
    """``page`` as an int int64 holds exactly, or :class:`TraceError`.

    Integral floats are the same page as their int (``2.0 == 2``), as
    in the dict-keyed kernels; anything else must be an integer.
    """
    try:
        if isinstance(page, (float, _np.floating)):
            value = int(page) if float(page).is_integer() else None
        else:
            value = operator.index(page)
    except TypeError:
        value = None
    if value is None or not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise TraceError(
            f"the numpy kernel needs page ids int64 holds exactly, "
            f"got {page!r}"
        )
    return value


def _page_array(pages: list):
    """``pages`` as an int64 array; never truncates or wraps an id.

    The common case — integers that fit — converts in one C call
    (``array`` accepts only integers and raises on overflow).  Anything
    else takes a checked per-element path over the original objects.
    """
    try:
        return _np.frombuffer(array.array("q", pages), dtype=_np.int64)
    except (TypeError, OverflowError):
        return _np.fromiter(
            map(_exact_page, pages), dtype=_np.int64, count=len(pages)
        )


def _group_by_page(block):
    """``(order, block[order])`` for a stable argsort of ``block``.

    Positions come out grouped by page, in position order within a
    page.  When the ids span little enough, ``(page, position)`` packs
    into one int64 key; the keys are distinct, so a plain sort is
    stable, and several times faster than a stable argsort.
    """
    np = _np
    low = int(block.min())
    if int(block.max()) - low >= _PACKED_SPAN:
        order = np.argsort(block, kind="stable")
        return order, block[order]
    packed = block - low
    packed <<= _POSITION_BITS
    packed |= np.arange(block.size, dtype=np.int64)
    packed.sort()
    order = packed & (_BLOCK - 1)
    packed >>= _POSITION_BITS
    packed += low
    return order, packed


def _smaller_before(ranks):
    """``out[t] = #{j < t : ranks[j] < ranks[t]}`` for a permutation.

    ``ranks`` holds each of ``0..m-1`` once, with ``m <= 2**16``.  A
    bottom-up merge over power-of-two position blocks: sorting the keys
    ``(block << bits) | rank`` orders every block by rank, and an element
    of a block's right half sits at its index within its own half plus
    the number of left-half elements with a smaller rank.  Each pair
    ``j < t`` is counted at the one level where it first shares a
    block.  int32 holds every key.
    """
    np = _np
    m = ranks.size
    counts = np.zeros(m, dtype=np.int64)  # indexed by rank
    if m < 2:
        return counts
    bits = (m - 1).bit_length()
    ranks = ranks.astype(np.int32)
    pos = np.arange(m, dtype=np.int32)
    where = np.empty(m, dtype=np.int32)  # position of each rank
    where[ranks] = pos
    below = np.zeros(m, dtype=np.int32)  # index within the half block
    key = np.empty(m, dtype=np.int32)
    for level in range(bits):
        np.right_shift(pos, level + 1, out=key)
        key <<= bits
        key |= ranks
        key.sort()
        key &= (1 << bits) - 1  # ranks in merged order
        index = np.empty(m, dtype=np.int32)
        index[key] = pos & ((2 << level) - 1)
        in_right = (where >> level) & 1
        counts += in_right * (index - below)
        below = index
    return counts[ranks]


class _VectorizedStream(KernelStream):
    """Chunk-fed vectorized pass over O(D) carried state."""

    #: Attributes a snapshot must restore.  Older builds buffered the
    #: trace instead (one ``_chunks`` list) and carry none of them.
    _STATE = (
        "_pages", "_last", "_first", "_last_sorted", "_hist",
        "_cold", "_position",
    )

    def __init__(self) -> None:
        np = _np
        self._pages = np.empty(0, dtype=np.int64)  # distinct, sorted
        self._last = np.empty(0, dtype=np.int64)  # per page
        self._first = np.empty(0, dtype=np.int64)  # per page
        self._last_sorted = np.empty(0, dtype=np.int64)
        self._hist = np.zeros(1, dtype=np.int64)  # depth -> reuses
        self._cold = 0
        self._position = 0

    def __setstate__(self, state: dict) -> None:
        if not all(name in state for name in self._STATE):
            raise CheckpointError(
                "numpy kernel snapshot has the buffered layout of an "
                "older build and cannot be resumed; rerun the pass "
                "without resume"
            )
        self.__dict__.update(state)

    def _consume(self, pages: Iterable[int]) -> None:
        arr = _page_array(
            pages if isinstance(pages, (list, tuple)) else list(pages)
        )
        for lo in range(0, arr.size, _BLOCK):
            self._feed_block(arr[lo:lo + _BLOCK])

    def _feed_block(self, block) -> None:
        """Fold one block of at most ``_BLOCK`` references in."""
        np = _np
        n = block.size
        if not n:
            return
        start = self._position
        order, grouped = _group_by_page(block)
        head = np.empty(n, dtype=bool)  # first touch of its page here
        head[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
        tail = np.empty(n, dtype=bool)  # last touch of its page here
        tail[-1] = True
        tail[:-1] = head[1:]
        pages = grouped[head]  # sorted, like self._pages
        firsts = order[head]
        lasts = order[tail]

        slot = np.searchsorted(self._pages, pages)
        seen = slot < self._pages.size
        seen[seen] = self._pages[slot[seen]] == pages[seen]
        seen_slot = slot[seen]

        # Carried reuses: a seen page's first touch here, ordered by the
        # page's previous position; rank places that position among the
        # C carried last positions.
        previous = self._last[seen_slot]
        by_previous = np.argsort(previous)
        carried_at = firsts[seen][by_previous]
        rank = np.searchsorted(self._last_sorted, previous[by_previous])
        # Repeats within the block, and where each was touched before.
        repeat = ~head[1:]
        repeat_at = order[1:][repeat]
        repeat_prev = order[:-1][repeat]

        # Previous positions are distinct, so their dense ranks over all
        # reuses form a permutation: carried ones first (all precede the
        # block), then the block's own, whose previous positions are
        # exactly its positions that are not a page's last touch here.
        is_tail = np.zeros(n, dtype=bool)
        is_tail[lasts] = True
        carried = carried_at.size
        prev_rank = np.full(n, -1, dtype=np.int64)
        prev_rank[carried_at] = np.arange(carried)
        prev_rank[repeat_at] = (
            np.cumsum(~is_tail)[repeat_prev] - 1 + carried
        )
        offset = np.empty(n, dtype=np.int64)
        offset[carried_at] = self._last_sorted.size - rank
        offset[repeat_at] = -repeat_prev  # s - gp[t], as a local position

        # dom[t] counts the cold touches before t (gp = -1) plus the
        # reuses before t with a smaller previous position.
        reuse = prev_rank >= 0
        at = np.flatnonzero(reuse)
        cold_before = np.cumsum(~reuse)
        cold_before -= ~reuse
        depth = _smaller_before(prev_rank[at])
        depth += cold_before[at]
        depth += offset[at]

        self._last_sorted = np.concatenate((
            np.delete(self._last_sorted, rank),
            np.flatnonzero(is_tail) + start,
        ))
        self._last[seen_slot] = lasts[seen] + start
        new = ~seen
        if new.any():
            into = slot[new]
            self._pages = np.insert(self._pages, into, pages[new])
            self._last = np.insert(self._last, into, lasts[new] + start)
            self._first = np.insert(
                self._first, into, firsts[new] + start
            )
        self._cold += n - at.size
        self._position = start + n
        hist = self._hist
        if hist.size <= self._pages.size:  # no depth exceeds D
            grown = np.zeros(
                max(2 * hist.size, self._pages.size + 1), dtype=np.int64
            )
            grown[:hist.size] = hist
            self._hist = hist = grown
        np.add.at(hist, depth, 1)

    def _histogram(self) -> Dict[int, int]:
        """Reuse depth -> count, for every depth that occurred."""
        hist = self._hist
        depths = _np.flatnonzero(hist)
        return dict(zip(depths.tolist(), hist[depths].tolist()))

    def _result(self) -> FetchCurve:
        return FetchCurve.from_distances(self._histogram(), self._cold)

    def shard_summary(self) -> ExactShardSummary:
        """Reduce this stream's shard to a mergeable summary.

        The carried state holds both orders the seam needs: the pages
        by first position, and by last position (recency).
        """
        self._close_for_summary()
        pages = self._pages
        return ExactShardSummary(
            histogram=self._histogram(),
            first_seen=tuple(pages[_np.argsort(self._first)].tolist()),
            recency=tuple(pages[_np.argsort(self._last)].tolist()),
            references=self._position,
        )


class VectorizedKernel(StackDistanceKernel):
    """Exact numpy kernel (auto-registered only when numpy is present)."""

    name = "numpy"
    exact = True

    def __init__(self) -> None:
        if not HAVE_NUMPY:
            raise KernelError(
                "the 'numpy' kernel requires numpy, which is not installed"
            )

    def _new_stream(self) -> KernelStream:
        """A fresh stream over empty carried state."""
        return _VectorizedStream()
