"""Optional numpy kernel: vectorized offline stack-distance computation.

The stack depth of a reuse at position ``t`` with previous occurrence
``prev(t)`` equals the number of positions ``j < t`` whose *own* previous
occurrence satisfies ``prev(j) <= prev(t)`` (each such ``j`` is the most
recent touch of a distinct page in the window), minus the window start —
a classic 2-D dominance-counting problem.  This kernel solves it offline
with a bottom-up merge over power-of-two levels: at each level the query
side is answered by one global ``np.searchsorted`` against per-block sorted
``prev`` arrays (a row-offset trick turns the ragged per-block queries into
a single flat call), giving O(M log^2 M) work executed entirely inside
numpy's C loops.

Results are bit-identical to the baseline kernel.  The module always
imports — :data:`HAVE_NUMPY` reports availability — but the kernel class
raises :class:`~repro.errors.KernelError` at construction when numpy is
missing, and :mod:`repro.buffer.kernels` only registers it when numpy
imports, keeping the package zero-dependency.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, List

from repro.buffer.kernels.base import KernelStream, StackDistanceKernel
from repro.buffer.kernels.mergeable import ExactShardSummary
from repro.buffer.stack import FetchCurve
from repro.errors import KernelError, TraceError

try:  # pragma: no cover - exercised implicitly by the registry
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy imported and the kernel is usable.
HAVE_NUMPY = _np is not None

_INT64_MAX = (1 << 63) - 1


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

    The common case — plain ints that fit — converts in one numpy call.
    Anything else (numpy promotes an int past int64 to float64, mixed
    types to float or str, and nests or rejects sequences) takes a
    checked per-element path over the original objects.
    """
    try:
        arr = _np.asarray(pages)
    except ValueError:  # ragged nested sequences
        arr = None
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in "ib":
        return arr.astype(_np.int64, copy=False)
    return _np.fromiter(
        map(_exact_page, pages), dtype=_np.int64, count=len(pages)
    )


def _vectorized_distances(pages) -> "tuple[list, int]":
    """Return ``(distances, cold_misses)`` for an int64 array of pages."""
    np = _np
    n = int(pages.size)
    # prev[t] = position of the previous occurrence of pages[t], or -1.
    order = np.lexsort((np.arange(n), pages))
    sorted_pages = pages[order]
    prev = np.full(n, -1, dtype=np.int64)
    same = sorted_pages[1:] == sorted_pages[:-1]
    prev[order[1:][same]] = order[:-1][same]

    q_t = np.nonzero(prev >= 0)[0]  # positions of reuses (queries)
    cold = n - int(q_t.size)
    if q_t.size == 0:
        return [], cold
    q_p = prev[q_t]  # query thresholds

    # acc[i] counts positions j < q_t[i] with prev[j] <= q_p[i]; every
    # such j is the most recent touch of a distinct page no later than
    # q_p[i], so distance = acc - q_p (depth is 1-based and the q_p + 1
    # positions at or before q_p are all dominated).
    acc = np.zeros(q_t.size, dtype=np.int64)

    # Pad to a power of two so every merge level is a clean reshape; the
    # sentinel n + 2 exceeds every real prev value but keeps the
    # row-offset arithmetic far from int64 overflow.
    n2 = 1 << (n - 1).bit_length() if n > 1 else 1
    big = np.int64(n + 2)
    prevpad = np.full(n2, big, dtype=np.int64)
    prevpad[:n] = prev

    width = 1
    while width < n2:
        block = q_t // (2 * width)  # which merge pair each query is in
        in_right = (q_t % (2 * width)) >= width
        sel = np.nonzero(in_right)[0]
        if sel.size:
            # Left-half values, sorted per block: the candidates dominated
            # by queries living in the right half of the same block.  The
            # row-offset trick lets one global searchsorted answer every
            # block's queries at once.
            lefts = prevpad.reshape(-1, 2 * width)[:, :width]
            sorted_left = np.sort(lefts, axis=1)
            off = big + 1
            row_offsets = (
                np.arange(sorted_left.shape[0], dtype=np.int64) * off
            )
            flat = (sorted_left + row_offsets[:, None]).ravel()
            qb = block[sel]
            keys = q_p[sel] + qb * off
            acc[sel] += np.searchsorted(flat, keys, side="right") - qb * width
        width *= 2

    return (acc - q_p).tolist(), cold


class _VectorizedStream(KernelStream):
    """Buffers chunks as arrays; the analysis itself is offline."""

    def __init__(self) -> None:
        self._chunks: List = []  # one int64 ndarray per fed chunk

    def _consume(self, pages: Iterable[int]) -> None:
        arr = _page_array(
            pages if isinstance(pages, (list, tuple)) else list(pages)
        )
        if arr.size:
            self._chunks.append(arr)

    def _result(self) -> FetchCurve:
        if not self._chunks:
            raise TraceError("cannot build a FetchCurve from an empty trace")
        pages = (
            self._chunks[0]
            if len(self._chunks) == 1
            else _np.concatenate(self._chunks)
        )
        self._chunks = []
        distances, cold = _vectorized_distances(pages)
        return FetchCurve.from_distances(distances, cold)

    def shard_summary(self) -> ExactShardSummary:
        """Reduce this stream's shard to a mergeable summary.

        First- and last-occurrence orders come from ``np.unique`` with
        ``return_index`` over the buffer and its reverse — still fully
        vectorized, no Python loop over references.
        """
        self._close_for_summary()
        np = _np
        if not self._chunks:
            return ExactShardSummary({}, (), (), 0)
        pages = (
            self._chunks[0]
            if len(self._chunks) == 1
            else np.concatenate(self._chunks)
        )
        self._chunks = []
        distances, cold = _vectorized_distances(pages)
        n = int(pages.size)
        uniq, first_idx = np.unique(pages, return_index=True)
        first_seen = tuple(
            int(p) for p in uniq[np.argsort(first_idx, kind="stable")]
        )
        uniq_r, rev_idx = np.unique(pages[::-1], return_index=True)
        last_idx = n - 1 - rev_idx
        recency = tuple(
            int(p) for p in uniq_r[np.argsort(last_idx, kind="stable")]
        )
        return ExactShardSummary(
            histogram=dict(Counter(distances)),
            first_seen=first_seen,
            recency=recency,
            references=n,
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
        """A fresh buffering stream."""
        return _VectorizedStream()
