"""Approximate kernel: SHARDS-style fixed-rate spatial hash sampling.

Instead of analyzing every reference, this kernel analyzes only the
references to a fixed pseudo-random *subset of pages* — every page whose
24-bit hash falls under ``rate * 2**24`` (Waldspurger et al.'s SHARDS
construction).  Sampling by page (not by reference) preserves each sampled
page's complete reuse pattern, so the sampled sub-trace yields unbiased
stack-depth observations; depths measured in the sub-trace are then rescaled
by the realized inverse sampling ratio ``k = A / A_s`` (distinct pages over
distinct *sampled* pages) to estimate true depths.

What stays **exact** (the hash cache sees every reference, so these are
free): the total reference count ``M``, the distinct-page count ``A``, and —
for the stratified estimator — every page's reference count.  Only the shape
of the depth distribution is estimated.

Robustness measures, each of which the bench traces demonstrably need:

* **Small-universe escape hatch** — references are buffered verbatim until
  more than ``min_pages`` distinct pages appear; tiny traces get an exact
  analysis (and exactly match the baseline kernel).
* **Adaptive minimum sample** — references are recorded at ``guard_factor``
  times the target rate; if fewer than ``min_pages`` pages fall under the
  target threshold, the threshold is raised to the ``min_pages``-th smallest
  page hash (never past the guard rate).  This bounds the variance blow-up
  of very small samples at a bounded cost.
* **Post-stratification** (``stratify=True``, the default) — pages are
  binned by the exact number of reuses they contribute
  (``(count-1).bit_length()``); each bin's *mass* is exact and only its
  depth distribution comes from the sample, which keeps heavy Zipf-skewed
  traces from being misrepresented when the sample happens to miss or
  over-draw hot pages.
* **Frequency-scaled extrapolation** — a fixed-rate spatial sample is very
  likely to miss the handful of hottest pages on a skewed trace, leaving
  the hottest strata with exact mass but no sampled depths.  Borrowing the
  nearest sampled stratum's distribution *unscaled* places that mass far
  too deep (a page referenced twice as often has roughly half the gap, and
  a concave working-set function maps half the gap to between 0.5x and 1x
  the depth).  Instead, the kernel fits the per-stratum geometric decay of
  mean depth on the well-observed strata and scales the borrowed histogram
  by ``decay ** (bin_distance)``, clamped to the physically meaningful
  band ``[0.5, 1]`` per bin.  On the benchmark's Zipf trace this cuts the
  band error from ~26% to ~3%.

Error bound: with the defaults (``rate=0.01``, ``min_pages=256``,
``guard_factor=16``, the default seed) the estimated curve's relative error
``|F_hat(B) - F(B)| / F(B)`` stays within :data:`SAMPLED_BAND_ERROR_BOUND`
(5%) across the evaluation band ``0.05*T <= B <= 0.9*T`` used by every
experiment in this repo (see
:func:`repro.eval.buffer_grid.evaluation_buffer_grid`) on the benchmark's
uniform *and* Zipf traces (``tests/unit/test_kernels.py`` holds the bound on
both).  Re-seeding (as the parallel experiment runner
does per scan) re-draws the page sample, so individual seeds can exceed the
bound by a few points; the mean over seeds stays well inside it.  Outside
the band — very small pools, or pools larger than 90% of the page universe
— the *relative* error can exceed the bound because ``F`` approaches its
compulsory-miss floor while the absolute error stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.buffer.kernels.base import KernelStream, StackDistanceKernel
from repro.buffer.kernels.baseline import BaselineKernel
from repro.errors import KernelError, TraceError

#: Width of the sampling hash; thresholds live in ``[0, 2**24)``.
HASH_BITS = 24
_HSPACE = 1 << HASH_BITS
_M64 = (1 << 64) - 1

#: Default sampling seed (any int works; fixed for reproducibility).
DEFAULT_SEED = 0x5EED
#: Default page-sampling rate.
DEFAULT_RATE = 0.01
#: Minimum sampled-page count before the rate is trusted.
DEFAULT_MIN_PAGES = 256
#: References are recorded at this multiple of the target rate so the
#: threshold can be raised after the fact without a second pass.
DEFAULT_GUARD_FACTOR = 16

#: Strata need at least this many sampled depths to anchor the
#: frequency-decay fit used to extrapolate unsampled strata.
_MIN_FIT_OBSERVATIONS = 24
#: Per-bin depth-decay clamp: doubling a page's reference count halves its
#: mean gap, which shrinks its mean depth by between 0.5x (linear
#: working-set function) and 1x (flat).
_MIN_BIN_DECAY = 0.5

#: Documented max relative F(B) error of the default configuration on the
#: evaluation band 0.05*T..0.9*T (see the module docstring).
SAMPLED_BAND_ERROR_BOUND = 0.05

#: Initial/minimum slot capacity of :func:`_tagged_distances`.
_MIN_CAPACITY = 4096


def _hash24(page: int, seed: int) -> int:
    """SplitMix64-style avalanche of ``page`` truncated to 24 bits."""
    z = ((page + seed) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & (_HSPACE - 1)


def _tagged_distances(
    seq: Iterable[int],
) -> Tuple[List[Tuple[int, int]], int]:
    """Stack-distance pass that keeps the page of each reuse.

    Each live page owns a recency slot and one big integer holds a bit
    per occupied slot, so a reuse's depth is the popcount of the bits
    above its previous slot; slots are re-packed when they run out.
    Single bits are built on demand: a table of every ``1 << i`` would
    hold sum(i) bits, quadratic in the slot count.  Each output element
    is ``(page, depth)`` so depths can be post-stratified by page
    statistics.  Returns ``(pairs, cold_misses)``.
    """
    slot_of: Dict[int, int] = {}
    pop = slot_of.pop
    mask = 0
    next_slot = 0
    capacity = _MIN_CAPACITY
    pairs: List[Tuple[int, int]] = []
    append = pairs.append
    cold = 0
    for page in seq:
        prev = pop(page, None)
        if prev is not None:
            append((page, (mask >> (prev + 1)).bit_count() + 1))
            mask ^= 1 << prev
        else:
            cold += 1
        if next_slot >= capacity:
            live = sorted(slot_of.items(), key=lambda kv: kv[1])
            slot_of = {p: i for i, (p, _s) in enumerate(live)}
            pop = slot_of.pop
            d = len(slot_of)
            mask = (1 << d) - 1
            next_slot = d
            capacity = max(_MIN_CAPACITY, 3 * d)
        slot_of[page] = next_slot
        mask |= 1 << next_slot
        next_slot += 1
    return pairs, cold


def _fit_bin_decay(hists: Dict[int, Dict[int, int]]) -> float:
    """Per-bin geometric decay of mean depth, fitted on sampled strata.

    Weighted least squares of ``log(mean depth)`` against the bin index
    over every stratum with at least :data:`_MIN_FIT_OBSERVATIONS` sampled
    depths; the result is ``exp(slope)``, clamped to the physically
    meaningful band ``[_MIN_BIN_DECAY, 1]`` (see the module docstring).
    Falls back to 1.0 (flat borrowing) when fewer than two strata qualify.
    """
    observations = []
    for b, hist in hists.items():
        n = sum(hist.values())
        if n >= _MIN_FIT_OBSERVATIONS:
            mean = sum(d * c for d, c in hist.items()) / n
            observations.append((b, math.log(mean), n))
    if len(observations) < 2:
        return 1.0
    weight = sum(n for _b, _l, n in observations)
    mean_b = sum(b * n for b, _l, n in observations) / weight
    mean_l = sum(l * n for _b, l, n in observations) / weight
    var = sum(n * (b - mean_b) ** 2 for b, _l, n in observations)
    if not var:
        return 1.0
    slope = sum(
        n * (b - mean_b) * (l - mean_l) for b, l, n in observations
    ) / var
    return min(1.0, max(_MIN_BIN_DECAY, math.exp(slope)))


class ApproximateFetchCurve:
    """A sampled estimate of ``B -> F(B)`` with the exact curve's query API.

    Drop-in compatible with :class:`~repro.buffer.stack.FetchCurve` for the
    operations the library performs (``fetches``, ``hits``, ``curve``,
    ``min_buffer_for``, and the ``accesses`` / ``distinct_pages`` /
    ``reuses`` counters — the counters are exact, only the depth
    distribution is estimated).
    """

    __slots__ = (
        "accesses",
        "distinct_pages",
        "effective_rate",
        "sampled_pages",
        "sampled_reuses",
        "_k",
        "_strata",
        "_max_scaled_depth",
    )

    def __init__(
        self,
        accesses: int,
        distinct_pages: int,
        k: float,
        strata: Tuple[Tuple[int, Tuple[Tuple[int, int], ...], int], ...],
        effective_rate: float,
        sampled_pages: int,
        sampled_reuses: int,
    ) -> None:
        #: Exact total references (the paper's M).
        self.accesses = accesses
        #: Exact distinct pages (compulsory misses; the paper's A).
        self.distinct_pages = distinct_pages
        #: Realized sampling rate after the min-pages guard.
        self.effective_rate = effective_rate
        #: Distinct pages that fell under the sampling threshold.
        self.sampled_pages = sampled_pages
        #: Reuse observations contributing depth information.
        self.sampled_reuses = sampled_reuses
        self._k = k
        # Each stratum: (exact reuse mass, sorted (depth, count) hist, n).
        self._strata = strata
        self._max_scaled_depth = max(
            (hist[-1][0] for _m, hist, _n in strata if hist), default=0
        )

    def __eq__(self, other: object) -> bool:
        """Value equality over the complete curve state.

        Two curves that compare equal answer every query identically —
        the check the sharded merge path's bit-identity claim rests on.
        """
        if not isinstance(other, ApproximateFetchCurve):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in self.__slots__
        )

    __hash__ = None  # mutable-style value equality: not hashable

    @property
    def reuses(self) -> int:
        """Exact count of non-compulsory references."""
        return self.accesses - self.distinct_pages

    @property
    def max_depth(self) -> int:
        """Estimated largest reuse depth (scaled; 0 with no reuse info)."""
        return math.ceil(self._max_scaled_depth * self._k)

    def fetches(self, buffer_pages: int) -> int:
        """Estimated page fetches for an LRU pool of ``buffer_pages``.

        Each sampled depth ``d`` represents true depths spread uniformly
        over ``((d-1)*k, d*k]``; a pool of size B therefore absorbs the
        fraction ``min((B - (d-1)*k) / k, 1)`` of that depth's mass.  The
        result is clamped to the exact bounds ``[distinct_pages,
        accesses]`` and is non-increasing in B.
        """
        if buffer_pages < 1:
            raise TraceError(
                f"buffer size must be >= 1, got {buffer_pages}"
            )
        k = self._k
        est_hits = 0.0
        for mass, hist, n in self._strata:
            if not hist:
                continue
            frac = 0.0
            for depth, count in hist:
                lo = (depth - 1) * k
                if buffer_pages <= lo:
                    break
                covered = (buffer_pages - lo) / k
                frac += count if covered >= 1.0 else count * covered
            est_hits += mass * (frac / n)
        estimate = round(self.accesses - est_hits)
        return min(self.accesses, max(self.distinct_pages, estimate))

    def hits(self, buffer_pages: int) -> int:
        """Estimated accesses satisfied from the pool."""
        return self.accesses - self.fetches(buffer_pages)

    def curve(self, buffer_sizes: Iterable[int]) -> List[Tuple[int, int]]:
        """``[(B, F_hat(B)), ...]`` for each requested buffer size."""
        return [(b, self.fetches(b)) for b in buffer_sizes]

    def min_buffer_for(self, max_fetches: int) -> int:
        """Smallest ``B`` with estimated ``F(B) <= max_fetches``."""
        if max_fetches < self.distinct_pages:
            raise TraceError(
                f"no buffer size achieves <= {max_fetches} fetches; the "
                f"compulsory-miss floor is {self.distinct_pages}"
            )
        hi = max(1, self.max_depth)
        if self.fetches(hi) > max_fetches:
            raise TraceError(
                f"the sampled estimate never reaches <= {max_fetches} "
                f"fetches (no depth information beyond B={hi})"
            )
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.fetches(mid) <= max_fetches:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def __repr__(self) -> str:
        return (
            f"ApproximateFetchCurve(accesses={self.accesses}, "
            f"distinct={self.distinct_pages}, "
            f"rate={self.effective_rate:.4f}, "
            f"sampled_pages={self.sampled_pages})"
        )


@dataclass(frozen=True)
class SampledShardSummary:
    """One shard's complete SHARDS state, mergeable by summation.

    Because the 24-bit page hash is a pure function of ``(page, seed)``,
    shards running under a shared seed sample *the same page subset*;
    their per-page states merge by adding reference counts, and their
    guard-rate sub-traces concatenate in shard order.  The merged state
    is byte-for-byte the state a single pass over the concatenated trace
    would hold — see :func:`merge_sampled_summaries`.
    """

    #: ``(seed, target_t, guard_t, min_pages, stratify)`` — shards with
    #: different fingerprints sampled different subsets and must not be
    #: merged.
    fingerprint: Tuple[int, int, int, int, bool]
    #: page -> [hash24, exact reference count].
    state: Dict[int, List[int]]
    #: Guard-rate recorded references, in shard trace order.
    sub: List[int]
    #: Verbatim buffer while the escape hatch was still armed, else None.
    raw: Optional[List[int]]
    #: References the shard consumed.
    references: int


class _SampledStream(KernelStream):
    """Chunk-fed SHARDS pass: hash-cache + guard-rate reference recording."""

    def __init__(self, kernel: "SampledKernel") -> None:
        self._seed = kernel.seed
        self._min_pages = kernel.min_pages
        self._stratify = kernel.stratify
        self._target_t = max(1, round(kernel.rate * _HSPACE))
        self._guard_t = min(_HSPACE, self._target_t * kernel.guard_factor)
        # page -> [hash24, exact reference count]
        self._state: Dict[int, List[int]] = {}
        # Pages of references recorded at the guard rate, in trace order.
        self._sub: List[int] = []
        # Verbatim buffer for the small-universe escape hatch; dropped
        # (set to None) once the universe outgrows min_pages.
        self._raw: Optional[List[int]] = []
        self._total = 0

    def _consume(self, pages: Iterable[int]) -> None:
        if self._raw is not None:
            self._consume_tiny(pages)
        else:
            self._consume_fast(pages)

    def _consume_tiny(self, pages: Iterable[int]) -> None:
        """Slow path while the escape hatch is armed (tiny universes)."""
        it = iter(pages)
        state = self._state
        raw = self._raw
        min_pages = self._min_pages
        for page in it:
            self._consume_fast((page,))
            raw.append(page)
            if len(state) > min_pages:
                self._raw = None
                self._consume_fast(it)
                return

    def _consume_fast(self, pages: Iterable[int]) -> None:
        """The hot loop: exact counting plus guard-rate recording."""
        state = self._state
        get = state.get
        sub_append = self._sub.append
        guard_t = self._guard_t
        seed = self._seed
        total = self._total
        for page in pages:
            total += 1
            v = get(page)
            if v is None:
                z = ((page + seed) * 0x9E3779B97F4A7C15) & _M64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
                h = (z ^ (z >> 31)) & 0xFFFFFF
                state[page] = [h, 1]
                if h < guard_t:
                    sub_append(page)
            else:
                v[1] += 1
                if v[0] < guard_t:
                    sub_append(page)
        self._total = total

    def shard_summary(self) -> SampledShardSummary:
        """Hand over this stream's complete state for merging."""
        self._close_for_summary()
        return SampledShardSummary(
            fingerprint=_stream_fingerprint(self),
            state=self._state,
            sub=self._sub,
            raw=self._raw,
            references=self._total,
        )

    def _result(self):
        if not self._total:
            raise TraceError("cannot build a FetchCurve from an empty trace")
        if self._raw is not None:
            # Escape hatch: the universe never outgrew min_pages, so an
            # exact pass is both cheap and exactly right.
            return BaselineKernel().analyze(self._raw)

        state = self._state
        total = self._total
        distinct = len(state)
        hashes = sorted(v[0] for v in state.values())
        thresh = max(
            self._target_t,
            min(self._guard_t, hashes[self._min_pages - 1] + 1),
        )
        if thresh >= self._guard_t:
            filtered = self._sub
        else:
            filtered = [p for p in self._sub if state[p][0] < thresh]
        tagged, sampled_pages = _tagged_distances(filtered)
        k = distinct / sampled_pages if sampled_pages else 1.0

        masses: Dict[int, int] = {}
        hists: Dict[int, Dict[int, int]] = {}
        if self._stratify:
            for _page, (_h, count) in state.items():
                if count > 1:
                    b = (count - 1).bit_length()
                    masses[b] = masses.get(b, 0) + count - 1
            for page, depth in tagged:
                hist = hists.setdefault((state[page][1] - 1).bit_length(), {})
                hist[depth] = hist.get(depth, 0) + 1
        else:
            if total > distinct:
                masses[0] = total - distinct
            if tagged:
                hist = hists.setdefault(0, {})
                for _page, depth in tagged:
                    hist[depth] = hist.get(depth, 0) + 1

        sampled_bins = sorted(hists)
        decay = _fit_bin_decay(hists)
        strata = []
        for b in sorted(masses):
            if sampled_bins:
                src = min(sampled_bins, key=lambda x: abs(x - b))
                hist = hists[src]
                if b != src:
                    # Borrowed histogram: rescale depths by the fitted
                    # per-bin decay so strata the sample missed (usually
                    # the hottest) land at their own depth scale.
                    scale = decay ** (b - src)
                    scaled: Dict[int, int] = {}
                    for depth, count in hist.items():
                        d = max(1, round(depth * scale))
                        scaled[d] = scaled.get(d, 0) + count
                    hist = scaled
                hist_items = tuple(sorted(hist.items()))
                n = sum(hist.values())
            else:
                hist_items = ()
                n = 0
            strata.append((masses[b], hist_items, n))

        return ApproximateFetchCurve(
            accesses=total,
            distinct_pages=distinct,
            k=k,
            strata=tuple(strata),
            effective_rate=thresh / _HSPACE,
            sampled_pages=sampled_pages,
            sampled_reuses=len(tagged),
        )


def _stream_fingerprint(
    stream: "_SampledStream",
) -> Tuple[int, int, int, int, bool]:
    """The sampling configuration a shard's state depends on."""
    return (
        stream._seed,
        stream._target_t,
        stream._guard_t,
        stream._min_pages,
        stream._stratify,
    )


def merge_sampled_summaries(
    summaries: Sequence[SampledShardSummary], kernel: "SampledKernel"
) -> ApproximateFetchCurve:
    """Merge sampled shard summaries (in trace order) into one estimate.

    Reconstructs the internal state a single ``kernel`` pass over the
    concatenated trace would hold — per-page counts sum (hashes are
    identical under the shared seed), guard-rate sub-traces concatenate,
    and the escape-hatch buffer survives exactly when the *merged*
    universe stays within ``min_pages`` (which implies every shard kept
    its own buffer) — then runs the standard estimator on it.  The
    merged result is therefore **bit-identical** to single-pass
    ``kernel.analyze`` on the full trace, and the documented
    :data:`SAMPLED_BAND_ERROR_BOUND` transfers to merged estimates
    unchanged.

    Raises :class:`~repro.errors.KernelError` when the summaries were
    produced under differing sampling configurations (different seeds
    sample different page subsets; their states are incommensurable).
    """
    if not summaries:
        raise KernelError("cannot merge zero shard summaries")
    stream = kernel.stream()
    expected = _stream_fingerprint(stream)
    for i, summary in enumerate(summaries):
        if summary.fingerprint != expected:
            raise KernelError(
                f"sampled shard {i} was produced under fingerprint "
                f"{summary.fingerprint}, expected {expected}; sharded "
                f"sampled passes must share one hash seed and "
                f"configuration"
            )
    state: Dict[int, List[int]] = {}
    sub: List[int] = []
    total = 0
    for summary in summaries:
        total += summary.references
        get = state.get
        for page, (h, count) in summary.state.items():
            v = get(page)
            if v is None:
                state[page] = [h, count]
            else:
                v[1] += count
        sub.extend(summary.sub)
    raw: Optional[List[int]] = None
    if len(state) <= stream._min_pages:
        # Every shard's local universe is a subset of the merged one, so
        # each shard's escape hatch is still armed and the concatenated
        # buffers reconstruct the full trace verbatim.
        raw = []
        for summary in summaries:
            raw.extend(summary.raw or ())
    stream._state = state
    stream._sub = sub
    stream._raw = raw
    stream._total = total
    stream._finished = True
    return stream._result()


class SampledKernel(StackDistanceKernel):
    """SHARDS-style approximate kernel (page sampling at a fixed rate)."""

    name = "sampled"
    exact = False
    seedable = True

    def __init__(
        self,
        rate: float = DEFAULT_RATE,
        seed: int = DEFAULT_SEED,
        min_pages: int = DEFAULT_MIN_PAGES,
        guard_factor: int = DEFAULT_GUARD_FACTOR,
        stratify: bool = True,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise KernelError(f"sampling rate must be in (0, 1], got {rate}")
        if min_pages < 1:
            raise KernelError(f"min_pages must be >= 1, got {min_pages}")
        if guard_factor < 1:
            raise KernelError(
                f"guard_factor must be >= 1, got {guard_factor}"
            )
        self.rate = rate
        self.seed = int(seed)
        self.min_pages = min_pages
        self.guard_factor = guard_factor
        self.stratify = stratify

    def _new_stream(self) -> KernelStream:
        """A fresh sampling stream bound to this kernel's configuration."""
        return _SampledStream(self)

    def reseeded(
        self, seed: int, *, require: bool = False
    ) -> "SampledKernel":
        """The same configuration under a different sampling seed."""
        del require  # seeding is always supported here
        return SampledKernel(
            rate=self.rate,
            seed=seed,
            min_pages=self.min_pages,
            guard_factor=self.guard_factor,
            stratify=self.stratify,
        )
