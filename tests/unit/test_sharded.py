"""Unit tests for the sharded, mergeable stack-distance pass."""

import random

import pytest

from repro.buffer.kernels import (
    ExactShardSummary,
    available_kernels,
    as_shard_source,
    get_kernel,
    merge_exact_summaries,
    run_sharded_pass,
    shard_bounds,
    sharded_chunked_curve,
    sharded_fetch_curve,
)
from repro.buffer.kernels.sharded import SequenceShardSource
from repro.buffer.stack import FetchCurve
from repro.errors import (
    CheckpointError,
    EstimationError,
    KernelError,
    TraceError,
)
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.resilience.checkpoint import Checkpointer, CheckpointPolicy
from repro.trace.paper_scale import (
    PaperScaleSpec,
    PaperScaleTrace,
    paper_scale_source,
)
from repro.verify.traces import corpus_cases

EXACT_KERNELS = [n for n in available_kernels() if get_kernel(n).exact]


def _random_trace(seed, max_len=300, max_pages=40):
    rng = random.Random(seed)
    return [
        rng.randrange(rng.randint(1, max_pages))
        for _ in range(rng.randint(1, max_len))
    ]


class TestShardBounds:
    def test_contiguous_and_near_equal(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_more_shards_than_refs(self):
        bounds = shard_bounds(3, 10)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_empty_trace_keeps_one_shard(self):
        assert shard_bounds(0, 4) == [(0, 0)]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(KernelError, match="shard count"):
            shard_bounds(10, 0)


class TestShardSource:
    def test_sequence_wrapped(self):
        src = as_shard_source([1, 2, 3, 1])
        assert isinstance(src, SequenceShardSource)
        assert src.total_refs == 4
        assert [list(c) for c in src.chunks(1, 3)] == [[2, 3]]

    def test_shard_source_passes_through(self):
        trace = PaperScaleTrace(PaperScaleSpec(refs=100, pages=10))
        assert as_shard_source(trace) is trace

    def test_generator_rejected(self):
        with pytest.raises(KernelError, match="sized sequence"):
            as_shard_source(iter([1, 2, 3]))


class TestExactMerge:
    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_merge_matches_single_pass(self, kernel):
        for seed in range(25):
            trace = _random_trace(seed)
            expected = FetchCurve.from_trace(trace)
            for shards in (1, 2, 3, 7, len(trace), len(trace) + 5):
                merged = sharded_fetch_curve(trace, shards, kernel=kernel)
                assert merged == expected, (seed, shards)

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_corpus_subset_matches_single_pass(self, kernel):
        # The full-corpus sweep runs under repro verify (and CI's shard
        # stage); tier-1 pins one small case per family.
        for case in corpus_cases(
            names=["uniform-small", "sequential-scan", "loop-tight"]
        ):
            expected = get_kernel(kernel).analyze(case.pages)
            for shards in (2, 5):
                merged = sharded_fetch_curve(
                    case.pages, shards, kernel=kernel
                )
                assert merged == expected, (case.name, shards)

    def test_merge_repack_is_exercised(self):
        # More slot turnover than the merge's minimum capacity (4,096
        # slots) forces at least one re-pack; the result must stay exact.
        rng = random.Random(42)
        trace = [rng.randrange(3_000) for _ in range(10_000)]
        merged = sharded_fetch_curve(trace, 3, kernel="baseline")
        assert merged == FetchCurve.from_trace(trace)

    def test_merge_memory_stays_small(self):
        # Two shards over the same 12k pages.  Single bits are built on
        # demand; a table of every 1 << i over the 3 * D slots would
        # hold sum(i) bits, a 90 MB traced peak here.
        import tracemalloc

        pages = tuple(range(12_000))
        shard = ExactShardSummary({}, pages, pages, len(pages))
        tracemalloc.start()
        try:
            curve, seam = merge_exact_summaries([shard, shard])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve == FetchCurve.from_trace(list(pages) * 2)
        assert seam.seam_reuses == len(pages)
        assert peak < 16 * 2**20

    def test_seam_reuses_counted(self):
        # Pages 0..9 twice: with 2 shards every second-pass reuse
        # crosses the seam.
        trace = list(range(10)) * 2
        result = run_sharded_pass(trace, 2)
        assert result.curve == FetchCurve.from_trace(trace)
        assert result.seam is not None
        assert result.seam.seam_reuses == 10
        assert result.seam.shards == 2

    def test_parallel_matches_serial(self):
        trace = _random_trace(77, max_len=2_000, max_pages=200)
        serial = run_sharded_pass(trace, 4, workers=1)
        forked = run_sharded_pass(trace, 4, workers=4)
        assert forked.curve == serial.curve
        assert forked.shards == serial.shards == 4

    def test_empty_trace_raises_like_single_pass(self):
        with pytest.raises(TraceError):
            sharded_fetch_curve([], 3)

    def test_merge_rejects_empty_summary_list(self):
        with pytest.raises(KernelError, match="zero shard summaries"):
            merge_exact_summaries([])

    def test_summary_validates_consistency(self):
        with pytest.raises(KernelError):
            ExactShardSummary(
                histogram={1: 1}, first_seen=(3,), recency=(4,),
                references=2,
            )


class TestSampledMerge:
    def test_merge_bit_identical_to_single_pass(self):
        rng = random.Random(5)
        trace = [rng.randrange(2_000) for _ in range(40_000)]
        kernel = get_kernel("sampled")
        single = kernel.analyze(trace)
        for shards in (2, 6):
            assert sharded_fetch_curve(
                trace, shards, kernel="sampled"
            ) == single

    def test_escape_hatch_universe_still_exact(self):
        trace = _random_trace(9, max_pages=12)
        single = get_kernel("sampled").analyze(trace)
        assert sharded_fetch_curve(trace, 3, kernel="sampled") == single

    def test_mismatched_seeds_rejected(self):
        from repro.buffer.kernels.sampled import (
            SampledKernel,
            merge_sampled_summaries,
        )

        trace = [i % 50 for i in range(400)]
        summaries = []
        for seed, (lo, hi) in zip((1, 2), shard_bounds(len(trace), 2)):
            stream = SampledKernel(seed=seed).stream()
            stream.feed(trace[lo:hi])
            summaries.append(stream.shard_summary())
        with pytest.raises(KernelError, match="share one hash seed"):
            merge_sampled_summaries(summaries, SampledKernel(seed=1))


class TestChunkedPath:
    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_chunked_matches_single_pass(self, kernel):
        trace = _random_trace(13, max_len=1_200, max_pages=120)
        expected = get_kernel(kernel).analyze(trace)
        for chunk in (1, 97, 4096):
            chunks = (
                trace[i:i + chunk] for i in range(0, len(trace), chunk)
            )
            merged = sharded_chunked_curve(
                chunks, len(trace), 4, kernel=kernel
            )
            assert merged == expected, chunk

    def test_chunked_parallel_matches(self):
        trace = _random_trace(14, max_len=2_000, max_pages=150)
        expected = FetchCurve.from_trace(trace)
        chunks = (trace[i:i + 64] for i in range(0, len(trace), 64))
        assert sharded_chunked_curve(
            chunks, len(trace), 3, workers=3
        ) == expected

    def test_length_mismatch_raises(self):
        with pytest.raises(KernelError, match="ended at"):
            sharded_chunked_curve(iter([[1, 2]]), 5, 2)
        with pytest.raises(KernelError, match="longer than the declared"):
            sharded_chunked_curve(iter([[1, 2, 3]]), 2, 2)


class TestCheckpointedShardedPass:
    def _kill_then_resume(self, tmp_path, trace, fail_at, monkeypatch):
        import repro.buffer.kernels.sharded as sharded_mod

        checkpointer = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=1)
        )
        real = sharded_mod._summarize_shard
        calls = []

        def dying(kernel, source, lo, hi, want_digest):
            calls.append((lo, hi))
            if len(calls) == fail_at + 1:
                raise RuntimeError("injected shard crash")
            return real(kernel, source, lo, hi, want_digest)

        monkeypatch.setattr(sharded_mod, "_summarize_shard", dying)
        with pytest.raises(RuntimeError, match="injected"):
            run_sharded_pass(trace, 4, checkpoint=checkpointer)
        monkeypatch.setattr(sharded_mod, "_summarize_shard", real)
        assert checkpointer.exists()
        return checkpointer

    def test_kill_one_shard_and_resume(self, tmp_path, monkeypatch):
        trace = _random_trace(21, max_len=1_000, max_pages=90)
        checkpointer = self._kill_then_resume(
            tmp_path, trace, fail_at=2, monkeypatch=monkeypatch
        )
        resumed = run_sharded_pass(
            trace, 4, checkpoint=checkpointer, resume=True
        )
        assert resumed.curve == FetchCurve.from_trace(trace)
        # Cached shards cost no feed time on resume; only the killed
        # shard and its successors ran.
        assert list(resumed.per_shard_feed_ns[:2]) == [0, 0]
        assert all(ns > 0 for ns in resumed.per_shard_feed_ns[2:])
        assert not checkpointer.exists()  # cleared on completion

    def test_tampered_trace_fails_closed(self, tmp_path, monkeypatch):
        trace = _random_trace(22, max_len=1_000, max_pages=90)
        checkpointer = self._kill_then_resume(
            tmp_path, trace, fail_at=2, monkeypatch=monkeypatch
        )
        tampered = list(trace)
        tampered[0] = tampered[0] + 1
        with pytest.raises(CheckpointError, match="chained digest"):
            run_sharded_pass(
                tampered, 4, checkpoint=checkpointer, resume=True
            )

    def test_shard_count_change_fails_closed(self, tmp_path, monkeypatch):
        trace = _random_trace(23, max_len=1_000, max_pages=90)
        checkpointer = self._kill_then_resume(
            tmp_path, trace, fail_at=2, monkeypatch=monkeypatch
        )
        with pytest.raises(CheckpointError, match="shard plan"):
            run_sharded_pass(
                trace, 5, checkpoint=checkpointer, resume=True
            )

    def test_chunked_resume_round_trip(self, tmp_path, monkeypatch):
        import repro.buffer.kernels.sharded as sharded_mod

        trace = _random_trace(24, max_len=1_500, max_pages=120)
        checkpointer = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=1)
        )
        real = sharded_mod._summarize_pages
        calls = []

        def dying(kernel, pages):
            calls.append(len(pages))
            if len(calls) == 3:
                raise RuntimeError("injected shard crash")
            return real(kernel, pages)

        monkeypatch.setattr(sharded_mod, "_summarize_pages", dying)
        chunks = (trace[i:i + 50] for i in range(0, len(trace), 50))
        with pytest.raises(RuntimeError, match="injected"):
            sharded_chunked_curve(
                chunks, len(trace), 4, checkpoint=checkpointer
            )
        monkeypatch.setattr(sharded_mod, "_summarize_pages", real)
        chunks = (trace[i:i + 50] for i in range(0, len(trace), 50))
        resumed = sharded_chunked_curve(
            chunks, len(trace), 4,
            checkpoint=checkpointer, resume=True,
        )
        assert resumed == FetchCurve.from_trace(trace)
        assert not checkpointer.exists()


class TestPaperScaleTrace:
    @pytest.mark.parametrize("pattern", ["zipf", "clustered"])
    def test_range_addressable(self, pattern):
        source = paper_scale_source(
            pattern=pattern, refs=12_000, pages=500, seed=3
        )
        full = [p for chunk in source for p in chunk]
        assert len(full) == 12_000
        for lo, hi in ((0, 1), (4_095, 4_097), (5_000, 9_999)):
            window = [p for c in source.chunks(lo, hi) for p in c]
            assert window == full[lo:hi], (lo, hi)

    def test_zipf_is_skewed(self):
        from collections import Counter

        source = paper_scale_source(refs=20_000, pages=400, seed=1)
        counts = Counter(p for chunk in source for p in chunk)
        top = sum(c for _p, c in counts.most_common(len(counts) // 5))
        assert top > 0.5 * 20_000

    @pytest.mark.parametrize("pattern", ["zipf", "clustered"])
    def test_sharded_pass_over_source(self, pattern):
        source = paper_scale_source(
            pattern=pattern, refs=9_000, pages=300, seed=7
        )
        stream = get_kernel("baseline").stream()
        for chunk in source:
            stream.feed(chunk)
        assert sharded_fetch_curve(source, 4) == stream.finish()

    def test_spec_validation(self):
        with pytest.raises(TraceError, match="pattern"):
            PaperScaleSpec(pattern="bursty")
        with pytest.raises(TraceError, match="refs"):
            PaperScaleSpec(refs=-1)
        with pytest.raises(TraceError, match="theta"):
            PaperScaleSpec(theta=1.0)

    def test_out_of_range_chunks_rejected(self):
        source = paper_scale_source(refs=100, pages=10)
        with pytest.raises(TraceError, match="outside"):
            list(source.chunks(0, 101))


class TestLRUFitSharding:
    def test_config_validates_shards(self):
        with pytest.raises(EstimationError, match="shards"):
            LRUFitConfig(shards=0)

    def test_sharded_run_on_trace_matches(self):
        rng = random.Random(31)
        trace = [rng.randrange(60) for _ in range(2_000)]
        base = LRUFit().run_on_trace(trace, 60, 30)
        sharded = LRUFit(
            LRUFitConfig(shards=4, shard_workers=2)
        ).run_on_trace(trace, 60, 30)
        assert sharded == base

    def test_sharded_needs_sized_trace(self):
        with pytest.raises(EstimationError, match="range-addressable"):
            LRUFit(LRUFitConfig(shards=2)).run_on_trace(
                iter([1, 2, 3]), 5, 5
            )

    def test_streaming_needs_total_refs(self):
        with pytest.raises(EstimationError, match="total_refs"):
            LRUFit(LRUFitConfig(shards=2)).run_streaming(
                iter([[1, 2]]), 5, 5
            )

    def test_sharded_streaming_matches(self):
        rng = random.Random(32)
        trace = [rng.randrange(60) for _ in range(2_000)]
        base = LRUFit().run_on_trace(trace, 60, 30)
        chunks = (trace[i:i + 97] for i in range(0, len(trace), 97))
        sharded = LRUFit(
            LRUFitConfig(shards=3, shard_workers=2)
        ).run_streaming(chunks, 60, 30, total_refs=len(trace))
        assert sharded == base
