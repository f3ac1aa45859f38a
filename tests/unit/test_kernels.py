"""Unit tests for the pluggable stack-distance kernel layer."""

import random

import pytest

from repro.buffer.kernels import (
    HAVE_NUMPY,
    SAMPLED_BAND_ERROR_BOUND,
    ApproximateFetchCurve,
    BaselineKernel,
    SampledKernel,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_kernel,
)
from repro.buffer.stack import FetchCurve
from repro.errors import KernelError, TraceError

from tests.helpers import build_uniform_trace, build_zipf_trace

EXACT_KERNELS = [n for n in available_kernels()
                 if get_kernel(n).exact]


def _random_trace(seed, max_len=300, max_pages=40):
    rng = random.Random(seed)
    return [
        rng.randrange(rng.randint(1, max_pages))
        for _ in range(rng.randint(1, max_len))
    ]


class TestRegistry:
    def test_builtins_registered(self):
        names = available_kernels()
        assert "baseline" in names
        assert "sampled" in names
        assert "compact" not in names
        if HAVE_NUMPY:
            assert "numpy" in names

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelError, match="unknown"):
            get_kernel("no-such-kernel")

    def test_duplicate_registration_raises_without_replace(self):
        with pytest.raises(KernelError, match="already registered"):
            register_kernel("baseline", BaselineKernel)
        # replace=True restores the same factory, leaving the registry
        # exactly as it was.
        register_kernel("baseline", BaselineKernel, replace=True)

    def test_options_forwarded_to_factory(self):
        kernel = get_kernel("sampled", rate=0.5, min_pages=3)
        assert kernel.rate == 0.5
        assert kernel.min_pages == 3

    def test_resolve_accepts_name_instance_and_none(self):
        # The default follows numpy: the exact numpy stream when numpy
        # imports, the pure-Python baseline otherwise.
        default = "numpy" if HAVE_NUMPY else "baseline"
        assert resolve_kernel(None).name == default
        assert resolve_kernel("sampled").name == "sampled"
        inst = SampledKernel()
        assert resolve_kernel(inst) is inst


class TestExactKernels:
    @pytest.mark.parametrize("name", EXACT_KERNELS)
    def test_bit_identical_to_from_trace(self, name):
        kernel = get_kernel(name)
        for seed in range(30):
            trace = _random_trace(seed)
            assert kernel.analyze(trace) == FetchCurve.from_trace(trace)

    @pytest.mark.parametrize("name", EXACT_KERNELS)
    def test_streaming_matches_one_shot(self, name):
        kernel = get_kernel(name)
        rng = random.Random(99)
        for seed in range(10):
            trace = _random_trace(1000 + seed, max_len=500)
            stream = kernel.stream()
            i = 0
            while i < len(trace):
                step = rng.randint(1, 60)
                stream.feed(trace[i:i + step])
                i += step
            assert stream.finish() == kernel.analyze(trace)

    @pytest.mark.parametrize("name", EXACT_KERNELS)
    def test_generator_input(self, name):
        trace = _random_trace(7)
        curve = get_kernel(name).analyze(iter(trace))
        assert curve == FetchCurve.from_trace(trace)

    def test_reseeded_is_identity_for_exact_kernels(self):
        kernel = BaselineKernel()
        assert kernel.reseeded(123) is kernel


class TestReseededContract:
    @pytest.mark.parametrize("name", EXACT_KERNELS)
    def test_exact_kernels_are_not_seedable(self, name):
        assert get_kernel(name).seedable is False

    def test_sampled_kernel_is_seedable(self):
        assert get_kernel("sampled").seedable is True

    @pytest.mark.parametrize("name", EXACT_KERNELS)
    def test_require_raises_for_exact_kernels(self, name):
        kernel = get_kernel(name)
        with pytest.raises(KernelError, match="does not support seeding"):
            kernel.reseeded(123, require=True)

    @pytest.mark.parametrize("name", EXACT_KERNELS)
    def test_no_require_stays_a_no_op(self, name):
        kernel = get_kernel(name)
        assert kernel.reseeded(123) is kernel
        assert kernel.reseeded(123, require=False) is kernel

    def test_require_is_satisfied_by_seedable_kernel(self):
        kernel = get_kernel("sampled")
        other = kernel.reseeded(99, require=True)
        assert other is not kernel
        assert other.seed == 99


class TestStreamContract:
    def test_finish_twice_raises(self):
        stream = BaselineKernel().stream()
        stream.feed([1, 2, 1])
        stream.finish()
        with pytest.raises(KernelError, match="finished"):
            stream.finish()

    def test_feed_after_finish_raises(self):
        stream = SampledKernel().stream()
        stream.feed([1])
        stream.finish()
        with pytest.raises(KernelError, match="finished"):
            stream.feed([2])

    @pytest.mark.parametrize("name", list(available_kernels()))
    def test_empty_stream_raises_trace_error(self, name):
        with pytest.raises(TraceError):
            get_kernel(name).stream().finish()


class TestSampledKernel:
    def test_parameter_validation(self):
        with pytest.raises(KernelError):
            SampledKernel(rate=0.0)
        with pytest.raises(KernelError):
            SampledKernel(rate=1.5)
        with pytest.raises(KernelError):
            SampledKernel(min_pages=0)
        with pytest.raises(KernelError):
            SampledKernel(guard_factor=0)

    def test_small_universe_is_exact(self):
        kernel = SampledKernel()
        for seed in range(20):
            rng = random.Random(seed)
            trace = [
                rng.randrange(rng.randint(1, 100))
                for _ in range(rng.randint(1, 400))
            ]
            exact = FetchCurve.from_trace(trace)
            est = kernel.analyze(trace)
            assert all(
                est.fetches(b) == exact.fetches(b) for b in range(1, 110)
            )

    def test_exact_counters_on_large_trace(self):
        rng = random.Random(3)
        trace = [rng.randrange(2_000) for _ in range(30_000)]
        exact = FetchCurve.from_trace(trace)
        est = SampledKernel().analyze(trace)
        assert isinstance(est, ApproximateFetchCurve)
        # M, A, and reuse mass are exact by construction.
        assert est.accesses == exact.accesses
        assert est.distinct_pages == exact.distinct_pages
        assert est.reuses == exact.reuses

    def test_band_error_within_documented_bound(self):
        trace = build_uniform_trace()
        exact = FetchCurve.from_trace(trace)
        est = SampledKernel().analyze(trace)
        band = [round(f / 100 * 1_250) for f in range(5, 91, 5)]
        err = max(
            abs(est.fetches(b) - exact.fetches(b)) / exact.fetches(b)
            for b in band
        )
        assert err <= SAMPLED_BAND_ERROR_BOUND

    def test_band_error_within_bound_on_zipf_trace(self):
        # The skewed counterpart of the bound: the spatial sample almost
        # surely misses the hottest pages, so this passes only because of
        # the frequency-scaled stratum extrapolation.
        trace = build_zipf_trace()
        exact = FetchCurve.from_trace(trace)
        est = SampledKernel().analyze(trace)
        band = [round(f / 100 * 1_250) for f in range(5, 91, 5)]
        err = max(
            abs(est.fetches(b) - exact.fetches(b)) / exact.fetches(b)
            for b in band
        )
        assert err <= SAMPLED_BAND_ERROR_BOUND

    def test_bin_decay_fit_clamped_and_flat_fallback(self):
        from repro.buffer.kernels.sampled import _fit_bin_decay

        # Too few well-observed strata -> flat borrowing.
        assert _fit_bin_decay({}) == 1.0
        assert _fit_bin_decay({3: {10: 100}}) == 1.0
        # Mean depth halving per bin sits exactly at the clamp floor.
        halving = {3: {64: 100}, 4: {32: 100}, 5: {16: 100}}
        assert _fit_bin_decay(halving) == pytest.approx(0.5)
        # Rising mean depth is unphysical for hotter bins: clamp to 1.
        rising = {3: {16: 100}, 4: {64: 100}}
        assert _fit_bin_decay(rising) == 1.0

    def test_estimate_monotone_and_clamped(self):
        rng = random.Random(8)
        trace = [rng.randrange(1_000) for _ in range(20_000)]
        est = SampledKernel().analyze(trace)
        values = [est.fetches(b) for b in range(1, 1_200, 13)]
        assert values == sorted(values, reverse=True)
        assert values[0] <= est.accesses
        assert values[-1] >= est.distinct_pages

    def test_query_api_parity(self):
        rng = random.Random(21)
        trace = [rng.randrange(900) for _ in range(15_000)]
        est = SampledKernel().analyze(trace)
        assert est.hits(50) == est.accesses - est.fetches(50)
        assert est.curve([10, 100]) == [
            (10, est.fetches(10)), (100, est.fetches(100))
        ]
        b = est.min_buffer_for(est.fetches(200))
        assert est.fetches(b) <= est.fetches(200)
        with pytest.raises(TraceError):
            est.fetches(0)
        with pytest.raises(TraceError):
            est.min_buffer_for(est.distinct_pages - 1)

    def test_reseeded_changes_seed_only(self):
        kernel = SampledKernel(rate=0.07, min_pages=9, stratify=False)
        other = kernel.reseeded(4242)
        assert other is not kernel
        assert other.seed == 4242
        assert (other.rate, other.min_pages, other.stratify) == (
            0.07, 9, False
        )

    def test_deterministic_given_seed(self):
        rng = random.Random(31)
        trace = [rng.randrange(1_500) for _ in range(25_000)]
        a = SampledKernel(seed=7).analyze(trace)
        b = SampledKernel(seed=7).analyze(trace)
        grid = list(range(1, 1_500, 41))
        assert [a.fetches(x) for x in grid] == [b.fetches(x) for x in grid]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestVectorizedKernel:
    def test_registered_and_exact_flag(self):
        kernel = get_kernel("numpy")
        assert kernel.exact

    def test_matches_baseline_on_adversarial_shapes(self):
        kernel = get_kernel("numpy")
        cases = [
            [0],
            [0, 0, 0, 0],
            list(range(64)),
            list(range(64)) * 3,
            [0, 1] * 100,
            # Ids int64 holds exactly, including integral floats.
            [2.0, 2, 3],
            [True, 1, True],
            [2 ** 63 - 1, -(2 ** 63), 2 ** 63 - 1],
        ]
        for trace in cases:
            assert kernel.analyze(trace) == FetchCurve.from_trace(trace)

    @pytest.mark.parametrize("trace", [
        [1.5, 1, 1.5, 1],       # int64 would truncate 1.5 to page 1
        [2 ** 70, 1, 2 ** 70],  # too wide for int64
        ["a", "b", "a"],        # not a number at all
    ])
    def test_page_ids_int64_cannot_hold_raise_trace_error(self, trace):
        kernel = get_kernel("numpy")
        with pytest.raises(TraceError, match="int64"):
            kernel.analyze(trace)
        stream = kernel.stream()
        stream.feed([0, 1])
        with pytest.raises(TraceError, match="int64"):
            stream.feed(trace)

    def test_feed_longer_than_a_block_matches_baseline(self):
        # analyze() feeds the whole trace at once; past 2**16 references
        # the stream splits it into blocks, carrying state across them.
        from repro.buffer.kernels.vectorized import _BLOCK

        rng = random.Random(8)
        trace = [rng.randrange(5_000) for _ in range(_BLOCK + 9_000)]
        curve = get_kernel("numpy").analyze(trace)
        assert curve == BaselineKernel().analyze(trace)

    def test_snapshot_stays_o_of_d(self):
        # Carried state is O(D): feeding 40x D references over the same
        # D pages snapshots no larger than 10x D did (the histogram may
        # still grow, to at most 2(D + 1) slots).
        d = 500
        rng = random.Random(12)
        stream = get_kernel("numpy").stream()
        sizes = []
        for rounds in (10, 30):
            for _ in range(rounds):
                stream.feed(rng.sample(range(d), d))
            sizes.append(len(stream.snapshot_state()))
        assert sizes[1] <= sizes[0] + 16 * (d + 1)
        assert sizes[1] < 64 * d + 4_096
