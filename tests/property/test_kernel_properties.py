"""Property-based tests for the pluggable stack-distance kernels.

Three invariants hold for *every* trace:

* every exact kernel is bit-identical to the baseline Fenwick pass
  (dataclass equality of the resulting FetchCurve), one-shot and under
  any chunking — including long traces over wide page universes cut
  into many chunks, so state carried between feeds decides the result;
* the streaming API, under any chunking whatsoever, matches the one-shot
  analysis of the concatenated trace;
* the sampled kernel's estimate respects the exact structural bounds
  (A <= F_hat(B) <= M, non-increasing in B) on every trace, and its exact
  counters (M, A) are never approximated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.kernels import available_kernels, get_kernel
from repro.buffer.stack import FetchCurve

EXACT_KERNELS = [n for n in available_kernels() if get_kernel(n).exact]

traces = st.lists(st.integers(min_value=0, max_value=25), min_size=1,
                  max_size=200)
# Wider page universe: exercises the sampled kernel past its escape hatch.
wide_traces = st.lists(st.integers(min_value=0, max_value=5_000),
                       min_size=1, max_size=300)
chunk_sizes = st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                       max_size=20)


def _spread(page: int) -> int:
    """A bijection from small ids onto the whole int64 range."""
    return (page * 0x9E3779B97F4A7C15) % (1 << 64) - (1 << 63)


# Up to 400 pages over traces long enough that pages return several
# chunks after their last touch; ids small or spread over int64.
long_traces = st.tuples(
    st.lists(st.integers(min_value=0, max_value=399), min_size=300,
             max_size=2_000),
    st.booleans(),
).map(lambda drawn: [_spread(p) for p in drawn[0]] if drawn[1]
      else drawn[0])
many_chunk_sizes = st.lists(st.integers(min_value=1, max_value=64),
                            min_size=1, max_size=40)


def _feed_chunked(stream, trace, sizes):
    i = 0
    s = 0
    while i < len(trace):
        step = sizes[s % len(sizes)]
        stream.feed(trace[i:i + step])
        i += step
        s += 1
    return stream.finish()


@given(trace=traces, kernel_name=st.sampled_from(EXACT_KERNELS))
@settings(max_examples=300)
def test_exact_kernels_bit_identical_to_baseline(trace, kernel_name):
    """Exact kernels reproduce FetchCurve.from_trace field-for-field."""
    assert get_kernel(kernel_name).analyze(trace) == FetchCurve.from_trace(
        trace
    )


@given(trace=long_traces, sizes=many_chunk_sizes,
       kernel_name=st.sampled_from(EXACT_KERNELS))
@settings(max_examples=150)
def test_chunked_exact_kernels_carry_state(trace, sizes, kernel_name):
    """Many chunks over a wide universe: still bit-identical."""
    stream = get_kernel(kernel_name).stream()
    assert _feed_chunked(stream, trace, sizes) == FetchCurve.from_trace(
        trace
    )


@given(trace=traces, sizes=chunk_sizes,
       kernel_name=st.sampled_from(sorted(available_kernels())))
@settings(max_examples=200)
def test_streaming_matches_one_shot(trace, sizes, kernel_name):
    """Any chunking of the trace yields the same curve as one shot."""
    kernel = get_kernel(kernel_name)
    chunked = _feed_chunked(kernel.stream(), trace, sizes)
    one_shot = kernel.analyze(trace)
    grid = list(range(1, 30))
    assert [chunked.fetches(b) for b in grid] == [
        one_shot.fetches(b) for b in grid
    ]
    assert chunked.accesses == one_shot.accesses
    assert chunked.distinct_pages == one_shot.distinct_pages


@given(trace=wide_traces)
@settings(max_examples=200)
def test_sampled_structural_bounds(trace):
    """Sampled estimates stay within [A, M] and are non-increasing in B."""
    exact = FetchCurve.from_trace(trace)
    est = get_kernel("sampled", min_pages=16).analyze(trace)
    assert est.accesses == exact.accesses
    assert est.distinct_pages == exact.distinct_pages
    previous = None
    for b in (1, 2, 4, 8, 16, 64, 512, 4_096):
        value = est.fetches(b)
        assert exact.distinct_pages <= value <= exact.accesses
        if previous is not None:
            assert value <= previous
        previous = value


@given(trace=traces)
@settings(max_examples=200)
def test_sampled_small_universe_exactness(trace):
    """Below min_pages distinct pages the sampled kernel is exact."""
    exact = FetchCurve.from_trace(trace)
    est = get_kernel("sampled").analyze(trace)  # min_pages=256 > 26 pages
    for b in range(1, 30):
        assert est.fetches(b) == exact.fetches(b)
