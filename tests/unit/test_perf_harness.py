"""Unit tests for the perf layer's kernel timing (``repro perf``).

Also pins the shared kernel-trace builders in :mod:`tests.helpers`.
"""

import pytest

from repro.buffer.kernels import available_kernels
from repro.errors import KernelError
from repro.perf.timing import compare_kernels, evaluation_band

from tests.helpers import build_uniform_trace, build_zipf_trace


class TestTraceBuilders:
    def test_uniform_is_deterministic(self):
        assert build_uniform_trace(500, 50) == build_uniform_trace(500, 50)

    def test_zipf_is_deterministic_and_skewed(self):
        trace = build_zipf_trace(2_000, 100)
        assert trace == build_zipf_trace(2_000, 100)
        assert len(trace) == 2_000
        counts = sorted(
            (trace.count(p) for p in set(trace)), reverse=True
        )
        # 80-20 style skew: the top fifth of pages dominates references.
        assert sum(counts[: len(counts) // 5]) > len(trace) // 2


class TestCompareKernels:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_kernels(build_uniform_trace(2_000, 100), repeats=1)

    def test_covers_all_registered_kernels(self, comparison):
        assert {t.kernel for t in comparison.timings} == set(
            available_kernels()
        )

    def test_baseline_anchors_speedups(self, comparison):
        assert comparison.timing("baseline").speedup == 1.0
        assert comparison.timing("baseline").max_rel_error_pct == 0.0

    def test_exact_kernels_agree(self, comparison):
        for t in comparison.timings:
            if t.exact:
                assert t.agrees and t.max_rel_error_pct == 0.0

    def test_unknown_timing_lookup_raises(self, comparison):
        with pytest.raises(KernelError):
            comparison.timing("nope")

    def test_repeats_validation(self):
        with pytest.raises(KernelError):
            compare_kernels([1, 2, 1], repeats=0)

    def test_evaluation_band_spans_5_to_90_percent(self):
        band = evaluation_band(1_000)
        assert band[0] == 50 and band[-1] == 900
        assert band == sorted(band)
