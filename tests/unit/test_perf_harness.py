"""Unit tests for the perf layer: kernel timing and the BENCH_core harness.

The smoke-mode benchmark run here doubles as the tier-1 wiring required by
the perf-tracking workflow: every test run exercises the exact code path
``benchmarks/run_core_bench.py`` uses to produce ``BENCH_core.json``, so a
broken harness can never silently stop recording the perf trajectory.
"""

import json

import pytest

from repro.buffer.kernels import HAVE_NUMPY, available_kernels, get_kernel
from repro.errors import KernelError
from repro.perf.harness import (
    build_uniform_trace,
    build_zipf_trace,
    run_core_benchmark,
)
from repro.perf.timing import compare_kernels, evaluation_band


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


class TestRunCoreBenchmark:
    """Smoke-mode structural run of the BENCH_core harness."""

    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_core.json"
        doc = run_core_benchmark(out_path=out, smoke=True)
        return doc, out

    def test_writes_valid_json(self, document):
        doc, out = document
        assert json.loads(out.read_text(encoding="utf-8")) == doc

    def test_structure(self, document):
        doc, _out = document
        assert doc["schema"] == 1
        assert doc["config"]["smoke"] is True
        assert set(doc["traces"]) == {"uniform", "zipf"}
        for trace in doc["traces"].values():
            assert set(trace["kernels"]) == set(available_kernels())

    def test_exact_kernels_agree_on_both_traces(self, document):
        doc, _out = document
        for trace in doc["traces"].values():
            for name, row in trace["kernels"].items():
                if get_kernel(name).exact:
                    assert row["agrees_with_baseline"], name

    def test_criteria_recorded(self, document):
        doc, _out = document
        criteria = doc["criteria"]
        assert criteria["numpy_min_speedup"] == 3.0
        assert criteria["sampled_min_speedup"] == 10.0
        assert criteria["meaningful"] is False  # smoke-scale numbers
        # The numpy criterion applies only when numpy imports.
        assert (criteria["numpy_speedup"] is None) is (not HAVE_NUMPY)
        assert "sampled_band_error_pct" in criteria
