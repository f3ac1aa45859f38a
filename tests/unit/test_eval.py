"""Unit tests for the evaluation harness: grid, metrics, ground truth,
experiment runner, and report rendering."""

import random

import pytest

from repro.errors import ExperimentError
from repro.estimators.epfis import EPFISEstimator
from repro.estimators.naive import PerfectlyClusteredEstimator
from repro.eval.buffer_grid import BufferGrid, evaluation_buffer_grid
from repro.eval.experiment import run_error_behavior
from repro.eval.ground_truth import (
    ScanTraceExtractor,
    derive_scan_seed,
    ground_truth_tables,
)
from repro.eval.metrics import (
    aggregate_relative_error,
    max_absolute_percent_error,
    percent,
)
from repro.eval.report import ascii_chart, format_table
from repro.workload.predicates import HashSamplePredicate
from repro.workload.scans import generate_scan_mix


class TestBufferGrid:
    def test_paper_sized_table(self):
        grid = evaluation_buffer_grid(10_000)
        assert grid.sizes[0] == 500  # max(300, 0.05 * 10000)
        assert grid.sizes[-1] == 9_000
        assert len(grid) == 18

    def test_floor_applies_to_mid_tables(self):
        grid = evaluation_buffer_grid(2_000)  # 0.05T = 100 < 300
        assert grid.sizes[0] == 300
        assert grid.sizes[-1] <= 1_800

    def test_small_table_fallback(self):
        grid = evaluation_buffer_grid(100)  # floor 300 > 0.9T
        assert grid.sizes[0] == 5
        assert grid.sizes[-1] == 90

    def test_percents(self):
        grid = evaluation_buffer_grid(1_000, floor=50)
        percents = grid.percents()
        assert percents[0] == pytest.approx(5.0)
        assert percents[-1] == pytest.approx(90.0)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            evaluation_buffer_grid(1)
        with pytest.raises(ExperimentError):
            evaluation_buffer_grid(100, step_fraction=0.95)
        with pytest.raises(ExperimentError):
            BufferGrid(table_pages=10, sizes=())
        with pytest.raises(ExperimentError):
            BufferGrid(table_pages=10, sizes=(5, 5))


class TestMetrics:
    def test_perfect_estimates_zero_error(self):
        assert aggregate_relative_error([10, 20], [10, 20]) == 0.0

    def test_signed_error(self):
        assert aggregate_relative_error([15, 25], [10, 20]) == pytest.approx(
            10 / 30
        )
        assert aggregate_relative_error([5, 15], [10, 20]) == pytest.approx(
            -10 / 30
        )

    def test_absolute_error_dominated_by_large_scans(self):
        """A big relative miss on a tiny scan barely moves the metric."""
        error = aggregate_relative_error([30, 1_000], [10, 1_000])
        assert abs(error) < 0.02

    def test_validation(self):
        with pytest.raises(ExperimentError):
            aggregate_relative_error([1], [1, 2])
        with pytest.raises(ExperimentError):
            aggregate_relative_error([], [])
        with pytest.raises(ExperimentError):
            aggregate_relative_error([1], [0])

    def test_max_absolute_percent(self):
        assert max_absolute_percent_error([0.1, -0.5, 0.2]) == pytest.approx(
            50.0
        )
        with pytest.raises(ExperimentError):
            max_absolute_percent_error([])

    def test_percent_formatting(self):
        assert percent(0.123) == "+12.3%"
        assert percent(-0.05, digits=0) == "-5%"


class TestScanTraceExtractor:
    @pytest.fixture(scope="class")
    def extractor(self, skewed_dataset):
        return ScanTraceExtractor(skewed_dataset.index)

    @pytest.fixture(scope="class")
    def scans(self, skewed_dataset):
        return generate_scan_mix(
            skewed_dataset.index, count=25, rng=random.Random(5)
        )

    def test_trace_matches_btree_walk(self, extractor, scans, skewed_dataset):
        for scan in scans[:5]:
            fast = extractor.trace_for(scan)
            slow = skewed_dataset.index.page_sequence(
                *scan.key_range.bounds()
            )
            assert fast == slow

    def test_records_match_scan_spec(self, extractor, scans):
        for scan in scans:
            assert extractor.records_for(scan) == scan.selected_records

    def test_actual_fetches_monotone_in_buffer(self, extractor, scans):
        fetches = extractor.actual_fetches(scans[0], [5, 20, 80])
        values = [fetches[b] for b in (5, 20, 80)]
        assert values == sorted(values, reverse=True)

    def test_sargable_filter_reduces_trace(self, extractor, scans):
        import dataclasses

        scan = scans[0]
        filtered = dataclasses.replace(
            scan, sargable=HashSamplePredicate(0.2, seed=1)
        )
        assert len(extractor.trace_for(filtered)) < len(
            extractor.trace_for(scan)
        )

    def test_zero_selectivity_sargable_gives_empty(self, extractor, scans):
        import dataclasses

        scan = dataclasses.replace(
            scans[0], sargable=HashSamplePredicate(0.0)
        )
        assert extractor.fetch_curve_for(scan) is None
        assert extractor.actual_fetches(scan, [10]) == {10: 0}


class TestRunErrorBehavior:
    @pytest.fixture(scope="class")
    def result(self, skewed_dataset):
        index = skewed_dataset.index
        scans = generate_scan_mix(index, count=30, rng=random.Random(2))
        grid = evaluation_buffer_grid(index.table.page_count)
        estimators = [
            EPFISEstimator.from_index(index),
            PerfectlyClusteredEstimator.from_index(index),
        ]
        return run_error_behavior(index, estimators, scans, grid)

    def test_one_curve_per_estimator(self, result):
        assert [c.estimator for c in result.curves] == ["EPFIS", "clustered"]

    def test_curve_covers_grid(self, result):
        for curve in result.curves:
            assert [b for b, _e in curve.points] == list(result.buffer_grid)

    def test_curve_lookup(self, result):
        assert result.curve("EPFIS").estimator == "EPFIS"
        with pytest.raises(ExperimentError):
            result.curve("nope")

    def test_max_abs_errors(self, result):
        worst = result.max_abs_errors()
        assert set(worst) == {"EPFIS", "clustered"}
        assert all(v >= 0 for v in worst.values())

    def test_epfis_beats_naive_baseline(self, result):
        assert result.curve("EPFIS").max_abs_error() < result.curve(
            "clustered"
        ).max_abs_error()

    def test_validation(self, skewed_dataset):
        index = skewed_dataset.index
        grid = evaluation_buffer_grid(index.table.page_count)
        with pytest.raises(ExperimentError):
            run_error_behavior(index, [], [], grid)


class TestParallelGroundTruth:
    """The multiprocessing runner must reproduce serial results exactly."""

    @pytest.fixture(scope="class")
    def extractor(self, skewed_dataset):
        return ScanTraceExtractor(skewed_dataset.index)

    @pytest.fixture(scope="class")
    def scans(self, skewed_dataset):
        return generate_scan_mix(
            skewed_dataset.index, count=12, rng=random.Random(9)
        )

    def test_derive_scan_seed_is_deterministic_and_spread(self):
        seeds = [derive_scan_seed(7, i) for i in range(64)]
        assert seeds == [derive_scan_seed(7, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert derive_scan_seed(8, 0) != derive_scan_seed(7, 0)

    @pytest.mark.parametrize("kernel", [None, "baseline", "sampled"])
    def test_parallel_matches_serial(self, extractor, scans, kernel):
        sizes = [5, 20, 80]
        serial = ground_truth_tables(
            extractor, scans, sizes, workers=1, kernel=kernel, seed=3
        )
        parallel = ground_truth_tables(
            extractor, scans, sizes, workers=3, kernel=kernel, seed=3
        )
        assert parallel == serial

    def test_worker_count_does_not_matter(self, extractor, scans):
        sizes = [10, 40]
        results = [
            ground_truth_tables(
                extractor, scans, sizes, workers=w, kernel="sampled", seed=1
            )
            for w in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    def test_run_error_behavior_parallel_matches_serial(
        self, skewed_dataset
    ):
        index = skewed_dataset.index
        scans = generate_scan_mix(index, count=8, rng=random.Random(4))
        grid = evaluation_buffer_grid(index.table.page_count)
        estimators = [EPFISEstimator.from_index(index)]
        serial = run_error_behavior(
            index, estimators, scans, grid, workers=1
        )
        parallel = run_error_behavior(
            index, estimators, scans, grid, workers=2
        )
        assert [c.points for c in parallel.curves] == [
            c.points for c in serial.curves
        ]


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["col", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1]
        assert "long-name" in lines[-1]

    def test_format_table_arity_checked(self):
        with pytest.raises(ExperimentError):
            format_table(["a"], [[1, 2]])
        with pytest.raises(ExperimentError):
            format_table([], [])

    def test_ascii_chart_renders_marks_and_legend(self):
        text = ascii_chart(
            {"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]},
            width=20,
            height=5,
            title="demo",
        )
        assert "demo" in text
        assert "o=down" in text
        assert "x=up" in text

    def test_ascii_chart_validation(self):
        with pytest.raises(ExperimentError):
            ascii_chart({}, width=10, height=5)
        with pytest.raises(ExperimentError):
            ascii_chart({"empty": []}, width=10, height=5)

    def test_ascii_chart_constant_series(self):
        text = ascii_chart({"flat": [(0, 1), (1, 1)]}, width=10, height=3)
        assert "flat" in text
