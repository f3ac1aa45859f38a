"""Structural tests for the BENCH_shard harness (smoke mode)."""

import json

import pytest

from repro.buffer.kernels import DEFAULT_KERNEL
from repro.perf.shard import run_shard_benchmark


@pytest.fixture(scope="class")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_shard.json"
    document = run_shard_benchmark(out_path=out, smoke=True)
    return document, out


class TestShardBenchSmoke:
    def test_written_json_round_trips(self, smoke_document):
        document, out = smoke_document
        assert json.loads(out.read_text()) == document

    def test_schema_and_config(self, smoke_document):
        document, _ = smoke_document
        assert document["schema"] == 1
        config = document["config"]
        assert config["smoke"] is True
        assert config["kernel"] == DEFAULT_KERNEL
        assert config["worker_counts"] == [1, 2]
        assert config["host_cores"] >= 1

    def test_scaling_rows(self, smoke_document):
        document, _ = smoke_document
        rows = document["sharded"]
        assert [row["workers"] for row in rows] == [1, 2]
        for row in rows:
            assert row["shards"] == row["workers"]
            assert len(row["per_shard_feed_ms"]) == row["shards"]
            assert row["merged_equals_exact"] is True
            assert row["wall_ns"] > 0
            assert row["critical_path_ns"] <= row["wall_ns"]
            assert row["speedup_wall"] > 0
            assert row["speedup_critical_path"] > 0

    def test_merge_correctness_gates(self, smoke_document):
        document, _ = smoke_document
        criteria = document["criteria"]
        assert criteria["merged_exact_everywhere"] is True
        assert criteria["sampled_merge_exact"] is True
        assert criteria["basis"] in ("wall", "critical_path")
        assert criteria["meaningful"] is False
        sampled = document["sampled"]
        assert sampled["merged_equals_single_pass"] is True
        assert sampled["band_error_pct"] >= 0

    def test_criteria_speedup_is_basis_consistent(self, smoke_document):
        document, _ = smoke_document
        criteria = document["criteria"]
        key = (
            "speedup_wall" if criteria["basis"] == "wall"
            else "speedup_critical_path"
        )
        rows = {r["workers"]: r for r in document["sharded"]}
        assert criteria["speedup"] == rows[criteria["gate_workers"]][key]
