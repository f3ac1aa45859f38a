"""End-to-end CLI tests for the observability flags and the
``repro metrics`` schema dump."""

import json

import pytest

from repro.cli import main
from repro.obs.instruments import standard_family_names
from repro.obs.metrics import global_registry
from repro.obs.promcheck import check_prometheus_text
from repro.obs.tracing import NULL_TRACER, active_tracer

SPEC = {
    "buffer_grid": {"floor": 4},
    "dataset": {
        "distinct_values": 20,
        "noise": 0.0,
        "records": 600,
        "records_per_page": 20,
        "seed": 3,
        "theta": 0.0,
        "window": 0.2,
    },
    "estimators": ["epfis", "ml"],
    "kernel": "baseline",
    "scans": {"count": 4, "small_probability": 0.5},
    "seed": 3,
    "workers": 1,
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    return path


def parse_spans(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


class TestMetricsCommand:
    def test_prom_schema_dump_passes_promcheck(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert check_prometheus_text(out) == []
        for name in standard_family_names():
            assert f"# TYPE {name} " in out

    def test_jsonl_schema_dump_parses(self, capsys):
        assert main(["metrics", "--format", "jsonl"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert sorted({r["name"] for r in records}) == (
            standard_family_names()
        )


class TestExperimentExports:
    def test_metrics_and_trace_files(self, tmp_path, spec_path):
        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "experiment",
            "--spec", str(spec_path),
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ]) == 0

        text = metrics_path.read_text(encoding="utf-8")
        assert check_prometheus_text(text) == []
        assert 'repro_kernel_references_total{kernel="baseline"}' in text
        assert (
            'repro_engine_call_latency_seconds_count{estimator="epfis"}'
            in text
        )
        assert "repro_catalog_reads_total 0" in text

        spans = parse_spans(trace_path)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        for required in (
            "experiment", "build-dataset", "lru-fit",
            "trace-generation", "kernel-pass", "segment-fit",
            "ground-truth", "est-io",
        ):
            assert required in by_name, f"missing span {required!r}"

        (experiment,) = by_name["experiment"]
        assert experiment["parent_id"] is None
        (lru_fit,) = by_name["lru-fit"]
        assert lru_fit["parent_id"] == experiment["span_id"]
        for child in ("trace-generation", "kernel-pass", "segment-fit"):
            (span,) = by_name[child]
            assert span["parent_id"] == lru_fit["span_id"]
        assert len(by_name["est-io"]) == len(SPEC["estimators"])
        for est_io in by_name["est-io"]:
            assert est_io["parent_id"] == experiment["span_id"]
        assert all(s["status"] == "ok" for s in spans)
        trace_ids = {s["trace_id"] for s in spans}
        assert len(trace_ids) == 1

    def test_jsonl_metrics_by_extension(self, tmp_path, spec_path):
        metrics_path = tmp_path / "metrics.jsonl"
        assert main([
            "experiment",
            "--spec", str(spec_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        records = [
            json.loads(line)
            for line in metrics_path.read_text(
                encoding="utf-8"
            ).splitlines()
        ]
        assert any(
            r["name"] == "repro_kernel_references_total"
            and "labels" in r
            for r in records
        )

    def test_stdout_export_keeps_stdout_parseable(
        self, capsys, spec_path
    ):
        assert main([
            "experiment",
            "--spec", str(spec_path),
            "--metrics-out", "-",
        ]) == 0
        captured = capsys.readouterr()
        assert check_prometheus_text(captured.out) == []
        # The human-readable table moved to stderr.
        assert "Error metric" in captured.err

    def test_registry_restored_after_run(self, tmp_path, spec_path):
        assert main([
            "experiment",
            "--spec", str(spec_path),
            "--metrics-out", str(tmp_path / "m.prom"),
            "--trace-out", str(tmp_path / "t.jsonl"),
        ]) == 0
        registry = global_registry()
        assert not registry.enabled
        assert all(
            family.children() == {}
            for family in registry.families()
        )
        assert active_tracer() is NULL_TRACER

    def test_without_flags_nothing_is_recorded(self, spec_path):
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        registry = global_registry()
        assert not registry.enabled
        assert all(
            family.children() == {}
            for family in registry.families()
        )

    def test_bad_metrics_format_fails_cleanly(
        self, capsys, spec_path, tmp_path
    ):
        assert main([
            "experiment",
            "--spec", str(spec_path),
            "--metrics-out", str(tmp_path / "m.prom"),
            "--metrics-format", "jsonl",
        ]) == 0  # explicit format overrides the extension
        records = [
            json.loads(line)
            for line in (tmp_path / "m.prom").read_text(
                encoding="utf-8"
            ).splitlines()
        ]
        assert records

    def test_unwritable_metrics_path_errors(self, capsys, spec_path):
        assert main([
            "experiment",
            "--spec", str(spec_path),
            "--metrics-out", "/nonexistent-dir/m.prom",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestServingExport:
    def test_loadgen_export_counts_every_request(
        self, tmp_path, capsys
    ):
        from tests.helpers import provision_tenants

        requests, tenants = 300, 2
        root = tmp_path / "tenants"
        provision_tenants(root, tenant_count=tenants, records=1500)
        metrics_file = tmp_path / "serving.prom"
        assert main([
            "loadgen",
            "--tenant-root", str(root),
            "--requests", str(requests),
            "--clients", "1",
            "--metrics-out", str(metrics_file),
        ]) == 0
        capsys.readouterr()
        text = metrics_file.read_text(encoding="utf-8")
        assert check_prometheus_text(text) == []
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        per_tenant = [
            int(value)
            for key, value in samples.items()
            if key.startswith("repro_serving_requests_total{")
        ]
        assert len(per_tenant) == tenants
        assert sum(per_tenant) == requests
        assert samples[
            'repro_engine_estimates_total{estimator="epfis"}'
        ] == str(requests)
        assert samples["repro_serving_latency_seconds_count"] == str(
            requests
        )
        # One closed-loop client: every batch holds one request.
        assert samples["repro_serving_batches_total"] == str(requests)
        # Pool discovery reads each tenant's catalog once more.
        assert samples["repro_catalog_reads_total"] == str(
            requests + tenants
        )
        assert samples["repro_serving_tenants_active"] == str(tenants)


class TestVerifyExport:
    @pytest.mark.slow
    def test_verify_emits_case_spans(self, tmp_path):
        trace_path = tmp_path / "verify-trace.jsonl"
        assert main([
            "verify",
            "--trace-out", str(trace_path),
        ]) == 0
        spans = parse_spans(trace_path)
        names = {s["name"] for s in spans}
        assert "verify" in names and "verify-case" in names
        (root,) = [s for s in spans if s["name"] == "verify"]
        for span in spans:
            if span["name"] == "verify-case":
                assert span["parent_id"] == root["span_id"]
