"""Observability tests for the refresh loop's metric families."""

from repro.cli import main
from repro.obs.instruments import (
    REFRESH_CYCLE_SECONDS,
    REFRESH_CYCLES_TOTAL,
    REFRESH_DRIFT_DETECTED_TOTAL,
    REFRESH_PUBLISHES_TOTAL,
    REFRESH_QUARANTINED_CANDIDATES_TOTAL,
    REFRESH_ROLLBACKS_TOTAL,
    standard_family_names,
)
from repro.obs.promcheck import check_prometheus_text

REFRESH_FAMILIES = (
    REFRESH_CYCLES_TOTAL,
    REFRESH_DRIFT_DETECTED_TOTAL,
    REFRESH_PUBLISHES_TOTAL,
    REFRESH_ROLLBACKS_TOTAL,
    REFRESH_QUARANTINED_CANDIDATES_TOTAL,
    REFRESH_CYCLE_SECONDS,
)


class TestSchemaDump:
    def test_refresh_families_are_standard(self):
        names = standard_family_names()
        for family in REFRESH_FAMILIES:
            assert family in names

    def test_metrics_command_dumps_refresh_families(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for family in REFRESH_FAMILIES:
            assert f"# TYPE {family} " in out


class TestRefreshExporter:
    def test_refresh_run_export_passes_promcheck(
        self, tmp_path, capsys
    ):
        metrics_file = tmp_path / "metrics.prom"
        code = main(
            [
                "refresh",
                "--catalog", str(tmp_path / "catalog.json"),
                "--cycles", "2",
                "--window", "3000",
                "--pages", "80",
                "--state-dir", str(tmp_path / "state"),
                "--metrics-out", str(metrics_file),
            ]
        )
        assert code == 0
        capsys.readouterr()
        text = metrics_file.read_text(encoding="utf-8")
        assert check_prometheus_text(text) == []
        # The counters carry the run's truth, not just the schema.
        assert (
            f'{REFRESH_CYCLES_TOTAL}{{action="published"}} 1' in text
            or f'{REFRESH_CYCLES_TOTAL}{{action="published"}} 2' in text
        )
        assert f"{REFRESH_PUBLISHES_TOTAL} " in text
        assert f"{REFRESH_CYCLE_SECONDS}_count 2" in text
        # Cycle time is observed in integer nanoseconds like every
        # duration, so the export reads seconds: regression for float
        # seconds observed into the nanosecond histogram, which put
        # ~30 ms cycles in the 1 us bucket with a ~6e-11 s sum.
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        assert float(samples[f"{REFRESH_CYCLE_SECONDS}_sum"]) >= 1e-4
        buckets = [
            value
            for key, value in samples.items()
            if key.startswith(f"{REFRESH_CYCLE_SECONDS}_bucket")
        ]
        assert buckets[0] == "0"  # le = 1 us
