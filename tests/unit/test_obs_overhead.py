"""The instrumentation-overhead gate (``python -m repro.obs.overhead``)."""

import gc

import pytest

from repro.buffer.kernels import get_kernel
from repro.errors import ObservabilityError
from repro.obs import instruments, overhead
from repro.obs.metrics import global_registry


def _references_recorded():
    family = global_registry().get(instruments.KERNEL_REFERENCES_TOTAL)
    return 0 if family is None else sum(
        sample["value"] for sample in family.snapshot()["samples"]
    )


class TestMeasurement:
    def test_refuses_an_enabled_registry_and_records_nothing(self):
        # Measuring on a live registry would add the measurement's own
        # references to the six recorded here.
        registry = global_registry()
        registry.enable()
        try:
            get_kernel("baseline").analyze([0, 1, 0, 2, 1, 0])
            assert _references_recorded() == 6
            with pytest.raises(ObservabilityError):
                overhead.measure_instrumentation_overhead()
            assert registry.enabled
            assert _references_recorded() == 6
        finally:
            registry.disable()
            registry.clear()

    def test_real_measurement_reports_its_fields(self):
        report = overhead.measure_instrumentation_overhead()
        assert report["kernel"] == "baseline"
        assert report["references"] == 8_000
        assert report["pairs"] == 9
        assert report["bound_pct"] == 5.0
        assert isinstance(report["overhead_pct"], float)
        assert report["ok"] == (report["overhead_pct"] <= 5.0)
        # The registry and the collector are left as a fresh process
        # has them.
        assert not global_registry().enabled
        assert gc.isenabled()
        assert _references_recorded() == 0


class TestMain:
    @pytest.mark.parametrize("pct, code, verdict", [
        (1.25, 0, "ok"),
        (5.0, 0, "ok"),
        (7.5, 1, "OVER BUDGET"),
    ])
    def test_exit_code_and_one_line(
        self, monkeypatch, capsys, pct, code, verdict
    ):
        monkeypatch.setattr(
            overhead, "measure_instrumentation_overhead",
            lambda: {
                "kernel": "baseline", "references": 8_000, "pairs": 9,
                "overhead_pct": pct, "bound_pct": 5.0, "ok": pct <= 5.0,
            },
        )
        assert overhead.main([]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert f"{pct:+.2f}%" in lines[0]
        assert "bound 5%" in lines[0]
        assert lines[0].endswith(verdict)

    def test_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            overhead.main(["--repeats", "3"])
        assert exit_info.value.code == 2
