"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.eval.spec import ExperimentSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.records == 100_000
        assert args.window == pytest.approx(0.2)

    def test_estimate_requires_sigma(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "--catalog", "x.json", "--buffers", "10"]
            )

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "--catalog", "x.json", "--sigma", "0.1",
                 "--buffers", "10", "--estimator", "nope"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--estimators", "nope"])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--kernel", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--kernels", "nope"])

    def test_policy_flags(self):
        args = build_parser().parse_args(["fit", "--catalog", "c.json"])
        assert args.policy == "lru"
        args = build_parser().parse_args(
            ["experiment", "--policy", "clock"]
        )
        assert args.policy == "clock"
        for command in (
            ["fit", "--catalog", "c.json", "--policy", "mru"],
            ["experiment", "--policy", "mru"],
            ["experiment", "--policy-ablation", "--policies", "mru"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command)

    def test_verify_accepts_policy_kernels(self):
        args = build_parser().parse_args(
            ["verify", "--kernels", "baseline", "clock", "2q"]
        )
        assert args.kernels == ["baseline", "clock", "2q"]


class TestCommands:
    SMALL = [
        "--records", "2000", "--distinct", "50",
        "--records-per-page", "20", "--seed", "3",
    ]

    def test_generate(self, capsys):
        assert main(["generate", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "clustering factor" in out
        assert "pages (T)" in out

    def test_fit_then_estimate_round_trip(self, tmp_path, capsys):
        catalog = str(tmp_path / "cat.json")
        assert main(["fit", *self.SMALL, "--catalog", catalog]) == 0
        assert main(
            [
                "estimate", "--catalog", catalog, "--sigma", "0.2",
                "--buffers", "5", "20", "80",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "estimated fetches" in out
        # Three buffer sizes -> three data rows (lines that *start* with
        # the index name; the fit confirmation line merely mentions it).
        assert sum(
            1 for line in out.splitlines()
            if line.startswith("synthetic")
        ) == 3

    def test_estimate_missing_catalog_is_clean_error(self, tmp_path, capsys):
        path = str(tmp_path / "cat.json")
        import json
        (tmp_path / "cat.json").write_text(json.dumps({}))
        code = main(
            ["estimate", "--catalog", path, "--index", "nope",
             "--sigma", "0.1", "--buffers", "5"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_experiment(self, capsys):
        assert main(
            ["experiment", *self.SMALL, "--scans", "10", "--floor", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "EPFIS" in out and "ML" in out and "OT" in out

    def test_experiment_parallel_matches_serial(self, capsys):
        base = ["experiment", *self.SMALL, "--scans", "8", "--floor", "4"]
        assert main([*base, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*base, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_estimate_with_named_estimator(self, tmp_path, capsys):
        catalog = str(tmp_path / "cat.json")
        assert main(["fit", *self.SMALL, "--catalog", catalog]) == 0
        assert main(
            ["estimate", "--catalog", catalog, "--sigma", "0.2",
             "--buffers", "20", "--estimator", "ml"]
        ) == 0
        out = capsys.readouterr().out
        assert "ML estimates" in out

    def test_experiment_estimators_subset(self, capsys):
        assert main(
            ["experiment", *self.SMALL, "--scans", "8", "--floor", "4",
             "--estimators", "epfis", "ot"]
        ) == 0
        out = capsys.readouterr().out
        assert "EPFIS" in out and "OT" in out
        assert "ML" not in out and "DC" not in out

    def test_experiment_kernel_flag(self, capsys):
        assert main(
            ["experiment", *self.SMALL, "--scans", "8", "--floor", "4",
             "--kernel", "sampled"]
        ) == 0
        out = capsys.readouterr().out
        assert "EPFIS" in out

    @pytest.mark.policy
    def test_fit_policy_and_estimate_guard(self, tmp_path, capsys):
        catalog = str(tmp_path / "cat.json")
        assert main(
            ["fit", *self.SMALL, "--catalog", catalog,
             "--policy", "clock"]
        ) == 0
        assert "policy = clock" in capsys.readouterr().out
        assert main(
            ["estimate", "--catalog", catalog, "--sigma", "0.2",
             "--buffers", "20", "--policy", "clock"]
        ) == 0
        assert "estimated fetches" in capsys.readouterr().out
        assert main(
            ["estimate", "--catalog", catalog, "--sigma", "0.2",
             "--buffers", "20", "--policy", "lru"]
        ) == 1
        assert "fitted under policy 'clock'" in capsys.readouterr().err

    @pytest.mark.policy
    def test_experiment_policy_ablation(self, capsys):
        assert main(
            ["experiment", "--policy-ablation", "--policies", "clock",
             "--families", "loop"]
        ) == 0
        out = capsys.readouterr().out
        assert "LRU-drift ablation" in out
        assert "max drift" in out
        assert "clock" in out

    @pytest.mark.policy
    def test_experiment_policy_spec_round_trip(self, tmp_path, capsys):
        spec_path = str(tmp_path / "spec.json")
        assert main(
            ["experiment", *self.SMALL, "--scans", "5",
             "--policy", "2q", "--save-spec", spec_path]
        ) == 0
        capsys.readouterr()
        assert ExperimentSpec.load(spec_path).policy == "2q"

    def test_perf(self, capsys):
        assert main(
            ["perf", *self.SMALL, "--repeats", "1",
             "--kernels", "baseline", "sampled"]
        ) == 0
        out = capsys.readouterr().out
        assert "LRU-Fit pass per kernel" in out
        assert "sampled" in out and "baseline" in out
        assert "MISMATCH" not in out

    def test_gwl(self, capsys):
        assert main(["gwl", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "PLON" in out

    def test_locality(self, capsys):
        assert main(["locality", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "mean run length" in out
        assert "reuse fraction" in out

    def test_contention(self, capsys):
        assert main(
            ["contention", *self.SMALL, "--scans", "2", "--buffer", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharing a 30-page" in out
        assert "overhead" in out


class TestExperimentSpecPaths:
    """The three `experiment` entry paths agree byte for byte."""

    FLAGS = [
        "--records", "2000", "--distinct", "50", "--records-per-page", "20",
        "--theta", "0.86", "--window", "0.2", "--seed", "3",
        "--scans", "10", "--floor", "4",
    ]

    def test_example_spec_matches_flags_byte_for_byte(self, capsys):
        spec_path = EXAMPLES / "experiment_spec.json"
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        from_spec = capsys.readouterr().out
        assert main(["experiment", *self.FLAGS]) == 0
        from_flags = capsys.readouterr().out
        assert from_spec == from_flags

    def test_save_spec_equals_example_file(self, tmp_path, capsys):
        saved = tmp_path / "spec.json"
        assert main(
            ["experiment", *self.FLAGS, "--save-spec", str(saved)]
        ) == 0
        assert "wrote experiment spec" in capsys.readouterr().out
        example = EXAMPLES / "experiment_spec.json"
        assert saved.read_text() == example.read_text()

    def test_saved_spec_round_trips(self, tmp_path, capsys):
        saved = tmp_path / "spec.json"
        assert main(
            ["experiment", *self.FLAGS, "--save-spec", str(saved)]
        ) == 0
        capsys.readouterr()
        spec = ExperimentSpec.load(saved)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_missing_spec_file_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["experiment", "--spec", str(tmp_path / "missing.json")]
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_spec_json_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"dataset": [unterminated', encoding="utf-8")
        assert main(["experiment", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid experiment-spec JSON" in err

    def test_spec_with_unknown_estimator_is_clean_error(
        self, tmp_path, capsys
    ):
        spec = ExperimentSpec.load(EXAMPLES / "experiment_spec.json")
        payload = spec.to_dict()
        payload["estimators"] = ["epfis", "nope"]
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(payload), encoding="utf-8"
        )
        assert main(["experiment", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown estimator" in err and "nope" in err

    def test_spec_with_unknown_kernel_is_clean_error(
        self, tmp_path, capsys
    ):
        spec = ExperimentSpec.load(EXAMPLES / "experiment_spec.json")
        payload = spec.to_dict()
        payload["kernel"] = "warp-drive"
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(payload), encoding="utf-8"
        )
        assert main(["experiment", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown kernel" in err and "warp-drive" in err
