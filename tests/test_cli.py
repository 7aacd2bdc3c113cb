"""Tests for the command line interface."""

import json

import numpy as np
import pytest

from meso_spectra.cli import main


def write_spectrum(path, values):
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_wigner_table(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--kind", "wigner",
                               "--theta", "2.0", "1.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta\tseparated\tlocation\tproj_norm_sq"
        top = lines[1].split("\t")
        assert top[0] == "2" and top[1] == "yes"
        assert float(top[2]) == pytest.approx(2.5)
        assert float(top[3]) == pytest.approx(0.75)
        weak = lines[2].split("\t")
        assert weak[1] == "no" and weak[2] == "-" and weak[3] == "-"

    def test_wishart_requires_phi(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--kind", "wishart",
                               "--theta", "2.0")
        assert code == 2
        assert "--phi" in err

    def test_wishart_closed_value(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--kind", "wishart",
                               "--phi", "0.5", "--theta", "2.0")
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert float(row[2]) == pytest.approx(3.75)
        assert float(row[3]) == pytest.approx(0.70)

    def test_phi_rejected_for_wigner(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--kind", "wigner",
                               "--phi", "0.5", "--theta", "2.0")
        assert code == 2

    def test_empirical_kind_needs_spectrum_file(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--kind",
                               "orth-invariant-additive", "--theta", "2.0")
        assert code == 2
        assert "--spectrum-file" in err

    def test_empirical_prediction(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.zeros(40))
        code, out, _ = run_cli(capsys, "predict", "--kind",
                               "orth-invariant-additive", "--spectrum-file",
                               spec, "--theta", "2.0")
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert float(row[2]) == pytest.approx(2.0, abs=1e-9)

    def test_unknown_kind_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["predict", "--kind", "banded", "--theta", "2.0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    def test_bad_delta_prints_no_table(self, capsys, delta):
        code, out, err = run_cli(capsys, "predict", "--kind", "wigner",
                                 "--theta", "2", f"--delta={delta}")
        assert code == 2
        assert out == ""
        assert "delta must be positive and finite" in err


class TestSample:
    def test_summary_and_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "evals.txt"
        code, out, _ = run_cli(capsys, "sample", "--kind", "wigner", "--n", "80",
                               "--seed", "3", "--out", str(out_file))
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("kind\tn\tseed")
        fields = row.split("\t")
        assert fields[0] == "wigner" and fields[1] == "80" and fields[2] == "3"
        written = [float(line) for line in out_file.read_text().split()]
        assert len(written) == 80
        # The summary rounds to six significant digits; the file is exact.
        assert written[0] == pytest.approx(float(fields[3]), rel=1e-5)

    def test_wishart_needs_aspect(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--kind", "wishart", "--n", "40",
                               "--seed", "1")
        assert code == 2
        assert "--phi or --p" in err

    def test_conjugated_spectrum(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 30))
        code, out, _ = run_cli(capsys, "sample", "--kind", "conjugated", "--n", "30",
                               "--seed", "2", "--spectrum-file", spec)
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert float(row[3]) == pytest.approx(1.0, abs=1e-9)

    def test_meso_seed_env_override(self, tmp_path, capsys, monkeypatch):
        code, base_out, _ = run_cli(capsys, "sample", "--kind", "wigner", "--n", "30",
                                    "--seed", "5")
        monkeypatch.setenv("MESO_SEED", "6")
        code, env_out, _ = run_cli(capsys, "sample", "--kind", "wigner", "--n", "30",
                                   "--seed", "5")
        assert code == 0
        assert env_out.splitlines()[1].split("\t")[2] == "6"
        assert env_out != base_out

    def test_meso_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("MESO_SEED", "soon")
        code, _, err = run_cli(capsys, "sample", "--kind", "wigner", "--n", "30",
                               "--seed", "5")
        assert code == 2
        assert "MESO_SEED" in err


class TestDetect:
    def test_roots_match_eigensolve(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 90))
        code, out, _ = run_cli(capsys, "detect", "--spectrum-file", spec,
                               "--theta", "2.4", "-2.1", "--kind", "additive",
                               "--seed", "11", "--delta", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank\ttheta\tmaster\teigensolve\tdelta"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split("\t")
            assert float(fields[4]) < 1e-6
        assert lines[1].split("\t")[1] == "2.4"
        assert lines[2].split("\t")[1] == "-2.1"

    def test_multiplicative_detection(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(0.5, 2.5, 80))
        code, out, _ = run_cli(capsys, "detect", "--spectrum-file", spec,
                               "--theta", "3.0", "--kind", "multiplicative",
                               "--seed", "7", "--delta", "0.1")
        assert code == 0
        fields = out.strip().splitlines()[1].split("\t")
        assert float(fields[4]) < 1e-6

    def test_no_separated_outliers(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 90))
        code, out, _ = run_cli(capsys, "detect", "--spectrum-file", spec,
                               "--theta", "0.5", "--kind", "additive",
                               "--seed", "11", "--delta", "0.1")
        assert code == 0
        assert out.strip() == "no separated outliers"

    def test_bad_delta_usage_error(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 90))
        code, out, err = run_cli(capsys, "detect", "--spectrum-file", spec,
                                 "--theta", "2.4", "--seed", "11", "--delta", "0")
        assert code == 2
        assert out == ""
        assert "delta must be positive and finite" in err


class TestVerify:
    def write_cfg(self, tmp_path, **overrides):
        doc = {
            "experiment": "location",
            "kind": "wigner",
            "n_values": [120],
            "theta_spec": {"values": [2.0]},
            "delta": 0.15,
            "epsilon": 0.15,
            "trials": 3,
            "seed": 3,
        }
        doc.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_passing_thresholds(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, thresholds={"min_coverage": 0.5})
        code, out, _ = run_cli(capsys, "verify", cfg)
        assert code == 0
        assert out.startswith("experiment=location")
        assert "FAIL" not in out

    def test_failing_thresholds(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, thresholds={"max_abs_error_median": 1e-9})
        code, out, _ = run_cli(capsys, "verify", cfg)
        assert code == 1
        assert "FAIL" in out

    def test_unknown_metric(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, thresholds={"min_sharpness": 0.5})
        code, _, err = run_cli(capsys, "verify", cfg)
        assert code == 2
        assert "sharpness" in err

    def test_invalid_config_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "location"}))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2

    def test_report_written(self, tmp_path, capsys):
        target = tmp_path / "rep.json"
        cfg = self.write_cfg(tmp_path, report_path=str(target))
        code, out, _ = run_cli(capsys, "verify", cfg)
        assert code == 0
        assert target.exists()
        assert f"report={target}" in out


class TestSweep:
    def test_location_trend_table(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "location",
            "kind": "wigner",
            "n_values": [100, 200],
            "theta_spec": {"values": [2.0]},
            "delta": 0.15,
            "epsilon": 0.15,
            "trials": 2,
            "seed": 5,
        }))
        code, out, _ = run_cli(capsys, "sweep", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tm\tcoverage\tmedian_abs_error\tsqrt_m_over_n"
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "100"
        assert lines[2].split("\t")[0] == "200"


class TestSandwichCommand:
    def test_random_sweep_summary(self, capsys):
        code, out, _ = run_cli(capsys, "sandwich", "--random", "5",
                               "--seed", "3")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "instances\trows\tfailures"
        fields = row.split("\t")
        assert fields[0] == "5" and fields[2] == "0"

    def test_single_instance_table(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 60))
        code, out, _ = run_cli(capsys, "sandwich", "--spectrum-file", spec,
                               "--theta", "2.5", "--delta", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family\txi")
        assert all(line.endswith("yes") for line in lines[1:])

    def test_flags_required(self, capsys):
        code, _, err = run_cli(capsys, "sandwich")
        assert code == 2
        assert "--random" in err

    def test_hypothesis_violation_usage_error(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 60))
        code, _, err = run_cli(capsys, "sandwich", "--spectrum-file", spec,
                               "--theta", "1.01", "--delta", "0.2")
        assert code == 2
