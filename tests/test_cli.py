"""Tests for the command line interface."""

import json

import numpy as np
import pytest

from meso_spectra import Model, PerturbationSpec, SpectrumModel, ensembles
from meso_spectra.cli import main
from meso_spectra.experiments import harness


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

    def test_weak_strength_near_the_edge_is_not_separated(self, tmp_path, capsys):
        # 1/0.01 is attained only ~3e-5 above lam_max, where an inverse solve
        # cannot meet its residual; the verdict must not need one.
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(0.5, 2.5, 300))
        code, out, _ = run_cli(capsys, "predict", "--kind",
                               "orth-invariant-additive", "--spectrum-file",
                               spec, "--theta", "3", "0.01")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["3", "yes"], ["0.01", "no"]]

    def test_zero_multiplicative_spectrum_has_no_outlier(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.zeros(5))
        code, out, _ = run_cli(capsys, "predict", "--kind",
                               "orth-invariant-multiplicative", "--spectrum-file",
                               spec, "--theta", "0.5")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t") == ["0.5", "no", "-", "-"]


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_usage_error(self, tmp_path, capsys, seed):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 90))
        for argv in (["sample", "--kind", "wigner", "--n", "5"],
                     ["detect", "--spectrum-file", spec, "--theta", "2.4"],
                     ["sandwich", "--random", "1"]):
            code, out, err = run_cli(capsys, *argv, f"--seed={seed}")
            assert code == 2 and out == ""
            assert err == f"error: --seed: must lie in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_meso_seed_outside_64_bits_usage_error(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("MESO_SEED", seed)
        code, out, err = run_cli(capsys, "sample", "--kind", "wigner", "--n", "5",
                                 "--seed", "5")
        assert code == 2 and out == ""
        assert err == f"error: MESO_SEED: must lie in [0, 2**64), got {seed}\n"


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

    def test_large_instance_reads_values_from_the_partial_solve(
            self, tmp_path, capsys, monkeypatch):
        # Above the size rule the table's eigensolve column comes from the
        # certified partial solve, with no n x n matrix built, and matches
        # the dense values to the printed digits.
        n, thetas, seed = 400, [2.4, 2.0, -2.1], 13
        assert n > ensembles.FILTER_ROWS_PER_PAIR * (len(thetas) + 1)
        values = np.linspace(-1, 1, n)
        spec = write_spectrum(tmp_path / "s.txt", values)

        def no_dense(*args):
            raise AssertionError("detect must build no n x n matrix")

        monkeypatch.setattr(ensembles, "perturb_additive", no_dense)
        code, out, _ = run_cli(capsys, "detect", "--spectrum-file", spec,
                               "--theta", *map(str, thetas), "--seed", str(seed),
                               "--delta", "0.1")
        monkeypatch.undo()
        assert code == 0
        sample = ensembles.sample_ensemble(
            Model.additive(SpectrumModel.from_values(values)),
            PerturbationSpec.from_values(thetas), n, ensembles.RngStream(seed, 0))
        dense = np.linalg.eigvalsh(sample.perturbed)[::-1]
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert [row[3] for row in rows] == [f"{v:.6f}" for v in dense[[0, 1, -1]]]

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

    def test_weak_strength_near_the_edge_is_skipped(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(0.5, 2.5, 300))
        code, out, _ = run_cli(capsys, "detect", "--spectrum-file", spec,
                               "--theta", "3", "0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split("\t")[:2] for line in lines[1:]] == [["1", "3"]]

    def test_bad_delta_usage_error(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 90))
        code, out, err = run_cli(capsys, "detect", "--spectrum-file", spec,
                                 "--theta", "2.4", "--seed", "11", "--delta", "0")
        assert code == 2
        assert out == ""
        assert "delta must be positive and finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_usage_error(self, tmp_path, capsys, tol):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(-1, 1, 90))
        code, out, err = run_cli(capsys, "detect", "--spectrum-file", spec,
                                 "--theta", "2.5", "--seed", "11", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "tol must be positive and finite" in err

    def test_theta_order_does_not_matter(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(0.5, 2.5, 300))
        tables = []
        for thetas in (["3.0", "-0.8"], ["-0.8", "3.0"]):
            code, out, _ = run_cli(capsys, "detect", "--spectrum-file", spec,
                                   "--n", "200", "--theta", *thetas,
                                   "--kind", "multiplicative", "--seed", "5")
            assert code == 0
            tables.append(out)
        assert len(tables[0].splitlines()) == 3
        assert tables[0] == tables[1]


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

    @pytest.mark.parametrize("kind, last", [
        ("orth-invariant-additive", "median_residual"),
        ("orth-invariant-multiplicative", "median_whitened_error"),
    ])
    def test_eigenvector_summary_names_what_the_kind_measures(self, tmp_path,
                                                              capsys, kind, last):
        # Additive runs record a residual, multiplicative ones the whitened
        # projection's error; the summary prints a number for either.
        cfg = self.write_cfg(tmp_path, experiment="eigenvector", kind=kind,
                             n_values=[150],
                             spectrum={"name": "uniform", "low": 0.5, "high": 2.5},
                             theta_spec={"values": [1.5, -0.9]})
        code, out, _ = run_cli(capsys, "verify", cfg)
        assert code == 0
        summary = out.strip().split("\t")
        assert summary[0] == "experiment=eigenvector"
        assert summary[3].split("=")[0] == last
        assert float(summary[3].split("=")[1]) >= 0.0


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


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


# A Wigner ladder at M = floor(sqrt(n)) needs explicit bands: the default
# sqrt(M/N) rule gives delta = 1.34, and strengths from 1.5 would then fail
# the separation check of the config.
PUSHFORWARD = {
    "experiment": "pushforward",
    "kind": "wigner",
    "n_values": [100, 200, 400],
    "theta_spec": {"distribution": "uniform", "low": 1.5, "high": 2.5},
    "m_rule": {"power": 0.5},
    "delta": 0.15,
    "epsilon": 0.15,
    "batches": 3,
    "seed": 7,
}

CONCENTRATION = {
    "experiment": "concentration",
    "n_values": [200, 800],
    "m_rule": {"fixed": 5},
    "spectrum": {"name": "semicircle"},
    "z": 3.0,
    "trials": 4,
    "seed": 9,
}


class TestOtherExperiments:
    """``verify`` and ``sweep`` on the pushforward and concentration drivers."""

    def test_pushforward_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "verify", write_config(tmp_path, PUSHFORWARD))
        assert code == 0
        summary = out.strip().split("\t")
        assert summary[0] == "experiment=pushforward"
        assert summary[1].startswith("monotone_batches=")
        assert summary[1].endswith("/3")
        assert summary[2].startswith("w1_median_per_n={'100': ")

    def test_pushforward_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "sweep", write_config(tmp_path, PUSHFORWARD))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "batch\tw1_n100\tw1_n200\tw1_n400"
        assert [line.split("\t")[0] for line in lines[1:-1]] == ["0", "1", "2"]
        assert all(len(line.split("\t")) == 4 for line in lines[1:-1])
        assert lines[-1].startswith("monotone_batches=")
        assert lines[-1].endswith("/3")

    def test_concentration_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "verify", write_config(tmp_path, CONCENTRATION))
        assert code == 0
        summary = out.strip().split("\t")
        assert summary[0] == "experiment=concentration"
        assert summary[1].startswith("deviation_per_n={'200': ")
        assert summary[2].startswith("median_ratio=")
        assert float(summary[2].split("=")[1]) > 0.0

    def test_concentration_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "sweep", write_config(tmp_path, CONCENTRATION))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tm\tmedian\tp95"
        assert [line.split("\t")[:2] for line in lines[1:]] == [["200", "5"],
                                                               ["800", "5"]]


def test_too_many_failed_trials_abort(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(harness, "eigensolve", failing)
    path = write_config(tmp_path, {
        "experiment": "location",
        "kind": "wigner",
        "n_values": [60],
        "theta_spec": {"values": [2.0]},
        "trials": 3,
        "seed": 3,
    })
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: 3 of 3 trials failed")


@pytest.mark.parametrize("argv", [
    ["sample", "--kind", "wigner", "--n", "0"],
    ["sample", "--kind", "wigner", "--n=-3"],
    ["sample", "--kind", "wigner", "--n", "2.5"],
    ["predict", "--kind", "wigner", "--theta", "2", "--n", "0"],
    ["detect", "--spectrum-file", "s.txt", "--theta", "2", "--n", "0"],
    ["sandwich", "--spectrum-file", "s.txt", "--theta", "2", "--n", "0"],
    ["sandwich", "--spectrum-file", "s.txt", "--theta", "2", "--xi-count=-2"],
    ["sandwich", "--random", "2", "--xi-count", "0"],
    ["sandwich", "--random", "0"],
], ids=["sample-n-0", "sample-n-negative", "sample-n-fraction", "predict-n-0",
        "detect-n-0", "sandwich-n-0", "sandwich-xi-count-negative",
        "sandwich-xi-count-0", "sandwich-random-0"])
def test_counts_must_be_positive_integers(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive" in captured.err


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

    @pytest.mark.parametrize("theta", ["0.01", "0.001"])
    def test_weak_strength_near_the_edge_fails_the_hypothesis(self, tmp_path, capsys,
                                                             theta):
        spec = write_spectrum(tmp_path / "s.txt", np.linspace(0.5, 2.5, 300))
        code, out, err = run_cli(capsys, "sandwich", "--spectrum-file", spec,
                                 "--theta", theta)
        assert code == 2
        assert out == ""
        assert "below" in err
