"""End-to-end tests for the experiment drivers at desk scale."""

import numpy as np
import pytest

from meso_spectra import InversionError, MissingRootError, SpectrumModel
from meso_spectra.experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    aggregate,
    deviation_norm,
    harness,
    read_report,
    reports_equal,
    run_concentration_from_config,
    run_eigenvector_experiment,
    run_experiment,
    run_location_experiment,
    run_pushforward_experiment,
)


def location_cfg(**overrides):
    doc = {
        "experiment": "location",
        "kind": "orth-invariant-additive",
        "n_values": [150],
        "theta_spec": {"values": [2.2, -2.0]},
        "delta": 0.15,
        "epsilon": 0.15,
        "trials": 4,
        "seed": 11,
        "spectrum": {"name": "semicircle"},
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestLocationDriver:
    def test_report_shape(self):
        rep = run_location_experiment(location_cfg())
        assert len(rep.records) == 4
        assert rep.aggregates["trials"] == 4
        assert rep.aggregates["outliers_evaluated"] == 8
        for rec in rep.records:
            assert not rec.failed
            assert [o.rank for o in rec.outliers] == [1, 2]
            assert rec.outliers[0].target_index == 1
            assert rec.outliers[1].target_index == 150

    def test_coverage_and_bands(self):
        # Coverage at this toy size is noisy; the 0.95 claim is exercised at
        # full scale by the acceptance suite.
        rep = run_location_experiment(location_cfg())
        assert rep.aggregates["coverage"] >= 0.75
        for rec in rep.records:
            for out in rec.outliers:
                assert out.in_band is (out.abs_error <= 0.15)

    def test_detector_cross_check_auto(self):
        rep = run_location_experiment(location_cfg())
        assert rep.aggregates["detector_delta_max"] < 1e-6
        for rec in rep.records:
            for out in rec.outliers:
                assert out.detector_location is not None

    def test_detector_cross_check_disabled(self):
        rep = run_location_experiment(location_cfg(cross_check=False))
        assert "detector_delta_max" not in rep.aggregates

    def test_closed_kind_cross_check_opt_in(self):
        cfg = location_cfg(kind="wigner", spectrum=None, n_values=[120],
                           cross_check=True, trials=2)
        rep = run_location_experiment(cfg)
        assert rep.aggregates["detector_delta_max"] < 1e-6

    @pytest.mark.parametrize("doc", [
        {"kind": "wigner", "n_values": [300],
         "theta_spec": {"values": [1.5, 2.0, -2.2, 0.9]}},
        {"kind": "wishart", "phi": 0.5, "n_values": [200],
         "theta_spec": {"values": [2.0, 1.2, -0.9]}},
    ], ids=["wigner", "wishart"])
    def test_closed_form_cross_check_agrees(self, doc):
        # The detector runs on the realized base spectrum, so a strength near
        # the closed-form threshold may fall inside that spectrum's margin
        # and go unlocated; every trial still locates its strong spikes.
        cfg = location_cfg(spectrum=None, cross_check=True, trials=3, seed=7,
                           **doc)
        rep = run_location_experiment(cfg)
        for rec in rep.records:
            assert any(out.detector_location is not None for out in rec.outliers)
        assert rep.aggregates["detector_delta_max"] <= 1e-8

    def test_deterministic_rerun(self):
        cfg = location_cfg()
        assert reports_equal(run_location_experiment(cfg),
                             run_location_experiment(cfg))

    def test_aggregates_recomputable(self):
        cfg = location_cfg()
        rep = run_location_experiment(cfg)
        again = aggregate("location", rep.records, epsilon=cfg.epsilon)
        assert again == rep.aggregates

    def test_unseparated_strengths_reported_empty(self):
        cfg = location_cfg(theta_spec={"values": [2.2, 1.01]})
        rep = run_location_experiment(cfg)
        for rec in rep.records:
            ranks = [o.rank for o in rec.outliers if o.abs_error is not None]
            assert ranks == [1]

    def test_wrong_experiment_rejected(self):
        cfg = location_cfg()
        with pytest.raises(ExperimentError):
            run_eigenvector_experiment(cfg)

    def test_report_path_written(self, tmp_path):
        target = tmp_path / "out" / "loc.json"
        cfg = location_cfg(report_path=str(target), trials=2)
        rep = run_location_experiment(cfg)
        assert reports_equal(read_report(target), rep)
        assert target.with_suffix(".csv").exists()

    def test_dispatch(self):
        cfg = location_cfg(trials=2)
        assert reports_equal(run_experiment(cfg), run_location_experiment(cfg))


class TestTrialFailures:
    def run_with_failing_detector(self, monkeypatch, cfg, bad_streams, error):
        """Run ``cfg`` with the detector raising ``error`` on ``bad_streams``."""
        current = {}
        real_sample = harness.sample_ensemble
        real_locate = harness.locate_outliers

        def sample(model, pert, n, stream, law):
            current["stream"] = stream.stream_id
            return real_sample(model, pert, n, stream, law)

        def locate(op, window, side, tol=None):
            if current["stream"] in bad_streams:
                raise error
            return real_locate(op, window, side, tol)

        monkeypatch.setattr(harness, "sample_ensemble", sample)
        monkeypatch.setattr(harness, "locate_outliers", locate)
        return run_location_experiment(cfg)

    @pytest.mark.parametrize("error", [
        MissingRootError("no root found above the bulk for rank 1", 1),
        InversionError("inverse solve missed its tolerance"),
    ], ids=["missing-root", "inversion"])
    def test_detector_failure_fails_one_trial(self, monkeypatch, error):
        cfg = location_cfg(trials=10)
        clean = run_location_experiment(cfg)
        rep = self.run_with_failing_detector(monkeypatch, cfg, {3}, error)
        failed = [rec for rec in rep.records if rec.failed]
        assert [rec.stream_id for rec in failed] == [3]
        assert failed[0].failure == f"detector failed: {error}"
        assert failed[0].outliers == ()
        kept = [rec for rec in clean.records if rec.stream_id != 3]
        assert [rec for rec in rep.records if not rec.failed] == kept

    def test_detector_failures_over_limit_abort(self, monkeypatch):
        cfg = location_cfg(trials=10)
        error = MissingRootError("no root found above the bulk for rank 1", 1)
        with pytest.raises(ExperimentError):
            self.run_with_failing_detector(monkeypatch, cfg, {2, 5}, error)


class TestEigenvectorDriver:
    def test_wigner_projection_accuracy(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "wigner",
            "n_values": [300],
            "theta_spec": {"values": [2.0]},
            "delta": 0.15,
            "epsilon": 0.15,
            "trials": 6,
            "seed": 13,
        })
        rep = run_eigenvector_experiment(cfg)
        for rec in rep.records:
            out = rec.outliers[0]
            assert out.proj_norm_pred == pytest.approx(0.75, rel=1e-12)
            assert 0.0 <= out.proj_norm_meas <= 1.0
            assert out.residual is not None and out.residual >= 0.0
            assert out.whitened_pred is None
        assert rep.aggregates["proj_norm_abs_error"]["median"] < 0.1

    def test_multiplicative_whitened_fields(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "orth-invariant-multiplicative",
            "n_values": [150],
            "theta_spec": {"values": [3.0]},
            "delta": 0.1,
            "epsilon": 0.1,
            "trials": 4,
            "seed": 17,
            "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
        })
        rep = run_eigenvector_experiment(cfg)
        for rec in rep.records:
            out = rec.outliers[0]
            assert out.whitened_pred is not None
            assert 0.0 <= out.whitened_meas <= 1.0 + 1e-12
            assert out.residual is None
        assert rep.aggregates["whitened_abs_error"]["median"] < 0.2

    def test_flat_unit_spectrum_exact(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "orth-invariant-multiplicative",
            "n_values": [100],
            "theta_spec": {"values": [1.0]},
            "delta": 0.1,
            "epsilon": 0.1,
            "trials": 3,
            "seed": 19,
            "spectrum": {"name": "values", "values": [1.0]},
        })
        rep = run_eigenvector_experiment(cfg)
        for rec in rep.records:
            out = rec.outliers[0]
            assert out.proj_norm_meas == pytest.approx(1.0, abs=1e-10)
            assert out.realized == pytest.approx(2.0, abs=1e-10)


class TestPushforwardDriver:
    def make_cfg(self, **overrides):
        doc = {
            "experiment": "pushforward",
            "kind": "wigner",
            "n_values": [100, 400, 1600],
            "theta_spec": {"distribution": "uniform", "low": 1.5, "high": 2.5},
            "m_rule": {"power": 0.5},
            "delta": 0.15,
            "epsilon": 0.15,
            "batches": 3,
            "seed": 23,
        }
        doc.update(overrides)
        return ExperimentConfig.from_dict(doc)

    def test_ladder_monotone(self):
        rep = run_pushforward_experiment(self.make_cfg())
        agg = rep.aggregates
        assert agg["batches"] == 3
        assert len(rep.records) == 9
        assert agg["monotone_batches"] >= 2
        for ladder in agg["w1_per_batch"].values():
            assert len(ladder) == 3
            assert all(w > 0.0 for w in ladder)

    def test_deterministic(self):
        cfg = self.make_cfg()
        assert reports_equal(run_pushforward_experiment(cfg),
                             run_pushforward_experiment(cfg))

    def test_records_carry_batch_and_w1(self):
        rep = run_pushforward_experiment(self.make_cfg(batches=2))
        batches = sorted({rec.batch for rec in rep.records})
        assert batches == [0, 1]
        for rec in rep.records:
            assert rec.w1 is not None and rec.outliers == ()


class TestConcentration:
    def test_deviation_norm_rank_one_exact(self):
        s = SpectrumModel.from_values([1.0, -1.0])
        frame = np.eye(2)[:, :1]
        # Weights at z = 3 are 1/2 and 1/4, so the centered block is 1/8.
        assert deviation_norm(s, 3.0, frame) == pytest.approx(0.125, rel=1e-12)

    def test_deviation_norm_needs_outside_point(self):
        s = SpectrumModel.from_values([1.0, -1.0])
        frame = np.eye(2)[:, :1]
        with pytest.raises(Exception):
            deviation_norm(s, 0.5, frame)

    def test_wrong_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_concentration_from_config(location_cfg())

    def test_config_driver_ratio(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "concentration",
            "n_values": [100, 400],
            "m_rule": {"fixed": 8},
            "spectrum": {"name": "semicircle"},
            "z": 3.0,
            "trials": 40,
            "seed": 37,
        })
        rep = run_experiment(cfg)
        agg = rep.aggregates
        assert set(agg["deviation_per_n"]) == {"100", "400"}
        for stats in agg["deviation_per_n"].values():
            assert 0.0 < stats["median"] <= stats["p95"] < 1.0
        # Quadrupling n should roughly halve the deviation norm.
        assert 1.2 < agg["median_ratio"] < 3.2
