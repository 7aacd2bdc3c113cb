"""End-to-end tests for the experiment drivers at desk scale."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import meso_spectra
from meso_spectra import (InversionError, MissingRootError, Model, ModelKind,
                          PerturbationSpec, RngStream, SpectrumModel, ensembles,
                          partial, predict)
from meso_spectra.ensembles import eigensolve
from meso_spectra.experiments import ExperimentError, aggregate, harness, run_experiment
from meso_spectra.experiments.config import ExperimentConfig
from meso_spectra.experiments.harness import deviation_norm
from meso_spectra.experiments.reports import read_report, reports_equal


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
        rep = run_experiment(location_cfg())
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
        rep = run_experiment(location_cfg())
        assert rep.aggregates["coverage"] >= 0.75
        for rec in rep.records:
            for out in rec.outliers:
                assert out.in_band is (out.abs_error <= 0.15)

    def test_detector_cross_check_auto(self):
        rep = run_experiment(location_cfg())
        assert rep.aggregates["detector_delta_max"] < 1e-6
        # The known spectrum judges separation for both routes alike.
        assert rep.aggregates["detector_located"] == rep.aggregates["outliers_evaluated"]
        for rec in rep.records:
            for out in rec.outliers:
                assert out.detector_location is not None

    def test_detector_cross_check_disabled(self):
        rep = run_experiment(location_cfg(cross_check=False))
        assert "detector_delta_max" not in rep.aggregates
        assert "detector_located" not in rep.aggregates

    def test_closed_kind_cross_check_opt_in(self):
        cfg = location_cfg(kind="wigner", spectrum=None, n_values=[120],
                           cross_check=True, trials=2)
        rep = run_experiment(cfg)
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
        # and go unlocated; every trial still locates its strong spikes, and
        # the report counts the located ones.
        cfg = location_cfg(spectrum=None, cross_check=True, trials=3, seed=7,
                           **doc)
        rep = run_experiment(cfg)
        for rec in rep.records:
            assert any(out.detector_location is not None for out in rec.outliers)
        agg = rep.aggregates
        assert agg["detector_delta_max"] <= 1e-8
        located = sum(out.detector_location is not None
                      for rec in rep.records for out in rec.outliers)
        assert agg["detector_located"] == located < agg["outliers_evaluated"]

    def test_deterministic_rerun(self):
        cfg = location_cfg()
        assert reports_equal(run_experiment(cfg),
                             run_experiment(cfg))

    def test_aggregates_recomputable(self):
        cfg = location_cfg()
        rep = run_experiment(cfg)
        again = aggregate("location", rep.records, epsilon=cfg.epsilon)
        assert again == rep.aggregates

    def test_unseparated_strengths_reported_empty(self):
        cfg = location_cfg(theta_spec={"values": [2.2, 1.01]})
        rep = run_experiment(cfg)
        for rec in rep.records:
            ranks = [o.rank for o in rec.outliers if o.abs_error is not None]
            assert ranks == [1]

    def test_report_path_written(self, tmp_path):
        target = tmp_path / "out" / "loc.json"
        cfg = location_cfg(report_path=str(target), trials=2)
        rep = run_experiment(cfg)
        assert reports_equal(read_report(target), rep)
        assert target.with_suffix(".csv").exists()

    def test_dispatch(self):
        cfg = location_cfg(trials=2)
        assert reports_equal(run_experiment(cfg),
                             harness._run_trials(cfg, with_vectors=False))


class TestTrialFailures:
    def run_with_failing_detector(self, monkeypatch, cfg, bad_streams, error):
        """Run ``cfg`` with the detector raising ``error`` on ``bad_streams``."""
        current = {}
        real_sample = harness.sample_ensemble
        real_locate = harness.locate_outliers

        def sample(model, pert, n, stream, law):
            current["stream"] = stream.stream_id
            return real_sample(model, pert, n, stream, law)

        def locate(op, delta, tol=None):
            if current["stream"] in bad_streams:
                raise error
            return real_locate(op, delta, tol)

        monkeypatch.setattr(harness, "sample_ensemble", sample)
        monkeypatch.setattr(harness, "locate_outliers", locate)
        return run_experiment(cfg)

    @pytest.mark.parametrize("error", [
        MissingRootError("no root found above the bulk for rank 1", 1),
        InversionError("inverse solve missed its tolerance"),
    ], ids=["missing-root", "inversion"])
    def test_detector_failure_fails_one_trial(self, monkeypatch, error):
        cfg = location_cfg(trials=10)
        clean = run_experiment(cfg)
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


def eigenvector_cfg(**overrides):
    doc = {
        "experiment": "eigenvector",
        "kind": "orth-invariant-multiplicative",
        "n_values": [120],
        "theta_spec": {"values": [3.0, -0.9]},
        "delta": 0.1,
        "epsilon": 0.1,
        "trials": 4,
        "seed": 23,
        "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestTrialBuffersReleased:
    """Trial k's n x n sample is gone before trial k+1 is sampled."""

    def run_watched(self, monkeypatch, cfg, run, failing_stream=None):
        real_sample = harness.sample_ensemble
        refs: list = []
        alive_at_draw: list[int] = []

        def sample(model, pert, n, stream, law):
            alive_at_draw.append(sum(ref() is not None for ref in refs))
            drawn = real_sample(model, pert, n, stream, law)
            refs.extend(weakref.ref(obj)
                        for obj in (drawn, drawn.base, drawn.perturbed))
            return drawn

        def solve(matrix, vectors=True):
            if len(alive_at_draw) - 1 == failing_stream:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigensolve(matrix, vectors=vectors)

        monkeypatch.setattr(harness, "sample_ensemble", sample)
        monkeypatch.setattr(harness, "eigensolve", solve)
        rep = run(cfg)
        assert alive_at_draw == [0] * cfg.trials
        return rep

    def test_location_trials(self, monkeypatch):
        cfg = location_cfg()
        rep = self.run_watched(monkeypatch, cfg, run_experiment)
        assert reports_equal(rep, run_experiment(cfg))

    def test_eigenvector_trials(self, monkeypatch):
        cfg = eigenvector_cfg()
        rep = self.run_watched(monkeypatch, cfg, run_experiment)
        assert reports_equal(rep, run_experiment(cfg))

    def test_trial_failing_in_eigensolve(self, monkeypatch):
        cfg = eigenvector_cfg(trials=10)
        rep = self.run_watched(monkeypatch, cfg, run_experiment,
                               failing_stream=4)
        failed = [rec for rec in rep.records if rec.failed]
        assert [rec.stream_id for rec in failed] == [4]
        assert failed[0].failure.startswith("eigensolve failed:")


class TestDegeneracyTolerance:
    """Cluster gaps are measured against max(1, spectral radius)."""

    def test_large_scale_pair_flagged(self):
        scale = 1e6
        vals = scale * np.array([3.0, 2.0 * (1.0 + 1e-11), 2.0, 1.0])
        rot = np.linalg.qr(np.random.default_rng(29).normal(size=(4, 4)))[0]
        mat = (rot * vals) @ rot.T
        evals, _ = eigensolve(0.5 * (mat + mat.T))
        gap = evals[1] - evals[2]
        assert gap > 1e-10  # an absolute tolerance would split the pair
        assert harness._cluster_bounds(evals, 1) == (1, 3)
        assert harness._cluster_bounds(evals, 0) == (0, 1)

    @pytest.mark.parametrize("radius", [1.0, 0.3])
    def test_unit_scale_unchanged(self, radius):
        tol = partial.DEGENERACY_TOLERANCE
        close = np.array([radius, 0.2 + 0.9 * tol, 0.2, -0.1])
        apart = np.array([radius, 0.2 + 1.1 * tol, 0.2, -0.1])
        assert harness._cluster_bounds(close, 2) == (1, 3)
        assert harness._cluster_bounds(apart, 2) == (2, 3)

    def test_scale_from_either_end(self):
        tol = partial.DEGENERACY_TOLERANCE
        evals = np.array([1.0, 0.5 + 50.0 * tol, 0.5, -100.0])
        assert harness._cluster_bounds(evals, 1) == (1, 3)
        assert harness._cluster_bounds(evals[:3], 1) == (1, 2)


def test_runtime_path_does_not_import_scipy():
    script = textwrap.dedent("""
        import sys
        from meso_spectra.experiments import run_experiment
        from meso_spectra.experiments.config import ExperimentConfig
        rep = run_experiment(ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "orth-invariant-multiplicative",
            "n_values": [60],
            "theta_spec": {"values": [2.0, -0.9]},
            "trials": 2,
            "seed": 3,
            "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
        }))
        assert not any(rec.failed for rec in rep.records)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    src = str(Path(meso_spectra.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestBenchContract:
    """The call pattern the benchmark's layer tracing relies on.

    The tracer wraps ``harness.eigensolve`` and ``np.linalg.eigvalsh``.
    Every trial reads its realized values through one ``eigensolve`` call;
    ``eigvalsh`` runs inside it only where the spectrum is solved densely.
    """

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"eigensolve": [], "eigvalsh": 0}
        real_solve, real_eigvalsh = harness.eigensolve, np.linalg.eigvalsh

        def solve(arg, vectors=True):
            result = real_solve(arg, vectors=vectors)
            values = result[0] if vectors else result
            calls["eigensolve"].append((type(arg).__name__, vectors, values.size))
            return result

        def eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += 1
            return real_eigvalsh(*args, **kwargs)

        monkeypatch.setattr(harness, "eigensolve", solve)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        return calls

    def test_eigenvector_trial_solves_once_without_eigvalsh(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rep = run_experiment(
            eigenvector_cfg(n_values=[200], trials=3, cross_check=False))
        assert not any(rec.failed for rec in rep.records)
        # The certified partial solve answers with the two extreme pairs.
        assert calls == {"eigensolve": [("EnsembleSample", True, 2)] * 3,
                         "eigvalsh": 0}

    def test_location_trial_calls_eigvalsh_once(self, monkeypatch):
        # A closed-form sample's values come from one dense eigvalsh.
        calls = self.count_calls(monkeypatch)
        rep = run_experiment(location_cfg(kind="wigner", spectrum=None,
                                          n_values=[120], trials=3,
                                          cross_check=False))
        assert not any(rec.failed for rec in rep.records)
        assert calls == {"eigensolve": [("EnsembleSample", False, 120)] * 3,
                         "eigvalsh": 3}

    def test_orth_location_trial_solves_values_once_without_eigvalsh(
            self, monkeypatch):
        # The certified partial solve answers with the two extreme values.
        calls = self.count_calls(monkeypatch)
        rep = run_experiment(location_cfg(trials=3, cross_check=False))
        assert not any(rec.failed for rec in rep.records)
        assert calls == {"eigensolve": [("EnsembleSample", False, 2)] * 3,
                         "eigvalsh": 0}


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
        rep = run_experiment(cfg)
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
        rep = run_experiment(cfg)
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
        rep = run_experiment(cfg)
        for rec in rep.records:
            out = rec.outliers[0]
            assert out.proj_norm_meas == pytest.approx(1.0, abs=1e-10)
            assert out.realized == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["orth-invariant-additive",
                                      "orth-invariant-multiplicative"])
    def test_degenerate_cluster_records_its_subspace(self, kind):
        # Two equal strengths on a unit spectrum realize one double
        # outlier: each of its vectors is flagged and records the cluster's
        # summed squared projection, 2; the simple third outlier is not.
        cfg = ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": kind,
            "n_values": [300],
            "theta_spec": {"values": [2.0, 2.0, 1.5]},
            "trials": 2,
            "seed": 41,
            "spectrum": {"name": "values", "values": [1.0]},
        })
        rep = run_experiment(cfg)
        for rec in rep.records:
            assert [out.rank for out in rec.outliers] == [1, 2, 3]
            for out in rec.outliers[:2]:
                assert out.degenerate
                assert out.subspace_norm_sq == pytest.approx(2.0, abs=1e-12)
            assert not rec.outliers[2].degenerate
            assert rec.outliers[2].subspace_norm_sq is None


def explicit_measurements(sample, pert, pred, evals, evecs, col):
    """One outlier's eigenvector fields from its own vector, formula by
    formula: frame projections, the cluster's sum, and the residual or the
    whitened, renormalized vector's projection."""
    vector = evecs[:, col]
    vt = sample.project(vector)
    lo, hi = harness._cluster_bounds(evals, col)
    subspace = None
    if hi - lo > 1:
        subspace = sum(float(np.sum(sample.project(evecs[:, c]) ** 2))
                       for c in range(lo, hi))
    out = {"proj_norm_meas": float(vt @ vt), "degenerate": hi - lo > 1,
           "subspace_norm_sq": subspace}
    if sample.kind.additive:
        out["residual"] = float(np.linalg.norm((pert.thetas - pred.theta) * vt))
        return out
    inv_scale = 1.0 / np.sqrt(1.0 + pert.thetas)
    if sample.frame is None:
        w = vector.copy()
        w[: pert.m] *= inv_scale
    else:
        w = vector + sample.frame @ ((inv_scale - 1.0) * vt)
    w /= np.linalg.norm(w)
    wt = sample.project(w)
    out["whitened_pred"] = pred.whitened_norm_sq
    out["whitened_meas"] = float(wt @ wt)
    return out


def measure_all(sample, pert, preds):
    """Eigensolve ``sample`` and measure every outlier of ``preds`` in bulk
    and one by one."""
    evals, evecs = eigensolve(sample)
    cols = [ensembles.spectrum_column(p.target_index, pert.m_positive,
                                      sample.n, evals.size) for p in preds]
    bulk = harness._measure_outliers(sample, pert, preds, cols, evals, evecs)
    one_by_one = [explicit_measurements(sample, pert, p, evals, evecs, c)
                  for p, c in zip(preds, cols)]
    return bulk, one_by_one


def assert_measurements_match(bulk, one_by_one, tol=1e-13):
    assert len(bulk) == len(one_by_one)
    for got, want in zip(bulk, one_by_one):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= tol, key
            else:
                assert got[key] == value, key


class TestWhitenedProjection:
    def test_leading_coordinates_match_an_explicit_frame(self):
        # A Wishart sample carries its perturbation on the leading
        # coordinates (frame None); the whitening there must equal the
        # general frame branch on the same axes written out.
        n = 200
        model = Model.wishart(0.5)
        pert = PerturbationSpec.from_values([2.0, 1.5, 1.2])
        sample = ensembles.sample_ensemble(model, pert, n, RngStream(43, 0))
        assert sample.frame is None
        framed = dataclasses.replace(sample, frame=np.eye(n, pert.m))
        preds = predict(model, pert, n, 0.15)
        assert len(preds) == pert.m
        evals, evecs = eigensolve(sample)
        cols = [ensembles.spectrum_column(p.target_index, pert.m_positive, n,
                                          evals.size) for p in preds]
        leading = harness._measure_outliers(sample, pert, preds, cols, evals, evecs)
        explicit = harness._measure_outliers(framed, pert, preds, cols, evals, evecs)
        for got, want in zip(leading, explicit):
            assert got["whitened_meas"] == pytest.approx(want["whitened_meas"],
                                                         abs=1e-12)


class TestBulkMeasurement:
    # One product C = V^T U measures every outlier; each field must match
    # the explicit formula on the outlier's own vector within 1e-13.

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_framed_orthogonally_invariant_samples(self, multiplicative):
        n = 400
        spectrum = SpectrumModel.from_values(np.linspace(0.5, 2.5, n))
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
        pert = PerturbationSpec.from_values([1.5, 1.2, -0.9] if multiplicative
                                            else [2.5, 2.0, -2.0])
        preds = [p for p in predict(model, pert, n, 0.15) if p.separated]
        assert len(preds) == 3
        for trial in range(2):
            sample = ensembles.sample_ensemble(model, pert, n, RngStream(71, trial))
            assert_measurements_match(*measure_all(sample, pert, preds))

    def test_wishart_leading_coordinates(self):
        n = 200
        model = Model.wishart(0.5)
        pert = PerturbationSpec.from_values([2.0, 1.5, 1.2])
        sample = ensembles.sample_ensemble(model, pert, n, RngStream(43, 0))
        assert sample.frame is None
        preds = predict(model, pert, n, 0.15)
        assert_measurements_match(*measure_all(sample, pert, preds))

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_degenerate_cluster(self, multiplicative):
        # A flat base and two equal strengths on a Haar frame: the two
        # outliers are one degenerate cluster, and each record carries the
        # cluster's summed projection.
        n, thetas = 60, [2.0, 2.0]
        frame = ensembles.sample_haar_frame(n, 2, RngStream(72, 0))
        kind = (ModelKind.ORTH_INVARIANT_MULTIPLICATIVE if multiplicative
                else ModelKind.ORTH_INVARIANT_ADDITIVE)
        pert = PerturbationSpec.from_values(thetas, frame=frame)
        sample = ensembles.EnsembleSample(
            diagonal=np.ones(n), frame=frame, thetas=pert.thetas, kind=kind, n=n,
            m=2, master_seed=0, stream_id=0, law=None)
        preds = [SimpleNamespace(theta=2.0, whitened_norm_sq=0.5, target_index=i)
                 for i in (1, 2)]
        bulk, one_by_one = measure_all(sample, pert, preds)
        assert all(fields["degenerate"] for fields in bulk)
        assert bulk[0]["subspace_norm_sq"] == pytest.approx(2.0, abs=1e-12)
        assert_measurements_match(bulk, one_by_one)


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
        rep = run_experiment(self.make_cfg())
        agg = rep.aggregates
        assert agg["batches"] == 3
        assert len(rep.records) == 9
        assert agg["monotone_batches"] >= 2
        for ladder in agg["w1_per_batch"].values():
            assert len(ladder) == 3
            assert all(w > 0.0 for w in ladder)

    def test_deterministic(self):
        cfg = self.make_cfg()
        assert reports_equal(run_experiment(cfg),
                             run_experiment(cfg))

    def test_orth_invariant_batches_read_top_values_alone(self, monkeypatch):
        # All strengths are positive, so the partial solve's values are the
        # top m; W1 matches a dense read to rounding.
        cfg = self.make_cfg(kind="orth-invariant-additive",
                            spectrum={"name": "semicircle"},
                            n_values=[300, 600], m_rule={"fixed": 4}, batches=2)
        sizes = []
        real_solve = harness.eigensolve

        def solve(sample, vectors=True):
            values = real_solve(sample, vectors=vectors)
            sizes.append(values.size)
            return values

        monkeypatch.setattr(harness, "eigensolve", solve)
        rep = run_experiment(cfg)
        assert sizes == [4] * 4
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", 1000)
        dense = run_experiment(cfg)
        assert sizes[4:] == [300, 600] * 2
        for got, want in zip(rep.records, dense.records):
            assert got.w1 == pytest.approx(want.w1, rel=0.0, abs=1e-12)

    def run_with_failing_prediction(self, monkeypatch, cfg, bad_units):
        """Run ``cfg`` with ``pushforward_sample`` failing on ``bad_units``."""
        real = harness.pushforward_sample
        units = iter(range(cfg.batches * len(cfg.n_values)))

        def sample(model, thetas):
            if next(units) in bad_units:
                raise InversionError("inverse solve missed its tolerance")
            return real(model, thetas)

        monkeypatch.setattr(harness, "pushforward_sample", sample)
        return run_experiment(cfg)

    def test_prediction_failure_fails_one_unit(self, monkeypatch):
        cfg = self.make_cfg(n_values=[60, 120], batches=5)
        clean = run_experiment(cfg)
        rep = self.run_with_failing_prediction(monkeypatch, cfg, {3})
        failed = [rec for rec in rep.records if rec.failed]
        assert len(rep.records) == 10
        assert [rec.stream_id for rec in failed] == [3]
        assert failed[0].failure == (
            "prediction failed: inverse solve missed its tolerance"
        )
        assert failed[0].w1 is None
        kept = [rec for rec in clean.records if rec.stream_id != 3]
        assert [rec for rec in rep.records if not rec.failed] == kept

    def test_prediction_failures_over_limit_abort(self, monkeypatch):
        cfg = self.make_cfg(n_values=[60, 120], batches=5)
        with pytest.raises(ExperimentError):
            self.run_with_failing_prediction(monkeypatch, cfg, {2, 7})

    def test_each_size_builds_its_spectrum_once(self, monkeypatch):
        cfg = self.make_cfg(kind="orth-invariant-multiplicative",
                            spectrum={"name": "marchenko-pastur", "phi": 0.5},
                            n_values=[40, 80, 160])
        real = ExperimentConfig.spectrum_for
        sizes = []

        def counted(self, n):
            sizes.append(n)
            return real(self, n)

        monkeypatch.setattr(ExperimentConfig, "spectrum_for", counted)
        rep = run_experiment(cfg)
        assert len(rep.records) == cfg.batches * len(cfg.n_values)
        assert sizes == list(cfg.n_values)

    def test_records_carry_batch_and_w1(self):
        rep = run_experiment(self.make_cfg(batches=2))
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
