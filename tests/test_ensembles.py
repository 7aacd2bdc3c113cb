"""Tests for matrix sampling, perturbation assembly, and eigensolves."""

import ast
import dataclasses
import inspect
import logging
import textwrap
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meso_spectra import cli, ensembles, partial

from meso_spectra import (
    EntryLaw,
    Model,
    ModelError,
    ModelKind,
    PerturbationSpec,
    RngStream,
    SpectrumModel,
    perturb_additive,
    perturb_multiplicative,
    sample_conjugated,
    sample_haar_frame,
    sample_wigner,
    sample_wishart,
)
from meso_spectra.ensembles import Dense, Diagonal, eigensolve, sample_ensemble
from meso_spectra.experiments import harness, run_experiment
from meso_spectra.experiments.config import ExperimentConfig
from meso_spectra.master_equation import counting_function
from meso_spectra.transforms import semicircle_quantiles


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().normal(size=8)
        b = RngStream(42, 3).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = RngStream(42, 0).generator().normal(size=8)
        b = RngStream(42, 1).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = RngStream(42, 0).generator().normal(size=8)
        b = RngStream(43, 0).generator().normal(size=8)
        assert not np.array_equal(a, b)


class TestBaseSamplers:
    def test_wigner_symmetric(self):
        h = sample_wigner(60, EntryLaw.GAUSSIAN, RngStream(1, 0))
        assert h.shape == (60, 60)
        assert np.array_equal(h, h.T)

    def test_wigner_edge_scale(self):
        h = sample_wigner(600, EntryLaw.GAUSSIAN, RngStream(2, 0))
        top = float(np.linalg.eigvalsh(h)[-1])
        assert 1.8 < top < 2.3

    def test_wigner_rademacher_entries(self):
        n = 40
        h = sample_wigner(n, EntryLaw.RADEMACHER, RngStream(3, 0))
        mags = np.unique(np.abs(h * np.sqrt(n)).round(12))
        assert set(mags.tolist()) <= {1.0}

    def test_wishart_psd_and_edge(self):
        w = sample_wishart(300, 600, EntryLaw.GAUSSIAN, RngStream(4, 0))
        vals = np.linalg.eigvalsh(w)
        assert vals[0] > -1e-10
        # Top eigenvalue concentrates near (1 + sqrt(1/2))^2 = 2.91.
        assert 2.5 < vals[-1] < 3.4

    def test_wishart_requires_wide_factor(self):
        with pytest.raises(ModelError):
            sample_wishart(100, 50, EntryLaw.GAUSSIAN, RngStream(5, 0))

    def test_haar_frame_orthonormal(self):
        v = sample_haar_frame(50, 7, RngStream(6, 0))
        assert v.shape == (50, 7)
        assert np.max(np.abs(v.T @ v - np.eye(7))) < 1e-12

    def test_haar_frame_zero_columns(self):
        v = sample_haar_frame(10, 0, RngStream(7, 0))
        assert v.shape == (10, 0)

    def test_haar_frame_reproducible(self):
        a = sample_haar_frame(20, 3, RngStream(8, 0))
        b = sample_haar_frame(20, 3, RngStream(8, 0))
        assert np.array_equal(a, b)

    def test_conjugated_keeps_spectrum(self):
        s = SpectrumModel.from_values(np.linspace(-1.0, 2.0, 30))
        mat = sample_conjugated(s, RngStream(9, 0))
        vals = np.linalg.eigvalsh(mat)[::-1]
        assert np.max(np.abs(vals - s.eigenvalues)) < 1e-10


class TestPerturbations:
    def test_additive_coordinates(self):
        base = np.diag([1.0, 2.0, 3.0])
        pert = PerturbationSpec.from_values([5.0, -1.0])
        out = perturb_additive(base, pert)
        assert np.allclose(out, np.diag([6.0, 1.0, 3.0]))

    def test_additive_frame_explicit(self):
        base = np.zeros((3, 3))
        frame = np.eye(3)[:, 1:2]
        pert = PerturbationSpec.from_values([2.0], frame=frame)
        out = perturb_additive(base, pert)
        assert np.allclose(out, 2.0 * np.outer(frame[:, 0], frame[:, 0]))

    def test_additive_frame_matches_coordinates(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(6, 6))
        base = 0.5 * (base + base.T)
        coords = perturb_additive(base, PerturbationSpec.from_values([3.0, 1.5]))
        framed = perturb_additive(
            base, PerturbationSpec.from_values([3.0, 1.5], frame=np.eye(6)[:, :2])
        )
        assert np.max(np.abs(coords - framed)) < 1e-12

    def test_multiplicative_coordinates(self):
        base = np.diag([1.0, 2.0, 3.0])
        pert = PerturbationSpec.from_values([3.0])
        out = perturb_multiplicative(base, pert)
        # S = diag(2, 1, 1), so only the (1, 1) entry scales by 4.
        assert np.allclose(out, np.diag([4.0, 2.0, 3.0]))

    def test_multiplicative_frame_matches_coordinates(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 10))
        base = x @ x.T / 10.0
        pert_c = PerturbationSpec.from_values([2.0, -0.5])
        pert_f = pert_c.with_frame(np.eye(6)[:, :2])
        a = perturb_multiplicative(base, pert_c)
        b = perturb_multiplicative(base, pert_f)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_multiplicative_requires_psd_base(self):
        base = np.diag([1.0, -0.5])
        with pytest.raises(ModelError):
            perturb_multiplicative(base, PerturbationSpec.from_values([1.0]))

    def test_multiplicative_strength_floor(self):
        base = np.eye(3)
        with pytest.raises(ModelError):
            perturb_multiplicative(base, PerturbationSpec.from_values([-1.5]))

    @pytest.mark.parametrize("perturb", [perturb_additive, perturb_multiplicative])
    def test_base_must_be_square(self, perturb):
        # A 1-d base is not read as a diagonal.
        pert = PerturbationSpec.from_values(
            [2.0], frame=sample_haar_frame(4, 1, RngStream(67, 0)))
        for base in (np.linspace(1.0, 2.0, 4), np.ones((4, 5))):
            with pytest.raises(ModelError, match="square"):
                perturb(base, pert)

    def test_rank_cannot_exceed_size(self):
        base = np.eye(2)
        pert = PerturbationSpec.from_values([1.0, 2.0, 3.0])
        with pytest.raises(ModelError):
            perturb_additive(base, pert)


def dense_sandwich(base, pert):
    """Reference ``S @ base @ S`` with S built densely from the frame."""
    v = pert.frame
    s = np.eye(base.shape[0]) + (v * (np.sqrt(1.0 + pert.thetas) - 1.0)) @ v.T
    return s @ base @ s


def wishart_base(n, seed):
    x = np.random.default_rng(seed).normal(size=(n, 2 * n))
    w = x @ x.T / (2 * n)
    return 0.5 * (w + w.T)


def diagonal_base(n, seed):
    return np.diag(np.random.default_rng(seed).uniform(0.0, 3.0, n))


class TestRankTwoMAssembly:
    """Framed ``perturb_multiplicative`` is the rank-2M update of the base."""

    @pytest.mark.parametrize("make_base", [wishart_base, diagonal_base],
                             ids=["wishart", "diagonal"])
    @pytest.mark.parametrize("n", [2, 9, 60])
    @pytest.mark.parametrize("rank", ["one", "five", "n-1"])
    def test_matches_dense_sandwich(self, make_base, n, rank):
        m = {"one": 1, "five": min(5, n - 1), "n-1": n - 1}[rank]
        base = make_base(n, seed=100 + n)
        thetas = np.linspace(3.0, -0.99, m) if m > 1 else np.array([-0.99])
        frame = sample_haar_frame(n, m, RngStream(31, n * 10 + m))
        pert = PerturbationSpec.from_values(thetas, frame=frame)
        out = perturb_multiplicative(base, pert)
        ref = dense_sandwich(base, pert)
        bound = 1e-12 * max(1.0, np.linalg.norm(base, 2))
        assert np.max(np.abs(out - ref)) <= bound
        assert np.array_equal(out, out.T)

    def test_input_untouched_and_output_fresh(self):
        base = wishart_base(12, seed=5)
        keep = base.copy()
        pert = PerturbationSpec.from_values(
            [1.0, -0.5], frame=sample_haar_frame(12, 2, RngStream(32, 0)))
        out = perturb_multiplicative(base, pert)
        assert np.array_equal(base, keep)
        assert not np.shares_memory(out, base)
        empty = perturb_multiplicative(base, PerturbationSpec.from_values([]))
        assert np.array_equal(empty, base) and not np.shares_memory(empty, base)


class TestBlockedSymmetrization:
    """Samplers and framed assemblies symmetrize block by block in place,
    with the bits of the whole-matrix formulas they replaced."""

    @pytest.mark.parametrize("law", list(EntryLaw))
    @pytest.mark.parametrize("n", [1, 5, 128, 300])
    def test_wigner_matches_triangle_formula(self, law, n):
        # A Gaussian Wigner matrix is GOE: its diagonal has variance 2/n.
        raw = law.sample(RngStream(46, n).generator(), (n, n))
        ref = (np.triu(raw) + np.triu(raw, 1).T) / np.sqrt(n)
        if law is EntryLaw.GAUSSIAN:
            np.fill_diagonal(ref, np.diagonal(ref) * np.sqrt(2.0))
        assert np.array_equal(sample_wigner(n, law, RngStream(46, n)), ref)

    @pytest.mark.parametrize("law", list(EntryLaw))
    @pytest.mark.parametrize("n", [5, 300])
    def test_wishart_and_conjugated_match_whole_matrix_formula(self, law, n):
        x = law.sample(RngStream(49, n).generator(), (n, 2 * n))
        w = x @ x.T / (2 * n)
        ref = 0.5 * (w + w.T)
        assert np.array_equal(sample_wishart(n, 2 * n, law, RngStream(49, n)), ref)
        spectrum = SpectrumModel.from_values(np.linspace(-1.0, 2.0, n))
        u = sample_haar_frame(n, n, RngStream(50, n))
        w = (u * spectrum.eigenvalues) @ u.T
        ref = 0.5 * (w + w.T)
        assert np.array_equal(sample_conjugated(spectrum, RngStream(50, n)), ref)

    @pytest.mark.parametrize("make_base", [wishart_base, diagonal_base],
                             ids=["wishart", "diagonal"])
    @pytest.mark.parametrize("n", [9, 300])
    def test_multiplicative_matches_unblocked_update(self, make_base, n):
        base = make_base(n, seed=200 + n)
        pert = PerturbationSpec.from_values(
            [2.0, 0.5, -0.5, -0.9], frame=sample_haar_frame(n, 4, RngStream(47, n)))
        w, k = ensembles._sandwich_update(pert.frame, base @ pert.frame, pert.thetas)
        ref = (w @ k) @ w.T
        ref += base
        ref += ref.T
        ref *= 0.5
        assert np.array_equal(perturb_multiplicative(base, pert), ref)

    def test_leading_coordinate_sandwich_is_exactly_symmetric(self):
        # S = diag(sqrt(1 + theta)) scales rows, then columns, so entries
        # (i, j) and (j, i) of the leading M x M block are rounded in
        # different orders; the upper triangle takes the lower one's bits,
        # which eigh and eigvalsh read.
        n, pert = 300, PerturbationSpec.from_values([2.0, 0.7, -0.3, -0.6])
        sample = sample_ensemble(Model.wishart(0.5), pert, n, RngStream(51, 0))
        base = wishart_base(n, seed=52)
        for base, p in ((sample.base, sample.perturbed),
                        (base, perturb_multiplicative(base, pert))):
            scale = np.sqrt(1.0 + pert.thetas)
            rows_then_columns = base.copy()
            rows_then_columns[:4] *= scale[:, None]
            rows_then_columns[:, :4] *= scale
            assert np.array_equal(p, p.T)
            assert np.array_equal(np.tril(p), np.tril(rows_then_columns))

    @pytest.mark.parametrize("make_base", [wishart_base, diagonal_base],
                             ids=["wishart", "diagonal"])
    @pytest.mark.parametrize("n", [9, 300])
    def test_additive_matches_unblocked_update(self, make_base, n):
        base = make_base(n, seed=300 + n)
        pert = PerturbationSpec.from_values(
            [2.0, -1.0], frame=sample_haar_frame(n, 2, RngStream(48, n)))
        ref = base + (pert.frame * pert.thetas) @ pert.frame.T
        ref = 0.5 * (ref + ref.T)
        assert np.array_equal(perturb_additive(base, pert), ref)


class TestPsdCheck:
    """``_check_psd`` factorizes every base, and rejects a non-finite one
    that the factorization would pass."""

    @staticmethod
    def cholesky_verdict(base):
        try:
            np.linalg.cholesky(base + ensembles.PSD_SHIFT * np.eye(base.shape[0]))
        except np.linalg.LinAlgError:
            return False
        return True

    @staticmethod
    def check_verdict(base):
        try:
            ensembles._check_psd(base)
        except ModelError:
            return False
        return True

    @pytest.mark.parametrize("lam_min", [
        0.0, -0.5 * ensembles.PSD_SHIFT, -2.0 * ensembles.PSD_SHIFT, np.nan,
    ], ids=["zero", "half-shift-below", "two-shifts-below", "nan"])
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_diagonal_agrees_with_cholesky(self, lam_min, position):
        # The factorization passes a NaN pivot; the check must not.
        diag = np.linspace(0.5, 2.0, 7)
        diag[position] = lam_min
        base = np.diag(diag)
        expected = self.cholesky_verdict(base) and not np.isnan(lam_min)
        assert self.check_verdict(base) == expected

    def test_indefinite_dense_base_raises(self):
        rot = sample_haar_frame(6, 6, RngStream(33, 0))
        base = (rot * np.array([2.0, 1.5, 1.0, 0.5, 0.1, -1e-3])) @ rot.T
        base = 0.5 * (base + base.T)
        assert np.count_nonzero(base - np.diag(np.diagonal(base))) > 0
        with pytest.raises(ModelError):
            ensembles._check_psd(base)
        pert = PerturbationSpec.from_values(
            [1.0], frame=sample_haar_frame(6, 1, RngStream(33, 1)))
        with pytest.raises(ModelError):
            perturb_multiplicative(base, pert)


class TestSampleEnsemble:
    def test_wigner_sample_fields(self):
        pert = PerturbationSpec.from_values([2.0])
        s = sample_ensemble(Model.wigner(), pert, 50, RngStream(13, 0))
        assert s.n == 50 and s.m == 1
        assert s.frame is None
        assert np.array_equal(s.perturbed, s.perturbed.T)
        assert s.perturbed[0, 0] == pytest.approx(s.base[0, 0] + 2.0)

    def test_wigner_reproducible(self):
        pert = PerturbationSpec.from_values([2.0])
        a = sample_ensemble(Model.wigner(), pert, 30, RngStream(14, 5))
        b = sample_ensemble(Model.wigner(), pert, 30, RngStream(14, 5))
        assert np.array_equal(a.perturbed, b.perturbed)

    def test_orth_additive_uses_fresh_frame(self):
        spec = SpectrumModel.from_values(np.linspace(-1, 1, 40))
        model = Model.additive(spec)
        pert = PerturbationSpec.from_values([2.0, -2.0])
        s = sample_ensemble(model, pert, 40, RngStream(15, 0))
        assert s.frame is not None and s.frame.shape == (40, 2)
        assert np.allclose(s.base, np.diag(spec.eigenvalues))
        # Assembled matrix must equal base + V diag(theta) V^T.
        v = s.frame
        direct = s.base + (v * pert.thetas) @ v.T
        assert np.max(np.abs(s.perturbed - direct)) < 1e-12

    def test_orth_size_mismatch_rejected(self):
        spec = SpectrumModel.from_values(np.linspace(-1, 1, 40))
        model = Model.additive(spec)
        with pytest.raises(ModelError):
            sample_ensemble(model, PerturbationSpec.from_values([2.0]), 41,
                            RngStream(16, 0))

    def test_project_with_frame(self):
        spec = SpectrumModel.from_values(np.linspace(0.5, 1.5, 30))
        model = Model.multiplicative(spec)
        s = sample_ensemble(model, PerturbationSpec.from_values([2.0]), 30,
                            RngStream(17, 0))
        vec = s.frame[:, 0]
        proj = s.project(vec)
        assert proj.shape == (1,)
        assert proj[0] == pytest.approx(1.0, rel=1e-12)

    def test_project_coordinates(self):
        pert = PerturbationSpec.from_values([2.0, 1.5])
        s = sample_ensemble(Model.wigner(), pert, 20, RngStream(18, 0))
        vec = np.arange(20.0)
        assert np.array_equal(s.project(vec), vec[:2])

    def test_arrays_read_only(self):
        s = sample_ensemble(Model.wigner(), PerturbationSpec.from_values([2.0]),
                            10, RngStream(19, 0))
        with pytest.raises(ValueError):
            s.perturbed[0, 0] = 9.9


class TestStructuredSample:
    """An orthogonally invariant sample holds ``d``, frame and strengths, and
    builds its dense matrices on first read."""

    @pytest.mark.parametrize("thetas", [[2.0, -0.5], []], ids=["framed", "rank-0"])
    @pytest.mark.parametrize("multiplicative", [False, True],
                             ids=["additive", "multiplicative"])
    def test_dense_matrices_keep_their_bits(self, multiplicative, thetas):
        spectrum = SpectrumModel.from_values(np.linspace(0.5, 2.5, 300))
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
        pert = PerturbationSpec.from_values(thetas)
        sample = sample_ensemble(model, pert, 300, RngStream(57, 0))
        d = spectrum.eigenvalues
        assert sample.d is d
        assert (sample.frame is None) == (not thetas)
        placed = pert.with_frame(sample.frame) if thetas else pert
        perturb = perturb_multiplicative if multiplicative else perturb_additive
        assert np.array_equal(sample.perturbed, perturb(np.diag(d), placed))
        assert np.array_equal(sample.base, np.diag(d))
        for name in ("base", "perturbed"):
            first = getattr(sample, name)
            assert getattr(sample, name) is first
            with pytest.raises(ValueError):
                first[0, 0] = 9.9

    def test_sample_holds_either_structure_or_dense(self):
        provenance = dict(frame=None, thetas=np.empty(0), n=2, m=0,
                          master_seed=0, stream_id=0, law=None)
        with pytest.raises(ModelError, match="its diagonal alone"):
            Dense(kind=ModelKind.ORTH_INVARIANT_ADDITIVE,
                  base=np.eye(2), perturbed=np.eye(2), **provenance)
        with pytest.raises(ModelError, match="its dense matrices alone"):
            Diagonal(kind=ModelKind.WIGNER, d=np.ones(2), **provenance)

    @pytest.mark.parametrize("multiplicative", [False, True],
                             ids=["additive", "multiplicative"])
    def test_nan_diagonal_raises_when_built(self, multiplicative):
        with pytest.raises(ModelError):
            framed_sample(multiplicative, [2.0, np.nan, 0.5], [1.0],
                          np.eye(3)[:, :1])

    @pytest.mark.parametrize("theta", [-1.0, -1.5])
    def test_strength_at_most_minus_one_raises_when_built(self, theta):
        with pytest.raises(ModelError, match="must exceed -1"):
            framed_sample(True, [2.0, 1.0, 0.5], [2.0, theta], np.eye(3)[:, :2])
        with pytest.raises(ModelError, match="must exceed -1"):
            Dense(frame=None, thetas=np.array([theta]),
                  kind=ModelKind.WISHART, n=3, m=1, master_seed=0,
                  stream_id=0, law=EntryLaw.GAUSSIAN,
                  base=np.eye(3), perturbed=np.eye(3))

    @pytest.mark.parametrize("framed", [False, True], ids=["coordinates", "frame"])
    def test_wishart_sample_skips_the_cholesky_check(self, monkeypatch, framed):
        # X X^T / p is PSD by construction; only the public assembly checks.
        frame = sample_haar_frame(60, 2, RngStream(66, 1)) if framed else None
        pert = PerturbationSpec.from_values([2.0, -0.5], frame=frame)

        def no_cholesky(a):
            raise AssertionError("a Wishart base must not be factorized")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        sample = sample_ensemble(Model.wishart(0.5), pert, 60, RngStream(66, 0))
        monkeypatch.undo()
        assert np.array_equal(sample.perturbed,
                              perturb_multiplicative(sample.base, pert))

    def test_eigenvector_run_holds_no_dense_matrix(self, caplog):
        # Above the size rule and without a cross-check every trial takes
        # the partial solve, which reads no n x n matrix, so none is built.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        n = 2000
        cfg = ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "orth-invariant-multiplicative",
            "n_values": [n],
            "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
            "theta_spec": {"values": [1.5, 1.2, 1.0, -0.88, -0.92, -0.96]},
            "delta": 0.15,
            "epsilon": 0.15,
            "trials": 2,
            "seed": 59,
            "cross_check": False,
        })
        tracemalloc.start()
        try:
            rep = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(rec.failed for rec in rep.records)
        assert caplog.records == []
        assert peak < 8 * n * n


class TestEagerValidation:
    """``sample_ensemble`` raises, in O(n) and at once, every error that
    assembling an orthogonally invariant sample's dense matrices would."""

    @pytest.fixture(autouse=True)
    def no_assembly(self, monkeypatch):
        def assemble(*args):
            raise AssertionError("validation must not assemble a matrix")

        for name in ("perturb_additive", "perturb_multiplicative"):
            monkeypatch.setattr(ensembles, name, assemble)

    @staticmethod
    def dense_error(multiplicative, values, thetas):
        d = np.asarray(values, dtype=float)
        pert = PerturbationSpec.from_values(thetas)
        if pert.m:
            pert = pert.with_frame(np.eye(d.size)[:, : pert.m])
        perturb = perturb_multiplicative if multiplicative else perturb_additive
        with pytest.raises(ModelError) as raised:
            perturb(np.diag(d), pert)
        return str(raised.value)

    def assert_sampling_raises(self, multiplicative, values, thetas):
        expected = self.dense_error(multiplicative, values, thetas)
        # Past Model's own checks, which keep non-finite and (multiplicative)
        # indefinite spectra out.
        spectrum = SpectrumModel(eigenvalues=np.asarray(values, dtype=float),
                                 is_psd=False)
        kind = (ModelKind.ORTH_INVARIANT_MULTIPLICATIVE if multiplicative
                else ModelKind.ORTH_INVARIANT_ADDITIVE)
        model = types.SimpleNamespace(kind=kind, spectrum=spectrum)
        with pytest.raises(ModelError) as raised:
            sample_ensemble(model, PerturbationSpec.from_values(thetas),
                            len(values), RngStream(58, 0))
        assert str(raised.value) == expected

    def test_rank_above_size(self):
        spectrum = SpectrumModel.from_values(np.linspace(0.5, 2.5, 4))
        pert = PerturbationSpec.from_values([2.0, 1.5, 1.2, 1.1, 1.05])
        for model in (Model.additive(spectrum), Model.multiplicative(spectrum)):
            # The Haar frame is drawn first, and it cannot have 5 columns.
            with pytest.raises(ModelError, match="need 0 <= m <= n"):
                sample_ensemble(model, pert, 4, RngStream(58, 0))

    def test_multiplicative_strength_at_minus_one(self):
        self.assert_sampling_raises(True, [2.0, 1.0, 0.5], [1.0, -1.0])

    @pytest.mark.parametrize("multiplicative", [False, True],
                             ids=["additive", "multiplicative"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("thetas", [[1.0], []], ids=["framed", "rank-0"])
    def test_non_finite_base(self, multiplicative, bad, thetas):
        self.assert_sampling_raises(multiplicative, [bad, 1.0, 0.5], thetas)

    @pytest.mark.parametrize("thetas", [[1.0], []], ids=["framed", "rank-0"])
    def test_indefinite_multiplicative_base(self, thetas):
        values = [2.0, 1.0, -2.0 * ensembles.PSD_SHIFT]
        self.assert_sampling_raises(True, values, thetas)


class TestEigensolve:
    def test_descending_and_consistent(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(25, 25))
        a = 0.5 * (a + a.T)
        vals, vecs = eigensolve(a)
        assert np.all(np.diff(vals) <= 0)
        for k in (0, 10, 24):
            resid = a @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.linalg.norm(resid) < 1e-10
        assert np.array_equal(eigensolve(a, vectors=False),
                              np.linalg.eigvalsh(a)[::-1])

    def test_rejects_asymmetric(self):
        for vectors in (True, False):
            with pytest.raises(ModelError):
                eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=vectors)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("skew", [0.0, 1e-13, 2.9e-12, 3.1e-12, 1e-9])
    def test_symmetry_check_matches_abs_formula(self, sign, skew):
        # The check must keep scale = max(1, max|a|), dev = max|a - a^T|.
        rng = np.random.default_rng(22)
        a = rng.uniform(-1.0, 1.0, size=(7, 7))
        a = 0.5 * (a + a.T)
        a[2, 5] = sign * 3.0
        a[5, 2] = sign * 3.0 + skew
        scale = max(1.0, float(np.max(np.abs(a))))
        dev = float(np.max(np.abs(a - a.T)))
        if dev > 1e-12 * scale:
            with pytest.raises(ModelError, match=f"deviation {dev:.2e}"):
                eigensolve(a)
        else:
            eigensolve(a)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_perturbations_reject(self, bad, where):
        base = np.diag([2.0, 1.5, 1.0, 0.5])
        i, j = (1, 1) if where == "diagonal" else (0, 2)
        base[i, j] = base[j, i] = bad
        frame = sample_haar_frame(4, 1, RngStream(34, 0))
        for pert in (PerturbationSpec.from_values([1.0]),
                     PerturbationSpec.from_values([1.0], frame=frame)):
            with pytest.raises(ModelError):
                perturb_additive(base, pert)
            with pytest.raises(ModelError):
                perturb_multiplicative(base, pert)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_frame_rejected(self, bad):
        frame = np.eye(3)[:, :1]
        frame[2, 0] = bad
        with pytest.raises(ModelError, match="not orthonormal"):
            PerturbationSpec.from_values([1.0], frame=frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_eigensolve_rejects(self, bad, where):
        a = np.diag([2.0, 1.0, 0.5])
        a[where] = a[where[::-1]] = bad
        with pytest.raises(ModelError, match="not finite and symmetric"):
            eigensolve(a)

    def test_eigensolve_rejects_sample(self):
        # Large enough for the partial solve, which reads the diagonal.
        spec = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200))
        s = sample_ensemble(Model.additive(spec), PerturbationSpec.from_values([3.0]),
                            200, RngStream(35, 0))
        d = s.d.copy()
        d[4] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            eigensolve(dataclasses.replace(s, d=d))


# The size rule as shipped, before any test patches it.
ROWS_PER_PAIR = partial.FILTER_ROWS_PER_PAIR


def framed_sample(multiplicative, values, thetas, frame, stream_id=0):
    """An orthogonally invariant sample on an explicit diagonal and frame."""
    d = np.asarray(values, dtype=float)
    pert = PerturbationSpec.from_values(thetas, frame=frame)
    kind = (ModelKind.ORTH_INVARIANT_MULTIPLICATIVE if multiplicative
            else ModelKind.ORTH_INVARIANT_ADDITIVE)
    return Diagonal(
        d=d, frame=pert.frame, thetas=pert.thetas, kind=kind, n=d.size,
        m=pert.m, master_seed=0, stream_id=stream_id, law=None,
    )


def cluster_sums(evals, evecs, frame):
    """Degenerate flag and summed squared frame projection of each cluster."""
    out = []
    for j in range(evals.size):
        lo, hi = harness._cluster_bounds(evals, j)
        coords = frame.T @ evecs[:, lo:hi]
        out.append((hi - lo > 1, float(np.sum(coords * coords))))
    return out


def extreme_indices(sample):
    """Where the values of a partial solve sit in the full spectrum."""
    n, m = sample.n, sample.m
    upper = int(np.count_nonzero(sample.thetas > 0.0))
    return np.r_[np.arange(upper), np.arange(n - (m - upper), n)]


def assert_matches_dense(sample):
    """``eigensolve(sample)`` against dense ``eigh`` on ``sample.perturbed``.

    Returns whether the certified partial solve answered.
    """
    vals, vecs = eigensolve(sample)
    dense_vals, dense_vecs = eigensolve(sample.perturbed)
    n, m = sample.n, sample.m
    if vals.size == n:
        assert np.array_equal(vals, dense_vals)
        assert np.array_equal(vecs, dense_vecs)
        return False
    idx = extreme_indices(sample)
    assert vals.shape == (m,) and vecs.shape == (n, m)
    size = max(1.0, float(np.max(np.abs(dense_vals))))
    assert np.max(np.abs(vals - dense_vals[idx])) <= 1e-12 * size
    partial = cluster_sums(vals, vecs, sample.frame)
    dense = cluster_sums(dense_vals, dense_vecs, sample.frame)
    for j, i in enumerate(idx):
        assert partial[j][0] == dense[i][0]
        # Each certified vector is within angle FILTER_TOLERANCE of its
        # eigenvector, so its squared projection is within twice that.
        assert abs(partial[j][1] - dense[i][1]) <= 1e-11
    return True


def assert_values_match_dense(sample):
    """``eigensolve(sample, vectors=False)`` against dense ``eigvalsh``.

    Returns whether the certified partial solve answered; a fallback must
    return ``eigvalsh``'s bits.
    """
    vals = eigensolve(sample, vectors=False)
    dense = np.linalg.eigvalsh(sample.perturbed)[::-1]
    if vals.size == sample.n:
        assert np.array_equal(vals, dense)
        return False
    assert vals.shape == (sample.m,)
    error = np.max(np.abs(vals - dense[extreme_indices(sample)]))
    assert error <= 1e-12 * max(1.0, np.max(np.abs(dense)))
    return True


def strength_list(multiplicative):
    """Strong, near-threshold and repeated strengths of both signs."""
    negative = st.floats(-0.95, -0.02) if multiplicative else st.floats(-4.0, -0.02)
    single = st.one_of(st.floats(1.5, 4.0), st.floats(0.02, 0.3), negative)
    return st.lists(st.tuples(single, st.integers(1, 3)), min_size=1, max_size=4).map(
        lambda pairs: [theta for theta, repeats in pairs for _ in range(repeats)])


@st.composite
def orth_configs(draw):
    multiplicative = draw(st.booleans())
    # Small n fills the Krylov space; larger n stops it short of that.
    n = draw(st.one_of(st.integers(2, 40), st.integers(60, 200)))
    low = 0.0 if multiplicative else -1.5
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(low, 1.5), min_size=n, max_size=n))
    else:  # flat, so the Krylov space breaks down after one step
        values = [draw(st.floats(max(low, 0.1), 1.5))] * n
    thetas = draw(strength_list(multiplicative))
    if draw(st.booleans()):  # rank n - 1
        thetas = (thetas * n)[: n - 1]
    return multiplicative, values, thetas[: n - 1]


class TestCertifiedPartialEigensolve:
    """The certified extreme pairs of an orthogonally invariant sample."""

    @pytest.fixture(autouse=True, scope="class")
    def partial_solve_at_every_size(self):
        # Small samples keep these properties fast; at the default rows per
        # pair they would take the dense path.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partial, "FILTER_ROWS_PER_PAIR", 0)
            yield

    @given(orth_configs(), st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_dense_eigh(self, config, seed):
        multiplicative, values, thetas = config
        spectrum = SpectrumModel.from_values(values, is_psd=multiplicative or None)
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
        sample = sample_ensemble(model, PerturbationSpec.from_values(thetas),
                                 spectrum.n, RngStream(seed, 0))
        assert np.array_equal(sample.thetas, np.sort(thetas)[::-1])
        assert_matches_dense(sample)
        assert_values_match_dense(sample)

    @given(st.integers(8, 60), st.lists(st.floats(2.5, 4.0), min_size=1, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4), st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_mirror_symmetry(self, n, magnitudes, signs, seed):
        # Strengths beyond the spread 2 of the values detach every outlier
        # (Weyl); negating the diagonal and the strengths negates the matrix.
        values = RngStream(seed, 1).generator().uniform(-1.0, 1.0, n)
        thetas = [t if up else -t for t, up in zip(magnitudes, signs)]
        frame = sample_haar_frame(n, len(thetas), RngStream(seed, 0))
        sample = framed_sample(False, values, thetas, frame)
        mirror = framed_sample(False, -values, [-t for t in thetas], frame)
        assert assert_matches_dense(sample) == assert_matches_dense(mirror)
        vals, vecs = eigensolve(sample)
        mirror_vals, mirror_vecs = eigensolve(mirror)
        assert np.allclose(mirror_vals, -vals[::-1], rtol=0.0, atol=1e-11)
        proj = np.sum((frame.T @ vecs) ** 2, axis=0)
        mirror_proj = np.sum((frame.T @ mirror_vecs) ** 2, axis=0)
        assert np.allclose(mirror_proj, proj[::-1], rtol=0.0, atol=1e-10)

    @given(st.integers(30, 100), st.floats(1.2, 3.0), st.integers(1, 10),
           st.booleans(), st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_close_outliers(self, k, theta, digits, multiplicative, seed):
        # Two copies of one block, the second's strength 10^-digits larger
        # (relative), give two outliers about that close.  Rounding keeps
        # residuals near 1e-16 |A|, so from a 1e-6 gap on the certificate
        # cannot bound the vectors and the solve must fall back.
        values = RngStream(seed, 1).generator().uniform(0.5, 2.5, k)
        w = sample_haar_frame(k, 1, RngStream(seed, 0))[:, 0]
        frame = np.zeros((2 * k, 2))
        frame[:k, 0] = frame[k:, 1] = w
        thetas = [theta, theta * (1.0 + 10.0 ** -digits)]
        sample = framed_sample(multiplicative, np.r_[values, values], thetas, frame)
        answered = assert_matches_dense(sample)
        assert not (answered and digits >= 6)

    def test_breakdown_on_a_flat_spectrum(self):
        # diag(1) + V Theta V^T leaves span V invariant after one step.
        frame = sample_haar_frame(30, 3, RngStream(36, 0))
        thetas = [2.0, 1.0, -0.5]
        for multiplicative in (False, True):
            sample = framed_sample(multiplicative, np.ones(30), thetas, frame)
            assert assert_matches_dense(sample)
            # S I S = S^2 = I + V Theta V^T: the same spectrum both ways.
            vals, _ = eigensolve(sample)
            assert np.allclose(vals, 1.0 + np.array(thetas), rtol=0.0, atol=1e-14)

    def test_zero_base_falls_back(self, caplog):
        # S 0 S = 0: no outlier, and W K W^T has no nonzero eigenvalue to
        # bound the first filter's growth by.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        frame = sample_haar_frame(30, 2, RngStream(56, 0))
        sample = framed_sample(True, np.zeros(30), [1.0, -0.5], frame, stream_id=8)
        assert not assert_matches_dense(sample)
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 8, n=30: Ritz values not separated"]

    def test_repeated_strengths_on_a_flat_spectrum_fall_back(self, caplog):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        frame = sample_haar_frame(30, 2, RngStream(37, 0))
        sample = framed_sample(False, np.ones(30), [2.0, 2.0], frame, stream_id=5)
        assert not assert_matches_dense(sample)
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 5, n=30: Ritz values not separated"]

    def test_step_cap_falls_back(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        monkeypatch.setattr(partial, "FILTER_MAX_DEGREE", 4)
        frame = sample_haar_frame(200, 2, RngStream(44, 0))
        sample = framed_sample(False, np.linspace(-1.0, 1.0, 200), [1.5, -1.5],
                               frame, stream_id=6)
        assert not assert_matches_dense(sample)
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 6, n=200: step cap reached"]

    def test_near_threshold_strength_falls_back(self, caplog):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        spectrum = SpectrumModel.from_values(np.linspace(-2.0, 2.0, 400))
        # Far below the threshold 1/G(lam_max): lambda_1 hugs the edge, and
        # the first check finds its Ritz value inside the bulk.
        sample = sample_ensemble(Model.additive(spectrum),
                                 PerturbationSpec.from_values([0.3]), 400,
                                 RngStream(38, 7))
        vals, _ = eigensolve(sample)
        assert vals.size == 400
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 7, n=400: Ritz values not separated"]
        assert all(r.levelno == logging.DEBUG and r.name.startswith("meso_spectra")
                   for r in caplog.records)

    def test_converged_pair_inside_the_bulk_falls_back(self, caplog):
        # At n = 20 the Krylov space fills up, so every Ritz pair is exact;
        # lambda_2 is still not returned, because it lies below max d where
        # Weyl interlacing no longer says which eigenvalue it is.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        values = np.linspace(-1.0, 1.0, 20)
        frame = sample_haar_frame(20, 2, RngStream(42, 0))
        sample = framed_sample(False, values, [3.0, 0.05], frame, stream_id=3)
        assert np.linalg.eigvalsh(sample.perturbed)[-2] < values.max()
        assert not assert_matches_dense(sample)
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 3, n=20: Ritz values not separated"]

    @given(st.booleans(), st.integers(30, 100), st.booleans(),
           st.sampled_from(["repeated", "close", "strong and weak", "twins"]),
           st.floats(1.2, 3.0), st.integers(1, 10), st.booleans(),
           st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shifts_beside_converged_eigenvalues(self, caplog, multiplicative, k,
                                                 flat, family, theta, digits,
                                                 below, seed):
        # Sweeps shift at Ritz values next to eigenvalues already met, or
        # onto their own once rounding stops a residual short of its
        # tolerance: repeated strengths, strengths 10^-digits apart, an
        # outlier near 50 beside two near 1.5, and twins, two copies of one
        # block whose outliers are 10^-digits apart and decouple exactly.  A
        # shifted solve that is singular, warns or is not finite must stay
        # inside the solve, which certifies or falls back with a logged reason.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        thetas = {
            "repeated": [theta, theta],
            "close": [theta, theta * (1.0 + 10.0 ** -digits)],
            "strong and weak": [50.0, 1.5, 1.5 * (1.0 + 10.0 ** -digits)],
            "twins": [theta],
        }[family]
        if below and not multiplicative:
            thetas = [-t for t in thetas]
        values = (np.ones(k) if flat and family != "twins"
                  else RngStream(seed, 1).generator().uniform(0.5, 2.5, k))
        frame = sample_haar_frame(k, len(thetas), RngStream(seed, 0))
        if family == "twins":
            values = np.r_[values, values]
            frame = np.block([[frame, np.zeros_like(frame)],
                              [np.zeros_like(frame), frame]])
            thetas += [thetas[0] * (1.0 + 10.0 ** -digits)]
        sample = framed_sample(multiplicative, values, thetas, frame)
        reasons = ("Ritz values not separated", "step cap reached",
                   "certificate failed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (assert_matches_dense, assert_values_match_dense):
                caplog.clear()
                if check(sample):
                    assert caplog.records == []
                else:
                    (record,) = caplog.records
                    assert record.getMessage() in [
                        f"dense eigensolve fallback: stream 0, n={sample.n}: {reason}"
                        for reason in reasons]
            vals, vecs = eigensolve(sample)
        assert np.isfinite(vals).all() and np.isfinite(vecs).all()

    def test_bench_shaped_pairs_take_at_most_two_sweeps(self, monkeypatch):
        # After the first filter stage each Rayleigh-Ritz step follows a
        # shift-and-invert sweep, one batched solve: no second filter stage.
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        cfg = ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "orth-invariant-multiplicative",
            "n_values": [500],
            "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
            "theta_spec": {"values": [1.5, 1.2, 1.0, -0.88, -0.92, -0.96]},
            "trials": 3,
            "seed": 39,
        })
        model = cfg.model_for(500)
        pert = PerturbationSpec.from_values(cfg.thetas())
        steps = []

        def spy(name, real):
            def call(*args, **kwargs):
                steps.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigh", spy("rayleigh-ritz", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "solve", spy("sweep", np.linalg.solve))
        for trial in range(cfg.trials):
            sample = sample_ensemble(model, pert, 500, RngStream(cfg.seed, trial))
            steps.clear()
            vals, _ = eigensolve(sample)
            assert vals.shape == (6,)
            sweeps = steps.count("sweep")
            assert 1 <= sweeps <= 2
            assert steps == ["rayleigh-ritz"] + ["sweep", "rayleigh-ritz"] * sweeps

    @staticmethod
    def uniform_sample(multiplicative, low, high, thetas, seed):
        spectrum = SpectrumModel.from_values(np.linspace(low, high, 1000))
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
        return sample_ensemble(model, PerturbationSpec.from_values(thetas), 1000,
                               RngStream(seed, 0))

    @pytest.mark.parametrize("seed", range(3))
    def test_strong_and_weak_strengths_are_certified(self, caplog, seed):
        # The outlier near 50 outgrows the two near 1.5 by about 40 per
        # filter degree; filtered along with them, not projected out and with
        # no bound on that ratio, it swamps them in rounding.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        sample = self.uniform_sample(False, -1.0, 1.0, [50.0, 1.2, -1.2], 49 + seed)
        assert assert_matches_dense(sample)
        assert caplog.records == []

    @pytest.mark.parametrize("seed", range(3))
    def test_weak_multiplicative_strengths_are_certified(self, caplog, seed):
        # Both outliers sit close to the bulk: the Ritz values of the frame
        # itself lie inside it, and only filtering moves them out.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        sample = self.uniform_sample(True, 0.5, 2.5, [0.7, -0.7], 52 + seed)
        assert assert_matches_dense(sample)
        assert caplog.records == []

    def test_subcritical_strengths_give_up_at_the_first_check(self, caplog,
                                                              monkeypatch):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        sample = self.uniform_sample(True, 0.5, 2.5, [0.3, -0.3], 55)
        sizes = []
        real_eigh = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        vals, _ = eigensolve(sample)
        assert vals.size == sample.n
        # One Rayleigh-Ritz solve, then the dense fallback.
        assert len(sizes) == 2 and sizes[0] < sample.n == sizes[1]
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 0, n=1000: Ritz values not separated"]

    def test_bench_shaped_config_logs_no_fallback(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        answers = []
        real_solve = partial.filtered_extremes

        def solve(*args):
            answers.append(real_solve(*args))
            return answers[-1]

        monkeypatch.setattr(partial, "filtered_extremes", solve)
        rep = run_experiment(ExperimentConfig.from_dict({
            "experiment": "eigenvector",
            "kind": "orth-invariant-multiplicative",
            "n_values": [500],
            "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
            "theta_spec": {"values": [1.5, 1.2, 1.0, -0.88, -0.92, -0.96]},
            "delta": 0.15,
            "epsilon": 0.15,
            "trials": 3,
            "seed": 39,
            "cross_check": False,
        }))
        assert not any(rec.failed for rec in rep.records)
        assert len(answers) == 3
        assert not any(isinstance(answer, str) for answer in answers)
        assert caplog.records == []

    def test_detect_shaped_location_config_logs_no_fallback(self, caplog,
                                                           monkeypatch):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        answers = []
        real_solve = partial.filtered_extremes

        def solve(*args):
            answers.append(real_solve(*args))
            return answers[-1]

        monkeypatch.setattr(partial, "filtered_extremes", solve)
        rep = run_experiment(ExperimentConfig.from_dict({
            "experiment": "location",
            "kind": "orth-invariant-additive",
            "n_values": [400],
            "spectrum": {"name": "semicircle"},
            "theta_spec": {"values": [2.4, 2.2, 2.0, 1.9, -1.9, -2.0, -2.2, -2.4]},
            "delta": 0.15,
            "epsilon": 0.15,
            "trials": 5,
            "seed": 11,
            "cross_check": False,
        }))
        assert not any(rec.failed for rec in rep.records)
        assert len(answers) == 5
        assert all(answer.shape == (8,) for answer in answers)
        assert caplog.records == []

    def test_detect_shaped_values_certificate_reuses_the_last_basis(self,
                                                                   monkeypatch):
        # n = 400, M = 8 on semicircle quantiles: each Rayleigh-Ritz round
        # takes one QR and one eigh, and the values certificate takes the
        # last round's basis and its image, adding its own eigh and no QR.
        steps = []

        def spy(name, real):
            def call(*args, **kwargs):
                steps.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "qr", spy("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        spectrum = SpectrumModel.from_values(semicircle_quantiles(400))
        pert = PerturbationSpec.from_values(
            [2.4, 2.2, 2.0, 1.9, -1.9, -2.0, -2.2, -2.4])
        for trial in range(3):
            sample = sample_ensemble(Model.additive(spectrum), pert, 400,
                                     RngStream(11, trial))
            steps.clear()
            assert eigensolve(sample, vectors=False).shape == (8,)
            rounds = steps.count("qr")
            assert rounds >= 2 and steps == ["qr", "eigh"] * rounds + ["eigh"]

    def test_values_certificate(self):
        # Exact outlier vectors certify; a rough span, a span holding a bulk
        # eigenvalue, or the wrong count above the bulk does not.
        d = np.linspace(-1.0, 1.0, 60)
        frame = sample_haar_frame(60, 2, RngStream(58, 0))
        a = framed_sample(False, d, [3.0, -3.0], frame).perturbed
        vals, vecs = np.linalg.eigh(a)
        margin = partial.DEGENERACY_TOLERANCE * 3.0

        def span(columns):
            q = np.linalg.qr(columns)[0]
            return q, a @ q

        def certify(columns, upper):
            return partial._certify_values(*span(vecs[:, columns]), d, upper,
                                           False, margin)

        values = certify([-1, 0], 1)
        assert np.max(np.abs(values - vals[[-1, 0]])) <= 1e-14
        rough = vecs[:, [-1, 0]] + 1e-5 * np.ones((60, 2))
        assert partial._certify_values(*span(rough), d, 1, False,
                                       margin) == "certificate failed"
        assert certify([-1, -2], 1) == "certificate failed"
        assert certify([-1, 0], 2) == "certificate failed"
        assert certify([-1, 0], 0) == "certificate failed"

    def test_close_outliers_at_m_near_sqrt_n(self, caplog, monkeypatch):
        # M = 45 strengths uniform on [1.5, 2.5] at n = 2000 put outliers
        # about 1e-3 apart, where no residual reaches 1e-12 times the gap:
        # the values certify, the pairs fall back.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        n, m = 2000, 45
        spectrum = SpectrumModel.from_values(semicircle_quantiles(n))
        thetas = RngStream(57, 1).generator().uniform(1.5, 2.5, m)
        sample = sample_ensemble(Model.additive(spectrum),
                                 PerturbationSpec.from_values(thetas), n,
                                 RngStream(57, 0))
        assert n > ROWS_PER_PAIR * (m + 1)
        values = eigensolve(sample, vectors=False)
        assert values.shape == (m,) and caplog.records == []
        assert "perturbed" not in vars(sample)
        dense = np.linalg.eigvalsh(sample.perturbed)[::-1]
        radius = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(values - dense[:m])) <= 1e-12 * radius
        assert np.min(-np.diff(values)) < 1e-2
        vals, _ = eigensolve(sample)
        assert vals.size == n
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 0, n=2000: certificate failed"]

    def test_closed_form_unframed_and_small_samples_stay_dense(self, monkeypatch):
        def no_partial_solve(*args):
            raise AssertionError("the partial solve must not run")

        monkeypatch.setattr(partial, "filtered_extremes", no_partial_solve)
        pert = PerturbationSpec.from_values([3.0])
        wigner = sample_ensemble(Model.wigner(), pert, 20, RngStream(40, 0))
        unframed = framed_sample(False, np.linspace(0, 1, 20), [], None)
        frame = sample_haar_frame(120, 2, RngStream(40, 1))
        small = framed_sample(False, np.linspace(0, 1, 120), [3.0, -3.0], frame)
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        assert small.n <= ROWS_PER_PAIR * (small.m + 1)
        for sample in (wigner, unframed, small):
            vals, _ = eigensolve(sample)
            assert vals.size == sample.n
            assert np.array_equal(vals, eigensolve(sample.perturbed)[0])
            values = eigensolve(sample, vectors=False)
            assert np.array_equal(values, np.linalg.eigvalsh(sample.perturbed)[::-1])

    def test_closed_form_values_add_no_temporary(self):
        # eigvalsh on the sample's own matrix and nothing else: no symmetry
        # check, whose a - a^T would be one more n x n array.  A Rademacher
        # Wigner sample holds its dense matrices (a Gaussian one, its band).
        n = 300
        sample = sample_ensemble(Model.wigner(), PerturbationSpec.from_values([3.0]),
                                 n, RngStream(40, 2), EntryLaw.RADEMACHER)
        assert isinstance(sample, Dense)

        def peak(solve):
            tracemalloc.start()
            try:
                values = solve()
                return tracemalloc.get_traced_memory()[1], values
            finally:
                tracemalloc.stop()

        direct, expected = peak(lambda: np.linalg.eigvalsh(sample.perturbed)[::-1])
        through, values = peak(lambda: eigensolve(sample, vectors=False))
        assert np.array_equal(values, expected)
        assert through - direct < 8 * n * n // 4

    def test_draws_no_random_numbers(self, monkeypatch):
        spectrum = SpectrumModel.from_values(np.linspace(0.5, 2.5, 50))
        sample = sample_ensemble(Model.multiplicative(spectrum),
                                 PerturbationSpec.from_values([2.0, -0.9]), 50,
                                 RngStream(41, 0))

        def no_generator(*args, **kwargs):
            raise AssertionError("the eigensolve must draw no random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        vals, _ = eigensolve(sample)
        assert vals.size == 2


class TestSecondOrderValuesCertificate:
    """The values certificate on spans of a dense matrix with its top two
    eigenvalues above a bulk on [-1, 1], whose ends it is given as ``d``."""

    n = 60
    bulk = np.array([-1.0, 1.0])

    def span(self, top, rough):
        # Orthonormal Q and A Q for the top two eigenvectors, each moved by
        # ``rough`` in every coordinate.
        rng = RngStream(59, 0).generator()
        basis = np.linalg.qr(rng.standard_normal((self.n, self.n)))[0]
        a = (basis * np.r_[top, np.linspace(-1.0, 1.0, self.n - 2)]) @ basis.T
        a = 0.5 * (a + a.T)
        q = np.linalg.qr(basis[:, :2] + rough * np.ones((self.n, 2)))[0]
        return q, a @ q

    def certify(self, top, rough):
        q, image = self.span(top, rough)
        margin = partial.DEGENERACY_TOLERANCE * max(top)
        return partial._certify_values(q, image, self.bulk, 2, False, margin)

    def block_bound(self, top, rough):
        q, image = self.span(top, rough)
        return np.linalg.norm(image - q @ (q.T @ image))

    def test_isolated_span_certifies_to_second_order(self):
        # Residuals near 5e-8: far above the 5e-12 tolerance, while their
        # squares over the gaps of about 1 are far below it.
        assert self.block_bound([5.0, 4.0], 1e-9) > 1e3 * partial.FILTER_TOLERANCE * 5.0
        values = self.certify([5.0, 4.0], 1e-9)
        assert np.max(np.abs(values - [5.0, 4.0])) <= partial.FILTER_TOLERANCE * 5.0

    def test_overlapping_cluster_certifies_by_the_block_bound_alone(self):
        # A repeated eigenvalue: the intervals overlap, so only the block
        # bound applies.  It certifies a fine span, not the rough span that
        # certifies when the two values are apart.
        assert self.block_bound([5.0, 5.0], 1e-14) <= partial.FILTER_TOLERANCE * 5.0
        values = self.certify([5.0, 5.0], 1e-14)
        assert np.max(np.abs(values - 5.0)) <= partial.FILTER_TOLERANCE * 5.0
        assert self.certify([5.0, 5.0], 1e-9) == "certificate failed"

    def test_rough_span_fails_both_bounds(self):
        assert self.certify([5.0, 4.0], 1e-7) == "certificate failed"


class TestSharedRefinement:
    """The refinement loop and sweep both structured solves share, on a small
    dense symmetric matrix whose two top eigenvalues, 5 and 4, lie above a
    bulk on [-1, 1]."""

    n = 40

    def problem(self):
        rng = RngStream(77, 0).generator()
        basis = np.linalg.qr(rng.standard_normal((self.n, self.n)))[0]
        a = (basis * np.r_[5.0, 4.0, np.linspace(-1.0, 1.0, self.n - 2)]) @ basis.T
        a = 0.5 * (a + a.T)
        start = basis[:, :2] + 1e-3 * rng.standard_normal((self.n, 2))
        return a, partial._rayleigh_ritz(lambda x: a @ x, start)

    def solve(self, a):
        def solve(shifts, x):
            return np.stack([np.linalg.solve(a - shift * np.eye(self.n), column)
                             for shift, column in zip(shifts, x.T)], axis=1)
        return solve

    @staticmethod
    def isolation(ritz):
        return partial._intervals(ritz.values, 0.0, 2, np.array([-1.0, 1.0]))[2]

    def test_sweep_meets_its_prediction(self):
        a, ritz = self.problem()
        isolation = self.isolation(ritz)
        todo = np.array([True, True])
        x, fall = partial._sweep(self.solve(a), ritz, todo, isolation)
        after = partial._rayleigh_ritz(lambda x: a @ x, x)
        assert fall == 2.0 * np.log(isolation / ritz.resid).min()
        assert np.all(after.resid <= ritz.resid ** 3 / isolation ** 2)

    def test_sweep_keeps_the_other_columns(self):
        a, ritz = self.problem()
        todo = np.array([False, True])
        x, _ = partial._sweep(self.solve(a), ritz, todo, self.isolation(ritz))
        assert np.array_equal(x[:, 0], ritz.vecs[:, 0])
        assert not np.array_equal(x[:, 1], ritz.vecs[:, 1])

    def test_unsafe_shift_gives_way_before_any_solve(self):
        _, ritz = self.problem()

        def solve(shifts, x):
            raise AssertionError("an unsafe sweep must not solve")

        todo = np.array([True, True])
        isolation = self.isolation(ritz)
        isolation[1] = 2.0 * ritz.resid[1]
        assert partial._sweep(solve, ritz, todo, isolation) is None

    @pytest.mark.parametrize("failure", ["raises", "inf", "divides by zero", "none"])
    def test_failed_solve_gives_way(self, failure):
        _, ritz = self.problem()

        def solve(shifts, x):
            if failure == "raises":
                raise np.linalg.LinAlgError("singular")
            if failure == "inf":
                return np.full(x.shape, np.inf)
            if failure == "divides by zero":
                return x / np.zeros(x.shape)
            return None

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partial._sweep(solve, ritz, np.array([True, True]),
                                  self.isolation(ritz)) is None

    def test_sweeps_meet_the_targets(self):
        a, ritz = self.problem()
        target = 1e-12 * ritz.radius

        def step(ritz, todo, excess, isolation):
            return partial._sweep(self.solve(a), ritz, todo, isolation)

        state, met = partial._refine(lambda x: a @ x, ritz,
                                     lambda r: (target, self.isolation(r)), step)
        assert met and np.all(state.resid <= target)
        assert np.allclose(state.values, [5.0, 4.0], rtol=0.0, atol=1e-13)

    def test_stall_returns_the_last_state(self):
        # A step that leaves the block as it is falls short of any predicted
        # fall: the loop stops after it with that step's Rayleigh-Ritz state.
        a, ritz = self.problem()
        blocks = []

        def step(ritz, todo, excess, isolation):
            blocks.append(ritz.vecs.copy())
            return ritz.vecs, 1.0

        state, met = partial._refine(lambda x: a @ x, ritz,
                                     lambda r: (1e-30, self.isolation(r)), step)
        assert not met and len(blocks) == 1
        last = partial._rayleigh_ritz(lambda x: a @ x, blocks[0])
        for field in ("values", "vecs", "resid", "q", "image"):
            assert np.array_equal(getattr(state, field), getattr(last, field))

    def test_give_way_and_give_up(self):
        a, ritz = self.problem()
        goals = lambda r: (1e-30, self.isolation(r))  # noqa: E731
        state, met = partial._refine(lambda x: a @ x, ritz, goals,
                                     lambda *args: None)
        assert state is ritz and not met
        assert partial._refine(lambda x: a @ x, ritz, goals,
                               lambda *args: "step cap reached") == "step cap reached"
        assert partial._refine(lambda x: a @ x, ritz, lambda r: "not separated",
                               lambda *args: None) == "not separated"


class TestSweepProducts:
    """The products a pairs solve of an orthogonally invariant sample takes
    after its filter stage: each shift's W^T E W for the Woodbury sweeps,
    and none at all once the last Rayleigh-Ritz step is taken."""

    @staticmethod
    def update(multiplicative, n, m, seed):
        gen = RngStream(seed, 0).generator()
        d = np.sort(gen.uniform(0.5, 2.5, n))
        frame = sample_haar_frame(n, m, gen)
        thetas = np.sort(gen.uniform(-0.9, 1.5, m))[::-1]
        w, k = framed_sample(multiplicative, d, thetas, frame)._update()
        shifts = np.concatenate((gen.uniform(2.6, 4.0, 2), gen.uniform(0.1, 0.45, 2)))
        return w, 1.0 / (d - shifts[:, None]), shifts

    @pytest.mark.parametrize("n, m", [(300, 1), (1000, 6), (400, 12)])
    def test_additive_batch_is_the_row_by_row_product(self, n, m):
        w, e, shifts = self.update(False, n, m, 91)
        wt = np.ascontiguousarray(w.T)
        rows = np.stack([(wt * row) @ w for row in e])
        assert np.array_equal(partial._shifted_grams(w, False)(shifts, e), rows)

    @pytest.mark.parametrize("n, m", [(300, 1), (1000, 6), (400, 12)])
    def test_multiplicative_blocks_follow_from_v_e_v(self, n, m):
        w, e, shifts = self.update(True, n, m, 92)
        assert w.shape[1] == 2 * m
        explicit = np.stack([w.T @ (row[:, None] * w) for row in e])
        grams = partial._shifted_grams(w, True)(shifts, e)
        scale = np.linalg.norm(w, 2) ** 2 * np.abs(e).max(axis=1)
        assert np.all(np.abs(grams - explicit).max(axis=(1, 2)) <= 1e-13 * scale)

    def test_pairs_certificate_takes_no_product_after_the_last_step(self,
                                                                    monkeypatch):
        # The bench's orth-mult-eigenvector shape: n = 1000, uniform [0.5,
        # 2.5] spectrum, six multiplicative strengths.  Every product with A
        # is recorded; the certificate must read the last Rayleigh-Ritz
        # step's residuals rather than apply A again.
        events = []

        def spied(apply):
            def call(x):
                events.append("apply")
                return apply(x)
            return call

        real_rr, real_certify = partial._rayleigh_ritz, partial._certify

        def rayleigh_ritz(apply, x):
            found = real_rr(spied(apply), x)
            events.append("rayleigh-ritz")
            return found

        monkeypatch.setattr(partial, "_rayleigh_ritz", rayleigh_ritz)
        monkeypatch.setattr(partial, "_certify",
                            lambda apply, *args: real_certify(spied(apply), *args))
        n = 1000
        model = Model.multiplicative(SpectrumModel.from_values(np.linspace(0.5, 2.5, n)))
        pert = PerturbationSpec.from_values([1.5, 1.2, 1.0, -0.88, -0.92, -0.96])
        assert n > ROWS_PER_PAIR * (pert.m + 1)
        for trial in range(3):
            sample = sample_ensemble(model, pert, n, RngStream(93, trial))
            events.clear()
            vals, vecs = eigensolve(sample)
            assert vals.shape == (6,) and vecs.shape == (n, 6)
            last = len(events) - events[::-1].index("rayleigh-ritz")
            assert events.count("rayleigh-ritz") >= 2
            assert "apply" not in events[last:]


def structure_samples():
    """``(id, model, thetas, n, law)`` of a sample of each structure that
    :func:`sample_ensemble` picks, above the size rule where one applies."""
    semicircle = SpectrumModel.from_values(semicircle_quantiles(300))
    uniform = SpectrumModel.from_values(np.linspace(0.5, 2.5, 300))
    return [
        ("Diagonal-additive", Model.additive(semicircle), [3.0, -2.5], 300,
         EntryLaw.GAUSSIAN),
        ("Diagonal-multiplicative", Model.multiplicative(uniform), [1.5, -0.9], 300,
         EntryLaw.GAUSSIAN),
        ("Band", Model.wigner(), [3.0, -2.5], 300, EntryLaw.GAUSSIAN),
        ("Dense-wigner", Model.wigner(), [3.0, -2.5], 150, EntryLaw.RADEMACHER),
        ("Dense-wishart", Model.wishart(0.5), [2.0, 1.5], 150, EntryLaw.GAUSSIAN),
    ]


class TestOneStructureInterface:
    """``eigensolve``, the harness's detector and ``detect`` read a sample
    through its structure's operations alone."""

    @pytest.mark.parametrize("function", [
        ensembles.eigensolve, harness._detector_locations, cli.cmd_detect],
        ids=["eigensolve", "_detector_locations", "cmd_detect"])
    def test_consumers_name_no_kind_or_storage(self, function):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"ModelKind", "closed_form", "multiplicative",
                            "band", "diagonal", "dense"}

    @pytest.mark.parametrize("name, model, thetas, n, law", structure_samples(),
                             ids=[case[0] for case in structure_samples()])
    def test_each_structure_matches_its_dense_spectrum(self, name, model, thetas, n, law):
        pert = PerturbationSpec.from_values(thetas)
        sample = sample_ensemble(model, pert, n, RngStream(95, 0), law)
        assert type(sample).__name__ == name.split("-")[0]
        # A structured solve answers wherever the structure has one.
        assert assert_values_match_dense(sample) == (not name.startswith("Dense"))
        # The detector's count beyond z is the number of positive strengths
        # less the perturbed eigenvalues above z (above the base), or plus
        # those at or below z (below the base).
        dense = np.linalg.eigvalsh(sample.perturbed)[::-1]
        op = sample.detector(model, pert)
        top, bottom = op.spectrum.lam_max, op.spectrum.lam_min
        outside = dense[(dense > top) | (dense < bottom)]
        assert outside.size == pert.m
        points = np.r_[dense[0] + 1.0, 0.5 * (outside[1:] + outside[:-1]), dense[-1] - 1.0]
        points = points[(points > top) | (points < bottom)]
        expected = [pert.m_positive - np.count_nonzero(dense > z) if z > top
                    else pert.m_positive + np.count_nonzero(dense <= z) for z in points]
        assert counting_function(op, points).tolist() == expected

    def test_diagonal_detector_keeps_the_callers_model(self):
        model = Model.additive(SpectrumModel.from_values(semicircle_quantiles(100)))
        pert = PerturbationSpec.from_values([3.0, -2.5])
        sample = sample_ensemble(model, pert, 100, RngStream(96, 0))
        op = sample.detector(model, pert)
        assert op.model is model and op.spectrum is model.spectrum
        assert np.array_equal(op.pert.frame, sample.frame)

    @pytest.mark.parametrize("n", [30, 200])
    @pytest.mark.parametrize("structure", ["Band", "Diagonal"])
    def test_no_strengths_give_the_full_dense_spectrum(self, monkeypatch, structure, n):
        # One rule for both structures, at any size: nothing to solve for.
        def no_partial_solve(*args):
            raise AssertionError("the partial solve must not run")

        monkeypatch.setattr(partial, "filtered_extremes", no_partial_solve)
        monkeypatch.setattr(partial, "band_extremes", no_partial_solve)
        model = (Model.wigner() if structure == "Band" else
                 Model.additive(SpectrumModel.from_values(np.linspace(-1.0, 1.0, n))))
        sample = sample_ensemble(model, PerturbationSpec.from_values([]), n,
                                 RngStream(97, 0))
        assert type(sample).__name__ == structure
        values = eigensolve(sample, vectors=False)
        assert np.array_equal(values, np.linalg.eigvalsh(sample.perturbed)[::-1])
        vals, vecs = eigensolve(sample)
        assert vals.size == n and vecs.shape == (n, n)
        assert np.array_equal(vals, eigensolve(sample.perturbed)[0])
