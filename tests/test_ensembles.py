"""Tests for matrix sampling, perturbation assembly, and eigensolves."""

import numpy as np
import pytest

from meso_spectra import ensembles

from meso_spectra import (
    EntryLaw,
    Model,
    ModelError,
    PerturbationSpec,
    RngStream,
    SpectrumModel,
    eigensolve,
    perturb_additive,
    perturb_multiplicative,
    sample_conjugated,
    sample_ensemble,
    sample_haar_frame,
    sample_wigner,
    sample_wishart,
)


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


class TestPsdCheck:
    """``_check_psd`` reads a diagonal base's verdict off its diagonal."""

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
        diag = np.linspace(0.5, 2.0, 7)
        diag[position] = lam_min
        base = np.diag(diag)
        assert self.check_verdict(base) == self.cholesky_verdict(base)

    def test_diagonal_skips_the_factorization(self, monkeypatch):
        def no_cholesky(a):
            raise AssertionError("a diagonal base must not be factorized")

        monkeypatch.setattr(ensembles.np.linalg, "cholesky", no_cholesky)
        ensembles._check_psd(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ModelError):
            ensembles._check_psd(np.diag([1.0, -1.0, 2.0]))

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

    def test_rejects_asymmetric(self):
        with pytest.raises(ModelError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))

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
