"""Tests for matrix sampling, perturbation assembly, and eigensolves."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meso_spectra import ensembles

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
from meso_spectra.ensembles import EnsembleSample, eigensolve, sample_ensemble
from meso_spectra.experiments import harness, run_experiment
from meso_spectra.experiments.config import ExperimentConfig


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


class TestBlockedSymmetrization:
    """Samplers and framed assemblies symmetrize block by block in place,
    with the bits of the whole-matrix formulas they replaced."""

    @pytest.mark.parametrize("law", list(EntryLaw))
    @pytest.mark.parametrize("n", [1, 5, 128, 300])
    def test_wigner_matches_triangle_formula(self, law, n):
        raw = law.sample(RngStream(46, n).generator(), (n, n))
        ref = (np.triu(raw) + np.triu(raw, 1).T) / np.sqrt(n)
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
        # The factorization passes a NaN pivot; the check must not.
        diag = np.linspace(0.5, 2.0, 7)
        diag[position] = lam_min
        base = np.diag(diag)
        expected = self.cholesky_verdict(base) and not np.isnan(lam_min)
        assert self.check_verdict(base) == expected

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
        # Large enough for the partial solve, which reads the base diagonal.
        spec = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200))
        s = sample_ensemble(Model.additive(spec), PerturbationSpec.from_values([3.0]),
                            200, RngStream(35, 0))
        base = s.base.copy()
        base[4, 4] = np.nan
        with pytest.raises(ModelError):
            eigensolve(dataclasses.replace(s, base=base))


# The size rule as shipped, before any test patches it.
ROWS_PER_PAIR = ensembles.FILTER_ROWS_PER_PAIR


def framed_sample(multiplicative, values, thetas, frame, stream_id=0):
    """An orthogonally invariant sample on an explicit diagonal and frame."""
    base = np.diag(np.asarray(values, dtype=float))
    pert = PerturbationSpec.from_values(thetas, frame=frame)
    perturb = perturb_multiplicative if multiplicative else perturb_additive
    kind = (ModelKind.ORTH_INVARIANT_MULTIPLICATIVE if multiplicative
            else ModelKind.ORTH_INVARIANT_ADDITIVE)
    return EnsembleSample(
        base=base, perturbed=perturb(base, pert), frame=pert.frame,
        thetas=pert.thetas, kind=kind, n=base.shape[0], m=pert.m,
        master_seed=0, stream_id=stream_id, law=None,
    )


def cluster_sums(evals, evecs, frame):
    """Degenerate flag and summed squared frame projection of each cluster."""
    out = []
    for j in range(evals.size):
        lo, hi = harness._cluster_bounds(evals, j)
        coords = frame.T @ evecs[:, lo:hi]
        out.append((hi - lo > 1, float(np.sum(coords * coords))))
    return out


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
    upper = int(np.count_nonzero(sample.thetas > 0.0))
    idx = np.r_[np.arange(upper), np.arange(n - (m - upper), n)]
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
            patch.setattr(ensembles, "FILTER_ROWS_PER_PAIR", 0)
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
        monkeypatch.setattr(ensembles, "FILTER_MAX_DEGREE", 4)
        frame = sample_haar_frame(200, 2, RngStream(44, 0))
        sample = framed_sample(False, np.linspace(-1.0, 1.0, 200), [1.5, -1.5],
                               frame, stream_id=6)
        assert not assert_matches_dense(sample)
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 6, n=200: step cap reached"]

    def test_dense_base_falls_back(self, caplog):
        # An EnsembleSample built by hand may carry a base that is not
        # diagonal; the partial solve only knows diag(d) + W K W^T.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        frame = sample_haar_frame(40, 2, RngStream(45, 0))
        rotation = sample_haar_frame(40, 40, RngStream(45, 1))
        base = (rotation * np.linspace(0.5, 2.5, 40)) @ rotation.T
        base = 0.5 * (base + base.T)
        diagonal = framed_sample(True, np.linspace(0.5, 2.5, 40), [3.0, -0.9],
                                 frame, stream_id=4)
        pert = PerturbationSpec.from_values([3.0, -0.9], frame=frame)
        sample = dataclasses.replace(
            diagonal, base=base, perturbed=perturb_multiplicative(base, pert))
        assert not assert_matches_dense(sample)
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 4, n=40: base is not diagonal"]

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

    @staticmethod
    def uniform_sample(multiplicative, low, high, thetas, seed):
        spectrum = SpectrumModel.from_values(np.linspace(low, high, 1000))
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
        return sample_ensemble(model, PerturbationSpec.from_values(thetas), 1000,
                               RngStream(seed, 0))

    @pytest.mark.parametrize("seed", range(3))
    def test_strong_and_weak_strengths_are_certified(self, caplog, seed):
        # The outlier near 50 outgrows the two near 1.5 by about 40 per
        # filter degree; filtered along with them, unlocked and with no bound
        # on that ratio, it swamps them in rounding.
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
        monkeypatch.setattr(ensembles, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        answers = []
        real_solve = ensembles._filtered_extremes

        def solve(*args):
            answers.append(real_solve(*args))
            return answers[-1]

        monkeypatch.setattr(ensembles, "_filtered_extremes", solve)
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

    def test_closed_form_unframed_and_small_samples_stay_dense(self, monkeypatch):
        def no_partial_solve(*args):
            raise AssertionError("the partial solve must not run")

        monkeypatch.setattr(ensembles, "_filtered_extremes", no_partial_solve)
        pert = PerturbationSpec.from_values([3.0])
        wigner = sample_ensemble(Model.wigner(), pert, 20, RngStream(40, 0))
        unframed = framed_sample(False, np.linspace(0, 1, 20), [], None)
        frame = sample_haar_frame(180, 2, RngStream(40, 1))
        small = framed_sample(False, np.linspace(0, 1, 180), [3.0, -3.0], frame)
        monkeypatch.setattr(ensembles, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        assert small.n <= ROWS_PER_PAIR * (small.m + 1)
        for sample in (wigner, unframed, small):
            vals, _ = eigensolve(sample)
            assert vals.size == sample.n
            assert np.array_equal(vals, eigensolve(sample.perturbed)[0])

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
