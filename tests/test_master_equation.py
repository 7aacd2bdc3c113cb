"""Tests for the rank-M determinant operator and its root counting."""

import numpy as np
import pytest

from meso_spectra import (
    MasterOperator,
    Model,
    ModelError,
    PerturbationSpec,
    Side,
    SpectralWindow,
    SpectrumModel,
    counting_function,
    eigensolve,
    evaluate_d,
    locate_outliers,
    perturb_additive,
    perturb_multiplicative,
    sample_haar_frame,
    RngStream,
    target_index,
)


def make_operator(model_of, spectrum_values, thetas, frame=None, psd=None):
    spectrum = SpectrumModel.from_values(spectrum_values, is_psd=psd)
    pert = PerturbationSpec.from_values(thetas, frame=frame)
    return MasterOperator(model=model_of(spectrum), pert=pert), spectrum, pert


class TestOperator:
    def test_additive_diagonal_rank_one(self):
        op, _, _ = make_operator(Model.additive, [1.0, -1.0], [2.0])
        # D(z) = 1/2 - 1/(z - 1): root exactly at z = 3.
        assert evaluate_d(op, 3.0)[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert counting_function(op, 3.0 + 1e-9) == 1
        assert counting_function(op, 3.0 - 1e-9) == 0

    def test_multiplicative_all_ones(self):
        op, _, _ = make_operator(
            Model.multiplicative, [1.0, 1.0, 1.0], [1.0], psd=True
        )
        # D(z) = 1 - 1/(z - 1): root exactly at z = 2.
        assert evaluate_d(op, 2.0)[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert counting_function(op, 2.0 + 1e-9) == 1

    def test_frame_path_matches_coordinate_path(self):
        vals = np.linspace(-1.0, 1.0, 12)
        coord_op, _, _ = make_operator(Model.additive, vals, [2.0, -1.5])
        frame = np.eye(12)[:, :2]
        frame_op, _, _ = make_operator(Model.additive, vals, [2.0, -1.5], frame=frame)
        for z in (1.8, 2.5, -2.0):
            a = evaluate_d(coord_op, z)
            b = evaluate_d(frame_op, z)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_multiplicative_requires_psd(self):
        with pytest.raises(ModelError):
            make_operator(Model.multiplicative, [1.0, -1.0], [2.0])

    def test_multiplicative_strength_floor(self):
        with pytest.raises(ModelError):
            make_operator(Model.multiplicative, [1.0, 2.0], [-1.5], psd=True)

    def test_model_without_spectrum_rejected(self):
        with pytest.raises(ModelError):
            MasterOperator(model=Model.wigner(), pert=PerturbationSpec.from_values([2.0]))

    def test_frame_must_span_matrix_rows(self):
        with pytest.raises(ModelError):
            make_operator(Model.additive, [1.0, -1.0], [2.0], frame=np.eye(3)[:, :1])

    def test_counting_function_monotone(self):
        rng = np.random.default_rng(31)
        vals = np.sort(rng.uniform(-1.0, 1.0, size=80))
        op, _, _ = make_operator(Model.additive, vals, [2.5, 1.8, -2.2])
        grid = np.linspace(1.01, 6.0, 60)
        counts = [counting_function(op, z) for z in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestLocateOutliers:
    def test_diagonal_exact_roots(self):
        op, spectrum, pert = make_operator(Model.additive, [0.0] * 20, [2.0])
        window = SpectralWindow.from_spectrum(spectrum, 0.15)
        roots = locate_outliers(op, window, Side.UPPER)
        assert len(roots) == 1
        assert roots[0].rank == 1
        assert roots[0].location == pytest.approx(2.0, abs=1e-8)

    def test_bisection_tolerance_contract(self):
        op, spectrum, _ = make_operator(Model.additive, [0.0] * 10, [3.0])
        window = SpectralWindow.from_spectrum(spectrum, 0.2)
        tol = 1e-10
        roots = locate_outliers(op, window, Side.UPPER, tol=tol)
        z = roots[0].location
        assert counting_function(op, z + tol) >= 1 > counting_function(op, z - tol)

    def test_agrees_with_eigensolve_additive(self):
        rng = RngStream(32, 0)
        n, thetas = 120, [2.6, 2.1, -2.3]
        vals = np.linspace(-1.0, 1.0, n)
        frame = sample_haar_frame(n, len(thetas), rng)
        op, spectrum, pert = make_operator(Model.additive, vals, thetas, frame=frame)
        window = SpectralWindow.from_spectrum(spectrum, 0.1)
        matrix = perturb_additive(np.diag(spectrum.eigenvalues), pert.with_frame(frame))
        evals, _ = eigensolve(matrix)
        found = locate_outliers(op, window, Side.UPPER) + locate_outliers(
            op, window, Side.LOWER
        )
        assert [r.rank for r in found] == [1, 2, 3]
        for root in found:
            idx = target_index(pert, root.rank, n)
            assert root.location == pytest.approx(evals[idx - 1], abs=1e-8)

    def test_agrees_with_eigensolve_multiplicative(self):
        rng = RngStream(33, 0)
        n, thetas = 100, [3.0, -0.8]
        vals = np.linspace(0.5, 2.5, n)
        frame = sample_haar_frame(n, len(thetas), rng)
        op, spectrum, pert = make_operator(
            Model.multiplicative, vals, thetas, frame=frame, psd=True
        )
        window = SpectralWindow.from_spectrum(spectrum, 0.1)
        matrix = perturb_multiplicative(
            np.diag(spectrum.eigenvalues), pert.with_frame(frame)
        )
        evals, _ = eigensolve(matrix)
        upper = locate_outliers(op, window, Side.UPPER)
        lower = locate_outliers(op, window, Side.LOWER)
        assert [r.rank for r in upper] == [1]
        assert [r.rank for r in lower] == [2]
        for root in upper + lower:
            idx = target_index(pert, root.rank, n)
            assert root.location == pytest.approx(evals[idx - 1], abs=1e-8)

    def test_unseparated_ranks_skipped(self):
        vals = np.linspace(-1.0, 1.0, 200)
        # 1/0.9 inverts to about 1.24, inside the 2 delta margin at 1.3.
        op, spectrum, _ = make_operator(Model.additive, vals, [2.5, 0.9])
        window = SpectralWindow.from_spectrum(spectrum, 0.15)
        roots = locate_outliers(op, window, Side.UPPER)
        assert [r.rank for r in roots] == [1]

    def test_lower_side_only_negative_ranks(self):
        vals = np.linspace(-1.0, 1.0, 150)
        op, spectrum, _ = make_operator(Model.additive, vals, [2.0, -2.0])
        window = SpectralWindow.from_spectrum(spectrum, 0.1)
        lower = locate_outliers(op, window, Side.LOWER)
        assert [r.rank for r in lower] == [2]
        assert lower[0].location < spectrum.lam_min

    def test_deterministic_reruns(self):
        rng = RngStream(34, 0)
        n = 80
        frame = sample_haar_frame(n, 2, rng)
        vals = np.linspace(-1.0, 1.0, n)
        op, spectrum, _ = make_operator(Model.additive, vals, [2.4, 2.0], frame=frame)
        window = SpectralWindow.from_spectrum(spectrum, 0.1)
        a = locate_outliers(op, window, Side.UPPER)
        b = locate_outliers(op, window, Side.UPPER)
        assert a == b
