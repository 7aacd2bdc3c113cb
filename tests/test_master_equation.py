"""Tests for the rank-M determinant operator and its root counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meso_spectra import (
    MasterOperator,
    MissingRootError,
    Model,
    ModelError,
    PerturbationSpec,
    Side,
    SpectrumModel,
    locate_outliers,
    perturb_additive,
    perturb_multiplicative,
    sample_haar_frame,
    RngStream,
    target_index,
)
from meso_spectra.ensembles import eigensolve
from meso_spectra.master_equation import counting_function, evaluate_d
from meso_spectra.transforms import stieltjes
from meso_spectra import master_equation


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
        delta = 0.15
        roots = locate_outliers(op, delta, Side.UPPER)
        assert len(roots) == 1
        assert roots[0].rank == 1
        assert roots[0].location == pytest.approx(2.0, abs=1e-8)

    def test_bisection_tolerance_contract(self):
        op, spectrum, _ = make_operator(Model.additive, [0.0] * 10, [3.0])
        delta = 0.2
        tol = 1e-10
        roots = locate_outliers(op, delta, Side.UPPER, tol=tol)
        z = roots[0].location
        assert counting_function(op, z + tol) >= 1 > counting_function(op, z - tol)

    def test_agrees_with_eigensolve_additive(self):
        rng = RngStream(32, 0)
        n, thetas = 120, [2.6, 2.1, -2.3]
        vals = np.linspace(-1.0, 1.0, n)
        frame = sample_haar_frame(n, len(thetas), rng)
        op, spectrum, pert = make_operator(Model.additive, vals, thetas, frame=frame)
        delta = 0.1
        matrix = perturb_additive(np.diag(spectrum.eigenvalues), pert.with_frame(frame))
        evals, _ = eigensolve(matrix)
        found = locate_outliers(op, delta, Side.UPPER) + locate_outliers(
            op, delta, Side.LOWER
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
        delta = 0.1
        matrix = perturb_multiplicative(
            np.diag(spectrum.eigenvalues), pert.with_frame(frame)
        )
        evals, _ = eigensolve(matrix)
        upper = locate_outliers(op, delta, Side.UPPER)
        lower = locate_outliers(op, delta, Side.LOWER)
        assert [r.rank for r in upper] == [1]
        assert [r.rank for r in lower] == [2]
        for root in upper + lower:
            idx = target_index(pert, root.rank, n)
            assert root.location == pytest.approx(evals[idx - 1], abs=1e-8)

    def test_unseparated_ranks_skipped(self):
        vals = np.linspace(-1.0, 1.0, 200)
        # 1/0.9 inverts to about 1.24, inside the 2 delta margin at 1.3.
        op, spectrum, _ = make_operator(Model.additive, vals, [2.5, 0.9])
        delta = 0.15
        roots = locate_outliers(op, delta, Side.UPPER)
        assert [r.rank for r in roots] == [1]

    def test_lower_side_only_negative_ranks(self):
        vals = np.linspace(-1.0, 1.0, 150)
        op, spectrum, _ = make_operator(Model.additive, vals, [2.0, -2.0])
        delta = 0.1
        lower = locate_outliers(op, delta, Side.LOWER)
        assert [r.rank for r in lower] == [2]
        assert lower[0].location < spectrum.lam_min

    def test_deterministic_reruns(self):
        rng = RngStream(34, 0)
        n = 80
        frame = sample_haar_frame(n, 2, rng)
        vals = np.linspace(-1.0, 1.0, n)
        op, spectrum, _ = make_operator(Model.additive, vals, [2.4, 2.0], frame=frame)
        delta = 0.1
        a = locate_outliers(op, delta, Side.UPPER)
        b = locate_outliers(op, delta, Side.UPPER)
        assert a == b


def dense_evals(op) -> np.ndarray:
    """Descending eigenvalues of the assembled ``n x n`` matrix."""
    base = np.diag(op.spectrum.eigenvalues)
    assemble = perturb_multiplicative if op.model.kind.multiplicative else perturb_additive
    return np.linalg.eigvalsh(assemble(base, op.pert))[::-1]


def located(op, delta, tol=None):
    return locate_outliers(op, delta, Side.UPPER, tol) + locate_outliers(
        op, delta, Side.LOWER, tol
    )


def assert_contract(op, roots, tol=None):
    """Each root meets ``n(z + tol) >= target > n(z - tol)`` and lies within
    ``tol`` of the dense eigenvalue at its target index."""
    if tol is None:
        tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
    pert, n = op.pert, op.spectrum.n
    evals = dense_evals(op)
    m1 = pert.m_positive
    for root in roots:
        z = root.location
        target = m1 - root.rank + 1 if root.rank <= m1 else m1 + pert.m - root.rank + 1
        assert counting_function(op, z + tol) >= target > counting_function(op, z - tol)
        assert abs(z - evals[target_index(pert, root.rank, n) - 1]) <= tol


def haar_operator(model_of, values, thetas, seed, psd=None):
    frame = sample_haar_frame(len(values), len(thetas), RngStream(seed, 0))
    op, _, _ = make_operator(model_of, values, thetas, frame=frame, psd=psd)
    return op


# Strengths beyond the spectrum's spread always detach an outlier (Weyl), so
# every separated rank below has a root to find.
strong = st.floats(2.5, 4.0)
seeds = st.integers(0, 2**16)


class TestAdversarialDetector:
    @given(st.integers(12, 90), strong, st.integers(2, 4), st.booleans(), seeds)
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_repeated_strengths_on_haar_frame(self, n, theta, repeats, lower, seed):
        thetas = [theta] * repeats + ([-theta] * repeats if lower else [])
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, n), thetas, seed)
        roots = located(op, 0.1)
        assert [r.rank for r in roots] == list(range(1, len(thetas) + 1))
        assert_contract(op, roots)

    @given(st.integers(1, 30), st.integers(2, 5))
    @settings(derandomize=True, max_examples=20, deadline=None)
    def test_coinciding_crossings(self, n_extra, m):
        # A flat spectrum on the leading coordinates makes D(z) a multiple of
        # the identity: every crossing eigenvalue meets zero at z = theta.
        op, _, _ = make_operator(Model.additive, [0.0] * (m + n_extra), [1.5] * m)
        roots = located(op, 0.1)
        assert [r.rank for r in roots] == list(range(1, m + 1))
        assert_contract(op, roots)

    @given(st.integers(40, 160), st.floats(1e-3, 0.05), st.floats(1e-9, 1e-6),
           st.booleans(), seeds)
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_strength_a_hair_above_the_margin(self, n, delta, hair, lower, seed):
        spectrum = SpectrumModel.from_values(np.linspace(-1.0, 1.0, n))
        # The strength whose mean-field location clears the edge by 2 delta
        # plus a hair, so the root sits close to the pole at the edge.
        edge = spectrum.lam_min if lower else spectrum.lam_max
        offset = (2.0 * delta + hair) * (-1.0 if lower else 1.0)
        theta = 1.0 / stieltjes(spectrum, edge + offset)
        op = haar_operator(Model.additive, spectrum.eigenvalues, [theta], seed)
        roots = located(op, delta)
        assert [r.rank for r in roots] == [1]
        assert_contract(op, roots)

    @given(st.integers(30, 120), st.integers(1, 15), st.floats(1.5, 3.0),
           st.floats(-0.9, -0.1), seeds)
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_psd_spectrum_with_zero_floor(self, n, zeros, boost, negative, seed):
        values = np.concatenate([np.zeros(zeros), np.linspace(0.5, 1.5, n)])
        frame = sample_haar_frame(values.size, 3, RngStream(seed, 0))
        lam = np.sort(values)[::-1]
        # The matrix has the eigenvalues of Lambda + Q+ + Q-, with
        # Q = Lambda^1/2 U diag(theta) U^T Lambda^1/2 split by sign.  Lambda + Q-
        # is PSD (theta > -1), so lambda_r >= lambda_r(Q+) >= theta_min *
        # lambda_min(U+^T Lambda U+) (Weyl, then Ostrowski): both upper roots
        # clear the edge.
        floor = np.linalg.eigvalsh(frame[:, :2].T @ (lam[:, None] * frame[:, :2]))[0]
        theta = boost * lam[0] / floor
        op, spectrum, _ = make_operator(
            Model.multiplicative, values, [theta, 1.5 * theta, negative],
            frame=frame, psd=True,
        )
        assert spectrum.lam_min == 0.0
        delta = 0.1
        # The lower branch of T only reaches (-q, 0): no negative strength
        # of a multiplicative model detaches below a zero floor.
        assert locate_outliers(op, delta, Side.LOWER) == []
        roots = locate_outliers(op, delta, Side.UPPER)
        assert [r.rank for r in roots] == [1, 2]
        assert_contract(op, roots)

    @given(st.integers(2, 7), st.lists(strong, min_size=6, max_size=6),
           st.lists(st.booleans(), min_size=6, max_size=6), seeds)
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_tiny_n_with_rank_n_minus_one(self, n, magnitudes, signs, seed):
        thetas = [t if up else -t for t, up in zip(magnitudes[: n - 1], signs)]
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, n), thetas, seed)
        roots = located(op, 0.1)
        assert [r.rank for r in roots] == list(range(1, n))
        assert_contract(op, roots)

    @given(st.integers(8, 80), st.lists(strong, min_size=1, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4), seeds)
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_mirror_symmetry(self, n, magnitudes, signs, seed):
        values = np.sort(RngStream(seed, 1).generator().uniform(-1.0, 1.0, n))
        thetas = [t if up else -t for t, up in zip(magnitudes, signs)]
        frame = sample_haar_frame(n, len(thetas), RngStream(seed, 0))
        op, _, _ = make_operator(Model.additive, values, thetas, frame=frame)
        # Negating reverses the descending order, so the frame's rows flip.
        mirror, _, _ = make_operator(
            Model.additive, -values, [-t for t in thetas], frame=frame[::-1]
        )
        tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
        roots, mirrored = located(op, 0.1), located(mirror, 0.1)
        assert_contract(op, roots)
        assert_contract(mirror, mirrored)
        z = np.sort([r.location for r in roots])
        z_mirror = np.sort([-r.location for r in mirrored])
        assert z.size == len(thetas)
        assert np.all(np.abs(z - z_mirror) <= tol)


class TestNewtonSteps:
    @pytest.mark.parametrize("broken", [
        lambda reached, g, slope: (reached, g, 0.0),
        # Newton converges 100 tol away; certification must reject it.
        lambda reached, g, slope: (reached, g + 1e-8, slope),
    ], ids=["zero-slope", "biased"])
    def test_bisection_fallback_meets_contract(self, monkeypatch, broken):
        real = master_equation._crossing
        monkeypatch.setattr(master_equation, "_crossing",
                            lambda op, z, target: broken(*real(op, z, target)))
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 60),
                           [2.6, 2.2, -2.4], seed=35)
        tol = 1e-10
        roots = located(op, 0.1, tol)
        assert [r.rank for r in roots] == [1, 2, 3]
        assert_contract(op, roots, tol)

    def test_traced_call_sites_reached(self, monkeypatch):
        counts = {"counting_function": 0, "check_separation": 0}
        for name in counts:
            real = getattr(master_equation, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(master_equation, name, counted)
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 80),
                           [2.4, 2.0, -2.2], seed=36)
        roots = located(op, 0.1)
        assert len(roots) == 3
        assert counts["check_separation"] == 3
        # Bracket ends and certification go through the module global; the
        # Newton steps do the rest.
        assert 2 * len(roots) <= counts["counting_function"] <= 6 * len(roots)
        assert_contract(op, roots)


def golden_operator(name):
    kind, values, thetas, seed = {
        "additive-haar-repeated": (
            Model.additive, np.linspace(-1.0, 1.0, 80), [2.4, 2.4, 2.0, -2.2, -2.2], 7),
        "additive-leading": (
            Model.additive, np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 50)),
            [3.0, 1.8, 1.8, -1.8, -2.5], None),
        "additive-flat-coinciding": (
            Model.additive, np.zeros(8), [1.5, 1.5, 1.5, -1.5, -1.5], None),
        "multiplicative-haar-repeated": (
            Model.multiplicative, np.linspace(0.5, 2.5, 120), [1.5, 1.5, 1.0, -0.9, -0.9], 11),
        "multiplicative-leading": (
            Model.multiplicative, np.linspace(0.5, 1.5, 40), [2.0, 2.0, -0.95], None),
    }[name]
    if seed is None:
        op, _, _ = make_operator(kind, values, thetas)
        return op
    return haar_operator(kind, values, thetas, seed)


# Roots of the Newton-and-bisection detector as float.hex, recorded before
# its counting-function evaluations were shared and skipped; both only
# avoid evaluations whose outcome is already known, so every bit stays.
GOLDEN_ROOTS = {
    ("additive-haar-repeated", None): ["0x1.508f682e0f85ap+1", "0x1.2e334e89ca12cp+1", "0x1.1ebcb24c4bf58p+1", "-0x1.29cb5ad27e9d2p+1", "-0x1.34f8b2ed43a83p+1"],
    ("additive-haar-repeated", 1e-10): ["0x1.508f682e0f85ap+1", "0x1.2e334e89ca12cp+1", "0x1.1ebcb24c4bf58p+1", "-0x1.29cb5ad27e9d2p+1", "-0x1.34f8b2ed43a83p+1"],
    ("additive-leading", None): ["0x1.f934b14c13b0dp+1", "0x1.5b3454b028203p+1", "0x1.54dad0afeb930p+1", "-0x1.043e7252b6bb5p+0", "-0x1.be37d861594adp+0"],
    ("additive-leading", 1e-10): ["0x1.f934b14c13b0dp+1", "0x1.5b3454b028203p+1", "0x1.54dad0afeb930p+1", "-0x1.043e7252b6bb4p+0", "-0x1.be37d861594adp+0"],
    ("multiplicative-haar-repeated", None): ["0x1.0e82de4ea3b0dp+2", "0x1.036fb69859886p+2", "0x1.9e0a1badb470ap+1", "0x1.1024a8a3a9e46p-3", "0x1.ba091c78e03d9p-4"],
    ("multiplicative-haar-repeated", 1e-10): ["0x1.0e82de4ea3b0ep+2", "0x1.036fb69859886p+2", "0x1.9e0a1badb470ap+1", "0x1.1024a8a3a9e46p-3", "0x1.ba091c78e03d9p-4"],
    ("additive-flat-coinciding", None): ["0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0", "-0x1.8000000000000p+0", "-0x1.8000000000000p+0"],
    ("additive-flat-coinciding", 1e-10): ["0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0", "-0x1.8000000000000p+0", "-0x1.8000000000000p+0"],
    ("multiplicative-leading", None): ["0x1.2000000000000p+2", "0x1.1b13b13b13b14p+2", "0x1.28b28b28b28adp-4"],
    ("multiplicative-leading", 1e-10): ["0x1.1ffffffffa27cp+2", "0x1.1b13b13b13b14p+2", "0x1.28b28b28b28adp-4"],
}


class TestSharedCounts:
    @pytest.mark.parametrize("name, tol", list(GOLDEN_ROOTS))
    def test_roots_are_bit_for_bit(self, name, tol):
        roots = located(golden_operator(name), 0.1, tol)
        assert [r.rank for r in roots] == list(range(1, len(roots) + 1))
        assert [r.location.hex() for r in roots] == GOLDEN_ROOTS[name, tol]

    @pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_ROOTS}))
    def test_no_point_is_counted_twice(self, monkeypatch, name):
        seen = []
        real = master_equation.counting_function

        def counted(op, z):
            seen.append(z)
            return real(op, z)

        monkeypatch.setattr(master_equation, "counting_function", counted)
        op = golden_operator(name)
        delta = 0.1
        for side in (Side.UPPER, Side.LOWER):
            seen.clear()
            roots = locate_outliers(op, delta, side)
            assert len(set(seen)) == len(seen)
            # One count per bracket end, then at most two per root.
            assert len(seen) <= 2 + 2 * len(roots)


class TestStepCap:
    def test_step_cap_finishes_by_bisection(self, monkeypatch):
        # Steps a millionth of Newton's cannot close the bracket in 400 steps.
        real = master_equation._crossing

        def crawling(op, z, target):
            reached, g, slope = real(op, z, target)
            return reached, g, 1e6 * slope

        monkeypatch.setattr(master_equation, "_crossing", crawling)
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 60),
                           [2.6, 2.2, -2.4], seed=35)
        tol = 1e-10
        roots = located(op, 0.1, tol)
        assert [r.rank for r in roots] == [1, 2, 3]
        assert_contract(op, roots, tol)

    def test_tolerance_below_float_spacing_is_reported(self):
        # The root lies near 3, where doubles are 4.4e-16 apart: no bracket
        # of two distinct doubles is as narrow as tol, yet lam_max + tol is
        # still above the bulk edge at 1.
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 60), [2.6], seed=35)
        delta = 0.1
        with pytest.raises(MissingRootError, match="cannot shrink"):
            locate_outliers(op, delta, Side.UPPER, tol=3e-16)
