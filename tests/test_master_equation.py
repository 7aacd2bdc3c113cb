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
from meso_spectra.transforms import TransformDomainError, semicircle_quantiles, stieltjes
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

    @pytest.mark.parametrize("model_of, values, thetas, framed", [
        (Model.additive, np.linspace(-1.0, 1.0, 40), [2.0, 1.2, -1.5], True),
        (Model.additive, np.linspace(-1.0, 1.0, 40), [2.0, 1.2, -1.5], False),
        (Model.multiplicative, np.linspace(0.5, 1.5, 30), [1.5, 0.8, -0.6, -0.9], True),
        (Model.multiplicative, np.linspace(0.5, 1.5, 30), [1.5, 0.8, -0.6, -0.9], False),
        (Model.additive, np.linspace(-1.0, 1.0, 40), [], True),
    ], ids=["additive-frame", "additive-leading", "multiplicative-frame",
            "multiplicative-leading", "rank-zero"])
    def test_point_arrays_match_single_points(self, model_of, values, thetas, framed):
        frame = sample_haar_frame(len(values), len(thetas), RngStream(37, 0)) if framed else None
        psd = True if model_of is Model.multiplicative else None
        op, spectrum, _ = make_operator(model_of, values, thetas, frame=frame, psd=psd)
        points = np.array([spectrum.lam_max + 0.3, spectrum.lam_min - 0.05,
                           spectrum.lam_max + 2.0, spectrum.lam_min - 1.5])
        d = evaluate_d(op, points)
        counts = counting_function(op, points)
        assert d.shape == (points.size, op.m, op.m)
        assert counts.shape == points.shape
        for z, d_z, count in zip(points.tolist(), d, counts.tolist()):
            assert np.array_equal(evaluate_d(op, z), d_z)
            assert counting_function(op, z) == count
            assert isinstance(counting_function(op, z), int)
        if op.m:
            targets = np.arange(points.size) % op.m + 1
            stacked = master_equation._crossing(op, points, targets)
            for i in range(points.size):
                alone = master_equation._crossing(op, points[i:i + 1], targets[i:i + 1])
                assert [a[i] for a in stacked] == [a[0] for a in alone]

    def test_point_arrays_must_lie_outside_the_bulk(self):
        op, _, _ = make_operator(Model.additive, np.linspace(-1.0, 1.0, 10), [2.0])
        with pytest.raises(TransformDomainError, match="z=0.5 lies inside"):
            evaluate_d(op, np.array([3.0, 0.5, -0.5]))

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
        roots = locate_outliers(op, delta)
        assert len(roots) == 1
        assert roots[0].rank == 1
        assert roots[0].location == pytest.approx(2.0, abs=1e-8)

    def test_bisection_tolerance_contract(self):
        op, spectrum, _ = make_operator(Model.additive, [0.0] * 10, [3.0])
        delta = 0.2
        tol = 1e-10
        roots = locate_outliers(op, delta, tol=tol)
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
        found = locate_outliers(op, delta)
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
        roots = locate_outliers(op, delta)
        assert [r.rank for r in roots] == [1, 2]
        assert roots[0].location > spectrum.lam_max
        assert roots[1].location < spectrum.lam_min
        for root in roots:
            idx = target_index(pert, root.rank, n)
            assert root.location == pytest.approx(evals[idx - 1], abs=1e-8)

    def test_unseparated_ranks_skipped(self):
        vals = np.linspace(-1.0, 1.0, 200)
        # 1/0.9 inverts to about 1.24, inside the 2 delta margin at 1.3.
        op, spectrum, _ = make_operator(Model.additive, vals, [2.5, 0.9])
        delta = 0.15
        roots = locate_outliers(op, delta)
        assert [r.rank for r in roots] == [1]

    def test_lower_side_only_negative_ranks(self):
        vals = np.linspace(-1.0, 1.0, 150)
        op, spectrum, _ = make_operator(Model.additive, vals, [2.0, -2.0])
        delta = 0.1
        roots = locate_outliers(op, delta)
        lower = [r for r in roots if r.rank > op.pert.m_positive]
        assert [r.rank for r in lower] == [2]
        assert lower[0].location < spectrum.lam_min

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        op, _, _ = make_operator(Model.additive, [0.0] * 10, [3.0])
        empty, _, _ = make_operator(Model.additive, [0.0] * 10, [])
        for target in (op, empty):
            with pytest.raises(ModelError, match="tol must be positive and finite"):
                locate_outliers(target, 0.2, tol=tol)

    def test_deterministic_reruns(self):
        rng = RngStream(34, 0)
        n = 80
        frame = sample_haar_frame(n, 2, rng)
        vals = np.linspace(-1.0, 1.0, n)
        op, spectrum, _ = make_operator(Model.additive, vals, [2.4, 2.0], frame=frame)
        delta = 0.1
        a = locate_outliers(op, delta)
        b = locate_outliers(op, delta)
        assert a == b


def dense_evals(op) -> np.ndarray:
    """Descending eigenvalues of the assembled ``n x n`` matrix."""
    base = np.diag(op.spectrum.eigenvalues)
    assemble = perturb_multiplicative if op.model.kind.multiplicative else perturb_additive
    return np.linalg.eigvalsh(assemble(base, op.pert))[::-1]


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
        roots = locate_outliers(op, 0.1)
        assert [r.rank for r in roots] == list(range(1, len(thetas) + 1))
        assert_contract(op, roots)

    @given(st.integers(1, 30), st.integers(2, 5))
    @settings(derandomize=True, max_examples=20, deadline=None)
    def test_coinciding_crossings(self, n_extra, m):
        # A flat spectrum on the leading coordinates makes D(z) a multiple of
        # the identity: every crossing eigenvalue meets zero at z = theta.
        op, _, _ = make_operator(Model.additive, [0.0] * (m + n_extra), [1.5] * m)
        roots = locate_outliers(op, 0.1)
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
        roots = locate_outliers(op, delta)
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
        roots = locate_outliers(op, delta)
        assert [r.rank for r in roots] == [1, 2]
        assert_contract(op, roots)

    @given(st.integers(2, 7), st.lists(strong, min_size=6, max_size=6),
           st.lists(st.booleans(), min_size=6, max_size=6), seeds)
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_tiny_n_with_rank_n_minus_one(self, n, magnitudes, signs, seed):
        thetas = [t if up else -t for t, up in zip(magnitudes[: n - 1], signs)]
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, n), thetas, seed)
        roots = locate_outliers(op, 0.1)
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
        roots, mirrored = locate_outliers(op, 0.1), locate_outliers(mirror, 0.1)
        assert_contract(op, roots)
        assert_contract(mirror, mirrored)
        z = np.sort([r.location for r in roots])
        z_mirror = np.sort([-r.location for r in mirrored])
        assert z.size == len(thetas)
        assert np.all(np.abs(z - z_mirror) <= tol)


class TestNewtonSteps:
    @pytest.mark.parametrize("broken", [
        lambda reached, g, slope: (reached, g, np.zeros_like(slope)),
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
        roots = locate_outliers(op, 0.1, tol)
        assert [r.rank for r in roots] == [1, 2, 3]
        assert_contract(op, roots, tol)

    def test_ranks_share_crossing_calls(self, monkeypatch):
        # Eight ranks on both sides: each round stacks every pending rank's
        # Newton step into one _crossing call, so the calls follow the
        # slowest rank's step count (4 here), not the sum over ranks (31).
        calls, steps = [], {}
        real = master_equation._crossing

        def counted(op, z, target):
            calls.append(z.size)
            for t in target.tolist():
                steps[t] = steps.get(t, 0) + 1
            return real(op, z, target)

        monkeypatch.setattr(master_equation, "_crossing", counted)
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 400),
                           [2.4, 2.2, 2.0, 1.9, -1.9, -2.0, -2.2, -2.4], seed=38)
        roots = locate_outliers(op, 0.1)
        assert [r.rank for r in roots] == list(range(1, 9))
        assert_contract(op, roots)
        # Targets are distinct across the eight ranks, so they name a rank's steps.
        assert len(steps) == 8
        assert sum(calls) == sum(steps.values()) >= 16
        assert len(calls) <= max(steps.values()) + 2

    def test_traced_call_sites_reached(self, monkeypatch):
        # Separation is checked once per rank; counts are tallied per point,
        # since one counting_function call evaluates a round's points.
        counts = {"counting_function": 0, "check_separation": 0}
        for name, points in (("counting_function", lambda op, z: np.size(z)),
                             ("check_separation", lambda *args: 1)):
            real = getattr(master_equation, name)

            def counted(*args, _real=real, _name=name, _points=points):
                counts[_name] += _points(*args)
                return _real(*args)

            monkeypatch.setattr(master_equation, name, counted)
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 80),
                           [2.4, 2.0, -2.2], seed=36)
        roots = locate_outliers(op, 0.1)
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
# The orthogonally invariant searches start at pushforward_map's locations,
# so their roots were re-recorded (by at most 4.5e-16) when the transform
# inversions became monotone Newton solves.
GOLDEN_ROOTS = {
    ("additive-haar-repeated", None): ["0x1.508f682e0f85bp+1", "0x1.2e334e89ca12cp+1", "0x1.1ebcb24c4bf57p+1", "-0x1.29cb5ad27e9d2p+1", "-0x1.34f8b2ed43a83p+1"],
    ("additive-haar-repeated", 1e-10): ["0x1.508f682e0f85bp+1", "0x1.2e334e89ca12cp+1", "0x1.1ebcb24c4bf57p+1", "-0x1.29cb5ad27e9d2p+1", "-0x1.34f8b2ed43a83p+1"],
    ("additive-leading", None): ["0x1.f934b14c13b0dp+1", "0x1.5b3454b028203p+1", "0x1.54dad0afeb930p+1", "-0x1.043e7252b6bb4p+0", "-0x1.be37d861594adp+0"],
    ("additive-leading", 1e-10): ["0x1.f934b14c13b0dp+1", "0x1.5b3454b028203p+1", "0x1.54dad0afeb930p+1", "-0x1.043e7252b6bb4p+0", "-0x1.be37d861594adp+0"],
    ("multiplicative-haar-repeated", None): ["0x1.0e82de4ea3b0dp+2", "0x1.036fb69859886p+2", "0x1.9e0a1badb470ap+1", "0x1.1024a8a3a9e38p-3", "0x1.ba091c78e03eep-4"],
    ("multiplicative-haar-repeated", 1e-10): ["0x1.0e82de4ea3b0ep+2", "0x1.036fb69859886p+2", "0x1.9e0a1badb470ap+1", "0x1.1024a8a3a9e38p-3", "0x1.ba091c78e03eep-4"],
    ("additive-flat-coinciding", None): ["0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0", "-0x1.8000000000000p+0", "-0x1.8000000000000p+0"],
    ("additive-flat-coinciding", 1e-10): ["0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0", "-0x1.8000000000000p+0", "-0x1.8000000000000p+0"],
    ("multiplicative-leading", None): ["0x1.2000000000000p+2", "0x1.1b13b13b13b14p+2", "0x1.28b28b28b28a8p-4"],
    ("multiplicative-leading", 1e-10): ["0x1.1ffffffffa27cp+2", "0x1.1b13b13b13b14p+2", "0x1.28b28b28b28a8p-4"],
}


class TestSharedCounts:
    @pytest.mark.parametrize("name, tol", list(GOLDEN_ROOTS))
    def test_roots_are_bit_for_bit(self, name, tol):
        roots = locate_outliers(golden_operator(name), 0.1, tol)
        assert [r.rank for r in roots] == list(range(1, len(roots) + 1))
        assert [r.location.hex() for r in roots] == GOLDEN_ROOTS[name, tol]

    @pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_ROOTS}))
    def test_no_point_is_counted_twice(self, monkeypatch, name):
        seen = []
        real = master_equation.counting_function

        def counted(op, z):
            seen.extend(np.atleast_1d(z).tolist())
            return real(op, z)

        monkeypatch.setattr(master_equation, "counting_function", counted)
        op = golden_operator(name)
        roots = locate_outliers(op, 0.1)
        assert len(set(seen)) == len(seen)
        # One count per bracket end of each side searched, then at most two
        # per root.
        sides = {r.rank <= op.pert.m_positive for r in roots}
        assert len(seen) <= 2 * len(sides) + 2 * len(roots)


def bench_shaped_operator(seed):
    """An orthogonally invariant additive operator shaped as the bench's
    detector workload: semicircle quantiles at n = 400, eight strengths."""
    return haar_operator(Model.additive, semicircle_quantiles(400),
                         [2.4, 2.2, 2.0, 1.9, -1.9, -2.0, -2.2, -2.4], seed)


START_OPERATORS = (sorted({name for name, _ in GOLDEN_ROOTS})
                   + [f"bench-shaped-{seed}" for seed in range(40, 55)])


def start_operator(name):
    if name.startswith("bench-shaped-"):
        return bench_shaped_operator(int(name.removeprefix("bench-shaped-")))
    return golden_operator(name)


def dense_starts(op):
    """Each rank's dense eigenvalue at its target index."""
    evals = dense_evals(op)
    return {rank: float(evals[target_index(op.pert, rank, op.spectrum.n) - 1])
            for rank in range(1, op.m + 1)}


def start_variants(op):
    """Starts by variant name: exact, a little off, swapped between ranks, or
    outside the first bracket (inside the bulk, or beyond its far end)."""
    exact = dense_starts(op)
    m1 = op.pert.m_positive
    thetas = op.pert.thetas
    centre = 0.5 * (op.spectrum.lam_max + op.spectrum.lam_min)
    variants = {"exact": exact}
    for offset in (1e-3, -1e-3, 1e-6, -1e-6):
        variants[f"{offset:+g}"] = {rank: z + offset for rank, z in exact.items()}
    variants["swapped"] = {rank: exact[op.m + 1 - rank] for rank in exact}
    variants["bulk"] = dict.fromkeys(exact, centre)
    variants["beyond"] = {
        rank: (op.spectrum.lam_max + float(thetas[0]) + 2.0 if rank <= m1
               else op.spectrum.lam_min + float(thetas[-1]) - 2.0)
        for rank in exact
    }
    return variants


class TestStarts:
    @pytest.mark.parametrize("name", START_OPERATORS)
    def test_the_start_sets_the_rounds_not_the_roots(self, monkeypatch, name):
        op = start_operator(name)
        tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
        default = locate_outliers(op, 0.1)
        crossed = []
        real = master_equation._crossing

        def recorded(op, z, target):
            crossed.extend(z.tolist())
            return real(op, z, target)

        monkeypatch.setattr(master_equation, "_crossing", recorded)
        for variant, starts in start_variants(op).items():
            crossed.clear()
            roots = locate_outliers(op, 0.1, starts=starts)
            assert [r.rank for r in roots] == [r.rank for r in default], variant
            assert all(abs(r.location - d.location) <= tol
                       for r, d in zip(roots, default)), variant
            assert_contract(op, roots)
            if variant in ("bulk", "beyond"):
                # Outside the first bracket: the search never steps from there.
                assert not set(crossed) & set(starts.values()), variant

    # Not multiplicative-leading: its rank-1 root 1.5 * (1 + 2) = 4.5 is also
    # the far end 1.5 + 2 + 1 of the first bracket, where no step starts.
    @pytest.mark.parametrize(
        "name", [name for name in START_OPERATORS if name != "multiplicative-leading"])
    def test_exact_starts_take_two_rounds(self, monkeypatch, name):
        op = start_operator(name)
        calls = {"_crossing": 0, "counting_function": 0, "pushforward_map": 0}
        for site in calls:
            real = getattr(master_equation, site)

            def counted(*args, _real=real, _site=site):
                calls[_site] += 1
                return _real(*args)

            monkeypatch.setattr(master_equation, site, counted)
        rounds = {}
        real_search = master_equation._locate_root

        def search(op, rank, *args, **kwargs):
            # Pass the search's requests through, counting the rounds.
            inner, answers = real_search(op, rank, *args, **kwargs), None
            rounds[rank] = 0
            while True:
                try:
                    requests = inner.send(answers)
                except StopIteration as done:
                    return done.value
                rounds[rank] += 1
                answers = yield requests

        monkeypatch.setattr(master_equation, "_locate_root", search)
        roots = locate_outliers(op, 0.1, starts=dense_starts(op))
        assert_contract(op, roots)
        assert calls == {"_crossing": 1, "counting_function": 2, "pushforward_map": 0}
        assert rounds == dict.fromkeys((r.rank for r in roots), 2)

    def test_a_rank_without_a_start_starts_at_its_prediction(self):
        op = golden_operator("additive-haar-repeated")
        exact = dense_starts(op)
        del exact[2]
        predicted = {2: master_equation.pushforward_map(op.model, float(op.pert.thetas[1]))}
        assert (locate_outliers(op, 0.1, starts=exact)[1]
                == locate_outliers(op, 0.1, starts=exact | predicted)[1])


class TestRoundingGuard:
    def test_strengths_decades_apart_hide_no_root(self):
        # 1/theta = -3.2e10 swamps D(z): its eigenvalues carry errors near
        # 1e-7, so counts near the strength-1 root are noise and bisection
        # on them landed 2e-7 from the eigenvalue, 100 tol away.
        values = np.linspace(-1.0, 1.0, 14)
        values[[0, -1]] = values[[1, -2]] + [-0.1, 0.1]
        op = haar_operator(Model.additive, values,
                           [1.0, -3.07993186e-11, -1.0, -1.0, -1.1, -1.1, -1.2], seed=0)
        with pytest.raises(MissingRootError, match="rounding in D"):
            locate_outliers(op, 1e-12)

    @pytest.mark.parametrize("model_of", [Model.additive, Model.multiplicative])
    def test_largest_weight_is_the_vectors_maximum(self, model_of):
        # The guard's max |w(z)|, read at the nearer edge for additive
        # weights, is the maximum over all n weights bit for bit, from far
        # off down to a hair outside either edge.
        gen = RngStream(38, 0).generator()
        values = gen.uniform(0.1, 3.0, 300)
        op, spectrum, _ = make_operator(model_of, values, [1.5, -0.5], psd=True)
        offsets = 10.0 ** np.linspace(-12.0, 2.0, 29)
        for z in np.concatenate((spectrum.lam_max + offsets,
                                 spectrum.lam_min - offsets)).tolist():
            assert op._largest_weight(z) == np.abs(op._weights(z)).max()

    def test_resolvable_roots_pass_the_guard(self):
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 14), [1.5, 1e-3], seed=0)
        roots = locate_outliers(op, 1e-3)
        assert [r.rank for r in roots] == [1]
        assert_contract(op, roots)


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
        roots = locate_outliers(op, 0.1, tol)
        assert [r.rank for r in roots] == [1, 2, 3]
        assert_contract(op, roots, tol)

    def test_lowest_failing_rank_is_reported(self):
        # Both roots lie in [2, 4), where doubles are 4.4e-16 apart, so both
        # ranks fail; rank 2 fails in an earlier round than rank 1, and the
        # call must still raise what a rank-by-rank search raises first.
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 60), [2.2, 1.6], seed=35)
        with pytest.raises(MissingRootError, match="cannot shrink") as failed:
            locate_outliers(op, 0.1, tol=3e-16)
        assert failed.value.rank == 1

    def test_tolerance_below_float_spacing_is_reported(self):
        # The root lies near 3, where doubles are 4.4e-16 apart: no bracket
        # of two distinct doubles is as narrow as tol, yet lam_max + tol is
        # still above the bulk edge at 1.
        op = haar_operator(Model.additive, np.linspace(-1.0, 1.0, 60), [2.6], seed=35)
        delta = 0.1
        with pytest.raises(MissingRootError, match="cannot shrink"):
            locate_outliers(op, delta, tol=3e-16)
