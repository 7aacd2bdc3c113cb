"""Tests for spectral transforms, their inverses, and quantile grids.

Reference values were produced with an independent tool chain: extended
precision summation for the transforms, Brent root finding for the
inverses, and adaptive quadrature for the Marchenko-Pastur quantiles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meso_spectra import (
    InversionError,
    MasterOperator,
    MesoSpectraError,
    Model,
    ModelError,
    PerturbationSpec,
    RngStream,
    SpectrumModel,
    empirical_quantiles,
    locate_outliers,
    predict,
    sample_haar_frame,
    transforms,
)
from meso_spectra.predictor import check_separation, pushforward_map
from meso_spectra.transforms import (
    TransformDomainError,
    _newton,
    invert_stieltjes,
    invert_t_transform,
    mp_density,
    mp_edges,
    mp_quantiles,
    mp_t_transform,
    mp_t_transform_deriv,
    semicircle_density,
    semicircle_quantiles,
    semicircle_stieltjes,
    semicircle_stieltjes_deriv,
    stieltjes,
    stieltjes_deriv,
    t_transform,
    t_transform_deriv,
)

S200 = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200))
S300 = SpectrumModel.from_values(np.linspace(0.5, 2.5, 300))

spectra = st.builds(
    SpectrumModel.from_values,
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=40).filter(
        lambda v: max(v) - min(v) > 1e-3
    ),
)


class TestPointEvaluations:
    def test_frozen_stieltjes(self):
        assert stieltjes(S200, 1.5) == pytest.approx(0.8067114411624204, rel=1e-13)

    def test_frozen_stieltjes_deriv(self):
        assert stieltjes_deriv(S200, 1.5) == pytest.approx(
            -0.8064664602507956, rel=1e-13
        )

    def test_frozen_t_transform(self):
        assert t_transform(S300, 3.0) == pytest.approx(1.418131083372888, rel=1e-13)

    def test_frozen_t_transform_deriv(self):
        assert t_transform_deriv(S300, 3.0) == pytest.approx(
            -1.606844775038223, rel=1e-13
        )

    def test_single_atom(self):
        one = SpectrumModel.from_values([0.0])
        assert stieltjes(one, 2.0) == 0.5
        assert stieltjes_deriv(one, 2.0) == -0.25

    def test_inside_bulk_rejected(self):
        for z in (0.0, 1.0, -1.0, 0.3):
            with pytest.raises(TransformDomainError):
                stieltjes(S200, z)
        with pytest.raises(TransformDomainError):
            t_transform(S300, 1.7)

    def test_domain_error_carries_interval(self):
        try:
            stieltjes(S200, 0.0)
        except TransformDomainError as err:
            assert err.interval == (-1.0, 1.0)
        else:  # pragma: no cover
            pytest.fail("expected TransformDomainError")

    @given(spectra, st.floats(0.1, 5.0))
    @settings(derandomize=True, max_examples=60)
    def test_t_is_z_m_minus_one(self, spectrum, gap):
        z = spectrum.lam_max + gap
        lhs = t_transform(spectrum, z)
        rhs = z * stieltjes(spectrum, z) - 1.0
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(spectra, st.floats(0.05, 2.0), st.floats(0.1, 2.0))
    @settings(derandomize=True, max_examples=60)
    def test_stieltjes_decreasing_above_bulk(self, spectrum, gap, step):
        z1 = spectrum.lam_max + gap
        z2 = z1 + step
        assert stieltjes(spectrum, z1) > stieltjes(spectrum, z2)
        assert stieltjes_deriv(spectrum, z1) < 0.0


class TestInversion:
    def test_frozen_upper_stieltjes_inverse(self):
        assert invert_stieltjes(S200, 0.6) == pytest.approx(
            1.8639418360506732, rel=1e-12
        )

    def test_frozen_lower_stieltjes_inverse(self):
        assert invert_stieltjes(S200, -0.7) == pytest.approx(
            -1.6568203685741048, rel=1e-12
        )

    def test_frozen_t_inverses(self):
        assert invert_t_transform(S300, 0.4) == pytest.approx(
            5.545255408315358, rel=1e-12
        )
        assert invert_t_transform(S300, -0.5) == pytest.approx(
            -1.379428097489793, rel=1e-12
        )
        # Strictly positive spectra attain every negative value, including
        # preimages between 0 and lam_min.
        assert invert_t_transform(S300, -1.3) == pytest.approx(
            0.2652828427727293, rel=1e-11
        )

    def test_zero_target_rejected(self):
        with pytest.raises(TransformDomainError):
            invert_stieltjes(S200, 0.0)
        with pytest.raises(TransformDomainError):
            invert_t_transform(S300, 0.0)

    def test_t_inverse_requires_psd(self):
        with pytest.raises(ModelError):
            invert_t_transform(S200, 0.5)

    def test_t_inverse_zero_spectrum_rejected(self):
        zero = SpectrumModel.from_values([0.0, 0.0])
        with pytest.raises(ModelError):
            invert_t_transform(zero, 0.5)

    def test_t_lower_branch_range_with_zero_eigenvalues(self):
        # Half the mass at zero caps the lower branch at -1/2.
        s = SpectrumModel.from_values([0.0, 0.0, 1.0, 2.0])
        z = invert_t_transform(s, -0.4)
        assert z < 0.0
        assert t_transform(s, z) == pytest.approx(-0.4, rel=1e-11)
        with pytest.raises(TransformDomainError):
            invert_t_transform(s, -0.5)
        with pytest.raises(TransformDomainError):
            invert_t_transform(s, -0.6)

    def test_unreachable_tolerance_raises(self):
        # A decreasing step has no point within the tolerance of t = 0.5, so
        # Newton steps away from the jump until the step cap.
        step = lambda z: 1.0 if z < 0.5 else -1.0
        with pytest.raises(InversionError) as info:
            _newton(step, lambda z: -1.0, 0.5, 0.25, 0.0)
        assert isinstance(info.value, (MesoSpectraError, ArithmeticError))
        assert not isinstance(info.value, TransformDomainError)

    def test_root_within_a_float_spacing_of_the_edge(self):
        # At delta = 1e-6 the root lies 2e-6 above lam_max, where f changes
        # by 3.7e-7 per float spacing, above the 1.7e-9 tolerance on t ~ 1668.
        model = Model.additive(S300)
        theta = 1.001 * check_separation(model, 1e-6, 1.0).threshold
        pert = PerturbationSpec.from_values([theta])
        (pred,) = predict(model, pert, S300.n, 1e-6)
        z = pred.location
        assert pred.separated and S300.lam_max < z < S300.lam_max + 3e-6
        spacing = np.spacing(z)
        assert stieltjes(S300, z - spacing) >= 1.0 / theta >= stieltjes(S300, z + spacing)
        frame = sample_haar_frame(S300.n, 1, RngStream(59, 0))
        op = MasterOperator(model=model, pert=pert.with_frame(frame))
        (root,) = locate_outliers(op, 1e-6)
        assert root.rank == 1 and root.location > S300.lam_max

    def test_t_root_next_to_a_tiny_eigenvalue(self):
        # The lower root sits at 2 lam_min / 3, far inside the first
        # bisection's width: only bisecting to the float spacing reaches it.
        s = SpectrumModel.from_values([1.0, 2.0**-149])
        z = invert_t_transform(s, -2.0)
        assert 0.0 < z < s.lam_min
        assert t_transform(s, z) == pytest.approx(-2.0, rel=1e-12)

    def test_lower_stieltjes_root_keeps_tiny_values(self):
        # Negated, this spectrum would pass as PSD and lose its top value to
        # clipping; the mirrored solve must see it unchanged.
        s = SpectrumModel.from_values([5e-11, 0.0])
        z = invert_stieltjes(s, -1.0)
        assert abs(stieltjes(s, z) + 1.0) <= transforms.INVERSION_RTOL

    @given(spectra, st.floats(0.05, 0.95))
    @settings(derandomize=True, max_examples=60)
    def test_stieltjes_round_trip_upper(self, spectrum, t):
        z = invert_stieltjes(spectrum, t)
        assert z > spectrum.lam_max
        assert stieltjes(spectrum, z) == pytest.approx(t, rel=1e-10)

    @given(spectra, st.floats(0.05, 0.95))
    @settings(derandomize=True, max_examples=60)
    def test_stieltjes_round_trip_lower(self, spectrum, t):
        z = invert_stieltjes(spectrum, -t)
        assert z < spectrum.lam_min
        assert stieltjes(spectrum, z) == pytest.approx(-t, rel=1e-10)

    @given(st.floats(0.05, 3.0))
    @settings(derandomize=True, max_examples=60)
    def test_t_round_trip_upper(self, t):
        z = invert_t_transform(S300, t)
        assert z > S300.lam_max
        assert t_transform(S300, z) == pytest.approx(t, rel=1e-10)


def assert_inverse(transform, spectrum, z, t):
    """``z`` solves ``transform = t`` to the inverse's residual tolerance, or
    pins the root to one float spacing: the transform decreases, so ``t``
    lies between its values at ``z`` and at one of ``z``'s neighbours."""
    f = transform(spectrum, z)
    assert (abs(f - t) <= transforms.INVERSION_RTOL * max(1.0, abs(t))
            or transform(spectrum, np.nextafter(z, -np.inf)) >= t >= f
            or f >= t >= transform(spectrum, np.nextafter(z, np.inf)))


# Eigenvalues below 1e-300 are drawn as zeros: next to a pole that close to
# the float range's floor, T' overflows and the solve raises InversionError.
psd_spectra = st.builds(
    lambda values, zeros: SpectrumModel.from_values(values + [0.0] * zeros),
    st.lists(st.floats(0.0, 3.0).map(lambda x: x if x >= 1e-300 else 0.0),
             min_size=1, max_size=40).filter(lambda v: max(v) > 0.0),
    st.sampled_from([0, 0, 1, 3]),
)


class TestTLowerBranch:
    @given(psd_spectra, st.floats(0.001, 0.999))
    @settings(derandomize=True, max_examples=200)
    def test_t_round_trip_lower(self, spectrum, u):
        # The branch attains (-q, 0) when lam_min = 0 and every negative value
        # otherwise; u in (0, 1) maps onto either range.
        if spectrum.lam_min == 0.0:
            t = -u * float(np.mean(spectrum.eigenvalues > 0.0))
        else:
            t = -u / (1.0 - u)
        z = invert_t_transform(spectrum, t)
        assert z < spectrum.lam_min
        assert_inverse(t_transform, spectrum, z, t)


ITEM_SPECTRA = {
    "semicircle": semicircle_quantiles(1000),
    "uniform": np.linspace(0.5, 2.5, 1000),
    "semicircle-spike": np.concatenate([[2.6], semicircle_quantiles(1000)[1:]]),
}


class TestNewtonSteps:
    """The monotone solve takes a handful of steps where bisection to a
    1e-13 bracket took 42-54 transform evaluations."""

    @pytest.mark.parametrize("theta", [1.05, 1.5, 2.0, 3.0, 10.0])
    @pytest.mark.parametrize("name, use_t", [(name, False) for name in ITEM_SPECTRA]
                             + [("uniform", True)])
    def test_at_most_twenty_evaluations(self, monkeypatch, name, use_t, theta):
        calls = []
        real = transforms._newton

        def counted(f, fprime, t, z, edge):
            def count(g):
                return lambda x: calls.append(x) or g(x)
            return real(count(f), count(fprime), t, z, edge)

        monkeypatch.setattr(transforms, "_newton", counted)
        spectrum = SpectrumModel.from_values(ITEM_SPECTRA[name])
        z = (invert_t_transform if use_t else invert_stieltjes)(spectrum, 1.0 / theta)
        assert 0 < len(calls) <= 20
        assert z > spectrum.lam_max
        assert_inverse(t_transform if use_t else stieltjes, spectrum, z, 1.0 / theta)

    @pytest.mark.parametrize("t", [-0.5, -0.69, -1.0])
    def test_t_root_far_from_a_tiny_eigenvalue(self, t):
        # Between 0 and lam_min = 2^-149 the bottom term runs through every
        # value below -1, so these roots lie far below it (t = -1 at z = 0).
        s = SpectrumModel.from_values([1.0, 2.0**-149])
        z = invert_t_transform(s, t)
        assert z < s.lam_min
        assert_inverse(t_transform, s, z, t)


class TestInverseMemo:
    def count_solves(self, monkeypatch) -> list:
        calls = []
        real = transforms._newton

        def counted(f, fprime, t, z, edge):
            calls.append(t)
            return real(f, fprime, t, z, edge)

        monkeypatch.setattr(transforms, "_newton", counted)
        return calls

    def test_repeated_prediction_solves_once_per_strength(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        model = Model.additive(SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200)))
        thetas = [2.4, 1.9, 0.5, -1.7, -2.2]
        verdicts = [check_separation(model, 0.1, theta) for theta in thetas]
        assert [bool(v) for v in verdicts] == [True, True, False, True, True]
        assert calls == []
        pert = PerturbationSpec.from_values(thetas)
        first = predict(model, pert, 200)
        for _ in range(3):
            again = predict(model, pert, 200)
            assert [p.location for p in again] == [p.location for p in first]
        assert [p.separation for p in first] == verdicts
        # One solve per separated strength, the first time it is predicted.
        assert len(calls) == 4

    def test_t_transform_memoized(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        s = SpectrumModel.from_values(np.linspace(0.5, 2.5, 300))
        first = [invert_t_transform(s, t) for t in (0.4, -0.5)]
        assert [invert_t_transform(s, t) for t in (0.4, -0.5)] == first
        assert calls == [0.4, -0.5]

    def test_unattainable_target_raises_every_time(self, monkeypatch):
        # Half the mass at zero caps the lower branch at -1/2.
        capped = SpectrumModel.from_values([0.0, 0.0, 1.0, 2.0])
        for _ in range(3):
            with pytest.raises(TransformDomainError):
                invert_t_transform(capped, -0.6)

        # A missed tolerance is not remembered either.
        def missed(*args):
            raise InversionError("missed")

        monkeypatch.setattr(transforms, "_newton", missed)
        s = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200))
        for _ in range(2):
            with pytest.raises(InversionError):
                invert_stieltjes(s, 0.6)
        monkeypatch.undo()
        assert stieltjes(s, invert_stieltjes(s, 0.6)) == pytest.approx(0.6)

    def test_negative_target_bits_unchanged(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        s = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200))
        # Bit patterns of the monotone Newton solve, which the memo keeps.
        assert invert_stieltjes(s, -0.7).hex() == "-0x1.a82561325f58ap+0"
        assert invert_stieltjes(s, -0.3).hex() == "-0x1.b78481e158291p+1"
        mirrored = SpectrumModel.from_values(-np.asarray(s.eigenvalues))
        assert invert_stieltjes(s, -0.7) == -invert_stieltjes(mirrored, 0.7)
        # One solve per negative target, however often it is asked for.
        assert calls == [0.7, 0.3, 0.7]


class TestClosedForms:
    def test_semicircle_stieltjes_values(self):
        # m(z) = (z - sqrt(z^2 - 4)) / 2 for z > 2.
        assert semicircle_stieltjes(2.5) == pytest.approx(0.5)
        assert semicircle_stieltjes(-2.5) == pytest.approx(-0.5)

    def test_semicircle_inverse_identity_dense(self):
        thetas = np.linspace(1.02, 6.0, 400)
        for theta in thetas:
            z = theta + 1.0 / theta
            assert semicircle_stieltjes(z) == pytest.approx(1.0 / theta, rel=1e-12)
            assert semicircle_stieltjes(-z) == pytest.approx(-1.0 / theta, rel=1e-12)

    def test_semicircle_deriv_matches_finite_difference(self):
        h = 1e-6
        for z in (2.2, 2.7, 3.5, -2.3):
            fd = (semicircle_stieltjes(z + h) - semicircle_stieltjes(z - h)) / (2 * h)
            assert semicircle_stieltjes_deriv(z) == pytest.approx(fd, rel=1e-6)

    def test_mp_edges(self):
        lo, hi = mp_edges(0.5)
        root = math.sqrt(0.5)
        assert lo == pytest.approx((1 - root) ** 2, rel=1e-15)
        assert hi == pytest.approx((1 + root) ** 2, rel=1e-15)

    def test_mp_inverse_identity_dense(self):
        for phi in (0.2, 0.5, 0.9, 0.99):
            crit = math.sqrt(phi)
            for theta in np.linspace(crit * 1.05, crit + 5.0, 200):
                z = phi + 1.0 + theta + phi / theta
                assert mp_t_transform(phi, z) == pytest.approx(1.0 / theta, rel=1e-11)

    def test_mp_deriv_matches_finite_difference(self):
        h = 1e-6
        for phi in (0.25, 0.5):
            _, hi = mp_edges(phi)
            for z in (hi + 0.3, hi + 1.0, hi + 3.0):
                fd = (mp_t_transform(phi, z + h) - mp_t_transform(phi, z - h)) / (2 * h)
                assert mp_t_transform_deriv(phi, z) == pytest.approx(fd, rel=1e-6)

    def test_mp_exact_rational_point(self):
        # phi = 1/2, z = 15/4 sits at discriminant 49/16, so T = 1/2 and
        # T' = -2/7 exactly up to rounding.
        assert mp_t_transform(0.5, 3.75) == pytest.approx(0.5, rel=1e-14)
        assert mp_t_transform_deriv(0.5, 3.75) == pytest.approx(-2.0 / 7.0, rel=1e-14)

    def test_outside_edges_required(self):
        with pytest.raises(TransformDomainError):
            semicircle_stieltjes(1.0)
        with pytest.raises(TransformDomainError):
            mp_t_transform(0.5, 1.5)


class TestFacade:
    """Inverting a closed-form transform outside the values it attains.

    The inverse is reached through `pushforward_map`: strength theta asks
    for the transform's inverse at t = 1 / theta.
    """

    def test_semicircle_invert_domain(self):
        # t = 1.2 lies beyond the semicircle bound 1; t = 0 (theta = inf)
        # is never attained.
        with pytest.raises(TransformDomainError):
            pushforward_map(Model.wigner(), 1.0 / 1.2)
        with pytest.raises(TransformDomainError):
            pushforward_map(Model.wigner(), math.inf)

    def test_mp_invert_domain(self):
        t = 1.0 / math.sqrt(0.25) + 0.5
        with pytest.raises(TransformDomainError):
            pushforward_map(Model.wishart(0.25), 1.0 / t)


class TestDensitiesAndQuantiles:
    def test_semicircle_density_normalized(self):
        x = np.linspace(-2.0, 2.0, 20001)
        mass = np.trapezoid(semicircle_density(x), x)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert semicircle_density(2.5) == 0.0

    def test_mp_density_normalized(self):
        lo, hi = mp_edges(0.5)
        x = np.linspace(lo, hi, 200001)
        mass = np.trapezoid(mp_density(0.5, x), x)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_semicircle_quantiles_frozen(self):
        got = semicircle_quantiles(5)
        want = [
            1.3740976522650814,
            0.6393830195810078,
            0.0,
            -0.6393830195810076,
            -1.374097652265081,
        ]
        assert np.max(np.abs(got - np.asarray(want))) < 1e-10

    def test_semicircle_quantiles_shape(self):
        q = semicircle_quantiles(101)
        assert q.shape == (101,)
        assert np.all(np.diff(q) <= 0)
        assert abs(float(np.mean(q))) < 1e-12
        assert q[0] < 2.0 and q[-1] > -2.0
        # Odd count puts the middle quantile at the symmetric center.
        assert q[50] == pytest.approx(0.0, abs=1e-12)

    def test_mp_quantiles_frozen(self):
        got = mp_quantiles(0.5, 4)
        want = [
            1.9709261322376141,
            1.121403756409948,
            0.5931343398720017,
            0.2377263404186231,
        ]
        assert np.max(np.abs(got - np.asarray(want))) < 1e-6

    def test_mp_quantiles_inside_edges(self):
        lo, hi = mp_edges(0.25)
        q = mp_quantiles(0.25, 50)
        assert np.all(q > lo) and np.all(q < hi)
        assert np.all(np.diff(q) <= 0)

    def test_empirical_quantiles_identity(self):
        vals = [3.0, 1.0, 2.0]
        got = empirical_quantiles(vals, 3)
        assert got.tolist() == [3.0, 2.0, 1.0]

    def test_empirical_quantiles_refine(self):
        got = empirical_quantiles([1.0, 2.0], 4)
        assert got.tolist() == [2.0, 2.0, 1.0, 1.0]

    def test_empirical_quantiles_coarsen(self):
        got = empirical_quantiles([1.0, 2.0, 3.0, 4.0], 2)
        assert got.shape == (2,)
        assert got[0] > got[1]

