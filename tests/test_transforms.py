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
    MesoSpectraError,
    Model,
    ModelError,
    SpectrumModel,
    TransformDomainError,
    empirical_quantiles,
    empirical_stieltjes_transform,
    empirical_t_transform,
    invert_stieltjes,
    invert_t_transform,
    marchenko_pastur_transform,
    mp_density,
    mp_edges,
    mp_quantiles,
    mp_t_transform,
    mp_t_transform_deriv,
    semicircle_density,
    semicircle_quantiles,
    semicircle_stieltjes,
    semicircle_stieltjes_deriv,
    semicircle_transform,
    stieltjes,
    stieltjes_deriv,
    t_transform,
    t_transform_deriv,
    transform_for,
)
from meso_spectra.transforms import _bisect_newton

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
        # A decreasing step has no point within the tolerance of t = 0, so
        # bisection and Newton both stall at the jump.
        step = lambda z: 1.0 if z < 0.5 else -1.0
        with pytest.raises(InversionError) as info:
            _bisect_newton(step, lambda z: -1.0, 0.0, 0.0, 1.0)
        assert isinstance(info.value, (MesoSpectraError, ArithmeticError))
        assert not isinstance(info.value, TransformDomainError)

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


class TestFacade:
    def test_labels(self):
        assert transform_for(Model.wigner()).label == "semicircle"
        assert transform_for(Model.wishart(0.5)).label == "marchenko-pastur"
        assert transform_for(Model.additive(S200)).label == "empirical-stieltjes"
        assert transform_for(Model.multiplicative(S300)).label == "empirical-t"

    def test_closed_inverse_bitwise_formulas(self):
        tf = semicircle_transform()
        for theta in (1.5, 2.0, 3.0, -2.0):
            t = 1.0 / theta
            assert tf.invert(t) == pytest.approx(theta + 1.0 / theta, rel=1e-14)
        mp = marchenko_pastur_transform(0.5)
        assert mp.invert(0.5) == pytest.approx(3.75, rel=1e-14)

    def test_semicircle_invert_domain(self):
        tf = semicircle_transform()
        with pytest.raises(TransformDomainError):
            tf.invert(1.2)
        with pytest.raises(TransformDomainError):
            tf.invert(0.0)

    def test_mp_invert_domain(self):
        mp = marchenko_pastur_transform(0.25)
        with pytest.raises(TransformDomainError):
            mp.invert(1.0 / math.sqrt(0.25) + 0.5)

    def test_empirical_facades_match_functions(self):
        tf = empirical_stieltjes_transform(S200)
        assert tf.value(1.5) == stieltjes(S200, 1.5)
        assert tf.deriv(1.5) == stieltjes_deriv(S200, 1.5)
        assert tf.invert(0.6) == invert_stieltjes(S200, 0.6)
        tt = empirical_t_transform(S300)
        assert tt.value(3.0) == t_transform(S300, 3.0)
        assert tt.invert(0.4) == invert_t_transform(S300, 0.4)
