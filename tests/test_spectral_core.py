"""Tests for the core model types: spectra, perturbations, separation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meso_spectra import (
    InvalidPerturbationError,
    MasterOperator,
    Model,
    ModelError,
    ModelKind,
    NotSeparatedError,
    PerturbationSpec,
    Side,
    SpectrumModel,
    locate_outliers,
    predict,
    predict_location,
    target_index,
)
from meso_spectra.predictor import check_separation
from meso_spectra.spectral_core import Separation

RNG = np.random.default_rng(20260823)


class TestSpectrumModel:
    def test_sorts_descending(self):
        s = SpectrumModel.from_values([0.5, -1.0, 2.0, 0.0])
        assert s.eigenvalues.tolist() == [2.0, 0.5, 0.0, -1.0]

    def test_canonical_order_is_input_independent(self):
        vals = RNG.normal(size=40)
        a = SpectrumModel.from_values(vals)
        b = SpectrumModel.from_values(np.sort(vals))
        assert a == b

    def test_basic_properties(self):
        s = SpectrumModel.from_values([-3.0, 1.0, 2.0])
        assert s.n == 3
        assert s.lam_max == 2.0
        assert s.lam_min == -3.0
        assert s.norm_bound == 3.0

    def test_psd_inferred(self):
        assert SpectrumModel.from_values([0.0, 1.0]).is_psd
        assert not SpectrumModel.from_values([-0.5, 1.0]).is_psd

    def test_tiny_negative_clipped_when_declared_psd(self):
        s = SpectrumModel.from_values([1.0, -1e-14], is_psd=True)
        assert s.is_psd
        assert s.lam_min == 0.0

    def test_declared_psd_with_negative_rejected(self):
        with pytest.raises(ModelError):
            SpectrumModel.from_values([1.0, -0.5], is_psd=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ModelError):
            SpectrumModel.from_values([1.0, np.nan])
        with pytest.raises(ModelError):
            SpectrumModel.from_values([np.inf])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            SpectrumModel.from_values([])

    def test_eigenvalues_read_only(self):
        s = SpectrumModel.from_values([1.0, 2.0])
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 5.0

    def test_direct_construction_freezes_a_copy(self):
        values = np.array([2.0, 1.0])
        s = SpectrumModel(eigenvalues=values, is_psd=True)
        values[0] = 5.0
        assert s.eigenvalues.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 5.0

    def test_equality_and_unhashable(self):
        a = SpectrumModel.from_values([1.0, 2.0])
        b = SpectrumModel.from_values([2.0, 1.0])
        c = SpectrumModel.from_values([2.0, 1.5])
        assert a == b
        assert a != c
        assert a != "not a spectrum"
        with pytest.raises(TypeError):
            hash(a)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(derandomize=True, max_examples=50)
    def test_descending_invariant(self, values):
        s = SpectrumModel.from_values(values)
        assert np.all(np.diff(s.eigenvalues) <= 0)


class TestPerturbationSpec:
    def test_sorts_descending(self):
        p = PerturbationSpec.from_values([1.0, -2.0, 3.0])
        assert p.thetas.tolist() == [3.0, 1.0, -2.0]
        assert p.m == 3
        assert p.m_positive == 2

    def test_frame_columns_follow_thetas(self):
        frame = np.eye(4)[:, :2]
        p = PerturbationSpec.from_values([1.0, 2.0], frame=frame)
        # Strength 2 leads after sorting, so its column (e2) must lead too.
        assert p.thetas.tolist() == [2.0, 1.0]
        assert np.allclose(p.frame[:, 0], np.eye(4)[:, 1])
        assert np.allclose(p.frame[:, 1], np.eye(4)[:, 0])

    def test_zero_strength_rejected(self):
        with pytest.raises(InvalidPerturbationError):
            PerturbationSpec.from_values([1.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ModelError):
            PerturbationSpec.from_values([np.inf])

    def test_empty_means_rank_zero(self):
        p = PerturbationSpec.from_values([])
        assert p.m == 0 and p.m_positive == 0

    def test_non_orthonormal_frame_rejected(self):
        frame = np.ones((4, 2)) / 2.0
        with pytest.raises(ModelError):
            PerturbationSpec.from_values([1.0, 2.0], frame=frame)

    def test_frame_width_must_match(self):
        with pytest.raises(ModelError):
            PerturbationSpec.from_values([1.0], frame=np.eye(3)[:, :2])

    def test_with_frame(self):
        p = PerturbationSpec.from_values([2.0, 1.0])
        assert p.frame is None
        q = p.with_frame(np.eye(5)[:, :2])
        assert q.frame is not None and q.frame.shape == (5, 2)
        assert q.thetas.tolist() == p.thetas.tolist()

    def test_norm_bound(self):
        p = PerturbationSpec.from_values([1.0, -3.0])
        assert p.norm_bound == 3.0


BAD_DELTAS = [0.0, -1.0, math.nan, math.inf]
DELTA_MESSAGE = "delta must be positive and finite"


@pytest.mark.parametrize("delta", BAD_DELTAS, ids=["zero", "negative", "nan", "inf"])
class TestDeltaMargin:
    """Every entry point taking a separation margin rejects a bad one."""

    def test_check_separation(self, delta):
        additive = Model.additive(SpectrumModel.from_values(np.linspace(-1, 1, 50)))
        for model in (Model.wigner(), additive):
            with pytest.raises(ModelError, match=DELTA_MESSAGE):
                check_separation(model, delta, 3.0)

    def test_predict(self, delta):
        model = Model.wigner()
        with pytest.raises(ModelError, match=DELTA_MESSAGE):
            predict(model, PerturbationSpec.from_values([3.0, -2.0]), 10, delta)
        with pytest.raises(ModelError, match=DELTA_MESSAGE):
            predict(model, PerturbationSpec.from_values([]), 10, delta)
        with pytest.raises(ModelError, match=DELTA_MESSAGE):
            predict_location(model, 3.0, delta)

    def test_locate_outliers(self, delta):
        spectrum = SpectrumModel.from_values(np.linspace(-1, 1, 20))
        op = MasterOperator(model=Model.additive(spectrum),
                            pert=PerturbationSpec.from_values([3.0]))
        # The lower side has no ranks to test, and still rejects delta.
        for side in (Side.UPPER, Side.LOWER):
            with pytest.raises(ModelError, match=DELTA_MESSAGE):
                locate_outliers(op, delta, side)
        empty = MasterOperator(model=Model.additive(spectrum),
                               pert=PerturbationSpec.from_values([]))
        with pytest.raises(ModelError, match=DELTA_MESSAGE):
            locate_outliers(empty, delta, Side.UPPER)


class TestWindowAndModel:
    def test_wigner_and_wishart_constructors(self):
        assert Model.wigner().kind is ModelKind.WIGNER
        m = Model.wishart(0.5)
        assert m.kind is ModelKind.WISHART
        assert m.p_for(1000) == 2000
        assert Model.wishart(0.5, p=1500).p_for(700) == 1500

    def test_wishart_phi_validated(self):
        with pytest.raises(ModelError):
            Model.wishart(0.0)
        with pytest.raises(ModelError):
            Model.wishart(1.5)

    def test_empirical_kinds_require_spectrum(self):
        s = SpectrumModel.from_values(np.linspace(0.1, 2.0, 10))
        assert Model.additive(s).kind is ModelKind.ORTH_INVARIANT_ADDITIVE
        assert Model.multiplicative(s).kind is ModelKind.ORTH_INVARIANT_MULTIPLICATIVE

    def test_multiplicative_requires_psd_spectrum(self):
        s = SpectrumModel.from_values([-1.0, 1.0])
        with pytest.raises(ModelError):
            Model.multiplicative(s)

    def test_kind_flags(self):
        assert ModelKind.WIGNER.additive and ModelKind.WIGNER.closed_form
        assert ModelKind.WISHART.multiplicative and ModelKind.WISHART.closed_form
        assert ModelKind.ORTH_INVARIANT_ADDITIVE.additive
        assert not ModelKind.ORTH_INVARIANT_ADDITIVE.closed_form
        assert ModelKind.ORTH_INVARIANT_MULTIPLICATIVE.multiplicative


class TestSeparation:
    def test_wigner_threshold(self):
        model = Model.wigner()
        assert check_separation(model, 0.2, 1.5)
        assert not check_separation(model, 0.2, 1.3)
        verdict = check_separation(model, 0.2, 1.3)
        assert verdict.threshold == pytest.approx(1.4)
        assert verdict.statistic == pytest.approx(1.3)

    def test_wigner_negative_theta_side(self):
        verdict = check_separation(Model.wigner(), 0.1, -2.0)
        assert verdict and verdict.side is Side.LOWER

    def test_wishart_threshold(self):
        model = Model.wishart(0.25)
        # Threshold sqrt(phi) + 2 delta = 0.7.
        assert check_separation(model, 0.1, 0.75)
        assert not check_separation(model, 0.1, 0.65)

    def test_empirical_separation_uses_transform_inverse(self):
        s = SpectrumModel.from_values(np.linspace(-1, 1, 200))
        model = Model.additive(s)
        # m^{-1}(1/2) = 1.864 clears lam_max + 2 delta = 1.2.
        verdict = check_separation(model, 0.1, 2.0)
        assert verdict and verdict.side is Side.UPPER
        assert verdict.statistic == pytest.approx(2.1655734072361854, rel=1e-12)

    def test_empirical_not_separated_marginal_theta(self):
        s = SpectrumModel.from_values(np.linspace(-1, 1, 400))
        model = Model.additive(s)
        assert not check_separation(model, 0.5, 1.05)

    def test_unattainable_inverse_reports_not_separated(self):
        s = SpectrumModel.from_values(np.linspace(0.5, 2.5, 100))
        model = Model.multiplicative(s)
        # 1/theta = -25 is solved just under lam_min, inside the 2 delta
        # margin, so the verdict must be negative.
        verdict = check_separation(model, 0.1, -0.04)
        assert not verdict

    def test_zero_theta_rejected(self):
        with pytest.raises(InvalidPerturbationError):
            check_separation(Model.wigner(), 0.1, 0.0)

    def test_multiplicative_theta_floor(self):
        s = SpectrumModel.from_values(np.linspace(0.5, 2.5, 50))
        model = Model.multiplicative(s)
        with pytest.raises(InvalidPerturbationError):
            check_separation(model, 0.1, -1.0)

    def test_separation_bool_protocol(self):
        good = Separation(separated=True, side=Side.UPPER, statistic=2.0, threshold=1.4)
        bad = Separation(separated=False, side=Side.UPPER, statistic=1.0, threshold=1.4)
        assert bool(good) and not bool(bad)

    def test_not_separated_error_carries_verdict(self):
        verdict = Separation(separated=False, side=Side.UPPER, statistic=1.0, threshold=1.4)
        err = NotSeparatedError("too weak", verdict)
        assert err.separation is verdict


class TestTargetIndex:
    def test_mixed_signs(self):
        p = PerturbationSpec.from_values([2.4, 2.0, -1.9, -2.4])
        n = 100
        # Positive strengths map to the top of the spectrum in rank order.
        assert target_index(p, 1, n) == 1
        assert target_index(p, 2, n) == 2
        # Negative strengths map to the bottom, most negative last.
        assert target_index(p, 3, n) == 99
        assert target_index(p, 4, n) == 100

    def test_all_negative(self):
        p = PerturbationSpec.from_values([-1.5, -2.5])
        assert target_index(p, 1, 10) == 9
        assert target_index(p, 2, 10) == 10

    def test_rank_out_of_range(self):
        p = PerturbationSpec.from_values([2.0])
        with pytest.raises(IndexError):
            target_index(p, 0, 10)
        with pytest.raises(IndexError):
            target_index(p, 2, 10)

    def test_rank_exceeding_size(self):
        p = PerturbationSpec.from_values([2.0, 1.0, -1.0])
        with pytest.raises(ModelError):
            target_index(p, 1, 2)
