"""Tests for the location map, the separation test and the predictions.

Closed-form cases are checked against hand-derived rationals; empirical
cases against Brent-inversion references computed independently.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meso_spectra import (
    DEFAULT_DELTA,
    Model,
    ModelError,
    NotSeparatedError,
    PerturbationSpec,
    SpectrumModel,
    master_equation,
    predict,
    predict_location,
    predict_projection_norm,
    predictor,
    transforms,
)
from meso_spectra.experiments import config
from meso_spectra.predictor import (
    check_separation,
    predict_whitened_norm,
    pushforward_map,
    pushforward_sample,
)
from meso_spectra.transforms import (
    TransformDomainError,
    invert_stieltjes,
    invert_t_transform,
    stieltjes,
    t_transform,
)

S1K = SpectrumModel.from_values(np.linspace(0.5, 2.5, 1000))


class TestClosedFormLocations:
    def test_wigner(self):
        model = Model.wigner()
        assert predict_location(model, 2.0) == pytest.approx(2.5, rel=1e-15)
        assert predict_location(model, 1.5) == pytest.approx(1.5 + 2.0 / 3.0, rel=1e-15)
        assert predict_location(model, -2.0) == pytest.approx(-2.5, rel=1e-15)

    def test_wishart(self):
        model = Model.wishart(0.5)
        assert predict_location(model, 2.0) == pytest.approx(3.75, rel=1e-15)
        model = Model.wishart(0.25)
        assert predict_location(model, 1.0) == pytest.approx(2.5, rel=1e-15)

    def test_wigner_below_threshold(self):
        with pytest.raises(NotSeparatedError) as info:
            predict_location(Model.wigner(), 1.05)
        assert info.value.separation.threshold == pytest.approx(1.2)

    def test_wishart_below_threshold(self):
        with pytest.raises(NotSeparatedError):
            predict_location(Model.wishart(0.25), 0.55)


class TestClosedFormNorms:
    def test_wigner_projection(self):
        model = Model.wigner()
        for theta in (1.5, 2.0, 3.0, -2.5):
            want = 1.0 - 1.0 / theta**2
            assert predict_projection_norm(model, theta) == pytest.approx(
                want, rel=1e-12
            )

    def test_wishart_projection(self):
        cases = [
            (0.5, 2.0, 0.70),
            (0.25, 1.0, 0.60),
            (0.25, 2.0, 5.0 / 6.0),
        ]
        for phi, theta, want in cases:
            got = predict_projection_norm(Model.wishart(phi), theta)
            assert got == pytest.approx(want, rel=1e-12)

    def test_wishart_whitened(self):
        # phi = 1/2, theta = 2: z = 15/4, T' = -2/7, so the whitened
        # projection is -1 / (2 - 30/7) = 7/16.
        got = predict_whitened_norm(Model.wishart(0.5), 2.0)
        assert got == pytest.approx(7.0 / 16.0, rel=1e-12)

    def test_whitened_requires_multiplicative(self):
        with pytest.raises(ModelError):
            predict_whitened_norm(Model.wigner(), 2.0)
        s = SpectrumModel.from_values(np.linspace(-1, 1, 10))
        with pytest.raises(ModelError):
            predict_whitened_norm(Model.additive(s), 2.0)


class TestEmpiricalPredictions:
    def test_additive_frozen(self):
        model = Model.additive(S1K)
        assert predict_location(model, 2.8) == pytest.approx(
            4.418281788319916, rel=1e-11
        )
        assert predict_projection_norm(model, 2.8) == pytest.approx(
            0.9584651495136247, rel=1e-11
        )

    def test_multiplicative_frozen(self):
        model = Model.multiplicative(S1K)
        assert predict_location(model, 3.0) == pytest.approx(
            6.2826818953250205, rel=1e-11
        )
        assert predict_projection_norm(model, 3.0) == pytest.approx(
            0.94292008815642, rel=1e-11
        )
        assert predict_whitened_norm(model, 3.0) == pytest.approx(
            0.8050615596038857, rel=1e-11
        )

    def test_flat_unit_spectrum_exact(self):
        ones = SpectrumModel.from_values(np.ones(50))
        model = Model.multiplicative(ones)
        assert predict_location(model, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert predict_projection_norm(model, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_spectrum_additive_exact(self):
        zeros = SpectrumModel.from_values(np.zeros(30))
        model = Model.additive(zeros)
        # m(z) = 1/z, so the location is exactly theta.
        assert predict_location(model, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert predict_projection_norm(model, 2.0) == pytest.approx(1.0, abs=1e-12)


class TestPredictBatch:
    def test_mixed_separation(self):
        model = Model.additive(SpectrumModel.from_values(np.linspace(-1, 1, 300)))
        pert = PerturbationSpec.from_values([2.5, 0.9, -2.2])
        preds = predict(model, pert, 300, delta=0.15)
        assert [p.rank for p in preds] == [1, 2, 3]
        assert [p.theta for p in preds] == [2.5, 0.9, -2.2]
        assert preds[0].separated and preds[2].separated
        assert not preds[1].separated
        assert preds[1].location is None and preds[1].projection_norm_sq is None
        assert preds[0].location > 1.0
        assert preds[2].location < -1.0
        assert preds[0].target_index == 1
        assert preds[2].target_index == 300

    def test_default_delta(self):
        assert DEFAULT_DELTA == 0.1


class TestPushforward:
    def test_wigner_map(self):
        for theta in (1.3, 2.0, 4.0):
            assert pushforward_map(Model.wigner(), theta) == pytest.approx(
                theta + 1.0 / theta, rel=1e-14
            )

    def test_wishart_map(self):
        phi, theta = 0.5, 2.0
        want = phi + 1.0 + theta + phi / theta
        assert pushforward_map(Model.wishart(phi), theta) == pytest.approx(
            want, rel=1e-14
        )

    def test_closed_forms_bitwise(self):
        for theta in (1.5, 2.0, 3.0, -2.0):
            t = 1.0 / theta
            assert pushforward_map(Model.wigner(), theta) == t + 1.0 / t
        phi = 0.5
        for theta in (2.0, 0.8, -1.25):
            t = 1.0 / theta
            assert pushforward_map(Model.wishart(phi), theta) == (
                phi + 1.0 + 1.0 / t + phi * t
            )
        assert pushforward_map(Model.wishart(phi), 2.0) == pytest.approx(3.75, rel=1e-14)

    def test_map_domain_error_below_critical(self):
        with pytest.raises(TransformDomainError):
            pushforward_map(Model.wigner(), 0.9)
        for theta in (1.0 / 1.2, -0.5, math.inf):
            with pytest.raises(TransformDomainError) as info:
                pushforward_map(Model.wigner(), theta)
            assert info.value.interval == (-1.0, 1.0)
        # phi = 1/4: the MP T-transform attains [-2, 0) u (0, 2].
        for theta in (1.0 / 2.5, -0.45):
            with pytest.raises(TransformDomainError) as info:
                pushforward_map(Model.wishart(0.25), theta)
            assert info.value.interval == (-2.0, 2.0)
        with pytest.raises(ModelError):
            pushforward_map(Model.wigner(), 0.0)

    def test_empirical_map_is_the_inverse(self):
        # Separate spectrum objects, so neither side is served from the
        # other's memo.
        values = np.linspace(-1.0, 1.0, 200)
        for theta in (1 / 0.6, -2.5):
            assert pushforward_map(
                Model.additive(SpectrumModel.from_values(values)), theta
            ) == invert_stieltjes(SpectrumModel.from_values(values), 1.0 / theta)
        values = np.linspace(0.5, 2.5, 300)
        for theta in (2.5, -0.5):
            assert pushforward_map(
                Model.multiplicative(SpectrumModel.from_values(values)), theta
            ) == invert_t_transform(SpectrumModel.from_values(values), 1.0 / theta)

    def test_sample_sorted_descending(self):
        thetas = [1.5, 3.0, 2.0]
        out = pushforward_sample(Model.wigner(), thetas)
        want = sorted((t + 1.0 / t for t in thetas), reverse=True)
        assert np.allclose(out, want)
        assert np.all(np.diff(out) <= 0)

    def test_sample_empty(self):
        out = pushforward_sample(Model.wigner(), [])
        assert out.shape == (0,)


# Spectra spread over at least 0.1, so every transform value the properties
# below aim at lies well above the inverse solve's residual tolerance.
value_lists = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=40).filter(
    lambda v: max(v) - min(v) > 0.1
)
psd_value_lists = st.lists(st.floats(0.0, 2.0), min_size=2, max_size=40).filter(
    lambda v: max(v) > 0.1
)
strengths = st.floats(0.05, 4.0)


def row(pred):
    return pred.separation, pred.location, pred.projection_norm_sq


class TestHardInputs:
    @given(value_lists, st.lists(strengths, min_size=1, max_size=5),
           st.lists(st.booleans(), min_size=5, max_size=5))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_mirror_symmetry(self, values, magnitudes, signs):
        spectrum = SpectrumModel.from_values(values)
        mirror = SpectrumModel.from_values(-spectrum.eigenvalues, is_psd=False)
        thetas = [t if up else -t for t, up in zip(magnitudes, signs)]
        n = spectrum.n + len(thetas)
        preds = predict(Model.additive(spectrum), PerturbationSpec.from_values(thetas), n)
        mirrored = predict(Model.additive(mirror),
                           PerturbationSpec.from_values([-t for t in thetas]), n)
        # Negating the strengths reverses their descending order.
        for pred, twin in zip(preds, reversed(mirrored)):
            assert twin.theta == -pred.theta
            assert twin.separated == pred.separated
            if pred.separated:
                assert twin.location == -pred.location
                assert twin.projection_norm_sq == pytest.approx(
                    pred.projection_norm_sq, rel=1e-12
                )
            else:
                assert twin.location is None and pred.location is None

    @given(value_lists, st.floats(0.01, 0.3), st.booleans(), st.booleans())
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_threshold_flips_the_verdict(self, values, delta, lower, multiplicative):
        if multiplicative:
            # Only the upper side of a PSD spectrum has a threshold above -1.
            values = np.abs(values)
            lower = False
        spectrum = SpectrumModel.from_values(values)
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
        transform = t_transform if multiplicative else stieltjes
        edge = (spectrum.lam_min - 2.0 * delta) if lower else (spectrum.lam_max + 2.0 * delta)
        critical = 1.0 / transform(spectrum, edge)
        assert check_separation(model, delta, critical * (1.0 + 1e-9))
        assert not check_separation(model, delta, critical * (1.0 - 1e-9))

    @given(psd_value_lists, st.integers(1, 10),
           st.lists(st.floats(-0.99, -0.01), min_size=1, max_size=4))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_zero_floor_lower_side_never_separates(self, values, zeros, negatives):
        spectrum = SpectrumModel.from_values(list(values) + [0.0] * zeros)
        assert spectrum.lam_min == 0.0
        model = Model.multiplicative(spectrum)
        # With a zero floor the lower branch of T only reaches (-q, 0), q <= 1,
        # and 1/theta < -1 for every admissible negative strength.
        preds = predict(model, PerturbationSpec.from_values(negatives),
                        spectrum.n + len(negatives))
        for pred in preds:
            assert not pred.separated
            assert math.isnan(pred.separation.statistic)
            assert pred.location is None and pred.projection_norm_sq is None

    @given(value_lists, strengths, st.integers(2, 4), st.booleans())
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_repeated_strengths_give_equal_rows(self, values, theta, repeats, lower):
        spectrum = SpectrumModel.from_values(values)
        thetas = [-theta if lower else theta] * repeats
        preds = predict(Model.additive(spectrum), PerturbationSpec.from_values(thetas),
                        spectrum.n + repeats)
        assert all(row(pred) == row(preds[0]) for pred in preds)

    @given(st.sampled_from(["wigner", "wishart", "additive", "multiplicative"]),
           psd_value_lists, st.lists(st.floats(-0.99, 4.0).filter(lambda t: abs(t) > 0.01),
                                     min_size=1, max_size=5))
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_separated_location_is_the_map(self, kind, values, thetas):
        spectrum = SpectrumModel.from_values(values)
        model = {
            "wigner": Model.wigner(),
            "wishart": Model.wishart(0.3),
            "additive": Model.additive(spectrum),
            "multiplicative": Model.multiplicative(spectrum),
        }[kind]
        preds = predict(model, PerturbationSpec.from_values(thetas), 50)
        for pred in preds:
            if not pred.separated:
                continue
            assert pred.location == pushforward_map(model, pred.theta)
            if not model.kind.closed_form:
                assert pred.location == pred.separation.statistic


class TestOneDispatchPoint:
    def count_inversions(self, monkeypatch) -> dict:
        counts = {"invert_stieltjes": 0, "invert_t_transform": 0}
        for name in counts:
            real = getattr(transforms, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(transforms, name, counted)
        return counts

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    def test_inversions_reach_the_module_globals(self, monkeypatch, kind):
        counts = self.count_inversions(monkeypatch)
        name = "invert_stieltjes" if kind == "additive" else "invert_t_transform"
        model = getattr(Model, kind)(SpectrumModel.from_values(np.linspace(0.5, 2.5, 100)))
        assert check_separation(model, 0.1, 3.0)
        assert counts[name] == 1
        preds = predict(model, PerturbationSpec.from_values([3.0, 2.5]), 100)
        assert all(pred.separated for pred in preds)
        # Per strength: one inversion in the separation test, one (a memo
        # hit) for the location.
        assert counts[name] == 1 + 2 * len(preds)
        assert sum(counts.values()) == counts[name]

    def test_one_separation_test(self):
        assert master_equation.check_separation is predictor.check_separation
        assert config.check_separation is predictor.check_separation

    @staticmethod
    def imports(module) -> list[ast.ImportFrom]:
        tree = ast.parse(Path(module.__file__).read_text())
        return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]

    def test_spectral_core_imports_no_sibling(self):
        from meso_spectra import spectral_core

        assert [node.module for node in self.imports(spectral_core) if node.level] == []

    def test_transforms_know_no_model_kind(self):
        relative = [node for node in self.imports(transforms) if node.level]
        assert [node.module for node in relative] == ["spectral_core"]
        tree = ast.parse(Path(transforms.__file__).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in relative for alias in node.names}
        assert not names & {"Model", "ModelKind"}
