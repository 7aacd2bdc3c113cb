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
    ModelKind,
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
from meso_spectra import cli
from meso_spectra.experiments import config, harness
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
            # No admissible strength (|theta| < 1) reaches the threshold.
            assert pred.separation.threshold > 1.0
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
                # The threshold strength puts the location 2 delta clear of
                # the edge, up to the inverse solve's residual.
                margin = 2.0 * DEFAULT_DELTA - 1e-9
                if pred.theta > 0.0:
                    assert pred.location >= spectrum.lam_max + margin
                else:
                    assert pred.location <= spectrum.lam_min - margin


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
        # The separation test evaluates the transform once and inverts nothing.
        assert check_separation(model, 0.1, 3.0)
        assert counts[name] == 0
        preds = predict(model, PerturbationSpec.from_values([3.0, 2.5, 0.1]), 100)
        assert [pred.separated for pred in preds] == [True, True, False]
        # One inversion per separated strength, for its location.
        assert counts[name] == 2
        assert sum(counts.values()) == counts[name]

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    def test_verdicts_never_invert(self, monkeypatch, kind):
        model = getattr(Model, kind)(SpectrumModel.from_values(np.linspace(0.5, 2.5, 100)))
        thetas = [3.0, 0.9, 0.2, 0.01, -0.5, -0.9]
        before = [check_separation(model, delta, theta)
                  for delta in (1e-17, 1e-6, 0.1) for theta in thetas]

        def broken(*args):
            raise AssertionError("a verdict inverted a transform")

        for name in ("invert_stieltjes", "invert_t_transform"):
            monkeypatch.setattr(transforms, name, broken)
        after = [check_separation(model, delta, theta)
                 for delta in (1e-17, 1e-6, 0.1) for theta in thetas]
        assert after == before

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    def test_one_edge_evaluation_per_margin_and_side(self, monkeypatch, kind):
        # The threshold depends on the margin and the side alone: repeated
        # verdicts on one spectrum evaluate its edge transform once for each
        # and give the bits of verdicts on fresh spectra.
        values, deltas = np.linspace(0.5, 2.5, 100), (1e-6, 0.1)
        thetas = [3.0, 0.9, 0.2, -0.5, -0.9]

        def fresh():
            return getattr(Model, kind)(SpectrumModel.from_values(values))

        alone = [check_separation(fresh(), delta, theta)
                 for delta in deltas for theta in thetas]
        name = "t_transform" if kind == "multiplicative" else "stieltjes"
        real, points = getattr(transforms, name), []

        def evaluated(spectrum, z):
            points.append(z)
            return real(spectrum, z)

        monkeypatch.setattr(transforms, name, evaluated)
        model = fresh()
        for _ in range(3):
            assert [check_separation(model, delta, theta)
                    for delta in deltas for theta in thetas] == alone
        assert len(points) == 2 * len(deltas)

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


class TestOneKindTable:
    """Outside the predictor's table, a layer reads a kind through its traits."""

    @pytest.mark.parametrize("module", [predictor, config, harness, master_equation, cli],
                             ids=lambda module: module.__name__.rsplit(".", 1)[-1])
    def test_layers_name_no_kind_member(self, module):
        tree = ast.parse(Path(module.__file__).read_text())
        named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "ModelKind"}
        assert not named & set(ModelKind.__members__)

    def test_one_rule_per_kind(self):
        assert sorted(predictor._RULES) == sorted(kind.value for kind in ModelKind)


# Pinned bits, as float.hex, of each strength's separation threshold, its
# predicted location, projection_norm_sq and whitened_norm_sq (None where
# predict gives None), and its pushforward_map ("domain" where that raises
# TransformDomainError), at margin GOLDEN_DELTA on size GOLDEN_N.  Each kind
# has an upper and a lower strength and a subcritical one; 1.25 (Wigner) and
# 0.75 (Wishart) sit exactly on their threshold, the critical value + 2 delta.
# The orthogonally invariant rows are those of the monotone Newton inversions.
GOLDEN_DELTA, GOLDEN_N = 0.125, 40
GOLDEN_MODELS = {
    "wigner": Model.wigner(),
    "wishart": Model.wishart(0.25),
    "orth-invariant-additive": Model.additive(
        SpectrumModel.from_values(np.linspace(-1.0, 1.0, GOLDEN_N))),
    "orth-invariant-multiplicative": Model.multiplicative(
        SpectrumModel.from_values(np.linspace(0.5, 2.5, GOLDEN_N))),
}
GOLDEN_PREDICTIONS = {
    "wigner": {
        2.5: ("0x1.4000000000000p+0", "0x1.7333333333333p+1", "0x1.ae147ae147ae1p-1",
              None, "0x1.7333333333333p+1"),
        1.25: ("0x1.4000000000000p+0", "0x1.0666666666666p+1", "0x1.70a3d70a3d704p-2",
               None, "0x1.0666666666666p+1"),
        0.9: ("0x1.4000000000000p+0", None, None, None, "domain"),
        -2.0: ("0x1.4000000000000p+0", "-0x1.4000000000000p+1", "0x1.7ffffffffffffp-1",
               None, "-0x1.4000000000000p+1"),
    },
    "wishart": {
        2.0: ("0x1.8000000000000p-1", "0x1.b000000000000p+1", "0x1.aaaaaaaaaaaacp-1",
              "0x1.4000000000003p-1", "0x1.b000000000000p+1"),
        0.75: ("0x1.8000000000000p-1", "0x1.2aaaaaaaaaaabp+1", "0x1.aaaaaaaaaaab5p-2",
               "0x1.28cfc4a33f132p-2", "0x1.2aaaaaaaaaaabp+1"),
        0.5: ("0x1.8000000000000p-1", None, None, None, "0x1.2000000000000p+1"),
        -0.8: ("0x1.8000000000000p-1", "0x1.1999999999998p-3", "0x1.c5d1745d1745cp-1",
               "0x1.f333333333334p-1", "0x1.1999999999998p-3"),
    },
    "orth-invariant-additive": {
        2.0: ("0x1.c5bf0f801135dp-1", "0x1.160a7966461dbp+1", "0x1.d56d514933f54p-1",
              None, "0x1.160a7966461dbp+1"),
        0.3: ("0x1.c5bf0f801135dp-1", None, None, None, "0x1.04595b5bda55cp+0"),
        -1.5: ("0x1.c5bf0f801135dp-1", "-0x1.ba01f23786784p+0", "0x1.b74100d79f99fp-1",
               None, "-0x1.ba01f23786784p+0"),
    },
    "orth-invariant-multiplicative": {
        3.0: ("0x1.e6e91e220acd7p-2", "0x1.92f043cb9eb26p+2", "0x1.e189ea2b94747p-1",
              "0x1.989bced2c87fap-1", "0x1.92f043cb9eb26p+2"),
        0.2: ("0x1.e6e91e220acd7p-2", None, None, None, "0x1.44bed28d7795ep+1"),
        -0.9: ("0x1.8f58993621e33p-1", "0x1.e826f7c393131p-4", "0x1.ef01c58baefbbp-1",
               "0x1.fe3f952887875p-1", "0x1.e826f7c393131p-4"),
    },
}


def golden_row(model, pred) -> tuple:
    def hexed(value):
        return None if value is None else float.hex(value)

    try:
        mapped = hexed(pushforward_map(model, pred.theta))
    except TransformDomainError:
        mapped = "domain"
    threshold = check_separation(model, GOLDEN_DELTA, pred.theta).threshold
    return (hexed(threshold), hexed(pred.location), hexed(pred.projection_norm_sq),
            hexed(pred.whitened_norm_sq), mapped)


class TestGoldenPredictions:
    @pytest.mark.parametrize("kind", GOLDEN_PREDICTIONS)
    def test_bits(self, kind):
        model, golden = GOLDEN_MODELS[kind], GOLDEN_PREDICTIONS[kind]
        preds = predict(model, PerturbationSpec.from_values(list(golden)), GOLDEN_N,
                        GOLDEN_DELTA)
        assert {pred.theta: golden_row(model, pred) for pred in preds} == golden
        assert [pred.separated for pred in preds] == [
            row[1] is not None for row in golden.values()]
