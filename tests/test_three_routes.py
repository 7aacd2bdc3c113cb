"""Prediction, detection and eigensolve, cross-checked on adversarial cases.

Each instance is an orthogonally invariant sample whose strengths sit where
the routes are hardest to get right: a factor ``1 +- 10^-k`` from the
threshold strength, in clusters ``10^-k`` apart, up to ``n/2`` of them, at
margins down to ``1e-12``, on spectra whose extreme gaps are tiny.  Every
route must meet the tolerance its docstring states or raise a typed
:class:`MesoSpectraError`; an untyped exception or a silent disagreement
fails the test.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meso_spectra import (
    MasterOperator,
    MesoSpectraError,
    Model,
    PerturbationSpec,
    RngStream,
    SpectrumModel,
    locate_outliers,
    predict,
    target_index,
)
from meso_spectra.ensembles import eigensolve, sample_ensemble
from meso_spectra.partial import FILTER_TOLERANCE
from meso_spectra.predictor import check_separation
from meso_spectra.transforms import INVERSION_RTOL, stieltjes, t_transform


@st.composite
def instances(draw):
    multiplicative = draw(st.booleans())
    n = draw(st.integers(8, 200))
    values = np.linspace(0.5, 2.5, n) if multiplicative else np.linspace(-1.0, 1.0, n)
    # Tiny gaps between the two extreme eigenvalues on each side.
    values[-1] = values[-2] + 10.0 ** -draw(st.integers(1, 12))
    values[0] = values[1] - 10.0 ** -draw(st.integers(1, 12))
    spectrum = SpectrumModel.from_values(values)
    model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
    delta = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1]))

    # Ranks up to n/2, and often small enough for the partial eigensolve.
    m = draw(st.integers(1, 2) | st.integers(1, max(1, n // 2)))
    thetas = []
    while len(thetas) < m:
        upper = draw(st.booleans())
        probe = 1.0 if upper else -0.5
        threshold = check_separation(model, delta, probe).threshold
        if draw(st.booleans()) and 0.0 < threshold < math.inf:
            # A factor 1 +- 10^-k from the threshold strength.
            k = draw(st.integers(1, 12))
            theta = threshold * (1.0 + draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -k)
        else:
            theta = draw(st.floats(0.05, 4.0))
        if not upper:
            theta = -theta
        if multiplicative and theta <= -1.0:
            theta = -0.95
        # A cluster of strengths 10^-k apart.
        size = draw(st.integers(1, max(1, min(4, m - len(thetas)))))
        gap = 10.0 ** -draw(st.integers(1, 12))
        thetas.extend(theta * (1.0 + j * gap) for j in range(size))
    thetas = [t for t in thetas if not (multiplicative and t <= -1.0)] or [0.5]
    seed = draw(st.integers(0, 2**16))
    return model, delta, np.array(thetas), seed


def check_prediction(model, pert, n, delta):
    """Every separated location solves ``f(z) = 1/theta`` to the inverse's
    residual tolerance, or pins the root to one float spacing, and clears
    the edge by ``2 delta``."""
    spectrum = model.spectrum
    transform = t_transform if model.kind.multiplicative else stieltjes
    for pred in predict(model, pert, n, delta):
        if not pred.separated:
            assert pred.location is None and pred.projection_norm_sq is None
            continue
        t = 1.0 / pred.theta
        z = pred.location
        f = transform(spectrum, z)
        # f decreases, so a pinned root has t between f at z and f at one
        # of z's neighbours.
        assert (abs(f - t) <= INVERSION_RTOL * max(1.0, abs(t))
                or transform(spectrum, np.nextafter(z, -np.inf)) >= t >= f
                or f >= t >= transform(spectrum, np.nextafter(z, np.inf)))
        if pred.theta > 0.0:
            assert z > spectrum.lam_max
        else:
            assert z < spectrum.lam_min
        assert pred.projection_norm_sq > 0.0 and math.isfinite(pred.projection_norm_sq)


def route(check, *args):
    """Run one route; a typed failure is an allowed outcome, anything else
    that is raised fails the test."""
    try:
        return check(*args)
    except MesoSpectraError:
        return None


def solve(sample):
    values, _ = eigensolve(sample)
    dense = np.linalg.eigvalsh(sample.perturbed)[::-1]
    scale = max(1.0, float(np.max(np.abs(dense))))
    if values.size == sample.n:
        assert np.all(np.abs(values - dense) <= 1e-13 * scale * sample.n)
        return values, lambda rank, index: values[index - 1]
    # Partial solve: the top M+ values, then the bottom M-.
    m1 = int(np.count_nonzero(sample.thetas > 0.0))
    picked = np.concatenate([dense[:m1], dense[sample.n - (sample.m - m1):]])
    assert np.all(np.abs(values - picked) <= (FILTER_TOLERANCE + 1e-13) * scale)
    return values, lambda rank, index: values[rank - 1]


def detect(op, delta, at_index):
    """The detector searched from the predictions and from the eigensolve's
    values reaches the same outcome: the same roots to ``tol``, each within
    ``tol`` of the eigensolve, or a typed refusal from both."""
    tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
    n = op.spectrum.n
    realized = {rank: float(at_index(rank, target_index(op.pert, rank, n)))
                for rank in range(1, op.m + 1)}
    predicted = route(locate_outliers, op, delta)
    started = route(locate_outliers, op, delta, None, realized)
    assert (predicted is None) == (started is None)
    if predicted is None:
        return
    assert [r.rank for r in started] == [r.rank for r in predicted]
    for root, other in zip(predicted, started):
        assert abs(root.location - other.location) <= tol
        # The eigensolve's own error is below 1e-12 relative (its
        # certificate, or LAPACK's backward error at n <= 200).
        z = realized[root.rank]
        assert abs(root.location - z) <= tol + 1e-12 * (1.0 + abs(z))


@given(instances())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_routes_meet_their_tolerances_or_fail_typed(instance):
    model, delta, thetas, seed = instance
    n = model.spectrum.n
    pert = PerturbationSpec.from_values(thetas)
    route(check_prediction, model, pert, n, delta)
    sample = sample_ensemble(model, pert, n, RngStream(seed, 0))
    solved = route(solve, sample)
    if solved is None:
        return
    op = MasterOperator(model=model,
                        pert=PerturbationSpec.from_values(sample.thetas, sample.frame))
    detect(op, delta, solved[1])
