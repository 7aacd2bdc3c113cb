"""First-order predictions for separated outliers.

Locations come from inverting the governing transform at ``1/theta``; the
squared projection of a perturbed eigenvector onto the perturbation frame
comes from the derivative of the same transform at that location:

    additive:        |v|^2 ~ -1 / (theta^2 m'(z))
    multiplicative:  |v|^2 ~ -(theta + 1) / (theta^2 z T'(z))

with ``z`` the predicted location.  Every function refuses to predict for a
strength that fails the separation test rather than extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    Model,
    ModelError,
    NotSeparatedError,
    PerturbationSpec,
    Separation,
    SpectralWindow,
    check_separation,
    target_index,
)
from .transforms import Transform, transform_for

__all__ = [
    "DEFAULT_DELTA",
    "OutlierPrediction",
    "predict_location",
    "predict_projection_norm",
    "predict_whitened_norm",
    "predict",
    "pushforward_map",
    "pushforward_sample",
]

DEFAULT_DELTA = 0.1


@dataclass(frozen=True)
class OutlierPrediction:
    """Prediction for one strength: where its outlier sits and how it projects.

    ``location`` and ``projection_norm_sq`` are ``None`` exactly when the
    strength is not separated.  ``target_index`` is the 1-based position the
    outlier claims in the descending eigenvalue list.  ``formula`` names the
    transform used (``semicircle``, ``marchenko-pastur``,
    ``empirical-stieltjes``, or ``empirical-t``).
    """

    rank: int
    theta: float
    target_index: int
    separation: Separation
    location: float | None
    projection_norm_sq: float | None
    formula: str

    @property
    def separated(self) -> bool:
        return self.separation.separated


def _predict_one(model: Model, window: SpectralWindow, tf: Transform, theta: float):
    """``(verdict, location, squared projection)`` for one strength; the last
    two are ``None`` when it is not separated."""
    verdict = check_separation(model, window, theta)
    if not verdict:
        return verdict, None, None
    if model.kind.closed_form:
        z = tf.invert(1.0 / theta)
    else:
        # For empirical kinds the separation statistic already is the location.
        z = verdict.statistic
    if model.kind.additive:
        norm_sq = -1.0 / (theta * theta * tf.deriv(z))
    else:
        norm_sq = -(theta + 1.0) / (theta * theta * z * tf.deriv(z))
    return verdict, z, norm_sq


def _predict_separated(model: Model, theta: float, delta: float):
    """``(transform, location, squared projection)``; raises below the threshold."""
    tf = transform_for(model)
    verdict, z, norm_sq = _predict_one(model, model.window(delta), tf, theta)
    if not verdict:
        raise NotSeparatedError(
            f"theta={theta:g} fails the separation test "
            f"(statistic {verdict.statistic:g} vs threshold {verdict.threshold:g})",
            verdict,
        )
    return tf, z, norm_sq


def predict_location(model: Model, theta: float, delta: float = DEFAULT_DELTA) -> float:
    """Predicted outlier location ``z`` for a separated strength.

    Wigner: ``theta + 1/theta``.  Wishart: ``phi + 1 + theta + phi/theta``.
    Empirical kinds solve ``m(z) = 1/theta`` or ``T(z) = 1/theta`` outside
    the bulk.  Raises :class:`NotSeparatedError` below the threshold.
    """
    return _predict_separated(model, theta, delta)[1]


def predict_projection_norm(model: Model, theta: float, delta: float = DEFAULT_DELTA) -> float:
    """Predicted squared projection of the outlier's eigenvector onto the frame."""
    return _predict_separated(model, theta, delta)[2]


def predict_whitened_norm(model: Model, theta: float, delta: float = DEFAULT_DELTA) -> float:
    """Squared frame projection of the whitened eigenvector (multiplicative).

    The whitened vector is ``(I + P)^(-1/2) v`` renormalized; its squared
    projection is ``-1 / (theta + theta^2 z T'(z))``.  Only defined for
    multiplicative kinds.
    """
    if not model.kind.multiplicative:
        raise ModelError("whitened projections only exist for multiplicative kinds")
    tf, z, _ = _predict_separated(model, theta, delta)
    return -1.0 / (theta + theta * theta * z * tf.deriv(z))


def predict(
    model: Model,
    pert: PerturbationSpec,
    n: int,
    delta: float = DEFAULT_DELTA,
) -> list[OutlierPrediction]:
    """Predictions for every strength of ``pert``, separated or not.

    Non-separated strengths appear with ``location`` and
    ``projection_norm_sq`` set to ``None`` so callers can report them without
    special-casing exceptions.
    """
    tf = transform_for(model)
    window = model.window(delta)
    out: list[OutlierPrediction] = []
    for i, theta in enumerate(pert.thetas, start=1):
        theta = float(theta)
        verdict, z, norm_sq = _predict_one(model, window, tf, theta)
        out.append(
            OutlierPrediction(
                rank=i,
                theta=theta,
                target_index=target_index(pert, i, n),
                separation=verdict,
                location=z,
                projection_norm_sq=norm_sq,
                formula=tf.label,
            )
        )
    return out


def pushforward_map(model: Model, theta: float) -> float:
    """The location map ``theta -> z(theta)`` without a separation margin.

    Raises a transform domain error when ``1/theta`` is not attained, i.e.
    when the strength is subcritical.
    """
    if theta == 0.0:
        raise ModelError("theta must be nonzero")
    return transform_for(model).invert(1.0 / theta)


def pushforward_sample(model: Model, thetas) -> np.ndarray:
    """Push a sample of strengths through the location map, descending.

    This is the deterministic image that the extreme eigenvalues of a
    mesoscopic-rank perturbation approach in Wasserstein-1 distance.
    """
    thetas = np.asarray(thetas, dtype=float)
    out = np.array([pushforward_map(model, float(t)) for t in thetas])
    return np.sort(out)[::-1]
