"""The separation test, the location map, and first-order predictions.

A model's kind decides the transform that governs its outliers: the
semicircle Stieltjes transform (Wigner), the Marchenko-Pastur T-transform
(Wishart), or the empirical Stieltjes or T-transform of the base spectrum
(orthogonally invariant additive or multiplicative).  This module is the one
place that makes that decision.  :func:`check_separation` compares
``|theta|`` with a threshold strength (for empirical kinds, from one
transform evaluation); :func:`pushforward_map` inverts the transform at
``1/theta`` for a separated strength, giving its outlier's location; the
squared projection of a perturbed eigenvector onto the perturbation frame
comes from the derivative of the same transform at that location:

    additive:        |v|^2 ~ -1 / (theta^2 m'(z))
    multiplicative:  |v|^2 ~ -(theta + 1) / (theta^2 z T'(z))

with ``z`` the predicted location.  Every prediction refuses a strength that
fails the separation test rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transforms
from .spectral_core import (
    InvalidPerturbationError,
    Model,
    ModelError,
    ModelKind,
    NotSeparatedError,
    PerturbationSpec,
    Separation,
    Side,
    _check_delta,
    target_index,
)

__all__ = [
    "DEFAULT_DELTA",
    "OutlierPrediction",
    "check_separation",
    "predict_location",
    "predict_projection_norm",
    "predict_whitened_norm",
    "predict",
    "pushforward_map",
    "pushforward_sample",
]

DEFAULT_DELTA = 0.1


def _validate_theta(model: Model, theta: float) -> None:
    if theta == 0.0 or not math.isfinite(theta):
        raise InvalidPerturbationError(f"theta must be finite and nonzero, got {theta}")
    if model.kind.multiplicative and theta <= -1.0:
        raise InvalidPerturbationError(
            f"multiplicative strengths must exceed -1, got {theta}"
        )


def check_separation(model: Model, delta: float, theta: float) -> Separation:
    """Decide whether strength ``theta`` detaches an outlier from the bulk.

    It does when ``|theta|`` reaches the threshold strength at margin
    ``delta``: the critical value plus ``2 * delta`` for closed-form kinds,
    and for empirical kinds the strength whose location clears the edge by
    ``2 * delta``, from one transform evaluation and no inverse.  Raises
    :class:`ModelError` unless ``delta`` is positive and finite.
    """
    _check_delta(delta)
    _validate_theta(model, theta)
    upper = theta > 0.0
    if model.kind.closed_form:
        threshold = _critical(model) + 2.0 * delta
    else:
        threshold = transforms._separation_threshold(model.spectrum, delta, upper,
                                                     model.kind.multiplicative)
    ok = abs(theta) >= threshold
    return Separation(ok, (Side.UPPER if upper else Side.LOWER) if ok else None, threshold)


@dataclass(frozen=True)
class OutlierPrediction:
    """Prediction for one strength: where its outlier sits and how it projects.

    ``location`` and ``projection_norm_sq`` are ``None`` exactly when the
    strength is not separated, and ``whitened_norm_sq`` (see
    :func:`predict_whitened_norm`) also for an additive kind.
    ``target_index`` is the 1-based position the outlier claims in the
    descending eigenvalue list.
    """

    rank: int
    theta: float
    target_index: int
    separation: Separation
    location: float | None
    projection_norm_sq: float | None
    whitened_norm_sq: float | None

    @property
    def separated(self) -> bool:
        return self.separation.separated


def _predict_one(model: Model, delta: float, theta: float):
    """``(verdict, location, squared projection, whitened one)`` for one
    strength; the last three are ``None`` when it is not separated, and the
    whitened one also for an additive kind."""
    verdict = check_separation(model, delta, theta)
    if not verdict:
        return verdict, None, None, None
    z = pushforward_map(model, theta)
    slope = _slope(model, z)
    if model.kind.additive:
        return verdict, z, -1.0 / (theta * theta * slope), None
    norm_sq = -(theta + 1.0) / (theta * theta * z * slope)
    return verdict, z, norm_sq, -1.0 / (theta + theta * theta * z * slope)


def _predict_separated(model: Model, theta: float, delta: float):
    """``(location, squared projection, whitened one)``; raises below the
    threshold."""
    verdict, *predicted = _predict_one(model, delta, theta)
    if not verdict:
        raise NotSeparatedError(
            f"theta={theta:g} fails the separation test "
            f"(|theta| below the threshold {verdict.threshold:g})",
            verdict,
        )
    return predicted


def predict_location(model: Model, theta: float, delta: float = DEFAULT_DELTA) -> float:
    """Predicted outlier location ``z`` for a separated strength.

    Wigner: ``theta + 1/theta``.  Wishart: ``phi + 1 + theta + phi/theta``.
    Empirical kinds solve ``m(z) = 1/theta`` or ``T(z) = 1/theta`` outside
    the bulk.  Raises :class:`NotSeparatedError` when ``theta`` fails the
    separation test at margin ``delta`` (see :func:`check_separation`).
    """
    return _predict_separated(model, theta, delta)[0]


def predict_projection_norm(model: Model, theta: float, delta: float = DEFAULT_DELTA) -> float:
    """Predicted squared projection of the outlier's eigenvector onto the frame.

    Raises :class:`NotSeparatedError` as :func:`predict_location` does.
    """
    return _predict_separated(model, theta, delta)[1]


def predict_whitened_norm(model: Model, theta: float, delta: float = DEFAULT_DELTA) -> float:
    """Squared frame projection of the whitened eigenvector (multiplicative).

    The whitened vector is ``(I + P)^(-1/2) v`` renormalized; its squared
    projection is ``-1 / (theta + theta^2 z T'(z))``.  Only defined for
    multiplicative kinds; raises :class:`NotSeparatedError` as
    :func:`predict_location` does.
    """
    if not model.kind.multiplicative:
        raise ModelError("whitened projections only exist for multiplicative kinds")
    return _predict_separated(model, theta, delta)[2]


def predict(
    model: Model,
    pert: PerturbationSpec,
    n: int,
    delta: float = DEFAULT_DELTA,
) -> list[OutlierPrediction]:
    """Predictions for every strength of ``pert``, separated or not.

    Each strength is tested at margin ``delta``.  Non-separated strengths
    appear with ``location`` and ``projection_norm_sq`` set to ``None`` so
    callers can report them without special-casing exceptions.  ``delta``
    must be positive and finite even when ``pert`` has rank zero.
    """
    _check_delta(delta)
    out: list[OutlierPrediction] = []
    for i, theta in enumerate(pert.thetas, start=1):
        theta = float(theta)
        verdict, z, norm_sq, whitened = _predict_one(model, delta, theta)
        out.append(
            OutlierPrediction(
                rank=i,
                theta=theta,
                target_index=target_index(pert, i, n),
                separation=verdict,
                location=z,
                projection_norm_sq=norm_sq,
                whitened_norm_sq=whitened,
            )
        )
    return out


def _critical(model: Model) -> float:
    """Critical strength of a closed-form kind (the BBP threshold)."""
    return 1.0 if model.kind is ModelKind.WIGNER else math.sqrt(model.phi)


def pushforward_map(model: Model, theta: float) -> float:
    """The location map ``theta -> z(theta)`` without a separation margin.

    This is the kind's transform inverted at ``1/theta``: ``theta + 1/theta``
    for Wigner, ``phi + 1 + theta + phi/theta`` for Wishart, and the root of
    ``m(z) = 1/theta`` or ``T(z) = 1/theta`` outside the bulk for the
    empirical kinds.  The separation test and every prediction use it.
    Raises a transform domain error when ``1/theta`` is not attained, i.e.
    when the strength is subcritical.
    """
    if theta == 0.0:
        raise ModelError("theta must be nonzero")
    t = 1.0 / theta
    if model.kind.closed_form:
        bound = 1.0 / _critical(model)
        if t == 0.0 or abs(t) > bound:
            raise transforms.TransformDomainError(
                f"the {model.kind.value} transform attains "
                f"[{-bound:g}, 0) u (0, {bound:g}], got {t:g}",
                (-bound, bound),
            )
        if model.kind is ModelKind.WIGNER:
            return t + 1.0 / t
        phi = model.phi
        return phi + 1.0 + 1.0 / t + phi * t
    if model.kind.additive:
        return transforms.invert_stieltjes(model.spectrum, t)
    return transforms.invert_t_transform(model.spectrum, t)


def _slope(model: Model, z: float) -> float:
    """Derivative at ``z`` of the transform that governs ``model``'s kind."""
    if model.kind is ModelKind.WIGNER:
        return transforms.semicircle_stieltjes_deriv(z)
    if model.kind is ModelKind.WISHART:
        return transforms.mp_t_transform_deriv(model.phi, z)
    if model.kind.additive:
        return transforms.stieltjes_deriv(model.spectrum, z)
    return transforms.t_transform_deriv(model.spectrum, z)


def pushforward_sample(model: Model, thetas) -> np.ndarray:
    """Push a sample of strengths through the location map, descending.

    This is the deterministic image that the extreme eigenvalues of a
    mesoscopic-rank perturbation approach in Wasserstein-1 distance.
    """
    thetas = np.asarray(thetas, dtype=float)
    out = np.array([pushforward_map(model, float(t)) for t in thetas])
    return np.sort(out)[::-1]
