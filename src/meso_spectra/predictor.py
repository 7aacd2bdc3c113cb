"""The separation test, the location map, and first-order predictions.

A model's kind decides the transform that governs its outliers: the
semicircle Stieltjes transform (Wigner), the Marchenko-Pastur T-transform
(Wishart), or the empirical Stieltjes or T-transform of the base spectrum
(orthogonally invariant additive or multiplicative).  This module is the one
place that makes that decision, in one record per kind (``_RULES``): its
threshold strength, its location map and its transform's slope.
:func:`check_separation` compares ``|theta|`` with the threshold strength
(the BBP critical value plus ``2 delta`` for a closed-form kind, one
transform evaluation for an empirical one); :func:`pushforward_map` inverts
the transform at ``1/theta`` for a separated strength, giving its outlier's
location; the squared projection of a perturbed eigenvector onto the
perturbation frame comes from the slope of the same transform at that
location:

    additive:        |v|^2 ~ -1 / (theta^2 m'(z))
    multiplicative:  |v|^2 ~ -(theta + 1) / (theta^2 z T'(z))

with ``z`` the predicted location.  Every prediction refuses a strength that
fails the separation test rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import transforms
from .spectral_core import (
    InvalidPerturbationError,
    Model,
    ModelError,
    NotSeparatedError,
    PerturbationSpec,
    Separation,
    Side,
    check_delta,
    check_floor,
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


class _Rule(NamedTuple):
    """What one kind's transform gives, each read from the model: the
    separation threshold ``threshold(model, delta, upper)``, the location
    ``invert(model, t)`` where the transform equals ``t`` outside the bulk,
    and the transform's derivative ``slope(model, z)``."""

    threshold: Callable[[Model, float, bool], float]
    invert: Callable[[Model, float], float]
    slope: Callable[[Model, float], float]


def _explicit(critical, inverse, slope) -> _Rule:
    """The rule of a kind whose transform has an explicit inverse
    ``inverse(model, t)``: strengths separate from ``critical(model) + 2
    delta`` on (the critical value is the BBP threshold), and the transform
    attains ``t`` for ``0 < |t| <= 1/critical``."""

    def invert(model: Model, t: float) -> float:
        bound = 1.0 / critical(model)
        if t == 0.0 or abs(t) > bound:
            raise transforms.TransformDomainError(
                f"the {model.kind.value} transform attains "
                f"[{-bound:g}, 0) u (0, {bound:g}], got {t:g}", (-bound, bound))
        return inverse(model, t)

    return _Rule(lambda model, delta, upper: critical(model) + 2.0 * delta, invert, slope)


# One rule per kind, keyed by its value (a ModelKind is the string it
# names).  The empirical rules look each transform up on the module when
# called, so a wrapper put on it afterwards sees the call.
_RULES = {
    "wigner": _explicit(
        lambda model: 1.0,
        lambda model, t: t + 1.0 / t,
        lambda model, z: transforms.semicircle_stieltjes_deriv(z)),
    "wishart": _explicit(
        lambda model: math.sqrt(model.phi),
        lambda model, t: model.phi + 1.0 + 1.0 / t + model.phi * t,
        lambda model, z: transforms.mp_t_transform_deriv(model.phi, z)),
    "orth-invariant-additive": _Rule(
        lambda model, delta, upper: transforms.separation_threshold(
            model.spectrum, delta, upper, False),
        lambda model, t: transforms.invert_stieltjes(model.spectrum, t),
        lambda model, z: transforms.stieltjes_deriv(model.spectrum, z)),
    "orth-invariant-multiplicative": _Rule(
        lambda model, delta, upper: transforms.separation_threshold(
            model.spectrum, delta, upper, True),
        lambda model, t: transforms.invert_t_transform(model.spectrum, t),
        lambda model, z: transforms.t_transform_deriv(model.spectrum, z)),
}


def check_separation(model: Model, delta: float, theta: float) -> Separation:
    """Decide whether strength ``theta`` detaches an outlier from the bulk.

    It does when ``|theta|`` reaches the threshold strength at margin
    ``delta``: the critical value plus ``2 * delta`` for closed-form kinds,
    and for empirical kinds the strength whose location clears the edge by
    ``2 * delta``, from one transform evaluation and no inverse.  Raises
    :class:`ModelError` unless ``delta`` is positive and finite.
    """
    check_delta(delta)
    if theta == 0.0 or not math.isfinite(theta):
        raise InvalidPerturbationError(f"theta must be finite and nonzero, got {theta}")
    check_floor(theta, model.kind.multiplicative)
    upper = theta > 0.0
    threshold = _RULES[model.kind].threshold(model, delta, upper)
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
    slope = _RULES[model.kind].slope(model, z)
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
    check_delta(delta)
    out: list[OutlierPrediction] = []
    for i, theta in enumerate(pert.thetas, start=1):
        theta = float(theta)
        predicted = _predict_one(model, delta, theta)
        out.append(OutlierPrediction(i, theta, target_index(pert, i, n), *predicted))
    return out


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
    return _RULES[model.kind].invert(model, 1.0 / theta)


def pushforward_sample(model: Model, thetas) -> np.ndarray:
    """Push a sample of strengths through the location map, descending.

    This is the deterministic image that the extreme eigenvalues of a
    mesoscopic-rank perturbation approach in Wasserstein-1 distance.
    """
    thetas = np.asarray(thetas, dtype=float)
    out = np.array([pushforward_map(model, float(t)) for t in thetas])
    return np.sort(out)[::-1]
