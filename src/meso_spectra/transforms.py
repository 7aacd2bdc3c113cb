"""Spectral transforms and their inverses.

An empirical spectrum has a Stieltjes transform ``m(z) = (1/n) sum 1/(z - l_i)``
and, when it is PSD, a T-transform ``T(z) = (1/n) sum l_i/(z - l_i)``; both are
strictly decreasing on each real interval outside the spectrum, which makes
their restrictions to the outside of the bulk invertible.  This module
evaluates the empirical transforms, the semicircle and Marchenko-Pastur
limits, derivatives, and inverses, plus the densities and deterministic
quantile spectra used to discretize the limit laws.  Monotonicity also
makes the separation threshold one evaluation (:func:`separation_threshold`).

Inverses outside the bulk are computed by monotone Newton on ``1/f - 1/t``.
``m``, and ``T`` of a PSD spectrum, are Stieltjes transforms of positive
measures, so ``1/f`` is concave above the bulk and convex below it, and
Newton started on the bulk side of the root, at a point a one-line bound
certifies, moves to it monotonically without a bracket.  Each
result has residual ``|f(z) - t| <= INVERSION_RTOL * max(1, |t|)``, or the
root pinned to one float spacing (next to a pole, where ``f`` changes
across one spacing by more than that), and a solve that achieves neither
raises :class:`InversionError`.
A spectrum memoizes its solved inverses and separation thresholds, so
repeating a target or a margin costs a lookup.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .spectral_core import MesoSpectraError, ModelError, SpectrumModel

__all__ = [
    "InversionError",
    "TransformDomainError",
    "stieltjes",
    "stieltjes_deriv",
    "t_transform",
    "t_transform_deriv",
    "invert_stieltjes",
    "invert_t_transform",
    "semicircle_stieltjes",
    "semicircle_stieltjes_deriv",
    "mp_t_transform",
    "mp_t_transform_deriv",
    "mp_edges",
    "semicircle_density",
    "mp_density",
    "semicircle_quantiles",
    "mp_quantiles",
    "empirical_quantiles",
]

# Residual tolerance for inverse solves, relative to max(1, |t|).
INVERSION_RTOL = 1e-12


class TransformDomainError(MesoSpectraError, ValueError):
    """The requested value is outside the transform's attainable range.

    Attributes
    ----------
    interval : tuple[float, float]
        The open interval of attainable values on the requested branch.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


class InversionError(MesoSpectraError, ArithmeticError):
    """An inverse solve of an attainable target achieved neither residual
    ``<= INVERSION_RTOL * max(1, |t|)`` nor the root pinned to one float
    spacing."""


# ---------------------------------------------------------------------------
# Empirical transforms


def check_outside(spectrum: SpectrumModel, z: float) -> None:
    if spectrum.lam_min <= z <= spectrum.lam_max:
        raise TransformDomainError(
            f"z={z:g} lies inside the spectral interval "
            f"[{spectrum.lam_min:g}, {spectrum.lam_max:g}]",
            (spectrum.lam_min, spectrum.lam_max),
        )


def stieltjes(spectrum: SpectrumModel, z: float) -> float:
    """Empirical Stieltjes transform ``(1/n) sum 1/(z - l_i)`` at real ``z``.

    ``z`` must lie strictly outside ``[lam_min, lam_max]``.
    """
    check_outside(spectrum, z)
    return float(np.mean(1.0 / (z - spectrum.eigenvalues)))

def stieltjes_deriv(spectrum: SpectrumModel, z: float) -> float:
    """Derivative ``-(1/n) sum 1/(z - l_i)^2``; always negative."""
    check_outside(spectrum, z)
    return float(-np.mean((z - spectrum.eigenvalues) ** -2.0))


def t_transform(spectrum: SpectrumModel, z: float) -> float:
    """Empirical T-transform ``(1/n) sum l_i/(z - l_i) = z m(z) - 1``."""
    check_outside(spectrum, z)
    return float(np.mean(spectrum.eigenvalues / (z - spectrum.eigenvalues)))


def t_transform_deriv(spectrum: SpectrumModel, z: float) -> float:
    """Derivative ``-(1/n) sum l_i/(z - l_i)^2``."""
    check_outside(spectrum, z)
    lam = spectrum.eigenvalues
    return float(-np.mean(lam / (z - lam) ** 2.0))


def separation_threshold(spectrum: SpectrumModel, delta: float, upper: bool,
                         use_t: bool) -> float:
    """Smallest ``|theta|`` whose outlier clears the bulk by ``2 * delta``.

    ``f`` (``T`` when ``use_t``, else ``m``) is monotone outside the bulk,
    so ``f^(-1)(1/theta)`` clears ``z = lam_max + 2 delta`` (or
    ``lam_min - 2 delta`` below) exactly when ``|theta| >= 1/|f(z)|``: ``inf``
    where ``f(z) = 0``, and ``0`` where ``z`` rounds onto the edge, a pole.
    Memoized per spectrum, keyed on ``delta``, the side and the transform.
    """
    return _memoized(_solve_separation_threshold, spectrum, delta, upper, use_t)


def _solve_separation_threshold(spectrum: SpectrumModel, delta: float, upper: bool,
                                use_t: bool) -> float:
    edge = spectrum.lam_max if upper else spectrum.lam_min
    z = edge + 2.0 * delta if upper else edge - 2.0 * delta
    if z == edge:
        return 0.0
    value = abs(t_transform(spectrum, z) if use_t else stieltjes(spectrum, z))
    return 1.0 / value if value > 0.0 else math.inf


# ---------------------------------------------------------------------------
# Monotone Newton

# Steps allowed per inversion.  Newton is quadratic near the root.  The slow
# case is linear: a root far below a tiny lam_min, where h = 1/T - 1/t decays
# like 1/d in the distance d from the edge, so each step doubles d and halves
# the residual; about log2(1 / INVERSION_RTOL) = 40 halvings reach the
# tolerance ([1, 2^-149] at t = -0.5 takes 39 steps).
_NEWTON_STEPS = 100


def _newton(f: Callable[[float], float], fprime: Callable[[float], float], t: float,
            z: float, edge: float) -> float:
    """Solve ``f(z) = t`` beyond ``edge``: above it for ``t > 0``, below for ``t < 0``.

    ``f`` is the Stieltjes transform of a positive measure (``m``, or ``T``
    of a PSD spectrum, the transform of ``lambda dmu``), so ``1/f`` is
    increasing and concave above the measure's support and increasing and
    convex below it (its Nevanlinna representation).  Newton on
    ``h = 1/f - 1/t``, the step ``z -= f (f - t) / (t f')``, from a start
    ``z`` on the bulk side of the root therefore moves monotonically toward
    the root; a rounding overshoot at the root is undone by the next step.

    Returns the first iterate with ``|f(z) - t| <= INVERSION_RTOL * max(1,
    |t|)``, or one whose step moves at most one float spacing with ``t``
    between ``f`` there and at the neighbouring float (the root pinned next
    to a pole, where ``f`` changes across one spacing by more than the
    tolerance).  Raises :class:`InversionError` on a non-finite step, an
    iterate off the branch, a stalled step that pins no root, or after
    ``_NEWTON_STEPS`` steps.
    """
    tol_resid = INVERSION_RTOL * max(1.0, abs(t))
    outside = (lambda x: x > edge) if t > 0.0 else (lambda x: x < edge)
    for _ in range(_NEWTON_STEPS):
        if not (math.isfinite(z) and outside(z)):
            break
        fz = f(z)
        if abs(fz - t) <= tol_resid:
            return z
        step = fz * (fz - t) / (t * fprime(z))
        neighbour = math.nextafter(z, -math.copysign(math.inf, step))
        if z - step in (z, neighbour):
            # A step within one spacing: the root is pinned if t lies between
            # f at z and at the neighbouring float; stalled, it has no root.
            if outside(neighbour) and (f(neighbour) - t) * (fz - t) <= 0.0:
                return z
            if z - step == z:
                break
        z -= step
    raise InversionError(f"inverse solve for t={t:g} beyond {edge!r} met neither the "
                         f"tolerance {tol_resid:.3g} nor a pinned root; stopped at z={z!r}")


def _memoized(solve: Callable[..., float], spectrum: SpectrumModel, *args) -> float:
    """``solve(spectrum, *args)``, served from the spectrum's memo after the
    first success; a solve that raises is not remembered and raises again."""
    key = (solve.__name__, *args)
    memo = spectrum._inverses
    if key not in memo:
        memo[key] = solve(spectrum, *args)
    return memo[key]


def invert_stieltjes(spectrum: SpectrumModel, t: float) -> float:
    """Solve ``m(z) = t`` on the branch outside the bulk selected by sign(t).

    For ``t > 0`` the solution is the unique ``z > lam_max``; for ``t < 0``
    the unique ``z < lam_min``.  ``t = 0`` has no finite preimage.  Results
    are memoized per spectrum.
    """
    return _memoized(_solve_stieltjes, spectrum, t)


def _solve_stieltjes(spectrum: SpectrumModel, t: float) -> float:
    if t == 0.0 or not math.isfinite(t):
        raise TransformDomainError(
            "the Stieltjes transform only attains finite nonzero values "
            "outside the bulk", (0.0, 0.0),
        )
    if t < 0.0:
        # m_{-spectrum}(-z) = -m_spectrum(z): solve the mirrored problem.  It
        # is declared non-PSD so that no value is clipped to zero.
        mirrored = SpectrumModel.from_values(-np.asarray(spectrum.eigenvalues), is_psd=False)
        return -_solve_stieltjes(mirrored, -t)
    lam = spectrum.eigenvalues
    lam_max = spectrum.lam_max
    f = lambda z: float(np.mean(1.0 / (z - lam)))
    fp = lambda z: float(-np.mean((z - lam) ** -2.0))
    # The top term alone gives m(start) >= (1/n) / (1/(2 n t)) = 2t.
    return _newton(f, fp, t, lam_max + 1.0 / (2.0 * spectrum.n * t), lam_max)


def invert_t_transform(spectrum: SpectrumModel, t: float) -> float:
    """Solve ``T(z) = t`` outside the bulk of a PSD spectrum.

    For ``t > 0`` the branch is ``z > lam_max`` (requires ``lam_max > 0``).
    For ``t < 0`` the branch is ``z < lam_min``; when ``lam_min = 0`` that
    branch only attains ``(-q, 0)`` with ``q`` the fraction of nonzero
    eigenvalues, and values at or below ``-q`` raise ``TransformDomainError``.
    Results are memoized per spectrum.
    """
    return _memoized(_solve_t_transform, spectrum, t)


def _solve_t_transform(spectrum: SpectrumModel, t: float) -> float:
    if not spectrum.is_psd:
        raise ModelError("the T-transform inverse is defined for PSD spectra")
    if t == 0.0 or not math.isfinite(t):
        raise TransformDomainError("T = 0 is only attained in the limit z -> inf",
                                   (0.0, 0.0))
    lam = spectrum.eigenvalues
    n = spectrum.n
    lam_max = spectrum.lam_max
    if lam_max <= 0.0:
        raise ModelError("the T-transform of the zero spectrum is identically zero")
    f = lambda z: float(np.mean(lam / (z - lam)))
    # Dividing twice keeps (z - lam)^2 from under- or overflowing at the
    # extremes of the float range.
    fp = lambda z: float(-np.mean(lam / (z - lam) / (z - lam)))
    # T diverges at an edge eigenvalue above zero.  No term there has the sign
    # opposite to t, and the edge's term alone contributes 2t at the start.
    edge = lam_max if t > 0.0 else spectrum.lam_min
    if edge > 0.0:
        return _newton(f, fp, t, edge + edge / (2.0 * n * t), edge)
    # Below lam_min = 0 the branch tends to -q = -#{lam > 0}/n at the edge.
    positive = lam[lam > 0.0]
    q = positive.size / n
    if t <= -q:
        raise TransformDomainError(
            f"T = {t:g} is below the lower branch's range ({-q:g}, 0)",
            (-q, 0.0),
        )
    # T(z) + q = (1/n) sum_{lam > 0} |z| / (|z| + lam) <= |z| c for z < 0, so
    # T(start) <= t at start = -(t + q) / c.
    c = float(np.sum(1.0 / positive)) / n
    return _newton(f, fp, t, -(t + q) / c, 0.0)


# ---------------------------------------------------------------------------
# Closed-form limits


def semicircle_stieltjes(z: float) -> float:
    """Stieltjes transform of the semicircle law at real ``|z| >= 2``.

    ``m(z) = (z - sign(z) sqrt(z^2 - 4)) / 2``, the branch that decays like
    ``1/z`` at infinity.
    """
    if abs(z) < 2.0:
        raise TransformDomainError(f"|z| must be >= 2, got {z:g}", (-2.0, 2.0))
    s = math.copysign(math.sqrt(z * z - 4.0), z)
    return (z - s) / 2.0


def semicircle_stieltjes_deriv(z: float) -> float:
    """Derivative of the semicircle Stieltjes transform, for ``|z| > 2``."""
    if abs(z) <= 2.0:
        raise TransformDomainError(f"|z| must be > 2, got {z:g}", (-2.0, 2.0))
    s = math.copysign(math.sqrt(z * z - 4.0), z)
    return 0.5 * (1.0 - z / s)


def mp_edges(phi: float) -> tuple[float, float]:
    """Bulk edges ``((1 - sqrt(phi))^2, (1 + sqrt(phi))^2)`` of the MP law."""
    if not 0.0 < phi < 1.0:
        raise ModelError(f"phi must lie in (0, 1), got {phi}")
    root = math.sqrt(phi)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def mp_t_transform(phi: float, z: float) -> float:
    """T-transform of the Marchenko-Pastur law outside its bulk.

    ``T(z) = (z - phi - 1 - sign(z - gamma_plus) sqrt((z - gamma_minus)(z - gamma_plus))) / (2 phi)``
    for ``z`` outside ``[gamma_minus, gamma_plus]``; at the upper edge it
    equals ``1/sqrt(phi)``, at the lower edge ``-1/sqrt(phi)``.
    """
    lo, hi = mp_edges(phi)
    if lo < z < hi:
        raise TransformDomainError(
            f"z={z:g} lies inside the bulk [{lo:g}, {hi:g}]", (lo, hi)
        )
    disc = math.sqrt(max((z - lo) * (z - hi), 0.0))
    s = disc if z >= hi else -disc
    return (z - phi - 1.0 - s) / (2.0 * phi)


def mp_t_transform_deriv(phi: float, z: float) -> float:
    """Derivative of the MP T-transform, for ``z`` strictly outside the bulk."""
    lo, hi = mp_edges(phi)
    if lo <= z <= hi:
        raise TransformDomainError(
            f"z={z:g} must be strictly outside [{lo:g}, {hi:g}]", (lo, hi)
        )
    disc = math.sqrt((z - lo) * (z - hi))
    s = disc if z > hi else -disc
    return (1.0 - (2.0 * z - lo - hi) / (2.0 * s)) / (2.0 * phi)


# ---------------------------------------------------------------------------
# Densities and quantile spectra


def semicircle_density(x) -> np.ndarray | float:
    """Semicircle density ``sqrt(4 - x^2) / (2 pi)``, zero outside ``[-2, 2]``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 2.0
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def mp_density(phi: float, x) -> np.ndarray | float:
    """Marchenko-Pastur density on ``[gamma_minus, gamma_plus]`` (phi < 1)."""
    lo, hi = mp_edges(phi)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * phi * xi)
    return out if out.ndim else float(out)


def _semicircle_cdf(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


def semicircle_quantiles(n: int) -> np.ndarray:
    """Descending midpoint quantiles of the semicircle law.

    Entry ``k`` (ascending) solves ``F(x) = (k + 1/2) / n`` with the closed
    form of the semicircle CDF; the returned array is descending to match
    :class:`SpectrumModel`'s convention.
    """
    if n <= 0:
        raise ModelError("n must be positive")
    probs = (np.arange(n) + 0.5) / n
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _semicircle_cdf(mid) < probs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (0.5 * (lo + hi))[::-1].copy()


def mp_quantiles(phi: float, n: int) -> np.ndarray:
    """Descending midpoint quantiles of the Marchenko-Pastur law (phi < 1).

    The CDF is integrated numerically on a fine fixed grid, so the output is
    deterministic for given ``(phi, n)``.
    """
    if n <= 0:
        raise ModelError("n must be positive")
    lo, hi = mp_edges(phi)
    grid = np.linspace(lo, hi, 200_001)
    dens = mp_density(phi, grid)
    # Trapezoid cumulative integral, normalized to end exactly at 1.
    steps = np.diff(grid) * 0.5 * (dens[:-1] + dens[1:])
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf /= cdf[-1]
    probs = (np.arange(n) + 0.5) / n
    vals = np.interp(probs, cdf, grid)
    return vals[::-1].copy()


def empirical_quantiles(values, n: int) -> np.ndarray:
    """Resample a list of eigenvalues to ``n`` midpoint quantiles, descending.

    With ``n == len(values)`` this returns the sorted input unchanged, so a
    spectrum file already of the right size passes through exactly.
    """
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ModelError("cannot resample an empty eigenvalue list")
    if n <= 0:
        raise ModelError("n must be positive")
    probs = (np.arange(n) + 0.5) / n
    idx = np.minimum((probs * values.size).astype(int), values.size - 1)
    return values[idx][::-1].copy()
