"""Spectral transforms and their inverses.

An empirical spectrum has a Stieltjes transform ``m(z) = (1/n) sum 1/(z - l_i)``
and, when it is PSD, a T-transform ``T(z) = (1/n) sum l_i/(z - l_i)``; both are
strictly decreasing on each real interval outside the spectrum, which makes
their restrictions to the outside of the bulk invertible.  This module
evaluates the empirical transforms, the semicircle and Marchenko-Pastur
limits, derivatives, and inverses, plus the densities and deterministic
quantile spectra used to discretize the limit laws.  Monotonicity also
makes the separation threshold one evaluation (:func:`separation_threshold`).

Inverses outside the bulk are computed by bisection on a certified bracket
followed by a Newton polish (repeated after bisecting to the float spacing
when the first polish misses); each result has residual
``|f(z) - t| <= INVERSION_RTOL * max(1, |t|)``, or the root pinned to one
float spacing (next to a pole, where ``f`` changes across one spacing by
more than that), and a solve that achieves neither raises
:class:`InversionError`.
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
# Root finding on a certified bracket


def _bisect_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    t: float,
    lo: float,
    hi: float,
) -> float:
    """Solve ``f(z) = t`` for decreasing ``f`` with ``f(lo) >= t >= f(hi)``.

    Bisection narrows the bracket, then Newton steps (clamped to it) polish
    the root to ``INVERSION_RTOL``.  A root closer to a pole of ``f`` than
    the first bisection's width (a T-transform root next to a tiny
    eigenvalue) is polished again after bisecting down to the float
    spacing.  If that misses too, the bracket's ends are adjacent floats and
    the nearer one is returned when its residual is within what ``f``
    changes across the spacing (by ``fprime``); otherwise raises
    :class:`InversionError`.
    """
    tol_resid = INVERSION_RTOL * max(1.0, abs(t))
    passes = ((1e-13 * max(1.0, abs(lo), abs(hi)), 200), (0.0, 2200))
    for width_goal, steps in passes:
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if hi - lo <= width_goal or not lo < mid < hi:
                break
            if f(mid) >= t:
                lo = mid
            else:
                hi = mid
        z = 0.5 * (lo + hi)
        for _ in range(8):
            resid = f(z) - t
            if abs(resid) <= tol_resid:
                return z
            dz = resid / fprime(z)
            z_new = z - dz
            if not lo <= z_new <= hi:
                z_new = 0.5 * (lo + hi)
            z = z_new
        resid = f(z) - t
        if abs(resid) <= tol_resid:
            return z
    # Bisection has pinned the root between adjacent floats.  Next to a pole
    # f changes across that spacing by more than the tolerance, and no float
    # does better than the nearer end; a larger residual is a jump, not a root.
    miss, nearer = min((abs(f(x) - t), x) for x in (lo, hi))
    if miss <= max(abs(fprime(lo)), abs(fprime(hi))) * (hi - lo):
        return nearer
    raise InversionError(f"inverse solve for t={t:g} stopped at z={z!r} with "
                         f"residual {resid:.3g} (tolerance {tol_resid:.3g})")


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
    n = spectrum.n
    lam_max = spectrum.lam_max
    # m(lam_max + 1/(2 n t)) >= (1/n) * 2 n t / ... the top term alone gives
    # (1/n) / (1/(2 n t)) = 2t >= t; the upper end uses m(z) <= 1/(z - lam_max).
    lo = max(spectrum.lam_min + 1.0 / t, lam_max + 1.0 / (2.0 * n * t))
    hi = lam_max + 1.0 / t
    f = lambda z: float(np.mean(1.0 / (z - lam)))
    fp = lambda z: float(-np.mean((z - lam) ** -2.0))
    return _bisect_newton(f, fp, t, lo, hi)


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
    fp = lambda z: float(-np.mean(lam / (z - lam) ** 2.0))
    if t > 0.0:
        # Top term alone: (lam_max/n) / (lam_max/(2 n t)) = 2t >= t.
        lo = lam_max + lam_max / (2.0 * n * t)
        hi = lam_max + lam_max / t  # T(z) <= lam_max/(z - lam_max)
        return _bisect_newton(f, fp, t, lo, hi)
    # Lower branch.  T -> 0^- as z -> -inf; as z -> lam_min^- it diverges if
    # lam_min > 0 and tends to -q = -#{lam > 0}/n if lam_min = 0.
    lam_min = spectrum.lam_min
    if lam_min <= 0.0:
        q = float(np.sum(lam > 0.0)) / n
        if t <= -q:
            raise TransformDomainError(
                f"T = {t:g} is below the lower branch's range ({-q:g}, 0)",
                (-q, 0.0),
            )
    # Expand left geometrically until T(lo) > t (i.e. closer to zero than t).
    scale = max(1.0, spectrum.norm_bound)
    step = scale
    lo = lam_min - step
    for _ in range(200):
        if f(lo) > t:
            break
        step *= 2.0
        lo = lam_min - step
    else:  # pragma: no cover - range already validated above
        raise TransformDomainError(f"T = {t:g} not attained on the lower branch",
                                   (-math.inf, 0.0))
    # Walk hi toward lam_min until T(hi) <= t.
    gap = step
    hi = lam_min - gap
    for _ in range(200):
        if f(hi) <= t:
            break
        gap *= 0.5
        hi = lam_min - gap
    else:
        raise TransformDomainError(
            f"T = {t:g} not attained on the lower branch", (-math.inf, 0.0)
        )
    # _bisect_newton expects f(lo) >= t >= f(hi) for decreasing f; on this
    # branch f is also decreasing in z, with f(lo) > t >= f(hi).
    return _bisect_newton(f, fp, t, lo, hi)


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
