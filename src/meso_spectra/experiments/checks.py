"""Deterministic verification of the transform stability inequalities.

Outside the bulk, perturbing the argument of the Stieltjes transform (or the
T-transform) by ``xi`` moves the value by an amount sandwiched between
``|xi|`` over a power of ``B = max(||H||, |theta|)`` and ``|xi|`` over a
power of the margin ``delta``:

    |xi|/(4 B^2) <= |m(x_m + xi) - 1/theta|   <= 4 |xi| / delta^2
    |xi|/(8 B^3) <= |m'(x_m + xi) - m'(x_m)|  <= 8 |xi| / delta^3
    |xi|/(4 B^3) <= |T(x_t + xi) - 1/theta|   <= 4 B |xi| / delta^3
    |xi|/(8 B^4) <= |T'(x_t + xi) - T'(x_t)|  <= 8 B |xi| / delta^4

where ``x_m = m^(-1)(1/theta)`` and ``x_t = T^(-1)(1/theta)`` must clear the
spectrum's edge by ``2 delta`` and ``|xi| <= delta``; the first is checked
with the separation test's threshold strength before anything is inverted.
Everything here is a pure function of its inputs; repeated calls are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..spectral_core import MesoSpectraError, SpectrumModel
from ..transforms import (
    invert_stieltjes,
    invert_t_transform,
    separation_threshold,
    stieltjes,
    stieltjes_deriv,
    t_transform,
    t_transform_deriv,
)

__all__ = [
    "PreconditionError",
    "SandwichResult",
    "SandwichRow",
    "random_stability_sweep",
    "verify_sandwich_bounds",
]

# The inequalities of the module docstring, grouped by transform (the key
# names its location in ``SandwichResult.locations``).  Each row is
# (family, function, c_low, p_low, c_up, p_up, p_delta) for the bounds
#     |xi| / (c_low B^p_low) <= deviation <= c_up B^p_up |xi| / delta^p_delta.
_BOUNDS = {
    "stieltjes": (("stieltjes-value", stieltjes, 4.0, 2, 4.0, 0, 2),
                  ("stieltjes-deriv", stieltjes_deriv, 8.0, 3, 8.0, 0, 3)),
    "t": (("t-value", t_transform, 4.0, 3, 4.0, 1, 3),
          ("t-deriv", t_transform_deriv, 8.0, 4, 8.0, 1, 4)),
}

FAMILIES = tuple(row[0] for pair in _BOUNDS.values() for row in pair)


class PreconditionError(MesoSpectraError, ValueError):
    """The inequality's hypothesis fails; this is not a failed check."""


@dataclass(frozen=True)
class SandwichRow:
    """One evaluated inequality: family, offset, and the three quantities."""

    family: str
    xi: float
    lower: float
    deviation: float
    upper: float

    @property
    def passed(self) -> bool:
        return self.lower <= self.deviation <= self.upper


@dataclass(frozen=True)
class SandwichResult:
    """All rows for one (spectrum, theta, delta, xi-grid) verification."""

    theta: float
    delta: float
    b_constant: float
    locations: dict
    rows: tuple[SandwichRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[SandwichRow]:
        return [row for row in self.rows if not row.passed]


def _hypothesis_location(
    spectrum: SpectrumModel, theta: float, delta: float, use_t: bool
) -> float:
    """``f^(-1)(1/theta)`` for ``f = T`` or ``m``, once ``|theta|`` reaches
    the threshold strength that puts it ``2 * delta`` clear of the edge."""
    threshold = separation_threshold(spectrum, delta, theta > 0.0, use_t)
    if abs(theta) < threshold:
        raise PreconditionError(
            f"|theta| = {abs(theta):g} is below {threshold:g}, where "
            f"{'T' if use_t else 'm'}^(-1)(1/theta) clears the spectrum "
            f"[{spectrum.lam_min:g}, {spectrum.lam_max:g}] by 2*delta, delta={delta:g}"
        )
    return (invert_t_transform if use_t else invert_stieltjes)(spectrum, 1.0 / theta)


def verify_sandwich_bounds(
    spectrum: SpectrumModel, theta: float, delta: float, xi_grid
) -> SandwichResult:
    """Evaluate every sandwich inequality at each offset in ``xi_grid``.

    The Stieltjes pair is always evaluated; the T pair only for PSD spectra
    with at least one positive eigenvalue (otherwise T is identically zero
    and has no inverse).  Rows run per transform, then per offset, the value
    row before the derivative row.  Hypothesis violations raise
    :class:`PreconditionError` rather than producing failed rows.
    """
    if theta == 0.0 or not math.isfinite(theta):
        raise PreconditionError(f"theta must be finite and nonzero, got {theta}")
    if not delta > 0.0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    xi_grid = [float(x) for x in np.atleast_1d(np.asarray(xi_grid, dtype=float))]
    # Offsets far below float resolution at the base point (e.g. the rounded
    # midpoint of a symmetric linspace grid) are meant as zero; snap them so
    # an unrepresentable shift is not scored against a positive lower bound.
    xi_grid = [0.0 if abs(xi) < 1e-9 * delta else xi for xi in xi_grid]
    for xi in xi_grid:
        if abs(xi) > delta:
            raise PreconditionError(f"|xi| = {abs(xi):g} exceeds delta = {delta:g}")

    b = max(spectrum.norm_bound, abs(theta))
    rows: list[SandwichRow] = []
    locations: dict = {}
    for name, pair in _BOUNDS.items():
        use_t = name == "t"
        if use_t and not (spectrum.is_psd and spectrum.lam_max > 0.0):
            break
        x = locations[name] = _hypothesis_location(spectrum, theta, delta, use_t)
        # Anchor increments at the transform evaluated at the computed
        # preimage (= 1/theta up to the inversion residual), so solver error
        # does not register as deviation at xi = 0.
        bases = [f(spectrum, x) for _, f, *_ in pair]
        for xi in xi_grid:
            for (family, f, c_low, p_low, c_up, p_up, p_delta), base in zip(pair, bases):
                rows.append(SandwichRow(
                    family=family,
                    xi=xi,
                    lower=abs(xi) / (c_low * b**p_low),
                    deviation=abs(f(spectrum, x + xi) - base),
                    upper=c_up * b**p_up * abs(xi) / delta**p_delta,
                ))

    return SandwichResult(
        theta=theta,
        delta=delta,
        b_constant=b,
        locations=locations,
        rows=tuple(rows),
    )


def random_stability_sweep(
    instances: int = 100, seed: int = 0, xi_points: int = 11
) -> list[SandwichResult]:
    """Seeded sweep over random PSD spectra with separated strengths.

    Instances alternate upper- and lower-side strengths; each strength is
    redrawn until it meets both transforms' threshold strengths, so every
    instance evaluates all four families on a grid of ``xi_points`` offsets
    spanning ``[-delta, delta]``.
    """
    gen = np.random.default_rng(seed)
    results: list[SandwichResult] = []
    for k in range(instances):
        n = int(gen.integers(50, 301))
        spectrum = SpectrumModel.from_values(gen.uniform(0.2, 2.2, n))
        delta = float(gen.uniform(0.05, 0.25))
        upper = k % 2 == 0
        threshold = max(separation_threshold(spectrum, delta, upper, use_t)
                        for use_t in (False, True))
        for _ in range(100):
            if upper:
                theta = float(gen.uniform(spectrum.lam_max + 2.0 * delta + 0.5,
                                          spectrum.lam_max + 2.0 * delta + 3.0))
            else:
                theta = float(-gen.uniform(1.2, 3.0))
            if abs(theta) >= threshold:
                break
        else:  # pragma: no cover - seeded sweep never hits this
            raise RuntimeError(f"instance {k}: no separated strength found")
        xi_grid = np.linspace(-delta, delta, xi_points)
        results.append(verify_sandwich_bounds(spectrum, theta, delta, xi_grid))
    return results
