"""Outlier detection through the finite-rank resolvent operator.

For a diagonal base spectrum perturbed on an orthonormal frame, the
perturbed eigenvalues outside the bulk are exactly the singular points of a
small ``m x m`` operator built from resolvent weights, which the model kind
selects:

    additive:        D(z) = diag(1/theta) - U^T diag(1/(z - lambda)) U
    multiplicative:  D(z) = diag(1/theta) - U^T diag(lambda/(z - lambda)) U

``D`` is increasing in ``z`` on each side of the bulk, so the number of
nonnegative eigenvalues of ``D(z)`` is a non-decreasing step function whose
jumps sit at the perturbed eigenvalues.  Each separated outlier is the zero
of one eigenvalue branch of ``D(z)``, whose derivative is the closed form
``U^T diag(w') U`` seen through its eigenvector.  Newton steps on that
branch, falling back to bisection on a bracket the counting function
certifies, locate the outlier without ever touching an ``n x n``
eigensolve, giving a route independent of dense diagonalization.  The
counting function is a pure function of ``z``, so one search evaluates
it at most once per point: the bracket ends shared by every rank on a
side are counted once, and a bound the bracket already certifies is not
counted at all.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .spectral_core import (
    MesoSpectraError,
    Model,
    ModelError,
    PerturbationSpec,
    SpectrumModel,
    _check_delta,
)
from .predictor import check_separation, pushforward_map
from .transforms import _check_outside

__all__ = [
    "MasterOperator",
    "MissingRootError",
    "OutlierRoot",
    "evaluate_d",
    "counting_function",
    "locate_outliers",
]


class MissingRootError(MesoSpectraError, RuntimeError):
    """A separated rank's root could not be bracketed to the tolerance.

    Attributes
    ----------
    rank : int
        The 1-based rank whose root was being sought.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class OutlierRoot(NamedTuple):
    """A located root: 1-based rank (by descending strength) and position."""

    rank: int
    location: float


@dataclass(frozen=True, eq=False)
class MasterOperator:
    """The data defining ``D(z)``: model kind, base spectrum, and perturbation.

    ``model`` must carry an explicit spectrum; its kind picks the additive or
    multiplicative weights.  The perturbation's frame (``None`` for leading
    coordinates) must have ``spectrum.n`` rows; a multiplicative model kind
    additionally requires strengths above -1 (:class:`Model` already
    requires its spectrum to be PSD).
    """

    model: Model
    pert: PerturbationSpec

    def __post_init__(self):
        if self.model.spectrum is None:
            raise ModelError(f"{self.model.kind.value} has no explicit spectrum")
        if self.pert.frame is not None and self.pert.frame.shape[0] != self.spectrum.n:
            raise ModelError(
                f"frame has {self.pert.frame.shape[0]} rows for a spectrum of "
                f"size {self.spectrum.n}"
            )
        if self.pert.m > self.spectrum.n:
            raise ModelError("perturbation rank exceeds spectrum size")
        if self.model.kind.multiplicative and self.pert.m and self.pert.thetas[-1] <= -1.0:
            raise ModelError("multiplicative strengths must exceed -1")

    @property
    def spectrum(self) -> SpectrumModel:
        return self.model.spectrum

    @property
    def m(self) -> int:
        return self.pert.m

    @cached_property
    def _inverse_strengths(self) -> np.ndarray:
        """``diag(1/theta)``, the constant part of ``D(z)``."""
        return np.diag(1.0 / self.pert.thetas)

    @cached_property
    def _frame(self) -> np.ndarray:
        """``U``: the perturbation's frame, or the leading coordinate axes."""
        if self.pert.frame is None:
            return np.eye(self.spectrum.n, self.m)
        return self.pert.frame

    def _weights(self, z: float) -> np.ndarray:
        lam = self.spectrum.eigenvalues
        if self.model.kind.multiplicative:
            return lam / (z - lam)
        return 1.0 / (z - lam)

    def _weight_slopes(self, z: float) -> np.ndarray:
        """Minus the ``z``-derivative of :meth:`_weights`, so that
        ``D'(z) = U^T diag(slopes) U``."""
        lam = self.spectrum.eigenvalues
        if self.model.kind.multiplicative:
            return lam / (z - lam) ** 2
        return 1.0 / (z - lam) ** 2


def evaluate_d(op: MasterOperator, z: float) -> np.ndarray:
    """The ``m x m`` symmetric matrix ``D(z)``, for ``z`` outside the bulk."""
    _check_outside(op.spectrum, z)
    u = op._frame
    g = u.T @ (op._weights(z)[:, None] * u)
    return op._inverse_strengths - 0.5 * (g + g.T)


def counting_function(op: MasterOperator, z: float) -> int:
    """Number of nonnegative eigenvalues of ``D(z)``.

    Non-decreasing and right-continuous in ``z`` on each side of the bulk;
    its jump points are the perturbed eigenvalues outside the bulk.
    """
    if op.m == 0:
        return 0
    tau = np.linalg.eigvalsh(evaluate_d(op, z))
    return int(np.count_nonzero(tau >= 0.0))


def _crossing(op: MasterOperator, z: float, target: int) -> tuple[int, float, float]:
    """The count, the crossing eigenvalue ``g`` and its slope at ``z``.

    ``g`` is the ``target``-th largest eigenvalue of ``D(z)``, so
    ``count >= target`` exactly when ``g >= 0``.  With ``v`` its unit
    eigenvector, ``g' = v^T D'(z) v = sum_i w'_i (U v)_i^2``.
    """
    tau, vecs = np.linalg.eigh(evaluate_d(op, z))
    k = op.m - target
    uv = op._frame @ vecs[:, k]
    slope = op._weight_slopes(z) @ (uv * uv)
    return int(np.count_nonzero(tau >= 0.0)), float(tau[k]), float(slope)


def _locate_root(
    op: MasterOperator,
    count: Callable[[float], int],
    rank: int,
    target: int,
    near: float,
    far: float,
    tol: float,
    start: float,
) -> float:
    """Smallest z with ``count(z) >= target``, bracketed by ``near`` and ``far``.

    ``count`` is the counting function of ``op``.  ``near`` lies just off
    the bulk edge and ``far`` beyond it (above the bulk when
    ``far > near``); ``far`` moves away from ``near`` geometrically until
    the two bracket the root.  Inside the bracket [lo, hi], which keeps
    ``count(lo) < target <= count(hi)``, Newton steps on the crossing
    eigenvalue of ``D(z)`` start at ``start`` (the midpoint when ``start``
    is outside the bracket); a step that leaves the bracket, or a
    nonpositive slope, takes the midpoint instead.  Once a step is at most
    ``tol / 4`` the stepped-to point is returned if it is certified within
    ``tol / 2`` on both sides.  A bracket end within ``tol / 2`` already
    certifies its side, because the count is non-decreasing; only the
    other side is counted.  Otherwise the bracket shrinks to ``tol``, by
    bisection on the count once the Newton steps run out, and its midpoint
    is returned, unless rounding hides the root (see :func:`_resolved`).
    """
    upper = far > near
    where = "above" if upper else "below"
    for _ in range(60):
        if (count(far) >= target) == upper:
            break
        far = near + 2.0 * (far - near)
    else:
        raise MissingRootError(f"rank {rank}: no bracket found {where} the bulk", rank)
    if (count(near) >= target) == upper:
        raise MissingRootError(
            f"rank {rank}: the bulk edge {where} does not bracket the root", rank
        )
    lo, hi = (near, far) if upper else (far, near)
    z = start if lo < start < hi else 0.5 * (lo + hi)
    slope = 0.0
    for _ in range(400):
        if hi - lo <= tol:
            break
        reached, g, slope = _crossing(op, z, target)
        if reached >= target:
            hi = z
        else:
            lo = z
        step = g / slope if slope > 0.0 else math.inf
        z -= step
        if abs(step) <= 0.25 * tol:
            above, below = z + 0.5 * tol, z - 0.5 * tol
            certified_above = hi <= above or count(above) >= target
            certified_below = lo >= below or count(below) < target
            if certified_above and certified_below:
                return _resolved(op, rank, z, slope, tol)
            if not certified_above:
                lo = above
            if not certified_below:
                hi = below
        if not lo < z < hi:
            z = 0.5 * (lo + hi)
    while hi - lo > tol:
        z = 0.5 * (lo + hi)
        if not lo < z < hi:
            raise MissingRootError(
                f"rank {rank}: bracket [{lo!r}, {hi!r}] cannot shrink to "
                f"tol {tol!r}", rank
            )
        if count(z) >= target:
            hi = z
        else:
            lo = z
    return _resolved(op, rank, 0.5 * (lo + hi), slope, tol)


def _resolved(op: MasterOperator, rank: int, z: float, slope: float, tol: float) -> float:
    """``z``, unless rounding can flip the counts that certify it: the
    eigenvalues of ``D(z)`` carry errors up to ``eps * ||D(z)||``, at most
    ``eps * (max |1/theta| + max |w(z)|)``, which must stay below the
    crossing branch's change ``slope * tol / 2`` (unchecked without a slope)."""
    norm = 1.0 / np.abs(op.pert.thetas).min() + np.abs(op._weights(z)).max()
    if 0.0 < slope * tol <= 2.0 * np.finfo(float).eps * norm:
        raise MissingRootError(f"rank {rank}: rounding in D(z) (norm {norm:.3g}) "
                               f"hides the root near {z!r} at tol {tol!r}", rank)
    return z


def locate_outliers(
    op: MasterOperator,
    delta: float,
    tol: float | None = None,
) -> list[OutlierRoot]:
    """Locate every separated outlier, above and below the bulk, in rank order.

    Ranks ``1 .. m_positive`` (positive strengths) lie above the bulk and
    the rest below it.  Ranks failing the separation test at margin
    ``delta`` are skipped (their roots may not exist or may hide within
    ``2 * delta`` of the bulk); a ``delta`` or ``tol`` that is not positive
    and finite raises :class:`ModelError`, even without ranks.  For each
    remaining rank, Newton steps on the crossing eigenvalue of ``D(z)``,
    started at the predicted location, run inside a bracket the counting
    function certifies, with bisection as the fallback; the returned
    location ``z`` satisfies ``n(z + tol) >= target > n(z - tol)``.  Every
    rank on a side starts from the same bracket, and the counting function
    is evaluated at most once per point within the call.  A root that
    cannot be bracketed to ``tol`` (for instance a ``tol`` below the
    spacing of doubles at the root) raises :class:`MissingRootError`.

    Default ``tol`` is ``1e-9 * (1 + max |lambda|)``.
    """
    _check_delta(delta)
    if tol is None:
        tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
    elif not (math.isfinite(tol) and tol > 0.0):
        raise ModelError(f"tol must be positive and finite, got {tol!r}")
    m = op.m
    m1 = op.pert.m_positive
    thetas = op.pert.thetas
    lam_max, lam_min = op.spectrum.lam_max, op.spectrum.lam_min
    counts: dict[float, int] = {}

    def count(z: float) -> int:
        if z not in counts:
            counts[z] = counting_function(op, z)
        return counts[z]

    roots: list[OutlierRoot] = []
    for rank in range(1, m + 1):
        theta = float(thetas[rank - 1])
        if not check_separation(op.model, delta, theta):
            continue
        if rank <= m1:
            target = m1 - rank + 1
            near, far = lam_max + tol, lam_max + float(thetas[0]) + 1.0
        else:
            target = m1 + (m - rank + 1)
            near, far = lam_min - tol, lam_min + float(thetas[-1]) - 1.0
        z = _locate_root(op, count, rank, target, near, far, tol,
                         start=pushforward_map(op.model, theta))
        roots.append(OutlierRoot(rank=rank, location=z))
    return roots
