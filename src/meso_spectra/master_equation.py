"""Outlier detection through the finite-rank resolvent operator.

For a diagonal base spectrum perturbed on an orthonormal frame, the
perturbed eigenvalues outside the bulk are exactly the singular points of a
small ``m x m`` operator built from resolvent weights, which the model kind
selects:

    additive:        D(z) = diag(1/theta) - U^T diag(1/(z - lambda)) U
    multiplicative:  D(z) = diag(1/theta) - U^T diag(lambda/(z - lambda)) U

``D`` is increasing in ``z`` on each side of the bulk, so the number of
nonnegative eigenvalues of ``D(z)`` is a non-decreasing step function whose
jumps sit at the perturbed eigenvalues.  Bisection on that counting function
locates each separated outlier without ever touching an ``n x n`` eigensolve,
giving a route independent of dense diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral_core import (
    MesoSpectraError,
    Model,
    ModelError,
    PerturbationSpec,
    Side,
    SpectralWindow,
    SpectrumModel,
    check_separation,
)
from .transforms import TransformDomainError

__all__ = [
    "MasterOperator",
    "MissingRootError",
    "OutlierRoot",
    "evaluate_d",
    "counting_function",
    "locate_outliers",
]


class MissingRootError(MesoSpectraError, RuntimeError):
    """A separated rank's root could not be bracketed.

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

    def _weights(self, z: float) -> np.ndarray:
        lam = self.spectrum.eigenvalues
        if self.model.kind.multiplicative:
            return lam / (z - lam)
        return 1.0 / (z - lam)


def _require_outside(spectrum: SpectrumModel, z: float) -> None:
    if spectrum.lam_min <= z <= spectrum.lam_max:
        raise TransformDomainError(
            f"z={z:g} must lie strictly outside [{spectrum.lam_min:g}, "
            f"{spectrum.lam_max:g}]",
            (spectrum.lam_min, spectrum.lam_max),
        )


def evaluate_d(op: MasterOperator, z: float) -> np.ndarray:
    """The ``m x m`` symmetric matrix ``D(z)``, for ``z`` outside the bulk."""
    _require_outside(op.spectrum, z)
    m = op.m
    w = op._weights(z)
    if op.pert.frame is None:
        g = np.diag(w[:m])
    else:
        u = op.pert.frame
        g = u.T @ (w[:, None] * u)
        g = 0.5 * (g + g.T)
    return np.diag(1.0 / op.pert.thetas) - g


def counting_function(op: MasterOperator, z: float) -> int:
    """Number of nonnegative eigenvalues of ``D(z)``.

    Non-decreasing and right-continuous in ``z`` on each side of the bulk;
    its jump points are the perturbed eigenvalues outside the bulk.
    """
    if op.m == 0:
        return 0
    tau = np.linalg.eigvalsh(evaluate_d(op, z))
    return int(np.sum(tau >= 0.0))


def _locate_root(
    op: MasterOperator,
    rank: int,
    target: int,
    lo: float,
    hi: float,
    expand_hi: bool,
    tol: float,
) -> float:
    """Smallest z with counting_function >= target, bracketed in [lo, hi].

    One of the endpoints may need geometric expansion (away from the bulk
    for the lower side, upward for the upper side).
    """
    count = lambda z: counting_function(op, z)
    if expand_hi:
        anchor = lo
        for _ in range(60):
            if count(hi) >= target:
                break
            hi = anchor + 2.0 * (hi - anchor)
        else:
            raise MissingRootError(
                f"no root found above the bulk for rank {rank}", rank
            )
        if count(lo) >= target:
            raise MissingRootError(
                f"rank {rank}: counting function already at target at the "
                f"bulk edge", rank
            )
    else:
        anchor = hi
        for _ in range(60):
            if count(lo) < target:
                break
            lo = anchor + 2.0 * (lo - anchor)
        else:
            raise MissingRootError(
                f"no bracket found below the bulk for rank {rank}", rank
            )
        if count(hi) < target:
            raise MissingRootError(
                f"rank {rank}: counting function never reaches target below "
                f"the bulk", rank
            )
    for _ in range(400):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if count(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def locate_outliers(
    op: MasterOperator,
    window: SpectralWindow,
    side: Side,
    tol: float | None = None,
) -> list[OutlierRoot]:
    """Locate every separated outlier on one side of the bulk.

    Ranks failing the separation test are skipped (their roots may not exist
    or may hide inside the window).  For each remaining rank the counting
    function is bisected to width ``tol``; the returned location ``z``
    satisfies ``n(z + tol) >= target > n(z - tol)``.

    Default ``tol`` is ``1e-9 * (1 + max |lambda|)``.
    """
    if tol is None:
        tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
    if op.m == 0:
        return []
    m = op.m
    m1 = op.pert.m_positive
    lam_max = op.spectrum.lam_max
    lam_min = op.spectrum.lam_min
    thetas = op.pert.thetas
    ranks = range(1, m1 + 1) if side is Side.UPPER else range(m1 + 1, m + 1)
    roots: list[OutlierRoot] = []
    for rank in ranks:
        verdict = check_separation(op.model, window, float(thetas[rank - 1]))
        if not verdict:
            continue
        if side is Side.UPPER:
            target = m1 - rank + 1
            z = _locate_root(
                op, rank, target,
                lo=lam_max + tol,
                hi=lam_max + float(thetas[0]) + 1.0,
                expand_hi=True,
                tol=tol,
            )
        else:
            target = m1 + (m - rank + 1)
            z = _locate_root(
                op, rank, target,
                lo=lam_min + float(thetas[-1]) - 1.0,
                hi=lam_min - tol,
                expand_hi=False,
                tol=tol,
            )
        roots.append(OutlierRoot(rank=rank, location=z))
    return roots
