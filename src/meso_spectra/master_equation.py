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
eigensolve, giving a route independent of dense diagonalization.

Every rank's search runs in lock-step with the others, on both sides of
the bulk.  A round collects each pending search's next requests and answers
them together: one stacked ``eigh`` for the Newton steps and one stacked
``eigvalsh`` for the counts, so the ``m x m`` solves of a call cost a few
batched calls rather than one call per rank per step.  A stacked
evaluation equals the same points evaluated one at a time, bit for bit.
A search asks in one round for all the work it already knows it needs:
its first round counts both bracket ends and takes the Newton crossing at
its start, and a certification counts both sides of the root together.
A search started at the root itself, such as an eigenvalue an eigensolve
has already certified, thus takes two rounds; the counts alone certify
the root, so a poor start costs rounds, never a wrong root.
The counting function is a pure function of ``z``, so one search evaluates
it at most once per point: the bracket ends shared by every rank on a side
are counted once, and a bound the bracket already certifies is not counted
at all.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from .spectral_core import (
    MesoSpectraError,
    Model,
    ModelError,
    PerturbationSpec,
    SpectrumModel,
    check_delta,
    check_fits,
)
from .predictor import check_separation, pushforward_map
from .transforms import check_outside

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
    multiplicative weights.  The perturbation must fit the spectrum's size
    (:func:`~meso_spectra.spectral_core.check_fits`; its frame is ``None``
    for the leading coordinates), and :class:`Model` already requires a
    multiplicative kind's spectrum to be PSD.
    """

    model: Model
    pert: PerturbationSpec

    def __post_init__(self):
        if self.model.spectrum is None:
            raise ModelError(f"{self.model.kind.value} has no explicit spectrum")
        check_fits(self.spectrum.n, self.pert.thetas, self.model.kind.multiplicative,
                   self.pert.frame)

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
    def _inverse_strength_norm(self) -> float:
        """``max |1/theta|``, the norm of ``diag(1/theta)``."""
        return 1.0 / np.abs(self.pert.thetas).min()

    @cached_property
    def _frame(self) -> np.ndarray:
        """``U``: the perturbation's frame, or the leading coordinate axes."""
        if self.pert.frame is None:
            return np.eye(self.spectrum.n, self.m)
        return self.pert.frame

    @cached_property
    def _frame_rows(self) -> np.ndarray:
        """``U^T``, contiguous."""
        return np.ascontiguousarray(self._frame.T)

    @cached_property
    def _numerators(self) -> np.ndarray | float:
        """Numerators of the resolvent weights: the eigenvalues for a
        multiplicative kind, ``1`` for an additive one."""
        return self.spectrum.eigenvalues if self.model.kind.multiplicative else 1.0

    def _weights(self, z: float | np.ndarray) -> np.ndarray:
        """Resolvent weights at ``z``, one row of ``n`` per point for an array."""
        return self._numerators / (np.asarray(z)[..., None] - self.spectrum.eigenvalues)

    def _largest_weight(self, z: float) -> float:
        """``max |w(z)|`` over the resolvent weights, for ``z`` outside the
        bulk.  An additive weight ``1/(z - lambda)`` is largest in size at
        the nearer edge, and rounding keeps that order, so the edge's weight
        is the same float as the maximum over all ``n``."""
        if self.model.kind.multiplicative:
            return np.abs(self._weights(z)).max()
        lam_max, lam_min = self.spectrum.lam_max, self.spectrum.lam_min
        return abs(1.0 / (z - (lam_max if z > lam_max else lam_min)))

    def _weight_slopes(self, z: float | np.ndarray) -> np.ndarray:
        """Minus the ``z``-derivative of :meth:`_weights`, so that
        ``D'(z) = U^T diag(slopes) U``."""
        return self._numerators / (np.asarray(z)[..., None] - self.spectrum.eigenvalues) ** 2


def evaluate_d(op: MasterOperator, z: float | np.ndarray) -> np.ndarray:
    """The ``m x m`` symmetric matrix ``D(z)``, for ``z`` outside the bulk.

    For a 1-D array of points the result stacks one ``D`` per point; each
    equals, bit for bit, the matrix at that point alone.
    """
    points = np.asarray(z, dtype=float)
    inside = points[(op.spectrum.lam_min <= points) & (points <= op.spectrum.lam_max)]
    if inside.size:
        check_outside(op.spectrum, float(inside.flat[0]))
    # One stacked matmul, making the same gemm per point as for that point
    # alone.  The weighted frame w * U is formed row-major as w * U^T, where
    # the products run along the n axis, and handed to the gemm transposed.
    weighted = op._weights(points)[..., None, :] * op._frame_rows
    g = np.matmul(op._frame.T, np.swapaxes(weighted, -1, -2))
    return op._inverse_strengths - 0.5 * (g + np.swapaxes(g, -1, -2))


def counting_function(op: MasterOperator, z: float | np.ndarray) -> int | np.ndarray:
    """Number of nonnegative eigenvalues of ``D(z)``, per point for an array.

    Non-decreasing and right-continuous in ``z`` on each side of the bulk;
    its jump points are the perturbed eigenvalues outside the bulk.
    """
    points = np.asarray(z, dtype=float)
    if op.m == 0:
        counts = np.zeros(points.shape, dtype=int)
    else:
        tau = np.linalg.eigvalsh(evaluate_d(op, points))
        counts = np.count_nonzero(tau >= 0.0, axis=-1)
    return int(counts) if points.ndim == 0 else counts


def _crossing(
    op: MasterOperator, z: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counts, the crossing eigenvalues ``g`` and their slopes at the points ``z``.

    ``g[k]`` is the ``target[k]``-th largest eigenvalue of ``D(z[k])``, so
    ``count >= target`` exactly when ``g >= 0``.  With ``v`` its unit
    eigenvector, ``g' = v^T D'(z) v = sum_i w'_i (U v)_i^2``.
    """
    tau, vecs = np.linalg.eigh(evaluate_d(op, z))
    points = np.arange(z.size)
    k = op.m - target
    uv = np.matmul(op._frame, vecs[points, :, k][..., None])
    slope = np.matmul(op._weight_slopes(z)[:, None, :], uv * uv)
    return np.count_nonzero(tau >= 0.0, axis=-1), tau[points, k], slope[:, 0, 0]


# A rank's search yields the list of requests for one round, is sent their
# answers in the same order, and returns its root: ``(z, None)`` asks for the
# count at ``z``, and ``(z, target)`` for :func:`_crossing` at ``z``.
_Request = tuple[float, int | None]
_Search = Generator[list[_Request], list, float]


def _locate_root(
    op: MasterOperator,
    rank: int,
    target: int,
    near: float,
    far: float,
    tol: float,
    start: float,
) -> _Search:
    """Smallest z with ``count(z) >= target``, bracketed by ``near`` and ``far``.

    A generator: it yields the evaluations each round needs as requests
    (see ``_Search``), is sent the answers, and returns the root.
    ``count`` is the counting function of ``op``.  ``near`` lies just off
    the bulk edge and ``far`` beyond it (above the bulk when ``far >
    near``); ``far`` moves away from ``near`` geometrically until the two
    bracket the root.  The first round counts ``far`` and ``near`` and,
    when ``start`` lies strictly between them, takes the crossing at
    ``start`` too; a start outside that first bracket (inside the bulk, or
    beyond ``far``) is not evaluated there.  Inside the bracket [lo, hi],
    which keeps ``count(lo) < target <= count(hi)``, Newton steps on the
    crossing eigenvalue of ``D(z)`` start at ``start`` (the midpoint when
    ``start`` is outside the bracket), the first reusing the crossing of
    the first round; a step that leaves the bracket, or a nonpositive
    slope, takes the midpoint instead.  Once a step is at most ``tol / 4``
    the stepped-to point is returned if it is certified within ``tol / 2``
    on both sides, both sides counted in one round.  A bracket end within
    ``tol / 2`` already certifies its side, because the count is
    non-decreasing; only the other side is counted.  Otherwise the bracket
    shrinks to ``tol``, by bisection on the count once the Newton steps run
    out, and its midpoint is returned, unless rounding hides the root (see
    :func:`_resolved`).
    """
    upper = far > near
    where = "above" if upper else "below"
    first = [(far, None), (near, None)]
    if min(near, far) < start < max(near, far):
        first.append((start, target))
    reached_far, reached_near, *first_step = yield first
    for _ in range(60):
        if (reached_far >= target) == upper:
            break
        far = near + 2.0 * (far - near)
        (reached_far,) = yield [(far, None)]
    else:
        raise MissingRootError(f"rank {rank}: no bracket found {where} the bulk", rank)
    if (reached_near >= target) == upper:
        raise MissingRootError(
            f"rank {rank}: the bulk edge {where} does not bracket the root", rank
        )
    lo, hi = (near, far) if upper else (far, near)
    z = start if lo < start < hi else 0.5 * (lo + hi)
    slope = 0.0
    for _ in range(400):
        if hi - lo <= tol:
            break
        reached, g, slope = first_step.pop() if first_step else (yield [(z, target)])[0]
        if reached >= target:
            hi = z
        else:
            lo = z
        step = g / slope if slope > 0.0 else math.inf
        z -= step
        if abs(step) <= 0.25 * tol:
            above, below = z + 0.5 * tol, z - 0.5 * tol
            ask_above, ask_below = hi > above, lo < below
            asked = [(p, None) for p, ask in ((above, ask_above), (below, ask_below))
                     if ask]
            counts = iter((yield asked) if asked else ())
            certified_above = not ask_above or next(counts) >= target
            certified_below = not ask_below or next(counts) < target
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
        if (yield [(z, None)])[0] >= target:
            hi = z
        else:
            lo = z
    return _resolved(op, rank, 0.5 * (lo + hi), slope, tol)


def _resolved(op: MasterOperator, rank: int, z: float, slope: float, tol: float) -> float:
    """``z``, unless rounding can flip the counts that certify it: the
    eigenvalues of ``D(z)`` carry errors up to ``eps * ||D(z)||``, at most
    ``eps * (max |1/theta| + max |w(z)|)``, which must stay below the
    crossing branch's change ``slope * tol / 2`` (unchecked without a slope)."""
    norm = op._inverse_strength_norm + op._largest_weight(z)
    if 0.0 < slope * tol <= 2.0 * np.finfo(float).eps * norm:
        raise MissingRootError(f"rank {rank}: rounding in D(z) (norm {norm:.3g}) "
                               f"hides the root near {z!r} at tol {tol!r}", rank)
    return z


def _in_rounds(op: MasterOperator, searches: dict[int, _Search]) -> list[OutlierRoot]:
    """Run every rank's search in lock-step and return the roots in rank order.

    Each round sends every pending search its answers and collects its next
    requests.  The round's new count points go to one stacked
    :func:`counting_function` call, memoized for the whole run, and its
    crossings to one stacked :func:`_crossing` call.  A failed search drops
    the searches above it, and the lowest failed rank's error is raised.
    """
    counts: dict[float, int] = {}
    roots: dict[int, float] = {}
    failures: dict[int, MissingRootError] = {}
    answers: dict[int, Any] = dict.fromkeys(searches)
    while answers:
        requests: dict[int, list[_Request]] = {}
        for rank, answer in answers.items():
            if failures and rank > min(failures):
                continue
            try:
                requests[rank] = searches[rank].send(answer)
            except StopIteration as done:
                roots[rank] = done.value
            except MissingRootError as exc:
                failures[rank] = exc
        asked = [(rank, z, target) for rank, round_ in requests.items()
                 for z, target in round_]
        fresh = list(dict.fromkeys(
            z for _, z, target in asked if target is None and z not in counts))
        if fresh:
            counts.update(zip(fresh, counting_function(op, np.array(fresh)).tolist()))
        crossings = [(rank, z, target) for rank, z, target in asked if target is not None]
        crossed = {}
        if crossings:
            ranks, points, targets = zip(*crossings)
            found = _crossing(op, np.array(points), np.array(targets))
            crossed = dict(zip(zip(ranks, points), zip(*(a.tolist() for a in found))))
        answers = {rank: [crossed[rank, z] if target is not None else counts[z]
                          for z, target in round_]
                   for rank, round_ in requests.items()}
    if failures:
        raise failures[min(failures)]
    return [OutlierRoot(rank=rank, location=roots[rank]) for rank in sorted(roots)]


def locate_outliers(
    op: MasterOperator,
    delta: float,
    tol: float | None = None,
    starts: Mapping[int, float] | None = None,
) -> list[OutlierRoot]:
    """Locate every separated outlier, above and below the bulk, in rank order.

    Ranks ``1 .. m_positive`` (positive strengths) lie above the bulk and
    the rest below it.  Ranks failing the separation test at margin
    ``delta`` are skipped (their roots may not exist or may hide within
    ``2 * delta`` of the bulk); a ``delta`` or ``tol`` that is not positive
    and finite raises :class:`ModelError`, even without ranks.  For each
    remaining rank, Newton steps on the crossing eigenvalue of ``D(z)``
    run inside a bracket the counting function certifies, with bisection
    as the fallback; the returned location ``z`` satisfies ``n(z + tol) >=
    target > n(z - tol)``.  The steps start at ``starts[rank]``, a
    candidate location such as the realized eigenvalue, or at the
    predicted location (:func:`~meso_spectra.predictor.pushforward_map`)
    for a rank ``starts`` does not name.  The start sets how many rounds a
    rank takes, not its root: the counts certify it either way.  Every
    rank on a side starts from the same bracket.  The ranks search in
    rounds: each round evaluates every rank's next Newton step in one
    stacked call, and every new count point in another, so a rank's root
    is the one it would find searched alone.  The counting function is
    evaluated at most once per point within the call.  A root that cannot
    be bracketed to ``tol`` (for instance a ``tol`` below the spacing of
    doubles at the root) raises :class:`MissingRootError`; when several
    ranks fail, the call raises the lowest rank's error.

    Default ``tol`` is ``1e-9 * (1 + max |lambda|)``.
    """
    check_delta(delta)
    if tol is None:
        tol = 1e-9 * (1.0 + op.spectrum.norm_bound)
    elif not (math.isfinite(tol) and tol > 0.0):
        raise ModelError(f"tol must be positive and finite, got {tol!r}")
    m = op.m
    m1 = op.pert.m_positive
    thetas = op.pert.thetas
    lam_max, lam_min = op.spectrum.lam_max, op.spectrum.lam_min
    starts = starts or {}
    searches: dict[int, _Search] = {}
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
        start = starts[rank] if rank in starts else pushforward_map(op.model, theta)
        searches[rank] = _locate_root(op, rank, target, near, far, tol, start=start)
    return _in_rounds(op, searches)
