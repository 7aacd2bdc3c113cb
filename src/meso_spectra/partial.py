"""Certified partial eigensolves of the two structured samples.

An orthogonally invariant sample with a frame is ``A = diag(d) + W K W^T``
with a known bulk ``[min d, max d]``; a Gaussian Wigner sample on the
leading coordinates is a band matrix ``T``, held as its block stacks
(:class:`~meso_spectra.band.Blocks`), with strengths on its leading
diagonal.  :func:`filtered_extremes` and :func:`band_extremes` give the top
``M+`` and bottom ``M-`` eigenpairs of each, or their values alone,
certified, or the reason they could not certify them;
:func:`~meso_spectra.ensembles.eigensolve` calls them on samples with more
than ``FILTER_ROWS_PER_PAIR`` rows per pair.

Both refine Ritz pairs in one loop, :func:`_refine`, of shift-and-invert
sweeps at the Ritz values, each followed by a Rayleigh-Ritz step, and both
end on one certificate, :func:`_certify`, of the last Rayleigh-Ritz step as
it stands, residuals and all, with no further product or ``eigh`` (a band
solve whose leading block meets the targets with no sweep takes one step
first).  Pairs are certified by their residuals; values alone each by the
smaller of a first-order block bound, which needs no gap between outliers,
and, for a value apart from the others and the bulk, the second-order
Kato-Temple bound ``r^2 / gap``.  So a values solve's residual targets are
per pair (:func:`_values_targets`), about the square root of the
first-order ones, and it stops about a sweep earlier.

* :func:`filtered_extremes` starts from a Chebyshev filter stage on the
  diagonal-plus-low-rank structure and sweeps through the Woodbury
  identity (``n m'^2`` per vector, ``m'`` the update's rank) while a sweep
  costs less than the next filter stage (``need n m'``).  It gives up when
  the Ritz values are not beyond the bulk (and, for pairs, apart) once the
  filter reaches ``FILTER_FIRST_DEGREE``, or when it would need more than
  ``FILTER_MAX_DEGREE`` in total.
* :func:`band_extremes` starts from the Ritz pairs of a leading principal
  block of ``T``, the Rayleigh-Ritz problem of block Lanczos started on the
  leading coordinates, grown until two sweeps are predicted to finish them
  and the bulk's edges, as the block sees them, have settled, then sweeps
  on the leading rows of ``T`` that the pairs need (``O(M^2)``
  per row and vector through block cyclic reduction,
  :func:`band.solve`).  Vectors live on their working rows, where ``T``'s
  product is exact: the blocks they occupy and one zero block below, so
  residuals, Rayleigh-Ritz steps and the certificate are those of all of
  ``T`` at the cost of those rows alone.  Exact counts
  from Sylvester's inertia of a block LDL^T factorization
  (:func:`band.inertia`), at a cut on each side, prove the interval that
  holds the rest of the spectrum.  It gives up when the leading block would
  pass ``n / (2M)`` blocks, a pivot block of the count is near-singular, or
  a count is not ``M+`` (or ``M-``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import band

# Realized eigenvalues closer than this, relative to max(1, spectral radius),
# are treated as one degenerate cluster.  The partial eigensolve certifies
# every pair it returns to be farther than this from its neighbours.
DEGENERACY_TOLERANCE = 1e-10

# A Ritz pair of the partial eigensolve has converged once its residual is at
# most this, relative to the smaller of max(1, largest |Ritz value|) and its
# distance to the rest of the spectrum.  Values alone have converged once
# each value's bound (first or second order, see _certify) is at most this
# relative to the former alone.
FILTER_TOLERANCE = 1e-12

# The total Chebyshev filter degree the partial eigensolve may spend before
# it falls back to the dense one, and the degree by which the Ritz values
# must be beyond the bulk and apart.  One degree applies A to the block
# once, as one block Lanczos step does.
FILTER_MAX_DEGREE = 200
FILTER_FIRST_DEGREE = 12

# The partial eigensolve runs only on samples with more than this many rows
# per pair, plus one: n > FILTER_ROWS_PER_PAIR * (M + 1).  On 2 cores with
# OpenBLAS, with the dense n x n assembly counted in the dense side's cost
# and the partial solve's sweeps in its own, values alone (additive, on
# semicircle quantiles, strengths 2.5 .. 1.5 of alternating sign) stay
# faster than eigvalsh from n = 100 to 110, 120, 130, 140 and 180 for M = 1,
# 2, 4, 8 and 12 (at n = 400, M = 8: 10.6 ms dense, 1.0 ms partial), and
# pairs (multiplicative, on a uniform spectrum) stay faster than eigh from
# n = 70, 90, 90, 110 and 130.  So the rule is conservative for pairs, and
# for values from M = 2; for values at M = 1 it admits samples from n = 81,
# where the partial solve costs up to about 0.1 ms more than the dense one
# (0.68 against 0.57 ms at n = 90).
FILTER_ROWS_PER_PAIR = 40

# The band solve's first leading block has this many blocks of w rows; the
# second has twice as many, and their residuals' fall predicts the rest.
BAND_FIRST_BLOCKS = 4


class _Ritz(NamedTuple):
    """Ritz pairs of ``A``: values descending, unit vectors as columns and
    residual norms ``|A u - mu u|``, with the basis ``q``, its image ``A q``
    and the symmetrized ``h = Q^T A Q`` of their Rayleigh-Ritz step
    (``None`` for a band solve's leading-block pairs, which no certificate
    sees)."""

    values: np.ndarray
    vecs: np.ndarray
    resid: np.ndarray
    q: np.ndarray | None = None
    image: np.ndarray | None = None
    h: np.ndarray | None = None

    @property
    def radius(self) -> float:
        """``max(1, largest |Ritz value|)``."""
        return max(1.0, abs(self.values[0]), abs(self.values[-1]))


def _rayleigh_ritz(apply, x: np.ndarray) -> _Ritz:
    """The Ritz pairs of ``A`` (applied to columns by ``apply``) on the span
    of the columns of ``x``, from a QR factor ``Q``, ``A Q`` and ``eigh`` of
    ``Q^T A Q``, symmetrized, so that each Ritz value is its vector's
    Rayleigh quotient to rounding.  The vectors keep ``x``'s memory order: a
    Fortran-ordered block, whose columns are contiguous, stays one."""
    q = np.linalg.qr(x)[0]
    image = apply(q)
    h = q.T @ image
    h = 0.5 * (h + h.T)
    ritz, rot = np.linalg.eigh(h)
    values, rot = ritz[::-1], rot[:, ::-1]
    if x.flags.c_contiguous:
        vecs, turned = q @ rot, image @ rot
    else:
        vecs, turned = (rot.T @ q.T).T, (rot.T @ image.T).T
    resid = np.linalg.norm(turned - vecs * values, axis=0)
    return _Ritz(values, vecs, resid, q, image, h)


def _values_targets(first: float, radius: float, gap: np.ndarray) -> np.ndarray:
    """The residual targets of a values solve's pairs, each value ``gap``
    from its neighbours and the bulk: ``first``, at which the first-order
    block bound of :func:`_certify` meets the tolerance, or, when every
    value is apart from the rest by more than four times the block residual
    the larger targets allow, each pair's own ``sqrt(FILTER_TOLERANCE *
    radius * gap / 4)`` if larger, at which its second-order bound ``r^2 /
    (gap - bound)`` meets a third of the tolerance."""
    targets = np.maximum(first, np.sqrt(0.25 * FILTER_TOLERANCE * radius
                                        * np.maximum(gap, 0.0)))
    if (gap > 4.0 * np.linalg.norm(targets)).all():
        return targets
    return np.full(gap.shape, first)


def _sweep(solve, ritz: _Ritz, todo: np.ndarray, isolation: np.ndarray):
    """A sweep of :func:`_refine` on the pairs ``todo`` of ``ritz``, solved
    by ``solve(shifts, columns)``: the block with those columns replaced and
    the predicted fall, or ``None`` when the sweep gives way."""
    r, isolation = ritz.resid[todo], isolation[todo]
    if not (2.0 * r < isolation).all():
        return None
    with np.errstate(all="ignore"):
        try:
            solved = solve(ritz.values[todo], ritz.vecs[:, todo])
        except np.linalg.LinAlgError:
            return None
    if solved is None or not np.isfinite(solved).all():
        return None
    x = ritz.vecs.copy(order="K")
    x[:, todo] = solved
    return x, 2.0 * float(np.log(isolation / r).min())


def _refine(apply, ritz: _Ritz, goals, step) -> tuple[_Ritz, bool] | str:
    """The loop both structured solves refine their Ritz pairs by, from
    ``ritz``, applying ``A`` to columns by ``apply``: the last state and
    whether every pair met its target, or a reason to give up.

    Each round ``goals(ritz)`` gives the residual targets and each value's
    isolation, its distance to the other values and the bulk, or a reason
    to give up.  The loop stops when every residual meets its target.
    Otherwise ``step(ritz, todo, excess, isolation)`` steps the pairs above
    their targets, ``todo``, ``excess`` being their ``log(residual /
    target)``.  It returns the new block of ``M`` columns with the fall it
    predicts for the worst excess, in log (``None`` for no prediction), a
    reason to give up, or ``None`` to give way, which ends the loop unmet.
    A Rayleigh-Ritz step on all ``M`` columns follows.

    Sweeps (:func:`_sweep`) are Rayleigh quotient iteration (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4): each vector ``u`` above its
    target becomes ``(A - mu)^-1 u`` at its own Ritz value ``mu``.  A shift
    within half its isolation is nearest its own eigenvalue, so a sweep
    runs only when ``2 r < isolation`` for every residual ``r`` it steps,
    and it takes ``r`` to about ``r^3 / isolation^2``, a predicted fall of
    ``2 log(isolation / r)``.  A sweep whose solve raises ``LinAlgError``,
    returns ``None`` or is not finite (a shift on an eigenvalue) gives way,
    with no warning.  A step whose worst excess fell by less than half its
    prediction has met the rounding floor: the loop stalls there, unmet,
    and each solve decides what a stall means.

    The certificate, :func:`_certify`, reads the last state as it stands
    and applies ``A`` no more: pairs with the residuals the step formed,
    values with those residuals, its Ritz values and its ``Q``, ``A Q`` and
    ``H``.
    """
    fall = None
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            goal = goals(ritz)
            if isinstance(goal, str):
                return goal
            target, isolation = goal
            todo = ritz.resid > target
            if not todo.any():
                return ritz, True
            excess = np.log(ritz.resid / target)[todo]
            if fall is not None and worst - excess.max() < 0.5 * fall:
                return ritz, False
            stepped = step(ritz, todo, excess, isolation)
            if stepped is None or isinstance(stepped, str):
                return stepped or (ritz, False)
            (x, fall), worst = stepped, excess.max()
            ritz = _rayleigh_ritz(apply, x)


def _shifted_grams(w: np.ndarray, sandwich: bool):
    """``grams(shifts, e)``: ``W^T E W`` for ``E = diag(e_j)``, one row
    ``e_j = 1 / (d - shifts_j)`` of ``e`` per shift, stacked.

    One batched product ``(W^T * e_j) W``, the same gemm per shift as each
    shift alone, ``n m'^2`` per shift for ``W`` of rank ``m'``.  When
    ``sandwich``, ``W`` is :func:`ensembles._sandwich_update`'s ``[V, B
    V]`` with ``B = diag(d)``, and every block follows from one ``V^T E
    V``, ``n M^2`` per shift: ``E B = I + sigma E``, so with ``V^T V`` and
    ``G = V^T B V`` formed once, ``V^T E (B V) = V^T V + sigma V^T E V`` and
    ``(B V)^T E (B V) = G + sigma V^T V + sigma^2 V^T E V``.
    """
    wt = np.ascontiguousarray(w.T)
    if not sandwich:
        return lambda shifts, e: (wt[None] * e[:, None, :]) @ w
    m = w.shape[1] // 2
    v, vt = np.ascontiguousarray(w[:, :m]), wt[:m]
    vv, g = vt @ v, vt @ w[:, m:]

    def grams(shifts: np.ndarray, e: np.ndarray) -> np.ndarray:
        vev = (vt[None] * e[:, None, :]) @ v
        sigma = shifts[:, None, None]
        cross = vv + sigma * vev
        out = np.empty((shifts.size, 2 * m, 2 * m))
        out[:, :m, :m] = vev
        out[:, :m, m:] = cross
        out[:, m:, :m] = cross.swapaxes(-1, -2)
        out[:, m:, m:] = g + sigma * (vv + sigma * vev)
        return out

    return grams


def filtered_extremes(
    d: np.ndarray, w: np.ndarray, k: np.ndarray, start: np.ndarray,
    upper: int, psd: bool, vectors: bool,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray | str:
    """Certified top ``upper`` and bottom ``M - upper`` eigenpairs of
    ``A = diag(d) + W K W^T`` (``M`` the columns of ``start``), their values
    alone when not ``vectors``, or the reason they could not be certified.

    A Chebyshev filter stage (Zhou, Saad, Tiago and Chelikowsky, J. Comput.
    Phys. 219, 2006) on a block of ``M`` vectors started on the orthonormal
    ``start``, applying ``A`` as ``d * x + W (K (W^T x))``, then the loop of
    :func:`_refine`, stepped by further stages or sweeps, with the
    tolerances of :func:`_certify` as targets, per pair when not
    ``vectors`` (:func:`_values_targets`, each value's gap taken to the
    other values and the bulk), and that certificate on its last step.  All
    eigenvalues but the wanted ones lie in the bulk ``[min d, max d]`` (see
    :func:`_certify`), on which ``T_m((A - centre) / half)`` is at most 1 in
    modulus, while it multiplies an eigenvector at ``lambda`` beyond the
    bulk by about ``rho^m / 2``, with ``rho = |x| + sqrt(x^2 - 1)`` at the
    mapped ``x = (lambda - centre) / half``: a stage predicts that fall.  A
    stage filters the pairs above their targets and projects the others out
    at every step of the three-term recurrence.  A sweep solves through the
    Woodbury identity with ``E = (diag(d) - sigma)^-1``: ``E x - E W K (I +
    W^T E W K)^-1 W^T E x``, every shift's ``W^T E W`` from one batched
    product (:func:`_shifted_grams`); a multiplicative sample (``psd``),
    whose ``W`` is :func:`ensembles._sandwich_update`'s ``[V, diag(d) V]``,
    builds them from ``V^T E V`` alone.

    Before it tests the targets, the solve gives up ("Ritz values not
    separated") once the filter has reached ``FILTER_FIRST_DEGREE`` and the
    Ritz values are not beyond the bulk and, when ``vectors``, apart from
    one another; a Ritz value never passes its eigenvalue (Cauchy
    interlacing), so a subcritical strength never gets there.  A next stage
    would take the degree ``need`` at which the predicted fall reaches the
    targets.  For ``n`` rows and ``W`` of rank ``m'`` it costs ``need n
    m'`` per vector and a sweep ``n m'^2``, so the solve sweeps when ``m' <
    need``, charged ``m'`` degrees, and filters when a sweep gives way.  It
    gives up ("step cap reached") when the next stage or sweep would take
    the total past ``FILTER_MAX_DEGREE``.  Each stage's degree is bounded
    so that no pair above its target outgrows another by more than ``1 /
    sqrt(FILTER_TOLERANCE)``, beyond which rounding swamps the slower one;
    the first stage bounds the fastest growth through Weyl's bound ``half +
    |W K W^T|`` on ``|A - centre|``.  After a stall the certificate decides
    on the pairs as they stand.  No random numbers are drawn.
    """
    low, high = float(d.min()), float(d.max())
    centre = 0.5 * (low + high)
    d_abs = max(1.0, float(np.abs(d).max()))
    # Half the bulk's width, floored so that a flat spectrum maps too.
    half = max(0.5 * (high - low), FILTER_TOLERANCE * d_abs)
    log_growth_cap = -0.5 * math.log(FILTER_TOLERANCE)
    wt = np.ascontiguousarray(w.T)
    rank = w.shape[1]

    # Blocks hold their vectors as rows, so that d scales contiguous rows;
    # the refinement sees their transposes, Fortran-ordered columns.
    def apply(x: np.ndarray) -> np.ndarray:
        rows = x.T
        return (((rows @ w) @ k) @ wt + d * rows).T

    def log_rho(values: np.ndarray) -> np.ndarray:
        x = np.maximum(np.abs(values - centre) / half, 1.0)
        return np.log(x + np.sqrt(x * x - 1.0))

    # x -> 2 (A - centre) x / half, the recurrence's step on rows, kept
    # orthogonal to the rows ``kept``.
    scaled_d, scaled_k = (d - centre) * (2.0 / half), k * (2.0 / half)

    def filtered(x: np.ndarray, degree: int, kept: np.ndarray) -> np.ndarray:
        def step(x: np.ndarray) -> np.ndarray:
            y = ((x @ w) @ scaled_k) @ wt
            y += scaled_d * x
            if kept.size:
                y -= (y @ kept.T) @ kept
            return y

        prev, cur = x, step(x)
        cur *= 0.5  # T_1(x) = x, then T_j+1(x) = 2 x T_j(x) - T_j-1(x)
        for _ in range(degree - 1):
            nxt = step(cur)
            nxt -= prev
            prev, cur = cur, nxt
        return cur

    grams = _shifted_grams(w, psd)

    def woodbury(shifts: np.ndarray, x: np.ndarray) -> np.ndarray:
        # Column j becomes (A - shift_j)^-1 x_j.
        rows = x.T
        e = 1.0 / (d - shifts[:, None])
        z = np.linalg.solve(np.eye(rank) + grams(shifts, e) @ k,
                            ((e * rows) @ w)[:, :, None])
        return (e * (rows - (z[:, :, 0] @ k.T) @ wt)).T

    def goals(ritz: _Ritz):
        nonlocal separated, margin
        values, radius = ritz.values, ritz.radius
        margin = DEGENERACY_TOLERANCE * max(radius, d_abs)
        # Each value's distance to the others and to the bulk.
        _, _, apart = _intervals(values, 0.0, upper, d)
        if vectors:
            gap, target = apart, FILTER_TOLERANCE * np.minimum(radius, apart)
        else:
            # Values need only clear the bulk, not one another.
            gap = np.concatenate((values[:upper] - high, low - values[upper:]))
            target = _values_targets(
                FILTER_TOLERANCE * radius / math.sqrt(values.size), radius, apart)
        separated = bool((gap > margin).all())
        if not separated and used >= FILTER_FIRST_DEGREE:
            return "Ritz values not separated"
        return target, apart

    def advance(ritz: _Ritz, todo: np.ndarray, excess: np.ndarray,
                isolation: np.ndarray):
        nonlocal used
        rates = log_rho(ritz.values[todo])
        if separated:
            need = float(((math.log(2.0) + excess) / rates).max())
            if rank < need and used + rank <= FILTER_MAX_DEGREE:
                moved = _sweep(woodbury, ritz, todo, isolation)
                if moved is not None:
                    used += rank
                    return moved
        else:
            need = FILTER_FIRST_DEGREE - used
        if not used + need <= FILTER_MAX_DEGREE:
            return "step cap reached"
        degree = math.ceil(need)
        spread = float(rates.max() - rates.min())
        if spread > 0.0:
            degree = min(degree, max(1, int(log_growth_cap / spread)))
        used += degree
        rows = ritz.vecs.T.copy()
        rows[todo] = filtered(rows[todo], degree, rows[~todo])
        return rows.T, (degree * float(rates.min()) - math.log(2.0)
                        if separated else None)

    # Weyl: no eigenvalue is farther than half + |W K W^T| from centre.
    low_rank = float(np.abs(np.linalg.eigvals(k @ (wt @ w))).max())
    fastest = float(log_rho(centre + half + low_rank))
    used = min(FILTER_FIRST_DEGREE, FILTER_MAX_DEGREE)
    if fastest > 0.0:
        used = min(used, max(1, int(log_growth_cap / fastest)))
    separated = margin = None
    first = filtered(start.T, used, np.empty((0, d.size))).T
    found = _refine(apply, _rayleigh_ritz(apply, first), goals, advance)
    if isinstance(found, str):
        return found
    return _certify(found[0], d, upper, psd, margin, vectors)


def _intervals(values: np.ndarray, resid, upper: int, d: np.ndarray):
    """Intervals ``[values - resid, values + resid]`` with the bulk
    ``[min d, max d]`` inserted after the top ``upper``, as ``(low, high)``,
    and each value's distance to the intervals next to it.  ``d`` is the
    base's diagonal, or any array whose ends bound the bulk."""
    def insert(a: np.ndarray, value: float) -> np.ndarray:
        return np.concatenate((a[:upper], [value], a[upper:]))

    low = insert(values - resid, d.min())
    high = insert(values + resid, d.max())
    centre = insert(values, 0.5 * (low[upper] + high[upper]))
    gap = np.minimum(np.concatenate(([np.inf], low[:-1])) - centre,
                     centre - np.concatenate((high[1:], [-np.inf])))
    return low, high, np.concatenate((gap[:upper], gap[upper + 1:]))


def _certify(ritz: _Ritz, d: np.ndarray, upper: int, psd: bool, margin: float,
             vectors: bool) -> tuple[np.ndarray, np.ndarray] | np.ndarray | str:
    """The Ritz pairs of ``A = diag(d) + W K W^T`` of the last
    Rayleigh-Ritz step ``ritz`` of :func:`_refine`, the top ``upper``
    first, their values alone when not ``vectors``, or ``"certificate
    failed"``.  It reads the step as it stands, its Ritz values, residuals,
    ``Q``, ``A Q`` and ``H``, and takes no product with ``A`` and no
    ``eigh``.

    ``A`` has at most ``upper`` eigenvalues above ``max d`` and at most
    ``M - upper`` below ``min d``, and the others lie in ``[min d, max
    d]``: additively by Weyl interlacing, and multiplicatively because ``S
    B S`` has the spectrum of ``B + (B^1/2 V) Theta (B^1/2 V)^T`` when
    ``B`` is PSD (``psd``).  The band solve passes, as ``d``, the two ends
    of an interval that its counts prove to hold every eigenvalue but the
    ``M`` extreme ones, and the same arguments hold with that interval as
    the bulk.

    Pairs.  The pairs ``(mu, u)`` are ``u = Q y`` with the Ritz values,
    certified with the residuals ``r = |A u - mu u| / |u|`` from ``(A Q) y
    - mu Q y``, ``A u - mu u`` to rounding, which the step has formed.
    Each interval ``[mu - r, mu + r]`` holds an eigenvalue, whatever ``mu``
    and the norm of ``u`` (Parlett, The Symmetric Eigenvalue Problem, ch.
    11).  So when the upper intervals lie beyond ``max d`` and the lower
    ones beyond ``min d``, each side's intervals apart from one another and
    from the bulk by more than ``margin`` (``DEGENERACY_TOLERANCE`` times
    ``max(1, max|d|, largest |Ritz value|)``, a bound on the spectral radius
    once this holds), they hold exactly ``lambda_1 .. lambda_upper`` and the
    ``M - upper`` smallest eigenvalues, none of them in a degenerate
    cluster.  The rest of the spectrum then lies at least ``gap`` from
    ``mu``: ``gap`` is the distance to the nearest other interval or to the
    bulk.

    Values are returned descending with their vectors, unit up to
    rounding.  Each has ``r <= FILTER_TOLERANCE * min(radius, gap)``,
    ``radius`` being ``max(1, largest |Ritz value|)``.  So its value is
    within ``FILTER_TOLERANCE * max(1, |A|)`` of its eigenvalue, and its
    vector within angle ``r / gap <= FILTER_TOLERANCE`` of the eigenvector
    (Davis-Kahan).  Pairs too close to one another or to the bulk for
    rounding to reach that residual fail the certificate.

    Values, first order.  ``H = Q^T A Q``, symmetrized, has the Ritz values
    ``theta`` as eigenvalues; ``R = A Q - Q H``.  When ``Q`` is exactly
    orthonormal, ``A`` has ``M`` eigenvalues, with distinct indices, each
    within ``|R|_2`` of its own ``theta`` (Kahan's residual bound; Parlett,
    ch. 11).  With the computed ``Q``, ``eta = |Q^T Q - I|_F < 1``, the same
    holds with ``bound = (|R|_F + 3 eta |H|_2) / (1 - eta)``: the bound for
    the orthonormal polar factor ``U = Q (Q^T Q)^(-1/2)`` is at most ``|R|_2
    / (1 - eta)``, and Weyl's bound moves ``U^T A U``'s eigenvalues from
    ``theta`` by at most ``3 eta |H|_2 / (1 - eta)``.  So when the top
    ``upper`` values lie above ``max d`` and the others below ``min d``,
    each by more than ``bound + margin``, their eigenvalues are exactly
    ``lambda_1 .. lambda_upper`` and the ``M - upper`` smallest, in order,
    and each value is within ``bound`` of its eigenvalue.  This bound needs
    no gap between the values, so close or repeated outliers certify.

    Values, second order.  When a value's interval ``[theta_i +- bound]`` is
    apart from its neighbours' and from the bulk by more than ``margin``, it
    holds exactly one eigenvalue (the matching and the count leave no
    other), and no other eigenvalue lies between the near ends ``alpha_i <
    theta_i < beta_i`` of the intervals next to it, the bulk among them.
    Then the Kato-Temple bound (Temple, Proc. R. Soc. A 119, 1928; Kato, J.
    Phys. Soc. Japan 4, 1949) holds for its Ritz vector ``u_i = Q y_i``,
    ``y_i`` the eigenvector of ``H``: the eigenvalue is within ``r^2 /
    min(beta - rho, rho - alpha)`` of the Rayleigh quotient ``rho`` of
    ``u_i``, ``r`` the residual of ``u_i / |u_i|`` at ``rho``.  With the
    computed ``Q``, ``|u_i|^2 >= 1 - eta``, ``r <= r_i / sqrt(1 - eta)`` for
    ``r_i = |A u_i - theta_i u_i|``, the step's residual, and ``rho`` is
    within ``moved = 3 eta |H|_2 / (1 - eta)`` of ``theta_i``, so the value
    is within ``r_i^2 / ((1 - eta) (gap_i - moved)) + moved`` of its
    eigenvalue, ``gap_i`` the distance from ``theta_i`` to the nearer of
    ``alpha_i`` and ``beta_i``.  Each value takes the smaller of its
    bounds, and the certificate asks each to be at most ``FILTER_TOLERANCE
    * max(1, largest |theta|)``.
    """
    values, radius = ritz.values, ritz.radius
    if vectors:
        resid = ritz.resid / np.linalg.norm(ritz.vecs, axis=0)
        # Consecutive intervals, the bulk among them, must be apart by more
        # than the margin.
        low, high, gap = _intervals(values, resid, upper, d)
        certified = ((resid <= FILTER_TOLERANCE * np.minimum(radius, gap)).all()
                     and (low[:-1] - high[1:] > margin).all())
    else:
        q = ritz.q
        size = max(abs(values[0]), abs(values[-1]))
        eta = np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
        bound = (np.linalg.norm(ritz.image - q @ ritz.h)
                 + 3.0 * eta * size) / (1.0 - eta)
        moved = 3.0 * eta * size / (1.0 - eta)
        # Second order, for each value whose interval is apart from the
        # others and from the bulk.
        _, _, gap = _intervals(values, bound, upper, d)
        apart = gap - bound > margin
        each = np.full(values.size, bound)
        each[apart] = np.minimum(bound, ritz.resid[apart] ** 2
                                 / ((1.0 - eta) * (gap[apart] - moved)) + moved)
        certified = (
            eta < 1.0
            and (each <= FILTER_TOLERANCE * radius).all()
            and (values[:upper] - bound > d.max() + margin).all()
            and (values[upper:] + bound < d.min() - margin).all()
        )
    if not certified or (psd and d.min() < 0.0):
        return "certificate failed"
    return (values, ritz.vecs) if vectors else values


def band_extremes(
    t: band.Blocks, thetas: np.ndarray, vectors: bool,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray | str:
    """Certified top ``M+`` and bottom ``M-`` eigenpairs of ``T``, the band
    matrix (half bandwidth ``w``) of the block stacks ``t``, its ``w x w``
    diagonal blocks and the blocks below them (:class:`band.Blocks`), with
    ``thetas`` (``M+`` positive, ``M-`` negative) added to its leading
    diagonal, their values alone when not ``vectors``, or the reason they
    could not be certified.  Every step reads the stacks: the leading
    blocks' windows (:func:`band.window`), the sweeps, the products and the
    counts.

    Growth.  Block Lanczos started on the leading ``w`` coordinates
    reproduces ``T``'s own blocks, so its Rayleigh-Ritz problem after ``k``
    steps is ``T``'s leading ``k w`` rows and columns, solved by ``eigh``.
    A Ritz pair ``(mu, y)`` padded with zeros has the residual
    ``T [y; 0] - mu [y; 0]`` of the block below alone, exactly
    ``|B_k y_last|``.  The first two leading blocks span
    ``BAND_FIRST_BLOCKS`` and twice that many blocks of ``w`` rows; after
    that the residuals' geometric fall between the last two predicts the
    size at which the slowest reaches its target, and the next block has
    that size, at most twice the last.  A pair's target is half the
    certificate's tolerance; a value's is the larger of half the first-order
    one and its second-order target (:func:`_values_targets`), its gap taken
    to the other values and to the cut (see Counts).

    Edges.  The cuts are only as good as the block's next Ritz values,
    which reach the bulk's edges from inside, and slowly: at ``n = 2000``
    the second block's can lie 0.2 inside, enough to put a cut in the bulk.
    The edges have settled once the block has doubled twice, or once each
    cut lies farther beyond its edge than half the edge's move since the
    last, half as large, block.  Until then the block doubles, and the
    solve neither ends nor sweeps.

    Sweeps.  Once the edges have settled, the solve refines the block's Ritz
    pairs by the sweeps of :func:`_refine` in place of further growth, when
    two sweeps are predicted to meet the targets (``r^9 / isolation^8``,
    isolation taken from the block's next Ritz values, the bulk's edges as
    it sees them).
    A sweep solves on ``T_k``, ``T``'s leading ``k`` blocks
    (:func:`band.solve`, O(k w^3) per pair, against O((k w)^3) for ``eigh``
    of the block it spares, so no size rule holds it back), with zeros
    below: the outlier eigenvectors fall geometrically down the band, at
    the rate the growth measures.  The first sweep's ``k`` is the block
    count at which the leading block's residuals would reach that sweep's
    own goal, the larger of the target and ``r^3 / isolation^2``, held
    between one block past the current one and the predicted block count;
    later sweeps run on that count.  Vectors live on their working rows,
    where ``T``'s product is exact: a leading block's pairs on that block's
    rows, and the sweeps' vectors, bases and images on the predicted
    count's, each with one block more, zero in every vector, so that ``T``
    times the vectors padded with zeros is exactly zero below them.  ``T``
    is applied on those rows alone (:meth:`band.Blocks.apply`), its product
    there that of all of ``T`` bit for bit, and only a pairs solve's
    returned vectors are padded to ``n``.  So a ``k`` too small leaves a
    residual above its target, never an unchecked pair.  A stall, or a
    sweep that gives way, gives way to the block growth.

    Give-ups.  The solve gives up ("step cap reached") once the
    prediction, or the block, would exceed ``n / (2 w)`` blocks.  At ``M``
    near ``sqrt(n)`` the leading block would need most of ``T``, and the
    solve gives up after the two first, cheap blocks.  A subcritical
    strength's value lies at the bulk's edge; the edge eigenvectors of this
    band model live on its first rows, so such a value often certifies
    too, and otherwise its slow fall gives up on small blocks.

    Counts.  On each side with outliers a cut ``c`` goes halfway from the
    innermost outlier's value to the last leading block's next Ritz value,
    which lies no farther out than the bulk's true edge (Cauchy
    interlacing), and :func:`band.inertia` counts the eigenvalues beyond
    it.  Below the leading block, ``T - c I`` is then mostly definite, so
    the count proves its eliminated pivots definite by Cholesky and
    diagonalizes only the leading block; a hidden eigenvalue or a
    near-critical strength sends a level to ``eigh``, with the same count.
    The solve gives up when a count's ``delta`` exceeds the margin
    (``DEGENERACY_TOLERANCE`` times ``max(1, |T_k|)``; "near-singular pivot
    block"), and when the count is not ``M+`` above the upper cut and
    ``M-`` below the lower one ("count disagrees").  Otherwise every
    eigenvalue but the ``M`` extreme ones lies between the cuts widened by
    ``delta``, which take the place of ``[min d, max d]`` in the
    certificate, read on the vectors' working rows, where ``T``'s product
    is exact; the counts factor all of ``T``.  A solve grown to its
    targets with no sweep has no Rayleigh-Ritz step yet, and takes one on
    its leading block's pairs for the certificate.
    No random numbers are drawn.
    """
    n, width = t.rows, t.diag.shape[1]
    m = thetas.size
    upper = int(np.count_nonzero(thetas > 0.0))
    lower = m - upper
    if not m:
        return (np.empty(0), np.empty((n, 0))) if vectors else np.empty(0)
    t = band.with_strengths(t, thetas)

    def padded(vecs: np.ndarray, rows: int) -> np.ndarray:
        # Vectors on leading rows with zeros below, to ``rows`` rows.
        return np.vstack((vecs, np.zeros((rows - vecs.shape[0], vecs.shape[1]))))

    def working(count: int) -> int:
        # The working rows of vectors on T's leading ``count`` blocks: those
        # blocks and one zero block below, all n at most.
        return min(n, (count + 1) * width)

    def cuts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
        # Halfway from the innermost outlier to the bulk's edge on each side
        # (the edge itself on a side without outliers), as (low, high).
        out = edges.copy()
        if lower:
            out[0] = 0.5 * (values[upper] + edges[0])
        if upper:
            out[1] = 0.5 * (values[upper - 1] + edges[1])
        return out

    def goals(ritz: _Ritz):
        values, radius = ritz.values, ritz.radius
        _, _, isolation = _intervals(values, 0.0, upper, edges)
        _, _, gap = _intervals(values, 0.0, upper, cuts(values, edges))
        if vectors:
            return 0.5 * FILTER_TOLERANCE * np.minimum(radius, gap), isolation
        return _values_targets(0.5 * FILTER_TOLERANCE * radius / math.sqrt(m),
                               radius, gap), isolation

    def sweep(ritz: _Ritz, todo: np.ndarray, excess: np.ndarray,
              isolation: np.ndarray):
        # The first sweep, on pairs from a leading block, solves on the
        # leading ``first`` blocks and later ones on ``full``.
        leading = t.leading(first if ritz.q is None else full)

        def solve(shifts: np.ndarray, x: np.ndarray) -> np.ndarray:
            return padded(band.solve(leading, shifts, x[: leading.rows].T).T,
                          working(full))

        return _sweep(solve, ritz, todo, isolation)

    cap = n // (2 * width)
    blocks, before, settled = min(BAND_FIRST_BLOCKS, cap), None, False
    sides = np.array([lower > 0, upper > 0])
    while True:
        rows = blocks * width
        if rows <= m:
            return "step cap reached"
        window = band.window(t, rows + width)
        eigs, basis = np.linalg.eigh(window[:rows, :rows])
        pick = np.concatenate((np.arange(rows - 1, rows - 1 - upper, -1),
                               np.arange(lower - 1, -1, -1)))
        values, vecs = eigs[pick], basis[:, pick]
        resid = np.linalg.norm(window[rows:, rows - width: rows] @ vecs[rows - width:],
                               axis=0)
        margin = DEGENERACY_TOLERANCE * max(1.0, abs(eigs[0]), abs(eigs[-1]))
        # The next Ritz value on each side: the bulk's edges, as the block
        # sees them.
        edges = np.array([eigs[lower], eigs[rows - 1 - upper]])
        ritz = _Ritz(values, padded(vecs, working(blocks)), resid)
        target, isolation = goals(ritz)
        # The edges have settled once the block has doubled twice, or once
        # each cut lies farther beyond its edge than half the edge's move
        # since the last, half as large, block.
        if not settled and before is not None:
            clear = np.abs(cuts(values, edges) - edges)
            moved = np.abs(edges - before[2])
            settled = (blocks >= 4 * BAND_FIRST_BLOCKS
                       or bool((clear >= 0.5 * moved)[sides].all()))
        if (resid <= target).all() and (settled or blocks >= cap):
            break
        todo = resid > target
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(resid)
            if before is None or not todo.any():  # no fall to read: double
                need, size = blocks + 1.0, 2.0 * blocks
            else:
                rate = (before[1] - logs) / (blocks - before[0])
                steps = np.where(rate > 0.0, np.log(resid / target) / rate, np.inf)
                need = size = blocks + float(steps[todo].max())
            if blocks >= cap or not need <= cap:
                return "step cap reached"
            # Two sweeps (r -> r^9 / isolation^8) must meet the targets; the
            # first sweep solves on the rows that reach its own goal.
            if settled and (resid ** 9 / isolation ** 8 <= target)[todo].all():
                full = math.ceil(size)
                goal = np.maximum(target, resid ** 3 / isolation ** 2)
                reach = np.where(rate > 0.0, np.log(resid / goal) / rate, np.inf)
                first = int(np.clip(np.ceil(blocks + reach[todo].max()),
                                    blocks + 1, full))
                refined, met = _refine(
                    t.apply, ritz._replace(vecs=padded(vecs, working(full))),
                    goals, sweep)
                if met:
                    ritz = refined
                    break
        # Unsettled edges are measured again on a block twice as large.
        grown = max(blocks + 1, math.ceil(size)) if settled else 2 * blocks
        before, blocks = (blocks, logs, edges), min(cap, 2 * blocks, grown)

    bounds = cuts(ritz.values, edges)
    shifts = bounds[[1] * bool(upper) + [0] * bool(lower)]
    below, delta = band.inertia(t, shifts)
    if not (delta <= margin).all():
        return "near-singular pivot block"
    if (upper and n - below[0] != upper) or (lower and below[-1] != lower):
        return "count disagrees"
    bulk = np.array([bounds[0] - (delta[-1] if lower else 0.0),
                     bounds[1] + (delta[0] if upper else 0.0)])
    if ritz.q is None:
        ritz = _rayleigh_ritz(t.apply, ritz.vecs)
    found = _certify(ritz, bulk, upper, False, margin, vectors)
    if isinstance(found, str) or not vectors:
        return found
    return found[0], padded(found[1], n)
