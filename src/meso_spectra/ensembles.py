"""Random-matrix sampling, deterministic perturbation assembly, eigensolves.

All randomness flows through :class:`RngStream`, a (master_seed, stream_id)
pair mapped to an independent ``numpy`` generator via ``SeedSequence`` spawn
keys, so trials are reproducible and order-independent.  Matrix assembly
itself is deterministic given the sampled ingredients.

:func:`eigensolve` on a matrix returns the full spectrum.  On a sample of an
orthogonally invariant kind (above a size set by ``LANCZOS_ROWS_PER_PAIR``)
it returns only the top ``M+`` and bottom ``M-`` eigenpairs (``M+``/``M-``
the numbers of positive/negative strengths), certified by a block Lanczos
solve on the diagonal-plus-low-rank structure; when that solve cannot
certify them it falls back to the full dense spectrum and logs the fallback
on the ``meso_spectra`` logger.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral_core import (
    Model,
    ModelError,
    ModelKind,
    PerturbationSpec,
    SpectrumModel,
)

__all__ = [
    "RngStream",
    "EntryLaw",
    "EnsembleSample",
    "sample_wigner",
    "sample_wishart",
    "sample_haar_frame",
    "sample_conjugated",
    "perturb_additive",
    "perturb_multiplicative",
    "sample_ensemble",
    "eigensolve",
]

# A matrix passed to eigensolve may deviate from exact symmetry by at most
# this much, relative to its largest entry.
SYMMETRY_TOLERANCE = 1e-12

# Shift used by the Cholesky-based PSD guard: factorization of base + shift*I
# succeeds iff lambda_min(base) > -shift.
PSD_SHIFT = 1e-10

# Realized eigenvalues closer than this, relative to max(1, spectral radius),
# are treated as one degenerate cluster.  The partial eigensolve certifies
# every pair it returns to be farther than this from its neighbours.
DEGENERACY_TOLERANCE = 1e-10

# A Ritz pair of the partial eigensolve has converged once its residual is at
# most this, relative to the smaller of max(1, largest |Ritz value|) and its
# distance to the rest of the spectrum.
LANCZOS_TOLERANCE = 1e-12

# Block Lanczos steps before the partial eigensolve falls back to the dense
# one, and the steps before its first Rayleigh-Ritz check.
LANCZOS_MAX_STEPS = 60
LANCZOS_CHECK_EVERY = 4

# The partial eigensolve runs only on samples with more than this many rows
# per pair, plus one: n > LANCZOS_ROWS_PER_PAIR * (M + 1).  On smaller ones
# the dense eigh is faster; measured crossovers (2 cores, OpenBLAS) were
# n = 110, 150, 300 and 700 for M = 1, 2, 6 and 12.
LANCZOS_ROWS_PER_PAIR = 60

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RngStream:
    """An independent random stream identified by ``(master_seed, stream_id)``.

    Streams with distinct ids are statistically independent regardless of the
    order they are consumed in, which keeps parallel or re-run trials
    reproducible.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


class EntryLaw(str, enum.Enum):
    """Entry distribution for Wigner/Wishart sampling (unit variance both)."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        if self is EntryLaw.GAUSSIAN:
            return gen.standard_normal(shape)
        return 2.0 * gen.integers(0, 2, size=shape).astype(float) - 1.0


def sample_wigner(n: int, law: EntryLaw, rng) -> np.ndarray:
    """Symmetric Wigner matrix, entries of variance ``1/n``.

    Off-diagonal entries are i.i.d. mean-zero unit-variance draws scaled by
    ``1/sqrt(n)``; the diagonal uses the same law.  The bulk follows the
    semicircle law on ``[-2, 2]``.
    """
    gen = _as_generator(rng)
    raw = law.sample(gen, (n, n))
    upper = np.triu(raw)
    sym = upper + np.triu(raw, 1).T
    return sym / np.sqrt(n)


def sample_wishart(n: int, p: int, law: EntryLaw, rng) -> np.ndarray:
    """Sample covariance ``X X^T / p`` with ``X`` an ``n x p`` draw of ``law``.

    With ``phi = n/p < 1`` the bulk follows the Marchenko-Pastur law on
    ``[(1 - sqrt(phi))^2, (1 + sqrt(phi))^2]`` and the matrix is PSD.
    """
    if p < n:
        raise ModelError(f"need p >= n for an undersampled-free Wishart, got {n=} {p=}")
    gen = _as_generator(rng)
    x = law.sample(gen, (n, p))
    w = x @ x.T / p
    return 0.5 * (w + w.T)


def sample_haar_frame(n: int, m: int, rng) -> np.ndarray:
    """Haar-distributed orthonormal ``n x m`` frame.

    A Gaussian matrix is QR-factorized and each column is multiplied by the
    sign of the corresponding diagonal of R, which makes the factorization
    unique and the Q factor exactly Haar.
    """
    if not 0 <= m <= n:
        raise ModelError(f"need 0 <= m <= n, got {n=} {m=}")
    gen = _as_generator(rng)
    if m == 0:
        return np.zeros((n, 0))
    g = gen.standard_normal((n, m))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def sample_conjugated(spectrum: SpectrumModel, rng) -> np.ndarray:
    """Haar rotation ``U diag(lambda) U^T`` of a deterministic spectrum."""
    u = sample_haar_frame(spectrum.n, spectrum.n, rng)
    w = (u * spectrum.eigenvalues) @ u.T
    return 0.5 * (w + w.T)


def _frame_columns(n: int, pert: PerturbationSpec) -> np.ndarray | None:
    if pert.frame is None:
        return None
    if pert.frame.shape[0] != n:
        raise ModelError(
            f"frame has {pert.frame.shape[0]} rows but the matrix has size {n}"
        )
    return pert.frame


def perturb_additive(base: np.ndarray, pert: PerturbationSpec) -> np.ndarray:
    """``base + V diag(theta) V^T`` (leading coordinates when ``frame=None``).

    A base with a non-finite entry raises ``ModelError``.
    """
    n = base.shape[0]
    m = pert.m
    if m > n:
        raise ModelError(f"rank {m} exceeds matrix size {n}")
    if not np.isfinite(base).all():
        raise ModelError("base matrix has non-finite entries")
    out = np.array(base, dtype=float, copy=True)
    v = _frame_columns(n, pert)
    if m == 0:
        return out
    if v is None:
        idx = np.arange(m)
        out[idx, idx] += pert.thetas
    else:
        out += (v * pert.thetas) @ v.T
        out = 0.5 * (out + out.T)
    return out


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The ``n * (n - 1)`` off-diagonal entries of a square array.

    A view when ``a`` is C-contiguous (a copy otherwise): after the first
    entry, the flat array falls into rows of ``n + 1`` whose last entry is
    the next diagonal one.
    """
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n] if n > 1 else a[:0]


def _check_psd(base: np.ndarray) -> None:
    """Raise unless ``base`` is finite and ``base + PSD_SHIFT * I`` has a
    Cholesky factor.

    On a diagonal base the factorization's pivots are ``d_i + PSD_SHIFT``
    themselves and it fails iff one is ``<= 0``, so that verdict is read
    straight from the diagonal.  Finiteness is checked separately because
    the OpenBLAS factorization numpy ships with passes a NaN pivot.
    """
    if not _off_diagonal(base).any():
        d = np.diagonal(base)
        psd = bool(np.isfinite(d).all() and (d + PSD_SHIFT > 0.0).all())
    elif not np.isfinite(base).all():
        psd = False
    else:
        try:
            np.linalg.cholesky(base + PSD_SHIFT * np.eye(base.shape[0]))
            psd = True
        except np.linalg.LinAlgError:
            psd = False
    if not psd:
        raise ModelError(
            "multiplicative perturbation requires a finite PSD base matrix"
        )


def _sandwich_update(v: np.ndarray, bv: np.ndarray,
                     thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``W`` and ``K`` with ``S B S = B + W K W^T``.

    ``S = (I + V diag(theta) V^T)^(1/2) = I + V C V^T`` with
    ``C = diag(sqrt(1 + theta) - 1)``, and ``bv`` is ``B V``.  With
    ``G = V^T B V``: ``W = [V, B V]`` and ``K = [[C G C, C], [C, 0]]``.
    """
    m = thetas.size
    c = np.sqrt(1.0 + thetas) - 1.0
    k = np.zeros((2 * m, 2 * m))
    k[:m, :m] = c[:, None] * (v.T @ bv) * c[None, :]
    k[:m, m:] = k[m:, :m] = np.diag(c)
    return np.hstack([v, bv]), k


def perturb_multiplicative(base: np.ndarray, pert: PerturbationSpec) -> np.ndarray:
    """``S base S`` with ``S = (I + V diag(theta) V^T)^(1/2)``.

    The base matrix must be finite and PSD, and every strength must exceed
    -1 so that ``S`` is well defined.  PSD means that
    ``base + PSD_SHIFT * I`` has a Cholesky factor; for a diagonal base that
    verdict is read from the diagonal, any other base is factorized.

    With leading coordinates ``S`` is diagonal and only the first ``M`` rows
    and columns are rescaled.  On a frame ``V``, ``S base S`` is assembled as
    the rank-2M update ``base + W K W^T`` of :func:`_sandwich_update`: O(n^2 M)
    work and one n x n temporary (the exact symmetrization) instead of two
    dense n x n products.
    """
    n = base.shape[0]
    m = pert.m
    if m > n:
        raise ModelError(f"rank {m} exceeds matrix size {n}")
    if m and pert.thetas[-1] <= -1.0:
        raise ModelError("multiplicative strengths must exceed -1")
    base = np.ascontiguousarray(base, dtype=float)
    _check_psd(base)
    if m == 0:
        return base.copy()
    v = _frame_columns(n, pert)
    if v is None:
        # S is diagonal: entry (i, j) picks up scale_i * scale_j.
        scale = np.sqrt(1.0 + pert.thetas)
        out = base.copy()
        out[:m, :] *= scale[:, None]
        out[:, :m] *= scale[None, :]
        return out
    w, k = _sandwich_update(v, base @ v, pert.thetas)
    out = (w @ k) @ w.T
    out += base
    out += out.T
    out *= 0.5
    return out


@dataclass(frozen=True, eq=False)
class EnsembleSample:
    """One realized instance: base matrix, perturbed matrix, and provenance.

    ``frame`` is the orthonormal carrier actually used (``None`` stands for
    the leading coordinate axes), which downstream code needs to project
    eigenvectors and to build the finite-rank resolvent operator.
    ``thetas`` are the strengths it carries, in descending order.
    """

    base: np.ndarray = field(repr=False)
    perturbed: np.ndarray = field(repr=False)
    frame: np.ndarray | None = field(repr=False)
    thetas: np.ndarray = field(repr=False)
    kind: ModelKind
    n: int
    m: int
    master_seed: int
    stream_id: int
    law: EntryLaw | None

    def project(self, vector: np.ndarray) -> np.ndarray:
        """Coordinates of ``vector`` in the perturbation frame."""
        if self.frame is None:
            return np.asarray(vector, dtype=float)[: self.m].copy()
        return self.frame.T @ np.asarray(vector, dtype=float)


def sample_ensemble(
    model: Model,
    pert: PerturbationSpec,
    n: int,
    rng: RngStream,
    law: EntryLaw = EntryLaw.GAUSSIAN,
) -> EnsembleSample:
    """Draw one instance of ``model`` perturbed by ``pert`` at size ``n``.

    Wigner and Wishart base matrices use ``law`` and place the perturbation
    on ``pert.frame`` (leading coordinates when absent).  Orthogonally
    invariant kinds keep the base diagonal and carry the perturbation on a
    freshly sampled Haar frame, which realizes the same joint law as
    conjugating the base by a Haar rotation; ``model.spectrum`` must already
    have length ``n``.
    """
    gen = rng.generator()
    kind = model.kind
    perturb = perturb_multiplicative if kind.multiplicative else perturb_additive
    if kind.closed_form:
        if kind is ModelKind.WIGNER:
            base = sample_wigner(n, law, gen)
        else:
            base = sample_wishart(n, model.p_for(n), law, gen)
        frame = pert.frame
        placed = pert
        used_law = law
    else:
        if model.spectrum.n != n:
            raise ModelError(
                f"spectrum has {model.spectrum.n} eigenvalues but n={n}; "
                "resample it first"
            )
        base = np.diag(model.spectrum.eigenvalues)
        frame = sample_haar_frame(n, pert.m, gen) if pert.m else None
        placed = pert.with_frame(frame) if frame is not None else pert
        used_law = None
    perturbed = perturb(base, placed)
    for arr in (base, perturbed):
        arr.setflags(write=False)
    if frame is not None and frame.flags.writeable:
        frame = frame.copy()
        frame.setflags(write=False)
    return EnsembleSample(
        base=base,
        perturbed=perturbed,
        frame=frame,
        thetas=pert.thetas,
        kind=kind,
        n=n,
        m=pert.m,
        master_seed=rng.master_seed,
        stream_id=rng.stream_id,
        law=used_law,
    )


def _lanczos_extremes(
    d: np.ndarray, w: np.ndarray, k: np.ndarray, start: np.ndarray,
    upper: int, lower: int, psd: bool,
) -> tuple[np.ndarray, np.ndarray] | str:
    """Certified top ``upper`` and bottom ``lower`` eigenpairs of
    ``A = diag(d) + W K W^T``, or the reason they could not be certified.

    Block Lanczos with full reorthogonalization (Golub-Underwood), started on
    the orthonormal ``start`` and applying ``A`` as ``d * x + W (K (W^T x))``.
    After ``LANCZOS_CHECK_EVERY`` steps, then at the step where the residual
    estimates' geometric fall between the last two checks says they reach
    their tolerance (``LANCZOS_CHECK_EVERY`` steps on when they did not
    fall), and when the Krylov space becomes invariant, a Rayleigh-Ritz
    solve checks the wanted Ritz pairs.  It gives up at once when their
    values are not beyond the bulk ``[min d, max d]`` and apart from one
    another.  Once every pair's residual estimate has reached its tolerance
    (below), the pairs ``(mu, u)`` are certified with their explicit
    residuals ``r = |A u - mu u|``.

    Each interval ``[mu - r, mu + r]`` holds an eigenvalue.  ``A`` has at
    most ``upper`` eigenvalues above ``max d`` and at most ``lower`` below
    ``min d``, and the others lie in ``[min d, max d]``: additively by Weyl
    interlacing, and multiplicatively because ``S B S`` has the spectrum of
    ``B + (B^1/2 V) Theta (B^1/2 V)^T`` when ``B`` is PSD (``psd``).  So
    when the upper intervals lie beyond ``max d`` and the lower ones beyond
    ``min d``, each side's intervals apart from one another and from the
    bulk by more than ``DEGENERACY_TOLERANCE * max(1, max|d|, largest |Ritz
    value|)`` (a bound on the spectral radius once this holds), they hold
    exactly ``lambda_1 .. lambda_upper`` and the ``lower`` smallest
    eigenvalues, none of them in a degenerate cluster.  The rest of the
    spectrum then lies at least ``gap`` from ``mu``: ``gap`` is the distance
    to the nearest other interval or to the bulk.

    Values are returned descending (top pairs, then bottom pairs).  Each has
    ``r <= LANCZOS_TOLERANCE * min(max(1, largest |Ritz value|), gap)``.
    So its value is within ``LANCZOS_TOLERANCE * max(1, |A|)`` of its
    eigenvalue, and its vector within angle ``r / gap <= LANCZOS_TOLERANCE``
    of the eigenvector (Davis-Kahan).  Pairs too close to one another or to
    the bulk for rounding to reach that residual fail the certificate.
    """
    n, width = start.shape
    cap = min(n, width * (LANCZOS_MAX_STEPS + 1))
    basis = np.empty((cap, n))  # Lanczos vectors as rows
    proj = np.zeros((cap, cap))  # basis A basis^T, lower triangle
    basis[:width] = start.T
    prev, lo, hi = 0, 0, width  # previous block, current block, basis size
    d_abs = max(1.0, float(np.abs(d).max()))

    def apply(x: np.ndarray) -> np.ndarray:
        return d[:, None] * x + w @ (k @ (w.T @ x))

    check_at, seen = LANCZOS_CHECK_EVERY, None
    for step in range(1, LANCZOS_MAX_STEPS + 1):
        q, near = basis[:hi], basis[prev:hi]
        z = apply(basis[lo:hi].T)
        # The three-term recurrence, then one full reorthogonalization pass.
        local = near @ z
        z -= near.T @ local
        coupling = q @ z
        z -= q.T @ coupling
        coupling[prev:] += local
        proj[lo:hi, :hi] = coupling.T
        # Directions below the tolerance end the Krylov space (breakdown);
        # the certificate's explicit residuals account for what they drop.
        left, sing, right = np.linalg.svd(z, full_matrices=False)
        grow = min(int(np.count_nonzero(sing > LANCZOS_TOLERANCE * d_abs)),
                   cap - hi)
        if grow == 0 or step == check_at:
            ritz, vecs = np.linalg.eigh(proj[:hi, :hi])
            wanted = np.r_[np.arange(hi - 1, hi - 1 - upper, -1),
                           np.arange(lower - 1, -1, -1)]
            # Ritz values lie inside the spectrum, max|d| need not.
            radius = max(1.0, abs(ritz[0]), abs(ritz[-1]))
            margin = DEGENERACY_TOLERANCE * max(radius, d_abs)
            _, _, gap = _intervals(ritz[wanted], 0.0, upper, d)
            if not (gap > margin).all():
                return "Ritz values not separated"
            # A q^T = q^T proj + z e_last^T, so a Ritz pair's residual is z
            # applied to the last block of its coordinates.
            estimate = np.linalg.norm(
                (sing[:, None] * right) @ vecs[lo:hi, wanted], axis=0)
            ratio = float(np.max(
                estimate / (LANCZOS_TOLERANCE * np.minimum(radius, gap))))
            if grow == 0 or ratio <= 1.0:
                return _certify(apply, q.T @ vecs[:, wanted], d, upper, psd,
                                radius, margin)
            # Check next where the estimates' geometric fall since the last
            # check says they reach their tolerance.
            wait = LANCZOS_CHECK_EVERY
            if seen is not None and ratio < seen[1]:
                wait = max(1, math.ceil(
                    math.log(ratio) * (step - seen[0]) / math.log(seen[1] / ratio)))
            seen = (step, ratio)
            check_at = min(step + wait, LANCZOS_MAX_STEPS)
        basis[hi:hi + grow] = left[:, :grow].T
        prev, lo, hi = lo, hi, hi + grow
    return "step cap reached"


def _intervals(values: np.ndarray, resid, upper: int, d: np.ndarray):
    """Intervals ``[values - resid, values + resid]`` with the bulk
    ``[min d, max d]`` inserted after the top ``upper``, as ``(low, high)``,
    and each value's distance to the intervals next to it."""
    low = np.insert(values - resid, upper, d.min())
    high = np.insert(values + resid, upper, d.max())
    centre = np.insert(values, upper, 0.5 * (low[upper] + high[upper]))
    gap = np.minimum(np.r_[np.inf, low[:-1]] - centre,
                     centre - np.r_[high[1:], -np.inf])
    return low, high, np.delete(gap, upper)


def _certify(apply, vecs: np.ndarray, d: np.ndarray, upper: int, psd: bool,
             radius: float, margin: float) -> tuple[np.ndarray, np.ndarray] | str:
    """The certificate of :func:`_lanczos_extremes` on its Ritz vectors."""
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    image = apply(vecs)
    values = np.einsum("ij,ij->j", vecs, image)
    resid = np.linalg.norm(image - vecs * values, axis=0)
    # Consecutive intervals, the bulk among them, must be apart by more
    # than the margin.
    low, high, gap = _intervals(values, resid, upper, d)
    certified = (
        (resid <= LANCZOS_TOLERANCE * np.minimum(radius, gap)).all()
        and (low[:-1] - high[1:] > margin).all()
        and (not psd or d.min() >= 0.0)
    )
    if not certified:
        return "certificate failed"
    return values, vecs


def _partial_eigensolve(sample: EnsembleSample) -> tuple[np.ndarray, np.ndarray] | str:
    """Certified extreme pairs of an orthogonally invariant, framed sample."""
    d = np.diagonal(sample.base)
    if not np.isfinite(d).all():
        raise ModelError("base matrix has non-finite entries")
    if _off_diagonal(sample.base).any():
        return "base is not diagonal"
    v, thetas = sample.frame, sample.thetas
    if sample.kind.multiplicative:
        w, k = _sandwich_update(v, d[:, None] * v, thetas)
        k = 0.5 * (k + k.T)
    else:
        w, k = v, np.diag(thetas)
    upper = int(np.count_nonzero(thetas > 0.0))
    return _lanczos_extremes(d, w, k, v, upper, thetas.size - upper,
                             sample.kind.multiplicative)


def eigensolve(
    matrix: np.ndarray | EnsembleSample,
) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and matching eigenvector columns.

    A matrix gets its full spectrum from LAPACK's ``eigh``.  It must be
    finite and symmetric to ``SYMMETRY_TOLERANCE`` (relative to its largest
    entry).

    A sample of an orthogonally invariant kind with a frame and
    ``n > LANCZOS_ROWS_PER_PAIR * (M + 1)`` gets only its top ``M+`` and
    bottom ``M-`` pairs, ``M+``/``M-`` the numbers of positive/negative
    strengths: ``M = M+ + M-`` values (top then bottom, descending) and
    ``n x M`` vectors, certified as in :func:`_lanczos_extremes`.  So column
    ``j`` holds eigenvalue ``j + 1`` for ``j < M+`` and eigenvalue
    ``j + 1 + n - M`` after.  When the sample's base is not diagonal, the
    wanted Ritz values are not beyond the bulk and apart, the certificate
    fails or the solve reaches ``LANCZOS_MAX_STEPS``, the fallback and its
    reason are logged at DEBUG level and the sample's dense ``perturbed``
    matrix gets the full spectrum.  Every other sample, smaller ones
    included, takes the dense path directly.
    """
    if isinstance(matrix, EnsembleSample):
        sample = matrix
        if (not sample.kind.closed_form and sample.frame is not None
                and sample.n > LANCZOS_ROWS_PER_PAIR * (sample.m + 1)):
            pairs = _partial_eigensolve(sample)
            if not isinstance(pairs, str):
                return pairs
            _log.debug("dense eigensolve fallback: stream %d, n=%d: %s",
                       sample.stream_id, sample.n, pairs)
        matrix = sample.perturbed
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    # max|a| and max|a - a^T| without an abs() copy: a - a^T is exactly
    # antisymmetric, so its largest entry is its largest magnitude.  A
    # non-finite entry makes dev NaN or infinite, which fails the test.
    scale = max(1.0, float(a.max()), -float(a.min())) if a.size else 1.0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and rejected
        dev = float((a - a.T).max()) if a.size else 0.0
    if not dev <= SYMMETRY_TOLERANCE * scale:
        raise ModelError(
            f"matrix is not finite and symmetric (deviation {dev:.2e})")
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()
