"""Random-matrix sampling, deterministic perturbation assembly, eigensolves.

All randomness flows through :class:`RngStream`, a (master_seed, stream_id)
pair mapped to an independent ``numpy`` generator via ``SeedSequence`` spawn
keys, so trials are reproducible and order-independent.  Matrix assembly
itself is deterministic given the sampled ingredients.

A framed perturbation of ``X``, additive or multiplicative, is one low-rank
update ``X + W K W^T``, and one helper assembles it.  A sample is validated
when it is built.  Two kinds of sample are structured and hold O(n M)
numbers; their dense n x n matrices are built on first read.  A sample of
an orthogonally invariant kind is ``diag(d) + W K W^T``, and it holds the
diagonal ``d``, the frame and the strengths.  A Gaussian Wigner sample on
the leading coordinates (no frame) holds a band matrix ``T`` of half
bandwidth ``w = max(M, 1)``: a block Householder reduction that fixes the
leading ``w`` coordinates takes GOE to ``T`` (Dumitriu and Edelman, J. Math.
Phys. 43, 2002; Bloemendal and Virag, PTRF 156, 2013), so ``T`` plus the
strengths has the joint law of outlier values and leading-coordinate
eigenvector projections of GOE plus the strengths.

:func:`eigensolve` on a matrix returns the full spectrum.  On a structured
sample (above a size set by ``FILTER_ROWS_PER_PAIR``) it returns only the
top ``M+`` and bottom ``M-`` eigenpairs, or their values alone with
``vectors=False`` (``M+``/``M-`` the numbers of positive/negative
strengths).  Both solves refine Ritz pairs in one loop, :func:`_refine`,
of shift-and-invert sweeps at the Ritz values, each followed by a
Rayleigh-Ritz step.  An orthogonally invariant sample's start from a
Chebyshev filter stage on the diagonal-plus-low-rank structure, whose bulk
interval ``[min d, max d]`` is known, and sweep through the Woodbury
identity, O(n M^2) per vector, wherever a sweep costs less than the next
filter stage.  A band sample's start as the Ritz pairs of a leading
principal block of ``T``, the Rayleigh-Ritz problem of block Lanczos
started on the leading coordinates, and sweep on the leading rows of ``T``
that the pairs need, O(M^2) per row and vector through block cyclic
reduction, with residuals taken on all of ``T``; the bulk is bounded by
exact counts from Sylvester's inertia of a block LDL^T factorization.
Certificates decide on the last Rayleigh-Ritz state (values alone need no
gap between outliers); when they fail, the solve falls back to the full
dense spectrum and logs the fallback on the ``meso_spectra`` logger.
Experiment trials read realized values through ``eigensolve(sample,
vectors=False)`` alone, so a value-only trial of a structured sample
builds no n x n matrix.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "spectrum_column",
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
# distance to the rest of the spectrum.  Values alone have converged once
# the block's residual norm is at most this relative to the former alone.
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
# semicircle quantiles) stay faster than eigvalsh from n = 130, 140, 150, 150
# and 180 for M = 1, 2, 4, 8 and 12 (at n = 400, M = 8: 11 ms dense, 1.9 ms
# partial), and pairs (multiplicative, on a uniform spectrum) stay faster
# than eigh from n = 70, 90, 90, 110 and 130.  So the rule is conservative
# for pairs, and for values from M = 4; for values at M = 1 and 2 it admits
# samples from n = 81 and 121, where the partial solve costs up to about
# 0.5 ms more than the dense one.
FILTER_ROWS_PER_PAIR = 40

# The band solve's first leading block has this many blocks of w rows; the
# second has twice as many, and their residuals' fall predicts the rest.
BAND_FIRST_BLOCKS = 4

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
    """Entry distribution for Wigner/Wishart sampling (unit variance both).

    A Gaussian Wigner matrix is GOE: off-diagonal entries of variance
    ``1/n`` and diagonal ones of variance ``2/n``, the one Wigner law that is
    orthogonally invariant.  A Rademacher Wigner matrix has ``+-1/sqrt(n)``
    everywhere, the diagonal included.
    """

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        if self is EntryLaw.GAUSSIAN:
            return gen.standard_normal(shape)
        return 2.0 * gen.integers(0, 2, size=shape).astype(float) - 1.0


def _upper_blocks(n: int):
    """Slices ``(rows, cols)`` of the 128 x 128 blocks on and above the
    diagonal of an n x n array; a block and its mirror image stay in cache
    (128 was the fastest size at n = 1000 and 2000)."""
    for i in range(0, n, 128):
        for j in range(i, n, 128):
            yield slice(i, i + 128), slice(j, j + 128)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    """``p`` overwritten with ``(p + p^T) * 0.5``, block by block.

    Addition commutes exactly, so this has the bits of ``0.5 * (p + p.T)``
    while holding one block, not an n x n temporary.
    """
    for rows, cols in _upper_blocks(p.shape[0]):
        block = p[rows, cols] + p[cols, rows].T
        block *= 0.5
        p[rows, cols] = block
        p[cols, rows] = block.T
    return p


def sample_wigner(n: int, law: EntryLaw, rng) -> np.ndarray:
    """Symmetric Wigner matrix, off-diagonal entries of variance ``1/n``.

    Off-diagonal entries are i.i.d. mean-zero unit-variance draws scaled by
    ``1/sqrt(n)``.  The diagonal uses the same draws, and a Gaussian one is
    scaled by a further ``sqrt(2)``, which makes the Gaussian matrix GOE.
    The bulk follows the semicircle law on ``[-2, 2]``.
    """
    gen = _as_generator(rng)
    raw = law.sample(gen, (n, n))
    raw /= np.sqrt(n)
    for rows, cols in _upper_blocks(n):  # mirror the upper triangle
        if rows == cols:
            block = raw[rows, rows]
            raw[rows, rows] = np.triu(block) + np.triu(block, 1).T
        else:
            raw[cols, rows] = raw[rows, cols].T
    if law is EntryLaw.GAUSSIAN:
        np.fill_diagonal(raw, np.diagonal(raw) * math.sqrt(2.0))
    return raw


def _goe_band(n: int, width: int, gen: np.random.Generator) -> np.ndarray:
    """A GOE matrix reduced to half bandwidth ``width``, in lower band
    storage: ``band[j, i] = T[i + j, i]`` (zero where ``i + j >= n``).

    Householder reflections on coordinates ``width + 1 .. n``, then on the
    next ``width`` after those and so on, take a GOE matrix to a block
    tridiagonal one.  Its diagonal blocks are GOE(``width``); the block below
    block ``k`` (1-based) is the R factor of the Gaussian columns beneath it,
    a Bartlett triangle with ``chi`` of ``n - k width - i + 1`` degrees of
    freedom on its diagonal (row ``i``) and N(0, 1) above, all scaled by
    ``1/sqrt(n)``.  In band storage that is N(0, 2/n) on the diagonal,
    N(0, 1/n) on the next ``width - 1`` diagonals and ``chi`` of
    ``n - width - i`` degrees of freedom over ``sqrt(n)`` at
    ``band[width, i]``; a last block shorter than ``width`` needs no case of
    its own.  The reflections fix the leading ``width`` coordinates, so
    adding strengths there commutes with them.
    """
    band = np.zeros((width + 1, n))
    band[:width] = gen.standard_normal((width, n))
    band[0] *= math.sqrt(2.0)
    band[width, : n - width] = np.sqrt(gen.chisquare(np.arange(n - width, 0, -1)))
    for j in range(1, width):
        band[j, n - j:] = 0.0
    band /= math.sqrt(n)
    return band


def _with_strengths(band: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """A copy of ``band`` with ``thetas`` added to its leading diagonal."""
    out = band.copy()
    out[0, : thetas.size] += thetas
    return out


def _band_window(band: np.ndarray, size: int) -> np.ndarray:
    """The leading ``size`` rows and columns of the band matrix, dense."""
    out = np.zeros((size, size))
    flat = out.reshape(-1)
    for j in range(min(band.shape[0], size)):
        entries = band[j, : size - j]
        flat[j * size:: size + 1] = entries  # the j-th sub-diagonal
        flat[j: (size - j) * size: size + 1] = entries  # and its mirror
    return out


def sample_wishart(n: int, p: int, law: EntryLaw, rng) -> np.ndarray:
    """Sample covariance ``X X^T / p`` with ``X`` an ``n x p`` draw of ``law``.

    With ``phi = n/p < 1`` the bulk follows the Marchenko-Pastur law on
    ``[(1 - sqrt(phi))^2, (1 + sqrt(phi))^2]`` and the matrix is PSD.
    """
    if p < n:
        raise ModelError(f"need p >= n for an undersampled-free Wishart, got {n=} {p=}")
    gen = _as_generator(rng)
    x = law.sample(gen, (n, p))
    return _symmetrize(x @ x.T / p)


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
    return _symmetrize((u * spectrum.eigenvalues) @ u.T)


def _square_size(a: np.ndarray) -> int:
    """``n`` for an n x n array; anything else raises ``ModelError``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _frame_columns(n: int, pert: PerturbationSpec) -> np.ndarray | None:
    if pert.frame is None:
        return None
    if pert.frame.shape[0] != n:
        raise ModelError(
            f"frame has {pert.frame.shape[0]} rows but the matrix has size {n}"
        )
    return pert.frame


def _check_perturbation(n: int, thetas: np.ndarray, multiplicative: bool) -> None:
    """Raise unless the descending ``thetas`` fit an n x n base: rank at
    most ``n`` and, when ``multiplicative``, every strength above -1."""
    if thetas.size > n:
        raise ModelError(f"rank {thetas.size} exceeds matrix size {n}")
    if multiplicative and thetas.size and thetas[-1] <= -1.0:
        raise ModelError("multiplicative strengths must exceed -1")


_NOT_PSD = "multiplicative perturbation requires a finite PSD base matrix"


def _check_diagonal(d: np.ndarray, multiplicative: bool) -> None:
    """Raise, in O(n), the error a perturbation of the base ``diag(d)``
    raises: ``d`` must be finite and, when ``multiplicative``, PSD.

    PSD means, as in :func:`_check_psd`, that ``diag(d) + PSD_SHIFT * I``
    has a Cholesky factor; its pivots are ``d_i + PSD_SHIFT`` themselves and
    it fails iff one is ``<= 0``, so the verdict needs ``d`` alone.
    """
    finite = bool(np.isfinite(d).all())
    if multiplicative and not (finite and (d + PSD_SHIFT > 0.0).all()):
        raise ModelError(_NOT_PSD)
    if not finite:
        raise ModelError("base matrix has non-finite entries")


def _assemble(base: np.ndarray, w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``base + W K W^T`` as one new n x n array, symmetrized in place by
    :func:`_symmetrize`: O(n^2 rank(W)) work and no n x n temporary.

    ``base`` is n x n, or the diagonal ``d`` of ``diag(d)``, added to the
    diagonal alone; the dense sum differs only by exact zeros.
    """
    out = (w @ k) @ w.T
    if base.ndim == 1:
        np.fill_diagonal(out, np.diagonal(out) + base)
    else:
        out += base
    return _symmetrize(out)


def perturb_additive(base: np.ndarray, pert: PerturbationSpec) -> np.ndarray:
    """``base + V diag(theta) V^T`` (leading coordinates when ``frame=None``).

    A base with a non-finite entry raises ``ModelError``.  On a frame the
    sum is :func:`_assemble`'s, with ``W = V`` and ``K = diag(theta)``.
    """
    n = _square_size(base)
    m = pert.m
    _check_perturbation(n, pert.thetas, multiplicative=False)
    if not np.isfinite(base).all():
        raise ModelError("base matrix has non-finite entries")
    v = _frame_columns(n, pert)
    if v is None or m == 0:
        out = np.array(base, dtype=float, copy=True)
        idx = np.arange(m)
        out[idx, idx] += pert.thetas
        return out
    return _assemble(base, v, np.diag(pert.thetas))


def _check_psd(base: np.ndarray) -> None:
    """Raise unless ``base`` is finite and ``base + PSD_SHIFT * I`` has a
    Cholesky factor.

    Finiteness is checked separately because the OpenBLAS factorization
    numpy ships with passes a NaN pivot.
    """
    if not np.isfinite(base).all():
        raise ModelError(_NOT_PSD)
    try:
        np.linalg.cholesky(base + PSD_SHIFT * np.eye(base.shape[0]))
    except np.linalg.LinAlgError:
        raise ModelError(_NOT_PSD) from None


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
    ``base + PSD_SHIFT * I`` has a Cholesky factor (:func:`_check_psd`).
    """
    _check_perturbation(_square_size(base), pert.thetas, multiplicative=True)
    base = np.ascontiguousarray(base, dtype=float)
    _check_psd(base)
    return _sandwich(base, pert)


def _sandwich(base: np.ndarray, pert: PerturbationSpec) -> np.ndarray:
    """:func:`perturb_multiplicative` without its checks, as a new array.

    With leading coordinates ``S`` is diagonal and only the first ``M`` rows
    and columns are rescaled; the leading ``M x M`` block takes its upper
    triangle from its lower one, which ``eigh`` and ``eigvalsh`` read, so
    the result is exactly symmetric.  On a frame ``V``, ``S base S`` is
    :func:`_assemble` of the ``W`` and ``K`` of :func:`_sandwich_update`.
    """
    m = pert.m
    v = _frame_columns(base.shape[0], pert)
    if v is None or m == 0:
        # S is diagonal: entry (i, j) picks up scale_i * scale_j, rounded in
        # a different order in (j, i) when both are below M.
        scale = np.sqrt(1.0 + pert.thetas)
        out = base.copy()
        out[:m, :] *= scale[:, None]
        out[:, :m] *= scale[None, :]
        rows, cols = np.triu_indices(m, 1)
        out[rows, cols] = out[cols, rows]
        return out
    return _assemble(base, *_sandwich_update(v, base @ v, pert.thetas))


@dataclass(frozen=True, eq=False)
class EnsembleSample:
    """One realized instance: its base and perturbed matrices, and provenance.

    ``frame`` is the orthonormal carrier actually used (``None`` stands for
    the leading coordinate axes), which downstream code needs to project
    eigenvectors and to build the finite-rank resolvent operator.
    ``thetas`` are the strengths it carries, in descending order.

    Two kinds of sample hold their structure alone, O(n M) numbers, and
    build ``base`` and ``perturbed`` on first read, then keep them:

    * an orthogonally invariant sample holds ``diagonal``, the base's
      eigenvalues ``d``, with ``frame`` and ``thetas``; its ``base`` is
      ``diag(d)`` and its ``perturbed`` ``diag(d) + W K W^T`` with the
      ``W`` and ``K`` of :meth:`_update`, the bits of :func:`perturb_additive`
      or :func:`perturb_multiplicative` of ``diag(d)``;
    * a Gaussian Wigner sample on the leading coordinates holds ``band``,
      the lower band storage ``band[j, i] = T[i + j, i]`` of a GOE matrix
      reduced to half bandwidth ``max(M, 1)`` (see :func:`_goe_band`); its
      ``base`` is ``T`` and its ``perturbed`` is ``T`` with ``thetas`` added
      to the leading diagonal entries, :func:`perturb_additive` of ``T``.

    Every other closed-form sample (a framed or Rademacher Wigner one, a
    Wishart one) holds both dense matrices from the start, as ``dense``.
    The dense matrices are read-only.

    A sample is validated once, when it is built: the strengths must fit
    ``n`` and a held ``diagonal`` must pass :func:`_check_diagonal`, so
    building its dense matrices raises nothing.
    """

    frame: np.ndarray | None = field(repr=False)
    thetas: np.ndarray = field(repr=False)
    kind: ModelKind
    n: int
    m: int
    master_seed: int
    stream_id: int
    law: EntryLaw | None
    diagonal: np.ndarray | None = field(default=None, repr=False)
    dense: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    band: np.ndarray | None = field(default=None, repr=False)
    _built: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        closed = self.kind.closed_form
        wigner = self.kind is ModelKind.WIGNER
        held = (self.dense is not None) + (self.band is not None)
        if held != closed or (self.diagonal is None) != closed or (
                self.band is not None and not wigner):
            held = ("its diagonal" if not closed else
                    "its band or its dense matrices" if wigner else
                    "its dense matrices")
            raise ModelError(f"a {self.kind.value} sample holds {held} alone")
        _check_perturbation(self.n, self.thetas, self.kind.multiplicative)
        if self.diagonal is not None:
            _check_diagonal(self.diagonal, self.kind.multiplicative)

    @property
    def base(self) -> np.ndarray:
        """The n x n base matrix."""
        if self.dense is not None:
            return self.dense[0]
        if "base" not in self._built:
            self._built["base"] = _read_only(
                np.diag(self.diagonal) if self.band is None
                else _band_window(self.band, self.n))
        return self._built["base"]

    @property
    def perturbed(self) -> np.ndarray:
        """The n x n perturbed matrix."""
        if self.dense is not None:
            return self.dense[1]
        if "perturbed" not in self._built:
            if self.band is not None:
                built = _band_window(_with_strengths(self.band, self.thetas), self.n)
            elif self.frame is None:
                built = np.diag(self.diagonal)
            else:
                built = _assemble(self.diagonal, *self._update())
            self._built["perturbed"] = _read_only(built)
        return self._built["perturbed"]

    def _update(self) -> tuple[np.ndarray, np.ndarray]:
        """``W`` and ``K`` with ``perturbed = diag(d) + W K W^T``, for an
        orthogonally invariant sample with a frame ``V``: ``V`` and
        ``diag(theta)``, or :func:`_sandwich_update` with ``B V = d V``."""
        if self.kind.multiplicative:
            return _sandwich_update(self.frame, self.diagonal[:, None] * self.frame,
                                    self.thetas)
        return self.frame, np.diag(self.thetas)

    def project(self, vector: np.ndarray) -> np.ndarray:
        """Coordinates of ``vector`` in the perturbation frame, or of each
        column of a block of vectors."""
        if self.frame is None:
            return np.asarray(vector, dtype=float)[: self.m].copy()
        return self.frame.T @ np.asarray(vector, dtype=float)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def sample_ensemble(
    model: Model,
    pert: PerturbationSpec,
    n: int,
    rng: RngStream,
    law: EntryLaw = EntryLaw.GAUSSIAN,
) -> EnsembleSample:
    """Draw one instance of ``model`` perturbed by ``pert`` at size ``n``.

    Wigner and Wishart base matrices use ``law`` and place the perturbation
    on ``pert.frame`` (leading coordinates when absent); both dense matrices
    are built here, except for a Gaussian Wigner sample on the leading
    coordinates.  That one draws the band matrix of :func:`_goe_band`, half
    bandwidth ``max(M, 1)``, in O(n M).  Orthogonally invariant kinds keep
    the base diagonal and carry the perturbation on a freshly sampled Haar
    frame, which realizes the same joint law as conjugating the base by a
    Haar rotation; ``model.spectrum`` must already have length ``n``.  Such
    samples build their dense matrices on first read, but every error their
    assembly would raise is raised here, in O(n).  A Wishart base
    ``X X^T / p`` is PSD by construction and takes no Cholesky check.
    """
    gen = rng.generator()
    kind = model.kind
    provenance = dict(thetas=pert.thetas, kind=kind, n=n, m=pert.m,
                      master_seed=rng.master_seed, stream_id=rng.stream_id)
    if not kind.closed_form:
        if model.spectrum.n != n:
            raise ModelError(
                f"spectrum has {model.spectrum.n} eigenvalues but n={n}; "
                "resample it first"
            )
        frame = _read_only(sample_haar_frame(n, pert.m, gen)) if pert.m else None
        return EnsembleSample(frame=frame, law=None,
                              diagonal=model.spectrum.eigenvalues, **provenance)
    # The band's draw and the unchecked Wishart assembly need these first.
    _check_perturbation(n, pert.thetas, kind.multiplicative)
    if kind is ModelKind.WIGNER and law is EntryLaw.GAUSSIAN and pert.frame is None:
        band = _read_only(_goe_band(n, max(pert.m, 1), gen))
        return EnsembleSample(frame=None, law=law, band=band, **provenance)
    if kind is ModelKind.WIGNER:
        base = sample_wigner(n, law, gen)
        perturbed = perturb_additive(base, pert)
    else:
        base = sample_wishart(n, model.p_for(n), law, gen)
        perturbed = _sandwich(base, pert)
    frame = pert.frame
    if frame is not None and frame.flags.writeable:
        frame = _read_only(frame.copy())
    return EnsembleSample(frame=frame, law=law,
                          dense=(_read_only(base), _read_only(perturbed)),
                          **provenance)


class _Ritz(NamedTuple):
    """Ritz pairs of ``A``: values descending, unit vectors as columns and
    residual norms ``|A u - mu u|``, with the basis ``q`` and its image ``A
    q`` of their Rayleigh-Ritz step (``None`` for pairs found otherwise)."""

    values: np.ndarray
    vecs: np.ndarray
    resid: np.ndarray
    q: np.ndarray | None
    image: np.ndarray | None

    @property
    def radius(self) -> float:
        """``max(1, largest |Ritz value|)``."""
        return max(1.0, abs(self.values[0]), abs(self.values[-1]))


def _rayleigh_ritz(apply, x: np.ndarray) -> _Ritz:
    """The Ritz pairs of ``A`` (applied to columns by ``apply``) on the span
    of the columns of ``x``, from a QR factor ``Q``, ``A Q`` and ``eigh`` of
    ``Q^T A Q``.  The vectors keep ``x``'s memory order: a Fortran-ordered
    block, whose columns are contiguous, stays one."""
    q = np.linalg.qr(x)[0]
    image = apply(q)
    ritz, rot = np.linalg.eigh(q.T @ image)
    values, rot = ritz[::-1], rot[:, ::-1]
    if x.flags.c_contiguous:
        vecs, turned = q @ rot, image @ rot
    else:
        vecs, turned = (rot.T @ q.T).T, (rot.T @ image.T).T
    resid = np.linalg.norm(turned - vecs * values, axis=0)
    return _Ritz(values, vecs, resid, q, image)


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

    Certificates read the last state and apply ``A`` no more:
    :func:`_certify` its pairs with the residuals the step formed, and
    :func:`_certify_values` its ``Q`` and ``A Q``, which span them.
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
    ``sandwich``, ``W`` is :func:`_sandwich_update`'s ``[V, B V]`` with
    ``B = diag(d)``, and every block follows from one ``V^T E V``, ``n
    M^2`` per shift: ``E B = I + sigma E``, so with ``V^T V`` and ``G =
    V^T B V`` formed once, ``V^T E (B V) = V^T V + sigma V^T E V`` and
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


def _filtered_extremes(
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
    tolerances of :func:`_certify` (of :func:`_certify_values` when not
    ``vectors``) as targets.  All eigenvalues but the wanted ones lie in
    the bulk ``[min d, max d]`` (see :func:`_certify`), on which ``T_m((A -
    centre) / half)`` is at most 1 in modulus, while it multiplies an
    eigenvector at ``lambda`` beyond the bulk by about ``rho^m / 2``, with
    ``rho = |x| + sqrt(x^2 - 1)`` at the mapped ``x = (lambda - centre) /
    half``: a stage predicts that fall.  A stage filters the pairs above
    their targets and projects the others out at every step of the
    three-term recurrence.  A sweep solves through the Woodbury identity
    with ``E = (diag(d) - sigma)^-1``: ``E x - E W K (I + W^T E W K)^-1 W^T
    E x``, every shift's ``W^T E W`` from one batched product
    (:func:`_shifted_grams`); a multiplicative sample (``psd``), whose ``W``
    is :func:`_sandwich_update`'s ``[V, diag(d) V]``, builds them from ``V^T
    E V`` alone.

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
            # Values need only clear the bulk, not one another, and the
            # residuals' root sum of squares must meet the tolerance.
            gap = np.concatenate((values[:upper] - high, low - values[upper:]))
            target = FILTER_TOLERANCE * radius / math.sqrt(values.size)
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
    ritz = found[0]
    if vectors:
        return _certify(apply, ritz, d, upper, psd, margin)
    return _certify_values(ritz.q, ritz.image, d, upper, psd, margin)


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


def _certify(apply, ritz: _Ritz, d: np.ndarray, upper: int, psd: bool,
             margin: float) -> tuple[np.ndarray, np.ndarray] | str:
    """The Ritz pairs ``ritz`` of ``A = diag(d) + W K W^T``, the top
    ``upper`` first, or ``"certificate failed"``.

    The pairs ``(mu, u)`` are certified with the residuals ``r = |A u - mu
    u| / |u|``.  Pairs from a Rayleigh-Ritz step (``ritz.q`` not ``None``)
    are ``u = Q y`` with the Ritz values, whose residuals ``(A Q) y - mu Q
    y``, ``A u - mu u`` to rounding, the step has formed, so no product with
    ``A`` is taken here.  Other pairs (the band solve's leading block) are
    normalized, applied by ``apply`` and given their Rayleigh quotients.
    Each interval ``[mu - r, mu + r]`` holds an eigenvalue, whatever ``mu``
    and the norm of ``u`` (Parlett, The Symmetric Eigenvalue Problem, ch.
    11).  ``A`` has at most ``upper`` eigenvalues above ``max d``
    and at most ``M - upper`` below ``min d``, and the others lie in
    ``[min d, max d]``: additively by Weyl interlacing, and
    multiplicatively because ``S B S`` has the spectrum of
    ``B + (B^1/2 V) Theta (B^1/2 V)^T`` when ``B`` is PSD (``psd``).  So
    when the upper intervals lie beyond ``max d`` and the lower ones beyond
    ``min d``, each side's intervals apart from one another and from the
    bulk by more than ``margin`` (``DEGENERACY_TOLERANCE`` times
    ``max(1, max|d|, largest |Ritz value|)``, a bound on the spectral radius
    once this holds), they hold exactly ``lambda_1 .. lambda_upper`` and the
    ``M - upper`` smallest eigenvalues, none of them in a degenerate
    cluster.  The rest of the spectrum then lies at least ``gap`` from
    ``mu``: ``gap`` is the distance to the nearest other interval or to the
    bulk.

    The band solve passes, as ``d``, the two ends of an interval that its
    counts prove to hold every eigenvalue but the ``M`` extreme ones, and
    the same argument holds with that interval as the bulk.

    Values are returned descending with their vectors, unit up to
    rounding.  Each has ``r <= FILTER_TOLERANCE * min(radius, gap)``,
    ``radius`` being ``max(1, largest |Ritz value|)``.  So its value is
    within ``FILTER_TOLERANCE * max(1, |A|)`` of its eigenvalue, and its
    vector within angle ``r / gap <= FILTER_TOLERANCE`` of the eigenvector
    (Davis-Kahan).  Pairs too close to one another or to the bulk for
    rounding to reach that residual fail the certificate.
    """
    if ritz.q is None:
        vecs = ritz.vecs / np.linalg.norm(ritz.vecs, axis=0)
        image = apply(vecs)
        values = np.einsum("ij,ij->j", vecs, image)
        resid = np.linalg.norm(image - vecs * values, axis=0)
    else:
        values, vecs = ritz.values, ritz.vecs
        resid = ritz.resid / np.linalg.norm(vecs, axis=0)
    # Consecutive intervals, the bulk among them, must be apart by more
    # than the margin.
    low, high, gap = _intervals(values, resid, upper, d)
    certified = (
        (resid <= FILTER_TOLERANCE * np.minimum(ritz.radius, gap)).all()
        and (low[:-1] - high[1:] > margin).all()
        and (not psd or d.min() >= 0.0)
    )
    if not certified:
        return "certificate failed"
    return values, vecs


def _certify_values(q: np.ndarray, image: np.ndarray, d: np.ndarray, upper: int,
                    psd: bool, margin: float) -> np.ndarray | str:
    """The top ``upper`` and bottom ``M - upper`` eigenvalues of ``A =
    diag(d) + W K W^T``, descending, from the span of ``Q = q``, orthonormal
    up to rounding, and ``A Q = image``, the last Rayleigh-Ritz step's of
    :func:`_refine`; or ``"certificate failed"``.

    ``H = Q^T A Q`` with eigenvalues ``theta`` and ``R = A Q - Q H``.  When
    ``Q`` is exactly orthonormal, ``A`` has ``M`` eigenvalues, with distinct
    indices, each within ``|R|_2`` of its own ``theta`` (Kahan's residual
    bound; Parlett, The Symmetric Eigenvalue Problem, ch. 11).  With the
    computed ``Q``, ``eta = |Q^T Q - I|_F < 1``, the same holds with
    ``bound = (|R|_F + 3 eta |H|_2) / (1 - eta)``: the bound for the
    orthonormal polar factor ``U = Q (Q^T Q)^(-1/2)`` is at most
    ``|R|_2 / (1 - eta)``, and Weyl's bound moves ``U^T A U``'s eigenvalues
    from ``theta`` by at most ``3 eta |H|_2 / (1 - eta)``.

    ``A`` has at most ``upper`` eigenvalues above ``max d`` and at most
    ``M - upper`` below ``min d`` (see :func:`_certify`; multiplicatively
    when ``psd`` holds).  So when the top ``upper`` values lie above
    ``max d`` and the others below ``min d``, each by more than
    ``bound + margin``, their eigenvalues are exactly ``lambda_1 ..
    lambda_upper`` and the ``M - upper`` smallest, in order, and each value
    is within ``bound`` of its eigenvalue.  The certificate asks
    ``bound <= FILTER_TOLERANCE * max(1, largest |theta|)`` and no gap
    between the values, so close or repeated outliers certify.  As in
    :func:`_certify`, ``d`` may instead be the two ends of an interval
    proved to hold every other eigenvalue.
    """
    h = q.T @ image
    h = 0.5 * (h + h.T)
    # eigh, as in the Rayleigh-Ritz steps: eigvalsh is left to dense solves.
    values = np.linalg.eigh(h)[0][::-1]
    size = max(abs(values[0]), abs(values[-1]))
    eta = np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
    bound = (np.linalg.norm(image - q @ h) + 3.0 * eta * size) / (1.0 - eta)
    certified = (
        eta < 1.0
        and bound <= FILTER_TOLERANCE * max(1.0, size)
        and (values[:upper] - bound > d.max() + margin).all()
        and (values[upper:] + bound < d.min() - margin).all()
        and (not psd or d.min() >= 0.0)
    )
    if not certified:
        return "certificate failed"
    return values


class _BandBlocks(NamedTuple):
    """The band matrix ``T`` as two stacks, its ``w x w`` diagonal blocks
    ``A_k`` and the blocks ``B_k`` below them, the last block padded with
    zero rows and columns, and how many of the stacks' rows are ``T``'s."""

    diag: np.ndarray
    below: np.ndarray
    rows: int

    def leading(self, count: int) -> _BandBlocks:
        """The stacks of ``T``'s leading ``count`` blocks, ``count`` being
        below ``T``'s block count."""
        return _BandBlocks(self.diag[:count], self.below[: count - 1],
                           count * self.diag.shape[1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``T x`` for ``x`` with ``rows`` rows: ``x`` padded to whole blocks
        ``x_k``, then ``y_k = A_k x_k + B_(k-1) x_(k-1) + B_k^T x_(k+1)`` as
        three batched matmuls, O(n w) work per column."""
        count, width = self.diag.shape[:2]
        blocks = np.zeros((count * width, x.shape[1]))
        blocks[: self.rows] = x
        blocks = blocks.reshape(count, width, -1)
        y = self.diag @ blocks
        y[1:] += self.below @ blocks[:-1]
        y[:-1] += self.below.swapaxes(-1, -2) @ blocks[1:]
        return y.reshape(count * width, -1)[: self.rows]


def _band_blocks(band: np.ndarray) -> _BandBlocks:
    """The block stacks of the band matrix (:class:`_BandBlocks`)."""
    width = band.shape[0] - 1
    count = -(-band.shape[1] // width)
    padded = np.zeros((width + 1, count * width))
    padded[:, : band.shape[1]] = band
    corner = np.arange(count)[:, None] * width
    diag = np.zeros((count, width, width))
    rows, cols = np.tril_indices(width)
    diag[:, rows, cols] = diag[:, cols, rows] = padded[rows - cols, corner + cols]
    below = np.zeros((count - 1, width, width))
    rows, cols = np.triu_indices(width)  # the band reaches no further
    below[:, rows, cols] = padded[width + rows - cols, corner[:-1] + cols]
    return _BandBlocks(diag, below, band.shape[1])


def _shifted_blocks(blocks: _BandBlocks, shifts: np.ndarray):
    """``T - c I`` for each ``c`` of ``shifts``: its stacks of diagonal
    blocks and of the blocks below them, and how many rows pad the last
    block.  Padding rows are isolated, at ``-1``."""
    count, width = blocks.diag.shape[:2]
    pivots = blocks.diag[None] - shifts[:, None, None, None] * np.eye(width)
    padding = count * width - blocks.rows
    for row in range(width - padding, width):
        pivots[:, -1, row, row] = -1.0
    return (pivots, np.broadcast_to(blocks.below, (shifts.size,) + blocks.below.shape),
            padding)


def _eliminate_odd(pivots: np.ndarray, below: np.ndarray,
                   inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level of block cyclic reduction: the Schur complement on the even
    blocks once the odd ones, whose pivots have the inverses ``inverse``,
    are eliminated, as its diagonal blocks and the blocks below them.

    Eliminated block ``2q + 1`` couples up to kept block ``q`` through
    ``B_2q`` and down to kept block ``q + 1`` through ``B_2q+1``.
    """
    up, down = below[:, 0::2], below[:, 1::2]
    lower = down.shape[1]
    kept = pivots[:, 0::2].copy()
    kept[:, : up.shape[1]] -= up.swapaxes(-1, -2) @ inverse @ up
    kept[:, 1: lower + 1] -= down @ inverse[:, :lower] @ down.swapaxes(-1, -2)
    return kept, -(down @ inverse[:, :lower] @ up[:, :lower])


def _band_inertia(blocks: _BandBlocks,
                  shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many eigenvalues of the band matrix ``T``, given by its block
    stacks, lie below each of ``shifts``, and the radius ``delta`` around
    each shift within which its count may err.

    ``T - c I`` is block tridiagonal in ``w x w`` blocks.  Block cyclic
    reduction eliminates every other block at once: the eliminated blocks
    are coupled only to the kept ones, so with ``P`` the eliminated blocks'
    (block diagonal) pivot, ``T - c I`` has the inertia of ``P`` plus that
    of the Schur complement on the kept blocks, again block tridiagonal with
    half as many blocks (Sylvester's law of inertia).  The leading block is
    kept to the last level, so each pivot eliminated before it is a Schur
    complement of a run of blocks without it, definite when ``c`` lies
    outside the spectrum of ``T`` without its leading ``w`` rows, as the
    cuts of :func:`_band_extremes` do but for near-critical strengths or an
    eigenvalue hidden down the band.  A definite matrix has diagonal entries
    of its own sign, so each level takes each shift's sign ``s`` from the
    first diagonal entry of its first eliminated pivot and runs one batched
    Cholesky of ``s P``.  A Cholesky that runs to completion proves ``s P +
    F`` definite for an ``F`` of the size of its rounding (Demmel, "On
    floating point errors in Cholesky", LAPACK Working Note 14, 1989),
    which ``delta`` below covers: each pivot holds ``w`` eigenvalues of
    sign ``s``, and ``inv`` applies its inverse.  A level whose Cholesky or
    ``inv`` raises diagonalizes its pivots with one batched ``eigh``
    instead, which gives their inertia and inverses, and so does the last
    level, on the leading block.  A last block shorter than ``w`` is padded
    with isolated rows, at ``+1`` for a shift whose first eliminated pivot
    starts positive and at ``-1`` otherwise, and their count is taken off.

    In floating point each pivot is the exact one of ``T - c I + E`` with
    ``E`` block diagonal, each block within about ``4 w u (|P_k| + 3
    |C_k|_F^2 |P_k^-1|)`` of zero, ``C_k`` the pivot's two couplings,
    ``u`` the unit roundoff and ``|.|`` the 2-norm (the block LU analysis
    of Demmel, Higham and Schreiber, Numer. Linear Algebra Appl. 2, 1995,
    with the constant taken as ``4 w``).  A level that diagonalized its
    pivots reads ``|P_k|`` and ``|P_k^-1| = 1 / min |eig(P_k)|`` off their
    eigenvalues; a Cholesky level bounds both by the largest absolute row
    sums of ``P_k`` and of ``P_k^-1``, which are at least the 2-norms of
    symmetric matrices.  ``delta`` is the largest of these, so by Weyl's
    bound the count lies between those of ``T`` at ``c - delta`` and ``c +
    delta``.  A near-singular pivot makes ``delta`` large or infinite.
    """
    width = blocks.diag.shape[1]
    pivots, below, padding = _shifted_blocks(blocks, shifts)
    negative = np.full(shifts.size, -padding)
    if pivots.shape[1] > 1:
        # Padding rows at +1 where the first eliminated pivot is positive,
        # so that the pivot holding them can still be definite.
        positive = pivots[:, 1, 0, 0] > 0.0
        for row in range(width - padding, width):
            pivots[positive, -1, row, row] = 1.0
        negative[positive] = 0
    worst = np.zeros(shifts.size)

    def row_sums(a: np.ndarray) -> np.ndarray:
        # The largest absolute row sum of each block, at least its 2-norm
        # when the block is symmetric.
        return np.abs(a).sum(axis=3).max(axis=2)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while pivots.shape[1] > 1:
            eliminated = pivots[:, 1::2]
            up, down = below[:, 0::2], below[:, 1::2]
            lower = down.shape[1]
            coupling = np.sum(up * up, axis=(2, 3))
            coupling[:, :lower] += np.sum(down * down, axis=(2, 3))
            sign = np.where(eliminated[:, 0, 0, 0] < 0.0, -1.0, 1.0)
            try:
                np.linalg.cholesky(sign[:, None, None, None] * eliminated)
                inverse = np.linalg.inv(eliminated)
            except np.linalg.LinAlgError:
                values, vecs = np.linalg.eigh(eliminated)
                negative += np.count_nonzero(values < 0.0, axis=(1, 2))
                inverse = (vecs / values[..., None, :]) @ vecs.swapaxes(-1, -2)
                size = np.abs(values)
                bound = size.max(axis=2) + 3.0 * coupling / size.min(axis=2)
            else:
                negative += np.where(sign < 0.0, eliminated.shape[1] * width, 0)
                bound = row_sums(eliminated) + 3.0 * coupling * row_sums(inverse)
            worst = np.maximum(worst, np.max(bound, axis=1))
            pivots, below = _eliminate_odd(pivots, below, inverse)
        # eigh, as in the Rayleigh-Ritz steps: eigvalsh is left to dense solves.
        values = np.linalg.eigh(pivots[:, 0])[0]
        negative += np.count_nonzero(values < 0.0, axis=1)
        worst = np.maximum(worst, np.abs(values).max(axis=1))
    unit = 0.5 * np.finfo(float).eps
    return negative, 4.0 * width * unit * worst


def _band_solve(blocks: _BandBlocks, shifts: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
    """Row ``j`` of ``rhs`` (``s x blocks.rows``) solved against ``T -
    shifts_j I``, ``T`` being the band matrix of the block stacks
    ``blocks``; ``LinAlgError`` when a pivot block is singular.  Its caller,
    :func:`_sweep`, gives way on that error, silences floating-point
    warnings and checks that the solution is finite.

    The block cyclic reduction of :func:`_band_inertia`, batched over the
    shifts, with each level's pivots inverted.  On the way down each level
    folds the eliminated blocks' right-hand sides into the kept ones; on
    the way up it recovers the eliminated blocks' solutions from those of
    their kept neighbours.  O(n w^2) work per shift.
    """
    n, width = blocks.rows, blocks.diag.shape[1]
    pivots, below, _ = _shifted_blocks(blocks, shifts)
    b = np.zeros((shifts.size, pivots.shape[1] * width))
    b[:, :n] = rhs
    b = b.reshape(shifts.size, -1, width, 1)
    levels = []
    while pivots.shape[1] > 1:
        inverse = np.linalg.inv(pivots[:, 1::2])
        up, down = below[:, 0::2], below[:, 1::2]
        lower = down.shape[1]
        scaled = inverse @ b[:, 1::2]
        kept = b[:, 0::2].copy()
        kept[:, : up.shape[1]] -= up.swapaxes(-1, -2) @ scaled
        kept[:, 1: lower + 1] -= down @ scaled[:, :lower]
        levels.append((inverse, up, down, b[:, 1::2]))
        pivots, below = _eliminate_odd(pivots, below, inverse)
        b = kept
    x = np.linalg.inv(pivots) @ b
    for inverse, up, down, eliminated in reversed(levels):
        lower = down.shape[1]
        rest = eliminated - up @ x[:, : up.shape[1]]
        rest[:, :lower] -= down.swapaxes(-1, -2) @ x[:, 1: lower + 1]
        full = np.empty((shifts.size, x.shape[1] + up.shape[1], width, 1))
        full[:, 0::2], full[:, 1::2] = x, inverse @ rest
        x = full
    return x.reshape(shifts.size, -1)[:, :n]


def _band_extremes(
    band: np.ndarray, thetas: np.ndarray, vectors: bool,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray | str:
    """Certified top ``M+`` and bottom ``M-`` eigenpairs of ``T``, the band
    matrix ``band`` (half bandwidth ``w``) with ``thetas`` (``M+`` positive,
    ``M-`` negative) added to its leading diagonal, their values alone when
    not ``vectors``, or the reason they could not be certified.

    Growth.  Block Lanczos started on the leading ``w`` coordinates
    reproduces ``T``'s own blocks, so its Rayleigh-Ritz problem after ``k``
    steps is ``T``'s leading ``k w`` rows and columns, solved by ``eigh``.
    A Ritz pair ``(mu, y)`` padded with zeros has the residual
    ``T [y; 0] - mu [y; 0]`` of the block below alone, exactly
    ``|B_k y_last|``.  The first two leading blocks span
    ``BAND_FIRST_BLOCKS`` and twice that many blocks of ``w`` rows; after
    that the residuals' geometric fall between the last two predicts the
    size at which the slowest reaches its target (half the certificate's
    tolerance), and the next block has that size, at most twice the last.

    Sweeps.  From the second block on, the solve refines the block's Ritz
    pairs, padded with zeros to ``n`` rows, by the sweeps of
    :func:`_refine` in place of further growth, when two sweeps are
    predicted to meet the targets (``r^9 / isolation^8``, isolation taken
    from the block's next Ritz values, the bulk's edges as it sees them)
    and the predicted block would have more than ``FILTER_ROWS_PER_PAIR``
    rows per pair (the size rule of :func:`eigensolve`: below it ``eigh``
    costs less than a sweep).  A sweep solves on ``T_k``, ``T``'s leading
    ``k`` blocks (:func:`_band_solve`, O(k w^3) per pair), with zeros
    below: the outlier eigenvectors fall geometrically down the band, at
    the rate the growth measures.  The first sweep's ``k`` is the block
    count at which the leading block's residuals would reach that sweep's
    own goal, the larger of the target and ``r^3 / isolation^2``, held
    between one block past the current one and the predicted block count;
    later sweeps run on that count.  Residuals are measured on all of
    ``T`` (:meth:`_BandBlocks.apply`), so a ``k`` too small leaves a
    residual above its target, never an unchecked pair.  A stall, or a
    sweep that gives way, gives way to the block growth.  ``T``'s block
    stacks are built once, when first needed.

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
    interlacing), and :func:`_band_inertia` counts the eigenvalues beyond
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
    certificates.  A solve grown to its targets with no sweep has no
    Rayleigh-Ritz state on all of ``T``: a values solve takes one step for
    its certificate, and a pairs certificate applies ``T`` to its pairs.
    No random numbers are drawn.
    """
    n, width = band.shape[1], band.shape[0] - 1
    m = thetas.size
    upper = int(np.count_nonzero(thetas > 0.0))
    lower = m - upper
    if not m:
        return (np.empty(0), np.empty((n, 0))) if vectors else np.empty(0)
    band = _with_strengths(band, thetas)

    def padded(vecs: np.ndarray) -> np.ndarray:
        # Vectors on leading rows with zeros below, to n rows.
        return np.vstack((vecs, np.zeros((n - vecs.shape[0], vecs.shape[1]))))

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
        if vectors:
            _, _, gap = _intervals(values, 0.0, upper, cuts(values, edges))
            return 0.5 * FILTER_TOLERANCE * np.minimum(radius, gap), isolation
        return 0.5 * FILTER_TOLERANCE * radius / math.sqrt(m), isolation

    def sweep(ritz: _Ritz, todo: np.ndarray, excess: np.ndarray,
              isolation: np.ndarray):
        # The first sweep, on pairs from a leading block, solves on the
        # leading ``first`` blocks and later ones on ``full``.
        leading = stacks().leading(first if ritz.q is None else full)

        def solve(shifts: np.ndarray, x: np.ndarray) -> np.ndarray:
            return padded(_band_solve(leading, shifts, x[: leading.rows].T).T)

        return _sweep(solve, ritz, todo, isolation)

    # T's block stacks, built once when a sweep, a product or the counts
    # first need them.
    stacks = functools.cache(lambda: _band_blocks(band))
    cap = n // (2 * width)
    blocks, before = min(BAND_FIRST_BLOCKS, cap), None
    while True:
        rows = blocks * width
        if rows <= m:
            return "step cap reached"
        window = _band_window(band, rows + width)
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
        ritz = _Ritz(values, padded(vecs), resid, None, None)
        target, isolation = goals(ritz)
        if (resid <= target).all():
            break
        todo = resid > target
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(resid)
            if before is None:  # no fall measured yet: double the block
                need, size = blocks + 1.0, 2.0 * blocks
            else:
                rate = (before[1] - logs) / (blocks - before[0])
                steps = np.where(rate > 0.0, np.log(resid / target) / rate, np.inf)
                need = size = blocks + float(steps[todo].max())
            if blocks >= cap or not need <= cap:
                return "step cap reached"
            # Two sweeps (r -> r^9 / isolation^8) must meet the targets, and a
            # sweep replaces growth past the size below which eigh is cheaper;
            # the first sweep solves on the rows that reach its own goal.
            if (before is not None and size * width > FILTER_ROWS_PER_PAIR * (m + 1)
                    and (resid ** 9 / isolation ** 8 <= target)[todo].all()):
                full = math.ceil(size)
                goal = np.maximum(target, resid ** 3 / isolation ** 2)
                reach = np.where(rate > 0.0, np.log(resid / goal) / rate, np.inf)
                first = int(np.clip(np.ceil(blocks + reach[todo].max()),
                                    blocks + 1, full))
                refined, met = _refine(stacks().apply, ritz, goals, sweep)
                if met:
                    ritz = refined
                    break
        before = blocks, logs
        blocks = min(cap, 2 * blocks, max(blocks + 1, math.ceil(size)))

    bounds = cuts(ritz.values, edges)
    shifts = bounds[[1] * bool(upper) + [0] * bool(lower)]
    below, delta = _band_inertia(stacks(), shifts)
    if not (delta <= margin).all():
        return "near-singular pivot block"
    if (upper and n - below[0] != upper) or (lower and below[-1] != lower):
        return "count disagrees"
    bulk = np.array([bounds[0] - (delta[-1] if lower else 0.0),
                     bounds[1] + (delta[0] if upper else 0.0)])
    if vectors:
        return _certify(stacks().apply, ritz, bulk, upper, False, margin)
    if ritz.q is None:
        ritz = _rayleigh_ritz(stacks().apply, ritz.vecs)
    return _certify_values(ritz.q, ritz.image, bulk, upper, False, margin)


def eigensolve(
    matrix: np.ndarray | EnsembleSample, vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Descending eigenvalues and matching eigenvector columns, or the
    eigenvalues alone when not ``vectors``.

    A matrix gets its full spectrum from LAPACK (``eigh``, or ``eigvalsh``
    for values alone).  It must be finite and symmetric to
    ``SYMMETRY_TOLERANCE`` (relative to its largest entry).

    A structured sample with ``n > FILTER_ROWS_PER_PAIR * (M + 1)`` (an
    orthogonally invariant one with a frame, or a band one) gets only its
    top ``M+`` and bottom ``M-`` values, ``M+``/``M-`` the numbers of
    positive/negative strengths: ``M = M+ + M-`` values (top then bottom,
    descending).  So entry ``j`` holds eigenvalue ``j + 1`` for ``j < M+``
    and eigenvalue ``j + 1 + n - M`` after (:func:`spectrum_column`).  With
    ``vectors`` each pair is certified as in :func:`_certify`, value within
    ``FILTER_TOLERANCE`` times the spectral radius and vector within an
    angle of ``FILTER_TOLERANCE``, and the ``n x M`` vectors come with them.
    Values alone are certified as in :func:`_certify_values`, to the same
    tolerance on the values but with no gap between outliers, so close ones
    (about ``1/M`` apart when ``M`` grows with ``n``) certify too.  The
    solve reads the sample's structure, never its dense matrices.

    Both refine their Ritz pairs by the sweeps of :func:`_refine`, and the
    certificates read its last Rayleigh-Ritz state, residuals and all, with
    no further product (a band solve whose leading block meets the targets
    with no sweep has no such state, and applies ``T`` once more).

    * An orthogonally invariant sample's are found by
      :func:`_filtered_extremes` on its :meth:`EnsembleSample._update`: a
      first Chebyshev filter stage, then sweeps through the Woodbury
      identity while a sweep (``n m'^2`` per vector, ``m'`` the update's
      rank) costs less than the next filter stage (``need n m'``).  The
      bulk ``[min d, max d]`` is known.  It gives up when the Ritz values
      are not beyond the bulk (and, with ``vectors``, apart) once the
      filter reaches ``FILTER_FIRST_DEGREE``, or when it would need more
      than ``FILTER_MAX_DEGREE`` in total.
    * A band sample's are found by :func:`_band_extremes`: the Ritz pairs
      of a leading block of ``T``, grown until two sweeps are predicted to
      finish them, then sweeps on the leading rows of ``T`` the grown
      block's residuals call for (``O(M^2)`` per row and vector through
      block cyclic reduction), with residuals measured on all of ``T``.
      The interval holding the rest of the spectrum is proved by exact
      counts (Sylvester's inertia, from :func:`_band_inertia`) at a cut on
      each side.  It gives up when the leading block would pass ``n /
      (2M)`` blocks, a pivot block of the count is near-singular, or a
      count is not ``M+`` (or ``M-``).

    When a solve gives up or its certificate fails, the fallback and its
    reason are logged at DEBUG level and the sample's dense ``perturbed``
    matrix, built on that read, gets the full spectrum.  Every other sample,
    smaller and dense ones included, takes the dense path directly.  A
    sample's matrix is validated when built and symmetric by construction
    (to rounding), so it is read with no symmetry check and no n x n
    temporary.
    """
    if isinstance(matrix, EnsembleSample):
        sample = matrix
        framed = not sample.kind.closed_form and sample.frame is not None
        if ((framed or sample.band is not None)
                and sample.n > FILTER_ROWS_PER_PAIR * (sample.m + 1)):
            if framed:
                w, k = sample._update()
                found = _filtered_extremes(
                    sample.diagonal, w, 0.5 * (k + k.T), sample.frame,
                    int(np.count_nonzero(sample.thetas > 0.0)),
                    sample.kind.multiplicative, vectors)
            else:
                found = _band_extremes(sample.band, sample.thetas, vectors)
            if not isinstance(found, str):
                return found
            _log.debug("dense eigensolve fallback: stream %d, n=%d: %s",
                       sample.stream_id, sample.n, found)
        a = sample.perturbed
    else:
        a = np.asarray(matrix, dtype=float)
        _square_size(a)
        # max|a| and max|a - a^T| without an abs() copy: a - a^T is exactly
        # antisymmetric, so its largest entry is its largest magnitude.  A
        # non-finite entry makes dev NaN or infinite, which fails the test.
        scale = max(1.0, float(a.max()), -float(a.min())) if a.size else 1.0
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and rejected
            dev = float((a - a.T).max()) if a.size else 0.0
        if not dev <= SYMMETRY_TOLERANCE * scale:
            raise ModelError(
                f"matrix is not finite and symmetric (deviation {dev:.2e})")
    if not vectors:
        return np.linalg.eigvalsh(a)[::-1]
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def spectrum_column(index: int, m_positive: int, n: int, size: int) -> int:
    """Column of eigenvalue number ``index`` (1-based, descending) of an
    n x n matrix in a spectrum of ``size`` values from :func:`eigensolve`.

    The full spectrum (``size == n``) holds it at ``index - 1``; the top
    ``m_positive`` and bottom values of a partial solve hold the bottom ones
    ``n - size`` columns earlier.  ``index`` is a strength's target index
    (:func:`~meso_spectra.spectral_core.target_index`), which lies in the
    top ``m_positive`` or the bottom ``M - m_positive`` of the spectrum.
    """
    return index - 1 if index <= m_positive else index - 1 - (n - size)
