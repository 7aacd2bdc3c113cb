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
bandwidth ``w = max(M, 1)``, in the storage of :mod:`~meso_spectra.band`:
a block Householder reduction that fixes the leading ``w`` coordinates
takes GOE to ``T`` (Dumitriu and Edelman, J. Math. Phys. 43, 2002;
Bloemendal and Virag, PTRF 156, 2013), so ``T`` plus the strengths has the
joint law of outlier values and leading-coordinate eigenvector projections
of GOE plus the strengths.

:func:`eigensolve` on a matrix returns the full spectrum.  On a structured
sample (above a size set by ``partial.FILTER_ROWS_PER_PAIR``) it returns
only the top ``M+`` and bottom ``M-`` eigenpairs, or their values alone
with ``vectors=False`` (``M+``/``M-`` the numbers of positive/negative
strengths), certified by the partial solves of
:mod:`~meso_spectra.partial`; when a solve gives up or its certificate
fails, it falls back to the full dense spectrum and logs the fallback on
the ``meso_spectra`` logger.  Experiment trials read realized values
through ``eigensolve(sample, vectors=False)`` alone, so a value-only trial
of a structured sample builds no n x n matrix.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import band, partial
from .spectral_core import (
    Model,
    ModelError,
    ModelKind,
    PerturbationSpec,
    SpectrumModel,
    check_fits,
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
    m = pert.m
    check_fits(_square_size(base), pert.thetas, multiplicative=False, frame=pert.frame)
    if not np.isfinite(base).all():
        raise ModelError("base matrix has non-finite entries")
    v = pert.frame
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
    check_fits(_square_size(base), pert.thetas, multiplicative=True, frame=pert.frame)
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
    v = pert.frame
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
      reduced to half bandwidth ``max(M, 1)`` (see :func:`band.goe`); its
      ``base`` is ``T`` and its ``perturbed`` is ``T`` with ``thetas`` added
      to the leading diagonal entries, :func:`perturb_additive` of ``T``.

    Every other closed-form sample (a framed or Rademacher Wigner one, a
    Wishart one) holds both dense matrices from the start, as ``dense``.
    The dense matrices are read-only.

    A sample is validated once, when it is built: the strengths and the
    frame must fit ``n`` (:func:`~meso_spectra.spectral_core.check_fits`)
    and a held ``diagonal`` must pass :func:`_check_diagonal`, so building
    its dense matrices raises nothing.
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
        check_fits(self.n, self.thetas, self.kind.multiplicative, self.frame)
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
                else band.window(self.band, self.n))
        return self._built["base"]

    @property
    def perturbed(self) -> np.ndarray:
        """The n x n perturbed matrix."""
        if self.dense is not None:
            return self.dense[1]
        if "perturbed" not in self._built:
            if self.band is not None:
                built = band.window(band.with_strengths(self.band, self.thetas), self.n)
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
    coordinates.  That one draws the band matrix of :func:`band.goe`, half
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
    check_fits(n, pert.thetas, kind.multiplicative, pert.frame)
    if kind is ModelKind.WIGNER and law is EntryLaw.GAUSSIAN and pert.frame is None:
        storage = _read_only(band.goe(n, max(pert.m, 1), gen))
        return EnsembleSample(frame=None, law=law, band=storage, **provenance)
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


def eigensolve(
    matrix: np.ndarray | EnsembleSample, vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Descending eigenvalues and matching eigenvector columns, or the
    eigenvalues alone when not ``vectors``.

    A matrix gets its full spectrum from LAPACK (``eigh``, or ``eigvalsh``
    for values alone).  It must be finite and symmetric to
    ``SYMMETRY_TOLERANCE`` (relative to its largest entry).

    A structured sample with ``n > partial.FILTER_ROWS_PER_PAIR * (M + 1)``
    (an orthogonally invariant one with a frame, or a band one) gets only
    its top ``M+`` and bottom ``M-`` values, ``M+``/``M-`` the numbers of
    positive/negative strengths: ``M = M+ + M-`` values (top then bottom,
    descending).  So entry ``j`` holds eigenvalue ``j + 1`` for ``j < M+``
    and eigenvalue ``j + 1 + n - M`` after (:func:`spectrum_column`).  With
    ``vectors`` each pair is certified, value within
    ``partial.FILTER_TOLERANCE`` times the spectral radius and vector within
    an angle of ``FILTER_TOLERANCE``, and the ``n x M`` vectors come with
    them.  Values alone are certified to the same tolerance on the values
    but with no gap between outliers, so close ones (about ``1/M`` apart
    when ``M`` grows with ``n``) certify too.  The solve reads the sample's
    structure, never its dense matrices:
    :func:`~meso_spectra.partial.filtered_extremes` on an orthogonally
    invariant sample's :meth:`EnsembleSample._update` and
    :func:`~meso_spectra.partial.band_extremes` on a band sample's band,
    whose docstrings give the algorithms and certificates.

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
                and sample.n > partial.FILTER_ROWS_PER_PAIR * (sample.m + 1)):
            if framed:
                w, k = sample._update()
                found = partial.filtered_extremes(
                    sample.diagonal, w, 0.5 * (k + k.T), sample.frame,
                    int(np.count_nonzero(sample.thetas > 0.0)),
                    sample.kind.multiplicative, vectors)
            else:
                found = partial.band_extremes(sample.band, sample.thetas, vectors)
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
