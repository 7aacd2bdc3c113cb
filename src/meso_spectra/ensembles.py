"""Random-matrix sampling and deterministic perturbation assembly.

All randomness flows through :class:`RngStream`, a (master_seed, stream_id)
pair mapped to an independent ``numpy`` generator via ``SeedSequence`` spawn
keys, so trials are reproducible and order-independent.  Matrix assembly
itself is deterministic given the sampled ingredients.
"""

from __future__ import annotations

import enum
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
    """``base + V diag(theta) V^T`` (leading coordinates when ``frame=None``)."""
    n = base.shape[0]
    m = pert.m
    if m > n:
        raise ModelError(f"rank {m} exceeds matrix size {n}")
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


def _check_psd(base: np.ndarray) -> None:
    try:
        np.linalg.cholesky(base + PSD_SHIFT * np.eye(base.shape[0]))
    except np.linalg.LinAlgError:
        raise ModelError(
            "multiplicative perturbation requires a PSD base matrix"
        ) from None


def perturb_multiplicative(base: np.ndarray, pert: PerturbationSpec) -> np.ndarray:
    """``S base S`` with ``S = (I + V diag(theta) V^T)^(1/2)``.

    The base matrix must be PSD (checked by a shifted Cholesky) and every
    strength must exceed -1 so that ``S`` is well defined.
    """
    n = base.shape[0]
    m = pert.m
    if m > n:
        raise ModelError(f"rank {m} exceeds matrix size {n}")
    if m and pert.thetas[-1] <= -1.0:
        raise ModelError("multiplicative strengths must exceed -1")
    _check_psd(base)
    out = np.array(base, dtype=float, copy=True)
    if m == 0:
        return out
    v = _frame_columns(n, pert)
    scale = np.sqrt(1.0 + pert.thetas)
    if v is None:
        # S is diagonal: entry (i, j) picks up scale_i * scale_j.
        out[:m, :] *= scale[:, None]
        out[:, :m] *= scale[None, :]
    else:
        s = np.eye(n) + (v * (scale - 1.0)) @ v.T
        out = s @ out @ s
        out = 0.5 * (out + out.T)
    return out


@dataclass(frozen=True, eq=False)
class EnsembleSample:
    """One realized instance: base matrix, perturbed matrix, and provenance.

    ``frame`` is the orthonormal carrier actually used (``None`` stands for
    the leading coordinate axes), which downstream code needs to project
    eigenvectors and to build the finite-rank resolvent operator.
    """

    base: np.ndarray = field(repr=False)
    perturbed: np.ndarray = field(repr=False)
    frame: np.ndarray | None = field(repr=False)
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
        kind=kind,
        n=n,
        m=pert.m,
        master_seed=rng.master_seed,
        stream_id=rng.stream_id,
        law=used_law,
    )


def eigensolve(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and matching eigenvector columns.

    The input must be symmetric to ``SYMMETRY_TOLERANCE`` (relative to its
    largest entry); the solve itself delegates to LAPACK's ``eigh``.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    dev = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if dev > SYMMETRY_TOLERANCE * scale:
        raise ModelError(f"matrix is not symmetric (deviation {dev:.2e})")
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()
