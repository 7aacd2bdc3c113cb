"""Domain types shared across the package.

The objects here describe the inputs of a perturbation experiment: a base
spectrum, a finite-rank perturbation, the model family tying them together,
and the separation verdict that decides whether a spike produces an outlier
by ``|theta|`` against a threshold strength (the test that reaches it lives
in :mod:`meso_spectra.predictor`, which owns every choice of transform).
Everything is immutable after construction; samplers and experiment drivers
treat these as values.  This module imports no sibling module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MesoSpectraError",
    "InvalidPerturbationError",
    "ModelError",
    "NotSeparatedError",
    "ModelKind",
    "Side",
    "SpectrumModel",
    "PerturbationSpec",
    "Model",
    "Separation",
    "target_index",
]

# Eigenvalues above this floor (in absolute value) count as nonnegative when
# deciding whether a spectrum is positive semi-definite.
PSD_TOLERANCE = 1e-10

# Orthonormality tolerance for frames, measured entrywise on V^T V - I.
FRAME_TOLERANCE = 1e-10


class MesoSpectraError(Exception):
    """Base class for every error raised by this package."""


class ModelError(MesoSpectraError, ValueError):
    """A model is internally inconsistent (missing spectrum, bad shape, ...)."""


class InvalidPerturbationError(ModelError):
    """A perturbation strength is outside its admissible range."""


class NotSeparatedError(MesoSpectraError, ValueError):
    """A prediction was requested for a spike that fails the separation test.

    Attributes
    ----------
    separation : Separation
        The failing verdict, with the threshold strength ``|theta|`` missed.
    """

    def __init__(self, message: str, separation: "Separation"):
        super().__init__(message)
        self.separation = separation


class ModelKind(str, enum.Enum):
    """The four base-matrix families the package understands, with the traits
    that the other layers read instead of naming a member.

    Each member is its value followed by three flags.  Multiplicative: the
    perturbation acts as ``S B S`` with ``S = (I + P)^(1/2)``, so every
    strength must exceed -1 (:func:`check_floor`); otherwise it is added
    (``additive``).  Closed form: the limiting transform is known in closed
    form; the other kinds work with the empirical transforms of an explicit
    base spectrum.  Takes phi: the aspect ratio ``phi`` is data.
    """

    def __new__(cls, value: str, *flags: bool):
        kind = str.__new__(cls, value)
        kind._value_ = value
        kind.multiplicative, kind.closed_form, kind.takes_phi = flags
        kind.additive = not kind.multiplicative
        return kind

    WIGNER = ("wigner", False, True, False)
    WISHART = ("wishart", True, True, True)
    ORTH_INVARIANT_ADDITIVE = ("orth-invariant-additive", False, False, False)
    ORTH_INVARIANT_MULTIPLICATIVE = ("orth-invariant-multiplicative", True, False, False)


class Side(str, enum.Enum):
    """Which edge of the spectrum an outlier detaches from."""

    UPPER = "upper"
    LOWER = "lower"


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ModelError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SpectrumModel:
    """A deterministic base spectrum, stored in descending order.

    Use :meth:`from_values` to build one; it sorts the input, decides (or
    checks) positive semi-definiteness, and clips tiny negative eigenvalues
    of PSD spectra to zero.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Descending, finite, read-only.
    is_psd : bool
        Whether every eigenvalue is nonnegative (after clipping).

    The inverse transforms of a spectrum are memoized on it, keyed on the
    transform and the target value, and so are its separation thresholds,
    keyed on the margin, the side and the transform; the eigenvalues are
    read-only, so an entry never goes stale.
    """

    eigenvalues: np.ndarray = field(repr=False)
    is_psd: bool
    _inverses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_values(cls, values, is_psd: bool | None = None) -> "SpectrumModel":
        """Canonicalize ``values`` into a spectrum.

        With ``is_psd=None`` the flag is inferred: eigenvalues down to
        ``-1e-10`` count as nonnegative and are clipped to zero.  Passing
        ``is_psd=True`` asserts the same condition and raises ``ModelError``
        if it fails.
        """
        arr = _as_float_array(values, "eigenvalues")
        if arr.size == 0:
            raise ModelError("a spectrum needs at least one eigenvalue")
        arr = np.sort(arr)[::-1].copy()
        lam_min = arr[-1]
        if is_psd is None:
            is_psd = bool(lam_min >= -PSD_TOLERANCE)
        elif is_psd and lam_min < -PSD_TOLERANCE:
            raise ModelError(
                f"spectrum declared PSD but smallest eigenvalue is {lam_min:g}"
            )
        if is_psd:
            np.clip(arr, 0.0, None, out=arr)
        arr.setflags(write=False)
        return cls(eigenvalues=arr, is_psd=is_psd)

    def __post_init__(self):
        ev = self.eigenvalues
        if not isinstance(ev, np.ndarray) or ev.ndim != 1 or ev.size == 0:
            raise ModelError("eigenvalues must be a nonempty 1-d array")
        if np.any(ev[:-1] < ev[1:]):
            raise ModelError("eigenvalues must be in descending order")
        if self.is_psd and ev[-1] < 0.0:
            raise ModelError("PSD spectrum has a negative eigenvalue")
        if ev.flags.writeable or ev.base is not None:
            ev = ev.copy()
            ev.setflags(write=False)
            object.__setattr__(self, "eigenvalues", ev)

    def __eq__(self, other):
        if not isinstance(other, SpectrumModel):
            return NotImplemented
        return self.is_psd == other.is_psd and np.array_equal(
            self.eigenvalues, other.eigenvalues
        )

    __hash__ = None

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def norm_bound(self) -> float:
        """Operator norm of the diagonal model matrix, ``max |lambda_i|``."""
        return max(abs(self.lam_max), abs(self.lam_min))

    def __repr__(self) -> str:
        return (
            f"SpectrumModel(n={self.n}, range=[{self.lam_min:g}, {self.lam_max:g}], "
            f"is_psd={self.is_psd})"
        )


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """A finite-rank perturbation: strengths plus an optional carrier frame.

    ``thetas`` is stored in descending order; when a frame is given its
    columns are permuted with the strengths so column ``i`` always carries
    ``thetas[i]``.  ``frame=None`` means the perturbation lives on the
    leading coordinate axes.

    Rank zero (``thetas=[]``) is allowed and describes the unperturbed model.
    """

    thetas: np.ndarray = field(repr=False)
    frame: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_values(cls, thetas, frame=None) -> "PerturbationSpec":
        arr = _as_float_array(thetas, "thetas")
        if np.any(arr == 0.0):
            raise InvalidPerturbationError("perturbation strengths must be nonzero")
        order = np.argsort(-arr, kind="stable")
        arr = arr[order].copy()
        arr.setflags(write=False)
        if frame is not None:
            frame = np.asarray(frame, dtype=float)
            if frame.ndim != 2 or frame.shape[1] != arr.size:
                raise ModelError(
                    f"frame shape {frame.shape} does not match rank {arr.size}"
                )
            frame = frame[:, order].copy()
            gram = frame.T @ frame
            dev = np.max(np.abs(gram - np.eye(arr.size))) if arr.size else 0.0
            if not dev <= FRAME_TOLERANCE:  # a non-finite entry makes dev NaN
                raise ModelError(
                    f"frame columns are not orthonormal (deviation {dev:.2e})"
                )
            frame.setflags(write=False)
        return cls(thetas=arr, frame=frame)

    def __post_init__(self):
        th = self.thetas
        if not isinstance(th, np.ndarray) or th.ndim != 1:
            raise ModelError("thetas must be a 1-d array")
        if np.any(th == 0.0):
            raise InvalidPerturbationError("perturbation strengths must be nonzero")
        if np.any(th[:-1] < th[1:]):
            raise ModelError("thetas must be in descending order")
        if self.frame is not None and self.frame.shape[1] != th.size:
            raise ModelError("frame width does not match rank")

    @property
    def m(self) -> int:
        """Rank of the perturbation."""
        return int(self.thetas.size)

    @property
    def m_positive(self) -> int:
        """Number of positive strengths (descending order puts them first)."""
        return int(np.sum(self.thetas > 0.0))

    def with_frame(self, frame: np.ndarray) -> "PerturbationSpec":
        """Return a copy carrying ``frame`` (validated, same strengths)."""
        return PerturbationSpec.from_values(np.asarray(self.thetas), frame)

    def __repr__(self) -> str:
        placed = "coords" if self.frame is None else f"frame{self.frame.shape}"
        return f"PerturbationSpec(m={self.m}, m_positive={self.m_positive}, {placed})"


@dataclass(frozen=True, eq=False)
class Model:
    """A base-matrix family plus the data its kind requires.

    Orthogonally invariant kinds need an explicit ``spectrum``; the
    multiplicative one additionally requires it to be PSD.  Wishart needs the
    aspect ratio ``phi = n/p`` in ``(0, 1)``, which fixes its sample
    dimension at size ``n`` to ``p = round(n/phi)`` (:meth:`p_for`).
    """

    kind: ModelKind
    spectrum: SpectrumModel | None = None
    phi: float | None = None

    def __post_init__(self):
        kind = self.kind
        if kind.takes_phi:
            if self.phi is None or not (0.0 < self.phi < 1.0):
                raise ModelError(f"{kind.value} needs phi in (0, 1), got {self.phi}")
        elif self.phi is not None:
            raise ModelError(f"{kind.value} does not take phi")
        if kind.closed_form:
            if self.spectrum is not None:
                raise ModelError(f"{kind.value} does not take an explicit spectrum")
        else:
            if self.spectrum is None:
                raise ModelError(f"{kind.value} requires an explicit spectrum")
            if kind.multiplicative and not self.spectrum.is_psd:
                raise ModelError("multiplicative perturbation needs a PSD base spectrum")

    @classmethod
    def wigner(cls) -> "Model":
        return cls(kind=ModelKind.WIGNER)

    @classmethod
    def wishart(cls, phi: float) -> "Model":
        return cls(kind=ModelKind.WISHART, phi=phi)

    @classmethod
    def additive(cls, spectrum: SpectrumModel) -> "Model":
        return cls(kind=ModelKind.ORTH_INVARIANT_ADDITIVE, spectrum=spectrum)

    @classmethod
    def multiplicative(cls, spectrum: SpectrumModel) -> "Model":
        return cls(kind=ModelKind.ORTH_INVARIANT_MULTIPLICATIVE, spectrum=spectrum)

    def p_for(self, n: int) -> int:
        """Sample dimension ``round(n/phi)`` for a Wishart model of size ``n``."""
        if not self.kind.takes_phi:
            raise ModelError(f"p_for is not defined for {self.kind.value} models")
        return int(round(n / self.phi))


def check_fits(n: int, thetas: np.ndarray, multiplicative: bool,
               frame: np.ndarray | None = None) -> None:
    """Raise ``ModelError`` unless the descending strengths ``thetas`` on
    ``frame`` (``None`` for the leading coordinates) fit an n x n base:
    rank at most ``n``, a frame of ``n`` rows and :func:`check_floor`."""
    if thetas.size > n:
        raise ModelError(f"rank {thetas.size} exceeds matrix size {n}")
    if frame is not None and frame.shape[0] != n:
        raise ModelError(f"frame has {frame.shape[0]} rows but the matrix has size {n}")
    if thetas.size:
        check_floor(thetas[-1], multiplicative)


def check_floor(lowest: float, multiplicative: bool) -> None:
    """Raise :class:`InvalidPerturbationError` when ``multiplicative`` and the
    lowest strength is not above -1 (``I + P`` must be positive definite)."""
    if multiplicative and lowest <= -1.0:
        raise InvalidPerturbationError(f"multiplicative strengths must exceed -1, got {lowest}")


def check_delta(delta: float) -> None:
    """Reject a separation margin ``delta`` that is not positive and finite."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ModelError(f"delta must be positive and finite, got {delta}")


@dataclass(frozen=True)
class Separation:
    """Verdict of the separation test for a single strength.

    The strength separates when ``|theta| >= threshold``; ``threshold`` is a
    strength for every kind (``inf`` when no strength on that side
    separates).  ``side`` is ``None`` when not separated.
    """

    separated: bool
    side: Side | None
    threshold: float

    def __bool__(self) -> bool:
        return self.separated


def target_index(pert: PerturbationSpec, i: int, n: int) -> int:
    """Map the rank ``i`` (1-based, among the strengths) to an eigenvalue index.

    Positive strengths claim the top of the spectrum in order; negative ones
    claim the bottom, so rank ``i`` with ``theta_i < 0`` lands at
    ``n - m + i``.  The result is 1-based.
    """
    if not 1 <= i <= pert.m:
        raise IndexError(f"rank {i} outside 1..{pert.m}")
    check_fits(n, pert.thetas, multiplicative=False)
    if pert.thetas[i - 1] > 0.0:
        return i
    return n - pert.m + i

