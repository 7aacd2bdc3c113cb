"""Concentration of Haar-frame compressions around the normalized trace.

For a Haar frame U (n x m) and A = (z - H)^(-1), the compression U^T A U
concentrates around (Tr A / n) I with operator-norm deviations of order
sqrt(m/n) at fixed z.  The concentration driver in :mod:`.harness` samples
frames, measures the deviation norm, and summarizes medians, which lets the scaling in n be compared across
sizes without knowing the constants in the tail bound.
"""

from __future__ import annotations

import numpy as np

from ..spectral_core import ModelError, SpectrumModel

__all__ = ["deviation_norm"]


def deviation_norm(spectrum: SpectrumModel, z: float, frame: np.ndarray) -> float:
    """Operator norm of ``U^T A U - (Tr A / n) I`` for ``A = (z - H)^(-1)``."""
    if spectrum.lam_min <= z <= spectrum.lam_max:
        raise ModelError(
            f"z={z:g} must lie outside the spectrum "
            f"[{spectrum.lam_min:g}, {spectrum.lam_max:g}]"
        )
    if frame.shape[0] != spectrum.n:
        raise ModelError("frame size does not match the spectrum")
    weights = 1.0 / (z - spectrum.eigenvalues)
    c = frame.T @ (weights[:, None] * frame)
    c = 0.5 * (c + c.T)
    c -= np.mean(weights) * np.eye(frame.shape[1])
    if c.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(c))))
