"""The structured eigensolves on adversarial strengths, against dense LAPACK.

One seed, n <= 600: a Gaussian Wigner sample (the band solve) and an
orthogonally invariant additive sample on semicircle quantiles (the filtered
solve), each with strengths that are strong, of mixed sign, a factor ``1 +-
10^-k`` from the threshold 1, repeated, or ``10^-3`` apart.  Each sample is
solved for values alone and for pairs through :func:`eigensolve`, and each
answer is held to what the docstrings promise and no more:

* a certified value lies within ``FILTER_TOLERANCE`` times the spectral
  radius of dense ``eigvalsh``;
* a certified vector lies within angle ``FILTER_TOLERANCE`` of its
  eigenvector (plus the dense reference's own error, bounded from its
  residual by Davis-Kahan);
* a solve that gives up logs one of its documented reasons, and the dense
  fallback answers with LAPACK's bits.

How many solves certify is recorded by no assertion: changes to the solves
exist to move those counts.
"""

import logging

import numpy as np
import pytest

from meso_spectra import Model, PerturbationSpec, RngStream, SpectrumModel
from meso_spectra.ensembles import eigensolve, sample_ensemble
from meso_spectra.partial import FILTER_TOLERANCE
from meso_spectra.transforms import semicircle_quantiles

SEED = 2026

# The reasons each structured solve's docstring gives for giving up.
REASONS = {
    "band": {"step cap reached", "near-singular pivot block", "count disagrees",
             "certificate failed"},
    "filtered": {"Ritz values not separated", "step cap reached",
                 "certificate failed"},
}

PATTERNS = {
    "strong": [3.0, 2.5, -2.8],
    "mixed-sign": [2.0, 1.6, -1.7, -2.3],
    "near-threshold": [1.1, 1.01, 1.0 - 1e-2, -(1.0 + 1e-4), 2.5],
    "repeated": [2.2, 2.2, 2.2, -2.0, -2.0],
    "1e-3 apart": [2.0, 2.001, 2.002, -1.8, -1.801],
}


def sample_of(kind, thetas):
    pert = PerturbationSpec.from_values(thetas)
    if kind == "band":
        return sample_ensemble(Model.wigner(), pert, 600, RngStream(SEED, 0))
    spectrum = SpectrumModel.from_values(semicircle_quantiles(400))
    return sample_ensemble(Model.additive(spectrum), pert, 400, RngStream(SEED, 1))


def extremes(sample, spectrum):
    """The top ``M+`` and bottom ``M-`` entries of a descending spectrum."""
    upper = int(np.count_nonzero(sample.thetas > 0.0))
    return np.concatenate((spectrum[:upper], spectrum[sample.n - (sample.m - upper):]))


def given_up(caplog, kind, sample):
    """The reason the last solve logged for giving up, or ``None``."""
    prefix = f"dense eigensolve fallback: stream {sample.stream_id}, n={sample.n}: "
    messages = [r.getMessage() for r in caplog.records]
    caplog.clear()
    if not messages:
        return None
    (message,) = messages
    assert message.startswith(prefix) and message[len(prefix):] in REASONS[kind]
    return message[len(prefix):]


@pytest.mark.parametrize("kind", ["band", "filtered"])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_solves_keep_their_promises(caplog, kind, pattern):
    caplog.set_level(logging.DEBUG, logger="meso_spectra")
    sample = sample_of(kind, PATTERNS[pattern])
    n, m = sample.n, sample.m
    dense_vals, dense_vecs = np.linalg.eigh(sample.perturbed)
    dense_vals, dense_vecs = dense_vals[::-1], dense_vecs[:, ::-1]
    radius = max(1.0, float(np.max(np.abs(dense_vals))))

    values = eigensolve(sample, vectors=False)
    if given_up(caplog, kind, sample) is not None:
        assert np.array_equal(values, np.linalg.eigvalsh(sample.perturbed)[::-1])
    else:
        assert values.shape == (m,)
        assert np.max(np.abs(values - extremes(sample, dense_vals))) <= (
            FILTER_TOLERANCE * radius)

    vals, vecs = eigensolve(sample)
    if given_up(caplog, kind, sample) is not None:
        assert vals.size == n and np.array_equal(vals, dense_vals)
        assert np.array_equal(vecs, dense_vecs)
        return
    assert vals.shape == (m,) and vecs.shape == (n, m)
    assert np.max(np.abs(vals - extremes(sample, dense_vals))) <= FILTER_TOLERANCE * radius
    columns = extremes(sample, np.arange(n))
    matrix = sample.perturbed
    for j, i in enumerate(columns):
        reference = dense_vecs[:, i]
        gap = np.min(np.abs(np.delete(dense_vals, i) - dense_vals[i]))
        # The dense vector's own angle to the eigenvector, by Davis-Kahan.
        own = np.linalg.norm(matrix @ reference - dense_vals[i] * reference) / gap
        u = vecs[:, j] / np.linalg.norm(vecs[:, j])
        angle = np.linalg.norm(u - np.sign(u @ reference) * reference)
        assert angle <= FILTER_TOLERANCE + 2.0 * own + 1e-15
