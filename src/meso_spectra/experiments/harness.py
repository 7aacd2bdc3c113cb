"""Monte Carlo drivers confronting predictions with sampled realizations.

Each trial is an independent unit keyed by its stream id, so runs are
reproducible and records merge deterministically regardless of execution
order.  A trial whose eigensolve or detector fails is marked failed and the
run continues; more than 10% failures aborts the run.
"""

from __future__ import annotations

import time

import numpy as np

from ..ensembles import (EnsembleSample, RngStream, eigensolve, sample_ensemble,
                         sample_haar_frame)
from ..master_equation import MasterOperator, MissingRootError, locate_outliers
from ..predictor import (
    OutlierPrediction,
    predict,
    predict_whitened_norm,
    pushforward_sample,
)
from ..spectral_core import (
    MesoSpectraError,
    Model,
    PerturbationSpec,
    Side,
    SpectrumModel,
)
from ..transforms import InversionError
from .concentration import deviation_norm
from .config import ConfigError, ExperimentConfig
from .reports import (
    ExperimentReport,
    OutlierRecord,
    TrialRecord,
    aggregate,
    wasserstein1,
    write_report,
)

__all__ = [
    "ExperimentError",
    "run_location_experiment",
    "run_eigenvector_experiment",
    "run_pushforward_experiment",
    "run_concentration_from_config",
    "run_experiment",
]

# Fraction of failed trials beyond which a run is considered broken.
MAX_FAILURE_FRACTION = 0.10

# Realized eigenvalues closer than this are treated as one degenerate cluster.
DEGENERACY_TOLERANCE = 1e-10


class ExperimentError(MesoSpectraError, RuntimeError):
    """Too many failed trials, or an inconsistent experiment invocation."""


def _finish(cfg: ExperimentConfig, records: list[TrialRecord], start: float,
            epsilon: float | None = None) -> ExperimentReport:
    """Apply the failure rule, aggregate, time and (optionally) write a run."""
    failed = sum(r.failed for r in records)
    if records and failed > MAX_FAILURE_FRACTION * len(records):
        raise ExperimentError(
            f"{failed} of {len(records)} trials failed (limit "
            f"{MAX_FAILURE_FRACTION:.0%})"
        )
    report = ExperimentReport(
        config=cfg.to_dict(),
        records=tuple(records),
        aggregates=aggregate(cfg.experiment, records, epsilon),
        wall_clock_seconds=time.perf_counter() - start,
    )
    if cfg.report_path is not None:
        write_report(report, cfg.report_path)
    return report


def _detector_locations(
    model: Model,
    pert: PerturbationSpec,
    sample: EnsembleSample,
    delta: float,
) -> dict[int, float]:
    """Independent root locations from the counting-function detector.

    Orthogonally invariant kinds reuse the known base spectrum and the
    sampled frame.  Closed-form kinds first diagonalize the realized base
    matrix and transport the frame into its eigenbasis.
    """
    # Taken before ``model`` is swapped for one on the realized spectrum.
    window = model.window(delta)
    if model.kind.closed_form:
        base_vals, base_vecs = eigensolve(sample.base)
        multiplicative = model.kind.multiplicative
        spectrum = SpectrumModel.from_values(base_vals, is_psd=multiplicative or None)
        if sample.frame is None:
            frame = base_vecs.T[:, : pert.m].copy()
        else:
            frame = base_vecs.T @ sample.frame
        placed = pert.with_frame(frame)
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
    else:
        placed = pert.with_frame(sample.frame) if sample.frame is not None else pert
    op = MasterOperator(model=model, pert=placed)
    found: dict[int, float] = {}
    for side in (Side.UPPER, Side.LOWER):
        for root in locate_outliers(op, window, side):
            found[root.rank] = root.location
    return found


def _whitened_projection(
    sample: EnsembleSample, pert: PerturbationSpec, vector: np.ndarray
) -> float:
    """Squared frame projection of the whitened, renormalized eigenvector."""
    inv_scale = 1.0 / np.sqrt(1.0 + pert.thetas)
    if sample.frame is None:
        w = vector.copy()
        w[: pert.m] *= inv_scale
    else:
        coords = sample.frame.T @ vector
        w = vector + sample.frame @ ((inv_scale - 1.0) * coords)
    w /= np.linalg.norm(w)
    wt = sample.project(w)
    return float(wt @ wt)


def _cluster_bounds(evals: np.ndarray, idx: int) -> tuple[int, int]:
    """Half-open index range of the degenerate cluster containing ``idx``."""
    lo = idx
    while lo > 0 and abs(evals[lo - 1] - evals[lo]) <= DEGENERACY_TOLERANCE:
        lo -= 1
    hi = idx + 1
    while hi < evals.size and abs(evals[hi] - evals[hi - 1]) <= DEGENERACY_TOLERANCE:
        hi += 1
    return lo, hi


def _measure_vectors(
    sample: EnsembleSample,
    pert: PerturbationSpec,
    pred: OutlierPrediction,
    whitened_pred: float | None,
    evals: np.ndarray,
    evecs: np.ndarray,
) -> dict:
    idx = pred.target_index - 1
    vector = evecs[:, idx]
    vt = sample.project(vector)
    proj_norm = float(vt @ vt)
    lo, hi = _cluster_bounds(evals, idx)
    degenerate = hi - lo > 1
    subspace = None
    if degenerate:
        block = evecs[:, lo:hi]
        coords = block.T @ sample.frame if sample.frame is not None else block[: pert.m].T
        subspace = float(np.sum(coords * coords))
    out: dict = {
        "proj_norm_meas": proj_norm,
        "degenerate": degenerate,
        "subspace_norm_sq": subspace,
    }
    if sample.kind.additive:
        out["residual"] = float(
            np.linalg.norm((pert.thetas - pred.theta) * vt)
        )
    else:
        out["whitened_pred"] = whitened_pred
        out["whitened_meas"] = _whitened_projection(sample, pert, vector)
    return out


def _run_trials(cfg: ExperimentConfig, with_vectors: bool) -> ExperimentReport:
    start = time.perf_counter()
    records: list[TrialRecord] = []
    thetas = cfg.thetas()
    pert = PerturbationSpec.from_values(thetas)
    for n_index, n in enumerate(cfg.n_values):
        model = cfg.model_for(n)
        preds = predict(model, pert, n, cfg.delta)
        whitened_preds = {
            p.rank: predict_whitened_norm(model, p.theta, cfg.delta)
            for p in preds
            if p.separated and model.kind.multiplicative
        }
        cross = cfg.cross_check_for(n)
        for trial in range(cfg.trials):
            stream = RngStream(cfg.seed, n_index * cfg.trials + trial)
            failure = None
            try:
                sample = sample_ensemble(model, pert, n, stream, cfg.entry_law)
                if with_vectors:
                    evals, evecs = eigensolve(sample.perturbed)
                else:
                    evals = np.linalg.eigvalsh(sample.perturbed)[::-1]
                    evecs = None
                try:
                    detector = (
                        _detector_locations(model, pert, sample, cfg.delta)
                        if cross
                        else {}
                    )
                except (MissingRootError, InversionError) as exc:
                    failure = f"detector failed: {exc}"
            except np.linalg.LinAlgError as exc:
                failure = f"eigensolve failed: {exc}"
            if failure is not None:
                records.append(
                    TrialRecord(stream_id=stream.stream_id, n=n, failed=True,
                                failure=failure)
                )
                continue
            outliers = []
            for pred in preds:
                if not pred.separated:
                    continue
                realized = float(evals[pred.target_index - 1])
                abs_error = abs(realized - pred.location)
                extra: dict = {}
                if with_vectors:
                    extra = _measure_vectors(
                        sample, pert, pred, whitened_preds.get(pred.rank),
                        evals, evecs,
                    )
                det_loc = detector.get(pred.rank)
                outliers.append(
                    OutlierRecord(
                        rank=pred.rank,
                        theta=pred.theta,
                        target_index=pred.target_index,
                        predicted=pred.location,
                        realized=realized,
                        abs_error=abs_error,
                        in_band=abs_error <= cfg.epsilon,
                        proj_norm_pred=pred.projection_norm_sq,
                        detector_location=det_loc,
                        detector_delta=(
                            abs(det_loc - realized) if det_loc is not None else None
                        ),
                        **extra,
                    )
                )
            records.append(
                TrialRecord(stream_id=stream.stream_id, n=n,
                            outliers=tuple(outliers))
            )
    return _finish(cfg, records, start, cfg.epsilon)


def run_location_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Sample, eigensolve, and score realized outlier locations per trial.

    Non-separated strengths are excluded up front; each separated rank is
    paired with the realized eigenvalue at its target index and scored
    against the epsilon band.
    """
    if cfg.experiment != "location":
        raise ExperimentError(f"config describes {cfg.experiment!r}, not location")
    return _run_trials(cfg, with_vectors=False)


def run_eigenvector_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Location run plus eigenvector projections, residuals, and whitening.

    Additive kinds record the frame-coordinate residual
    ``|diag(theta) v~ - theta_i v~|``; multiplicative kinds record the
    whitened projection instead.  Near-degenerate realized eigenvalues are
    flagged and scored by their whole cluster's summed projection.
    """
    if cfg.experiment != "eigenvector":
        raise ExperimentError(f"config describes {cfg.experiment!r}, not eigenvector")
    return _run_trials(cfg, with_vectors=True)


def run_pushforward_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Compare top-M eigenvalues against the pushed-forward strength sample.

    Per (batch, n): draw M strengths from the configured distribution, sample
    the ensemble, and record the W1 distance between the top-M realized
    eigenvalues and the predicted locations.  Batches give i.i.d. repeats of
    the whole ladder.
    """
    if cfg.experiment != "pushforward":
        raise ExperimentError(f"config describes {cfg.experiment!r}, not pushforward")
    start = time.perf_counter()
    low, high = cfg.theta_spec["low"], cfg.theta_spec["high"]
    records: list[TrialRecord] = []
    for batch in range(cfg.batches):
        for n_index, n in enumerate(cfg.n_values):
            unit = batch * len(cfg.n_values) + n_index
            # Two disjoint streams per unit: strengths, then the matrix.
            theta_gen = RngStream(cfg.seed, 2 * unit).generator()
            matrix_stream = RngStream(cfg.seed, 2 * unit + 1)
            m = cfg.m_for(n)
            model = cfg.model_for(n)
            thetas = theta_gen.uniform(low, high, m)
            pert = PerturbationSpec.from_values(thetas)
            try:
                sample = sample_ensemble(model, pert, n, matrix_stream, cfg.entry_law)
                evals = np.linalg.eigvalsh(sample.perturbed)[::-1]
                predicted = pushforward_sample(model, pert.thetas)
            except np.linalg.LinAlgError as exc:
                records.append(
                    TrialRecord(stream_id=unit, n=n, batch=batch, failed=True,
                                failure=f"eigensolve failed: {exc}")
                )
                continue
            records.append(
                TrialRecord(
                    stream_id=unit,
                    n=n,
                    batch=batch,
                    w1=wasserstein1(evals[:m], predicted),
                )
            )
    return _finish(cfg, records, start)


def run_concentration_from_config(cfg: ExperimentConfig) -> ExperimentReport:
    """Deviation norms of Haar-frame compressions down a ladder of sizes.

    Per (n, trial): draw an ``n x M`` Haar frame and record
    :func:`deviation_norm` of the configured spectrum's resolvent at ``z``.
    """
    if cfg.experiment != "concentration":
        raise ConfigError(f"config describes {cfg.experiment!r}, not concentration")
    start = time.perf_counter()
    records: list[TrialRecord] = []
    for n_index, n in enumerate(cfg.n_values):
        spectrum = cfg.spectrum_for(n)
        m = cfg.m_for(n)
        for trial in range(cfg.trials):
            stream = RngStream(cfg.seed, n_index * cfg.trials + trial)
            frame = sample_haar_frame(n, m, stream)
            records.append(
                TrialRecord(
                    stream_id=stream.stream_id,
                    n=n,
                    deviation_norm=deviation_norm(spectrum, cfg.z, frame),
                )
            )
    return _finish(cfg, records, start)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch on ``cfg.experiment``."""
    if cfg.experiment == "location":
        return run_location_experiment(cfg)
    if cfg.experiment == "eigenvector":
        return run_eigenvector_experiment(cfg)
    if cfg.experiment == "pushforward":
        return run_pushforward_experiment(cfg)
    return run_concentration_from_config(cfg)
