"""Monte Carlo drivers confronting predictions with sampled realizations.

:func:`run_experiment` is the one entry point; it dispatches on the
config's experiment to a private driver.  Each trial is an independent unit
keyed by its stream id, so runs are reproducible and records merge
deterministically regardless of execution order.  A trial whose eigensolve,
detector or prediction fails is marked failed and the run continues; more
than 10% failures aborts the run.
"""

from __future__ import annotations

import time

import numpy as np

from .. import partial
from ..ensembles import (EnsembleSample, RngStream, eigensolve, sample_ensemble,
                         sample_haar_frame, spectrum_column)
from ..master_equation import MasterOperator, MissingRootError, locate_outliers
from ..predictor import OutlierPrediction, predict, pushforward_sample
from ..spectral_core import (
    MesoSpectraError,
    Model,
    ModelError,
    PerturbationSpec,
    SpectrumModel,
)
from ..transforms import InversionError
from .config import ExperimentConfig
from .reports import (
    ExperimentReport,
    OutlierRecord,
    TrialRecord,
    aggregate,
    wasserstein1,
    write_report,
)

__all__ = ["ExperimentError", "deviation_norm", "run_experiment"]

# Fraction of failed trials beyond which a run is considered broken.
MAX_FAILURE_FRACTION = 0.10


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

    ``pert`` has at least one strength and no frame, as the drivers build
    it.  Orthogonally invariant kinds reuse the known base spectrum and the
    sampled Haar frame.  Closed-form kinds first diagonalize the realized
    base matrix, and the leading coordinates seen in its eigenbasis are the
    frame; their separation verdicts then come from that realized spectrum,
    not from the closed form, so a strength near the closed-form threshold
    may be scored but not located (the report's ``detector_located`` counts
    those that are).
    """
    if model.kind.closed_form:
        base_vals, base_vecs = eigensolve(sample.base)
        multiplicative = model.kind.multiplicative
        spectrum = SpectrumModel.from_values(base_vals, is_psd=multiplicative or None)
        frame = base_vecs.T[:, : pert.m].copy()
        model = (Model.multiplicative if multiplicative else Model.additive)(spectrum)
    else:
        frame = sample.frame
    op = MasterOperator(model=model, pert=pert.with_frame(frame))
    return {r.rank: r.location for r in locate_outliers(op, delta)}


def _cluster_bounds(evals: np.ndarray, idx: int) -> tuple[int, int]:
    """Half-open index range of the degenerate cluster containing ``idx``.

    ``evals`` is descending; neighbours count as degenerate when their gap
    is at most ``partial.DEGENERACY_TOLERANCE * max(1, |evals[0]|,
    |evals[-1]|)``.  On a full spectrum that scale is the spectral radius.
    ``evals`` may also be the truncated top-and-bottom pairs
    :func:`eigensolve` gives a sample; it certifies every gap there,
    including the one where the top and bottom pairs meet, to exceed the
    tolerance at the spectral radius, so no cluster forms and none is
    split.
    """
    tol = partial.DEGENERACY_TOLERANCE * max(1.0, abs(evals[0]), abs(evals[-1]))
    lo = idx
    while lo > 0 and abs(evals[lo - 1] - evals[lo]) <= tol:
        lo -= 1
    hi = idx + 1
    while hi < evals.size and abs(evals[hi] - evals[hi - 1]) <= tol:
        hi += 1
    return lo, hi


def _measure_outliers(
    sample: EnsembleSample,
    pert: PerturbationSpec,
    preds: list[OutlierPrediction],
    cols: list[int],
    evals: np.ndarray,
    evecs: np.ndarray,
) -> list[dict]:
    """The eigenvector fields of each outlier record, that of ``preds[j]``
    from column ``cols[j]`` of ``evecs``, all from one product.

    ``C = V^T U``, ``U`` being the columns of ``evecs`` the outliers and
    their degenerate clusters take (their leading ``M`` rows when the
    perturbation sits on the leading coordinates).  A vector's squared
    projection is ``|c|^2`` and its cluster's the sum over the cluster's
    columns.  Additive kinds record the residual ``|(theta - theta_i) c|``.
    Multiplicative kinds record the squared projection of the whitened
    vector ``w = u + V ((s - 1) c)``, ``s = (1 + theta)^(-1/2)``,
    renormalized: ``V^T w = s c``, and ``V^T V = I`` gives ``|w|^2 = |u|^2
    - |c|^2 + |s c|^2``.
    """
    clusters = [_cluster_bounds(evals, col) for col in cols]
    taken = sorted({c for lo, hi in clusters for c in range(lo, hi)})
    at = {c: j for j, c in enumerate(taken)}
    block = evecs[:, taken]
    coords = sample.project(block)
    squares = coords * coords
    proj = squares.sum(axis=0)
    if sample.kind.multiplicative:
        whitened = (1.0 / (1.0 + pert.thetas)) @ squares
        whitened /= np.einsum("ij,ij->j", block, block) - proj + whitened
    out = []
    for pred, col, (lo, hi) in zip(preds, cols, clusters):
        j = at[col]
        fields: dict = {
            "proj_norm_meas": float(proj[j]),
            "degenerate": hi - lo > 1,
            "subspace_norm_sq": (float(proj[at[lo]: at[lo] + hi - lo].sum())
                                 if hi - lo > 1 else None),
        }
        if sample.kind.additive:
            fields["residual"] = float(
                np.linalg.norm((pert.thetas - pred.theta) * coords[:, j]))
        else:
            fields["whitened_pred"] = pred.whitened_norm_sq
            fields["whitened_meas"] = float(whitened[j])
        out.append(fields)
    return out


def _run_trial(
    cfg: ExperimentConfig,
    model: Model,
    pert: PerturbationSpec,
    preds: list[OutlierPrediction],
    cross: bool,
    stream: RngStream,
    n: int,
    with_vectors: bool,
) -> TrialRecord:
    """Sample, solve and score one trial.

    A function of its own so that the trial's n x n sample and eigenvectors
    are released when it returns, before the next trial is sampled.
    """
    failure = None
    try:
        sample = sample_ensemble(model, pert, n, stream, cfg.entry_law)
        if with_vectors:
            evals, evecs = eigensolve(sample)
        else:
            evals, evecs = eigensolve(sample, vectors=False), None
        try:
            detector = (
                _detector_locations(model, pert, sample, cfg.delta) if cross else {}
            )
        except (MissingRootError, InversionError) as exc:
            failure = f"detector failed: {exc}"
    except np.linalg.LinAlgError as exc:
        failure = f"eigensolve failed: {exc}"
    if failure is not None:
        return TrialRecord(stream_id=stream.stream_id, n=n, failed=True,
                           failure=failure)
    scored = [pred for pred in preds if pred.separated]
    cols = [spectrum_column(pred.target_index, pert.m_positive, n, evals.size)
            for pred in scored]
    extras = (_measure_outliers(sample, pert, scored, cols, evals, evecs)
              if with_vectors else [{}] * len(scored))
    outliers = []
    for pred, col, extra in zip(scored, cols, extras):
        realized = float(evals[col])
        abs_error = abs(realized - pred.location)
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
    return TrialRecord(stream_id=stream.stream_id, n=n, outliers=tuple(outliers))


def _run_trials(cfg: ExperimentConfig, with_vectors: bool) -> ExperimentReport:
    start = time.perf_counter()
    records: list[TrialRecord] = []
    thetas = cfg.thetas()
    pert = PerturbationSpec.from_values(thetas)
    for n_index, n in enumerate(cfg.n_values):
        model = cfg.model_for(n)
        preds = predict(model, pert, n, cfg.delta)
        cross = cfg.cross_check_for(n)
        for trial in range(cfg.trials):
            stream = RngStream(cfg.seed, n_index * cfg.trials + trial)
            records.append(
                _run_trial(cfg, model, pert, preds, cross, stream, n,
                           with_vectors)
            )
    return _finish(cfg, records, start, cfg.epsilon)


def _run_pushforward(cfg: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    low, high = cfg.theta_spec["low"], cfg.theta_spec["high"]
    # One model per size, shared by every batch, so each spectrum is built
    # once and keeps its memo of solved inverses.
    models = [cfg.model_for(n) for n in cfg.n_values]
    records: list[TrialRecord] = []
    for batch in range(cfg.batches):
        for n_index, (n, model) in enumerate(zip(cfg.n_values, models)):
            unit = batch * len(cfg.n_values) + n_index
            # Two disjoint streams per unit: strengths, then the matrix.
            theta_gen = RngStream(cfg.seed, 2 * unit).generator()
            matrix_stream = RngStream(cfg.seed, 2 * unit + 1)
            m = cfg.m_for(n)
            thetas = theta_gen.uniform(low, high, m)
            pert = PerturbationSpec.from_values(thetas)
            failure = None
            try:
                sample = sample_ensemble(model, pert, n, matrix_stream, cfg.entry_law)
                # Every strength is positive: evals[:m] are the top m values
                # of a full or a partial spectrum alike.
                evals = eigensolve(sample, vectors=False)
                predicted = pushforward_sample(model, pert.thetas)
            except np.linalg.LinAlgError as exc:
                failure = f"eigensolve failed: {exc}"
            except InversionError as exc:
                failure = f"prediction failed: {exc}"
            if failure is not None:
                records.append(
                    TrialRecord(stream_id=unit, n=n, batch=batch, failed=True,
                                failure=failure)
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


def deviation_norm(spectrum: SpectrumModel, z: float, frame: np.ndarray) -> float:
    """Operator norm of ``U^T A U - (Tr A / n) I`` for ``A = (z - H)^(-1)``.

    For a Haar frame U (n x m) this concentrates at order ``sqrt(m/n)`` at
    fixed ``z`` outside the spectrum of the diagonal ``H``.
    """
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


def _run_concentration(cfg: ExperimentConfig) -> ExperimentReport:
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
    """Run the experiment ``cfg`` describes and return its report.

    The report is written to ``cfg.report_path`` when one is set.

    * ``location``: sample, eigensolve, and score each separated strength's
      realized outlier (the eigenvalue at its target index) against the
      ``epsilon`` band; non-separated strengths are excluded up front.  When
      cross-checking, each trial also locates the outliers with the
      master-equation detector.
    * ``eigenvector``: a location run plus eigenvector projections, all of
      a trial's from one product of the frame with its outliers'
      eigenvectors (:func:`_measure_outliers`).  Additive kinds record the
      frame-coordinate residual ``|diag(theta) v~ - theta_i v~|``;
      multiplicative kinds record the whitened projection instead, in
      closed form.  Near-degenerate realized eigenvalues are
      flagged ``degenerate`` and also record their whole cluster's summed
      squared projection as ``subspace_norm_sq``; the aggregates still score
      each eigenvector's own ``proj_norm_meas``.
    * ``pushforward``: per (batch, n), draw M strengths from the configured
      distribution, sample the ensemble, and record the W1 distance between
      the top-M realized eigenvalues and the pushed-forward strengths.
      Batches give i.i.d. repeats of the whole ladder.
    * ``concentration``: per (n, trial), draw an ``n x M`` Haar frame and
      record :func:`deviation_norm` of the configured spectrum's resolvent
      at ``z``.

    Raises :class:`ExperimentError` when more than 10% of the trials fail.
    """
    if cfg.experiment == "pushforward":
        return _run_pushforward(cfg)
    if cfg.experiment == "concentration":
        return _run_concentration(cfg)
    return _run_trials(cfg, with_vectors=cfg.experiment == "eigenvector")
