"""Experiment records, aggregation, and report persistence.

A report is a config echo plus per-trial records plus aggregates that are
recomputable from the records alone (re-aggregation is idempotent).  The JSON
form is versioned and byte-stable for a fixed seed, except for the wall-clock
field.  Its keys are sorted at every level; the top level, the config echo
and the aggregates are indented by two spaces, and each trial record, its
outliers included, sits on one line of the ``records`` list.  The CSV sibling
flattens per-outlier rows for plotting tools.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..spectral_core import MesoSpectraError

__all__ = [
    "REPORT_SCHEMA",
    "ReportIOError",
    "OutlierRecord",
    "TrialRecord",
    "ExperimentReport",
    "wasserstein1",
    "aggregate",
    "coverage_at",
    "write_report",
    "read_report",
    "reports_equal",
]

REPORT_SCHEMA = "meso-spectra/report/v1"

CSV_COLUMNS = (
    "trial", "rank", "theta", "predicted", "realized", "abs_error",
    "proj_norm_pred", "proj_norm_meas", "residual",
)


class ReportIOError(MesoSpectraError, OSError):
    """Report persistence failed; carries the target path."""

    def __init__(self, message: str, path):
        super().__init__(message)
        self.path = str(path)


def _shallow_dict(record) -> dict:
    """A record's fields by name, values as they are (nothing is copied)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _from_known(cls, doc: dict):
    """``cls`` built from the entries of ``doc`` that name one of its fields."""
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass(frozen=True)
class OutlierRecord:
    """One (trial, rank) line: prediction vs realization.

    Fields that a given experiment does not measure stay ``None``.  For a
    near-degenerate realized eigenvalue (``degenerate=True``) the projection
    of any single eigenvector is arbitrary within the cluster, so
    ``subspace_norm_sq`` additionally records the summed squared projections
    over the whole cluster.
    """

    rank: int
    theta: float
    target_index: int
    predicted: float | None = None
    realized: float | None = None
    abs_error: float | None = None
    in_band: bool | None = None
    proj_norm_pred: float | None = None
    proj_norm_meas: float | None = None
    residual: float | None = None
    whitened_pred: float | None = None
    whitened_meas: float | None = None
    degenerate: bool = False
    subspace_norm_sq: float | None = None
    detector_location: float | None = None
    detector_delta: float | None = None


@dataclass(frozen=True)
class TrialRecord:
    """One trial: its stream id, size, and per-outlier results.

    ``w1`` (push-forward) and ``deviation_norm`` (concentration) are scalar
    per-trial outcomes; ``batch`` groups push-forward trials into seed
    batches.  A failed trial keeps its slot with ``failed=True`` and the
    failure message.
    """

    stream_id: int
    n: int
    failed: bool = False
    failure: str | None = None
    outliers: tuple[OutlierRecord, ...] = ()
    batch: int | None = None
    w1: float | None = None
    deviation_norm: float | None = None

    def to_dict(self) -> dict:
        doc = _shallow_dict(self)
        doc["outliers"] = [_shallow_dict(o) for o in self.outliers]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrialRecord":
        doc = dict(doc)
        doc["outliers"] = tuple(
            OutlierRecord(**entry) for entry in doc.get("outliers", [])
        )
        return _from_known(cls, doc)


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    records: tuple[TrialRecord, ...]
    aggregates: dict
    wall_clock_seconds: float
    schema: str = REPORT_SCHEMA

    def to_dict(self) -> dict:
        doc = _shallow_dict(self)
        doc["records"] = [r.to_dict() for r in self.records]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        doc = dict(doc)
        doc["records"] = tuple(TrialRecord.from_dict(r) for r in doc["records"])
        return _from_known(cls, doc)


def reports_equal(a: ExperimentReport, b: ExperimentReport) -> bool:
    """Structural equality ignoring the wall-clock field."""
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_clock_seconds")
    db.pop("wall_clock_seconds")
    return da == db


def wasserstein1(a, b) -> float:
    """W1 distance between two equal-size empirical measures on the line.

    For point sets of the same size this is exactly the mean absolute
    difference of the sorted samples.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    return float(np.mean(np.abs(a - b)))


# ---------------------------------------------------------------------------
# Aggregation (pure functions of the records)


def _theta_key(theta: float) -> str:
    return f"{theta:.6g}"


def _quantiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "p95": None, "max": None}
    arr = np.asarray(values)
    return {
        "median": float(np.median(arr)),
        "p95": float(np.quantile(arr, 0.95)),
        "max": float(np.max(arr)),
    }


def coverage_at(records, epsilon: float) -> float | None:
    """Fraction of evaluated outliers with ``abs_error <= epsilon``.

    Monotone non-decreasing in ``epsilon`` by construction.
    """
    total = hits = 0
    for rec in records:
        if rec.failed:
            continue
        for out in rec.outliers:
            if out.abs_error is None:
                continue
            total += 1
            hits += out.abs_error <= epsilon
    return hits / total if total else None


def _aggregate_location(records, epsilon: float | None) -> dict:
    per_theta: dict[str, list[bool]] = {}
    errors: list[float] = []
    detector_deltas: list[float] = []
    evaluated = 0
    for rec in records:
        if rec.failed:
            continue
        for out in rec.outliers:
            if out.abs_error is None:
                continue
            evaluated += 1
            errors.append(out.abs_error)
            if out.in_band is not None:
                per_theta.setdefault(_theta_key(out.theta), []).append(out.in_band)
            if out.detector_delta is not None:
                detector_deltas.append(out.detector_delta)
    agg: dict = {
        "trials": len(records),
        "failed_trials": sum(r.failed for r in records),
        "outliers_evaluated": evaluated,
        "coverage": coverage_at(records, epsilon) if epsilon is not None else None,
        "coverage_per_theta": {
            k: sum(v) / len(v) for k, v in sorted(per_theta.items())
        },
        "abs_error": _quantiles(errors),
    }
    if detector_deltas:
        agg["detector_delta_max"] = float(np.max(detector_deltas))
        agg["detector_located"] = len(detector_deltas)
    return agg


def _aggregate_eigenvector(records, epsilon: float | None) -> dict:
    agg = _aggregate_location(records, epsilon)
    norm_errors: list[float] = []
    residuals: list[float] = []
    whitened_errors: list[float] = []
    for rec in records:
        if rec.failed:
            continue
        for out in rec.outliers:
            if out.proj_norm_meas is not None and out.proj_norm_pred is not None:
                norm_errors.append(abs(out.proj_norm_meas - out.proj_norm_pred))
            if out.residual is not None:
                residuals.append(out.residual)
            if out.whitened_meas is not None and out.whitened_pred is not None:
                whitened_errors.append(abs(out.whitened_meas - out.whitened_pred))
    agg["proj_norm_abs_error"] = _quantiles(norm_errors)
    agg["residual"] = _quantiles(residuals)
    if whitened_errors:
        agg["whitened_abs_error"] = _quantiles(whitened_errors)
    return agg


def _aggregate_pushforward(records) -> dict:
    batches: dict[int, list[tuple[int, float]]] = {}
    per_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.failed or rec.w1 is None:
            continue
        batches.setdefault(rec.batch, []).append((rec.n, rec.w1))
        per_n.setdefault(rec.n, []).append(rec.w1)
    monotone = 0
    ladders = {}
    for batch, seq in sorted(batches.items()):
        dists = [w for _, w in sorted(seq)]  # ladder runs in ascending n
        ladders[str(batch)] = dists
        if all(b < a for a, b in zip(dists, dists[1:])):
            monotone += 1
    total = len(batches)
    return {
        "trials": len(records),
        "failed_trials": sum(r.failed for r in records),
        "batches": total,
        "monotone_batches": monotone,
        "monotone_fraction": monotone / total if total else None,
        "w1_per_batch": ladders,
        "w1_median_per_n": {
            str(n): float(np.median(v)) for n, v in sorted(per_n.items())
        },
    }


def _aggregate_concentration(records) -> dict:
    per_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.failed or rec.deviation_norm is None:
            continue
        per_n.setdefault(rec.n, []).append(rec.deviation_norm)
    agg: dict = {
        "trials": len(records),
        "failed_trials": sum(r.failed for r in records),
        "deviation_per_n": {
            str(n): _quantiles(v) for n, v in sorted(per_n.items())
        },
    }
    sizes = sorted(per_n)
    if len(sizes) == 2:
        med0 = float(np.median(per_n[sizes[0]]))
        med1 = float(np.median(per_n[sizes[1]]))
        if med1 > 0.0:
            # Smaller size over larger size: the concentration rate predicts
            # this ratio to track sqrt(n_large / n_small).
            agg["median_ratio"] = med0 / med1
    return agg


def aggregate(experiment: str, records, epsilon: float | None = None) -> dict:
    """Recompute the aggregate block for ``experiment`` from ``records``."""
    if experiment == "location":
        return _aggregate_location(records, epsilon)
    if experiment == "eigenvector":
        return _aggregate_eigenvector(records, epsilon)
    if experiment == "pushforward":
        return _aggregate_pushforward(records)
    if experiment == "concentration":
        return _aggregate_concentration(records)
    raise ValueError(f"unknown experiment {experiment!r}")


# ---------------------------------------------------------------------------
# Persistence


def _write_atomic(path: Path, writer) -> None:
    """Write via a sibling temp file and rename, so partial files never land."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
            delete=False, newline="",
        ) as handle:
            tmp = Path(handle.name)
            writer(handle)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ReportIOError(f"failed to write {path}: {exc}", path) from exc
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)


def _report_json(doc: dict) -> str:
    """``doc``, a report's :meth:`~ExperimentReport.to_dict`, as the JSON
    text of the module docstring's layout: it parses to ``doc``, as
    ``json.dumps(doc, indent=2, sort_keys=True)`` does, but each record is
    one line from the C encoder, not an indented tree."""
    entries = []
    for key in sorted(doc):
        if key == "records":
            lines = ",\n".join("    " + json.dumps(rec, sort_keys=True)
                               for rec in doc[key])
            value = f"[\n{lines}\n  ]" if lines else "[]"
        else:
            value = json.dumps(doc[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        entries.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def write_report(report: ExperimentReport, path) -> None:
    """Persist ``report`` as JSON at ``path`` plus a CSV sibling.

    The CSV (same stem, ``.csv`` suffix) has one row per (trial, outlier)
    under the header ``CSV_COLUMNS``: the trial's stream id, then the
    outlier's fields of the other names; missing values are empty cells.
    """
    path = Path(path)
    doc = report.to_dict()

    def write_json(handle):
        handle.write(_report_json(doc))

    def write_csv(handle):
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for rec in report.records:
            for out in rec.outliers:
                row = [rec.stream_id] + [getattr(out, name) for name in CSV_COLUMNS[1:]]
                writer.writerow(["" if v is None else v for v in row])

    _write_atomic(path, write_json)
    _write_atomic(path.with_suffix(".csv"), write_csv)


def read_report(path) -> ExperimentReport:
    """The report written at ``path``; :class:`ReportIOError` when it cannot
    be read or parsed, or its JSON is not a report: another schema, no
    records, or a record with missing or unknown fields."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportIOError(f"failed to read {path}: {exc}", path) from exc
    try:
        report = ExperimentReport.from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReportIOError(f"{path} is not a report: {exc!r}", path) from exc
    if report.schema != REPORT_SCHEMA:
        raise ReportIOError(f"{path} is not a report: schema {report.schema!r}", path)
    return report
