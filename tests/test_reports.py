"""Tests for report records, aggregation, and on-disk persistence."""

import csv
import json
import random

import numpy as np
import pytest

from meso_spectra.experiments import aggregate
from meso_spectra.experiments.reports import (
    CSV_COLUMNS,
    REPORT_SCHEMA,
    ExperimentReport,
    OutlierRecord,
    ReportIOError,
    TrialRecord,
    coverage_at,
    read_report,
    reports_equal,
    wasserstein1,
    write_report,
)


def outlier(rank=1, theta=2.0, abs_error=0.05, in_band=True, **extra):
    realized = None if abs_error is None else 2.5 + abs_error
    fields = dict(
        rank=rank,
        theta=theta,
        target_index=rank,
        predicted=2.5,
        realized=realized,
        abs_error=abs_error,
        in_band=in_band,
    )
    fields.update(extra)
    return OutlierRecord(**fields)


def trial(stream_id=0, n=100, outliers=(), **extra):
    return TrialRecord(stream_id=stream_id, n=n, outliers=tuple(outliers), **extra)


class TestWasserstein:
    def test_shift(self):
        assert wasserstein1([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_identical(self):
        assert wasserstein1([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_empty(self):
        assert wasserstein1([], []) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein1([1.0], [1.0, 2.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        w = wasserstein1(a, b)
        assert wasserstein1(rng.permutation(a), rng.permutation(b)) == w


class TestCoverage:
    def test_counts_hits(self):
        recs = [
            trial(outliers=[outlier(abs_error=0.05), outlier(rank=2, abs_error=0.30)]),
            trial(stream_id=1, outliers=[outlier(abs_error=0.10)]),
        ]
        assert coverage_at(recs, 0.15) == pytest.approx(2.0 / 3.0)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(6)
        recs = [
            trial(stream_id=i, outliers=[outlier(abs_error=float(e))])
            for i, e in enumerate(rng.uniform(0.0, 0.5, size=30))
        ]
        grid = np.linspace(0.01, 0.5, 12)
        vals = [coverage_at(recs, e) for e in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_skips_failed_and_unevaluated(self):
        recs = [
            trial(failed=True, failure="boom"),
            trial(stream_id=1, outliers=[outlier(abs_error=None, in_band=None)]),
        ]
        assert coverage_at(recs, 0.15) is None


class TestAggregate:
    def test_location_keys_and_values(self):
        recs = [
            trial(outliers=[outlier(theta=2.0, abs_error=0.1, in_band=True),
                            outlier(rank=2, theta=-2.0, abs_error=0.2, in_band=False)]),
            trial(stream_id=1,
                  outliers=[outlier(theta=2.0, abs_error=0.1, in_band=True)]),
        ]
        agg = aggregate("location", recs, epsilon=0.15)
        assert agg["trials"] == 2
        assert agg["failed_trials"] == 0
        assert agg["outliers_evaluated"] == 3
        assert agg["coverage"] == pytest.approx(2.0 / 3.0)
        assert agg["coverage_per_theta"] == {"2": 1.0, "-2": 0.0}
        assert agg["abs_error"]["max"] == pytest.approx(0.2)

    def test_detector_delta_max(self):
        recs = [trial(outliers=[outlier(detector_location=2.55, detector_delta=1e-9)])]
        agg = aggregate("location", recs, epsilon=0.15)
        assert agg["detector_delta_max"] == pytest.approx(1e-9)

    def test_eigenvector_extends_location(self):
        recs = [
            trial(outliers=[
                outlier(proj_norm_pred=0.75, proj_norm_meas=0.73, residual=0.02),
                outlier(rank=2, proj_norm_pred=0.75, proj_norm_meas=0.80,
                        residual=0.04),
            ])
        ]
        agg = aggregate("eigenvector", recs, epsilon=0.15)
        assert agg["proj_norm_abs_error"]["median"] == pytest.approx(0.035)
        assert agg["residual"]["max"] == pytest.approx(0.04)
        assert "whitened_abs_error" not in agg

    def test_whitened_present_when_measured(self):
        recs = [trial(outliers=[outlier(whitened_pred=0.5, whitened_meas=0.45)])]
        agg = aggregate("eigenvector", recs, epsilon=0.15)
        assert agg["whitened_abs_error"]["max"] == pytest.approx(0.05)

    def test_pushforward_monotony_counting(self):
        recs = []
        ladders = {0: [0.3, 0.2, 0.1], 1: [0.3, 0.35, 0.1], 2: [0.5, 0.4, 0.3]}
        for batch, dists in ladders.items():
            for n, w1 in zip((100, 200, 400), dists):
                recs.append(trial(stream_id=len(recs), n=n, batch=batch, w1=w1))
        agg = aggregate("pushforward", recs)
        assert agg["batches"] == 3
        assert agg["monotone_batches"] == 2
        assert agg["monotone_fraction"] == pytest.approx(2.0 / 3.0)
        assert agg["w1_per_batch"]["1"] == [0.3, 0.35, 0.1]
        assert agg["w1_median_per_n"]["100"] == pytest.approx(0.3)

    def test_pushforward_ties_not_monotone(self):
        recs = [trial(stream_id=0, n=100, batch=0, w1=0.2),
                trial(stream_id=1, n=200, batch=0, w1=0.2)]
        agg = aggregate("pushforward", recs)
        assert agg["monotone_batches"] == 0

    def test_concentration_ratio(self):
        recs = []
        for i in range(5):
            recs.append(trial(stream_id=i, n=100, deviation_norm=0.2 + 0.001 * i))
            recs.append(trial(stream_id=i, n=400, deviation_norm=0.1 + 0.001 * i))
        agg = aggregate("concentration", recs)
        assert set(agg["deviation_per_n"]) == {"100", "400"}
        assert agg["median_ratio"] == pytest.approx(0.202 / 0.102)

    def test_concentration_ratio_needs_two_sizes(self):
        recs = [trial(n=100, deviation_norm=0.2),
                trial(stream_id=1, n=200, deviation_norm=0.15),
                trial(stream_id=2, n=400, deviation_norm=0.1)]
        agg = aggregate("concentration", recs)
        assert "median_ratio" not in agg

    def test_order_invariance(self):
        rng = np.random.default_rng(7)
        recs = [
            trial(stream_id=i,
                  outliers=[outlier(theta=2.0, abs_error=float(e),
                                    in_band=bool(e < 0.15))])
            for i, e in enumerate(rng.uniform(0, 0.3, size=20))
        ]
        base = aggregate("location", recs, epsilon=0.15)
        shuffled = list(recs)
        random.Random(0).shuffle(shuffled)
        again = aggregate("location", shuffled, epsilon=0.15)
        again["trials"] = base["trials"]  # identical anyway
        assert again == base

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            aggregate("mystery", [])


def make_report():
    recs = (
        trial(outliers=[outlier(), outlier(rank=2, theta=-2.0, abs_error=0.2,
                                           in_band=False)]),
        trial(stream_id=1, failed=True, failure="did not converge"),
    )
    return ExperimentReport(
        config={"experiment": "location", "seed": 7},
        records=recs,
        aggregates=aggregate("location", recs, epsilon=0.15),
        wall_clock_seconds=1.25,
    )


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rep = make_report()
        path = tmp_path / "report.json"
        write_report(rep, path)
        back = read_report(path)
        assert reports_equal(rep, back)
        assert back.schema == REPORT_SCHEMA
        assert back.records[1].failed and back.records[1].failure

    def test_reports_equal_ignores_wall_clock(self):
        a = make_report()
        b = ExperimentReport(
            config=a.config, records=a.records, aggregates=a.aggregates,
            wall_clock_seconds=a.wall_clock_seconds + 40.0,
        )
        assert reports_equal(a, b)

    def test_reports_differ_on_records(self):
        a = make_report()
        b = ExperimentReport(
            config=a.config, records=a.records[:1], aggregates=a.aggregates,
            wall_clock_seconds=a.wall_clock_seconds,
        )
        assert not reports_equal(a, b)

    def test_json_is_stable_and_sorted(self, tmp_path):
        rep = make_report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(rep, p1)
        write_report(rep, p2)
        assert p1.read_text() == p2.read_text()
        doc = json.loads(p1.read_text())
        assert doc["schema"] == REPORT_SCHEMA

    def test_csv_sibling(self, tmp_path):
        rep = make_report()
        path = tmp_path / "report.json"
        write_report(rep, path)
        csv_path = tmp_path / "report.csv"
        assert csv_path.exists()
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == CSV_COLUMNS
        # One row per outlier; the failed trial contributes none.
        assert len(rows) == 3
        # None fields serialize as empty cells.
        assert rows[1][CSV_COLUMNS.index("proj_norm_pred")] == ""

    def test_write_failure_raises(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        rep = make_report()
        with pytest.raises(ReportIOError):
            write_report(rep, blocker / "report.json")

    def test_read_missing(self, tmp_path):
        with pytest.raises(ReportIOError):
            read_report(tmp_path / "absent.json")

    def test_read_corrupt(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(ReportIOError):
            read_report(path)

    def test_creates_parent_directories(self, tmp_path):
        rep = make_report()
        nested = tmp_path / "a" / "b" / "report.json"
        write_report(rep, nested)
        assert nested.exists()
