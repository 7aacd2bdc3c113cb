"""Full-scale acceptance runs: one test per headline claim.

Each test asserts a coverage, agreement, convergence, or reproducibility
property at its stated tolerance, plus a wall-clock budget where one is
claimed.  Seeds are pinned so every run is reproducible; the final test
re-executes the stochastic runs and demands bit-identical reports.
"""

import time

import numpy as np
import pytest

from meso_spectra import (
    MasterOperator,
    Model,
    PerturbationSpec,
    RngStream,
    SpectrumModel,
    locate_outliers,
    perturb_additive,
    perturb_multiplicative,
    sample_haar_frame,
    target_index,
)
from meso_spectra.ensembles import eigensolve
from meso_spectra.experiments import random_stability_sweep, run_experiment
from meso_spectra.experiments.config import ExperimentConfig
from meso_spectra.experiments.reports import reports_equal
from meso_spectra.transforms import (
    invert_stieltjes,
    invert_t_transform,
    mp_t_transform,
    semicircle_stieltjes,
    stieltjes,
    t_transform,
)

COVERAGE_MIN = 0.95
BAND = 0.15
AGREEMENT_TOL = 1e-8
NORM_MEDIAN_TOL = 0.05
RESIDUAL_MEDIAN_TOL = 0.1
EXACT_TOL = 1e-8
MONOTONE_MIN = 8
RATIO_RANGE = (1.4, 2.8)
ROUNDTRIP_RTOL = 1e-12


def timed_run(doc):
    cfg = ExperimentConfig.from_dict(doc)
    start = time.perf_counter()
    report = run_experiment(cfg)
    return cfg, report, time.perf_counter() - start


@pytest.fixture(scope="session")
def wigner_location():
    return timed_run({
        "experiment": "location",
        "kind": "wigner",
        "n_values": [2000],
        "theta_spec": {"values": [1.5, 1.6, 1.7, 1.8, 1.9,
                                  2.0, 2.1, 2.2, 2.3, 2.4]},
        "delta": BAND,
        "epsilon": BAND,
        "trials": 50,
        "seed": 101,
    })


@pytest.fixture(scope="session")
def wishart_location():
    return timed_run({
        "experiment": "location",
        "kind": "wishart",
        "phi": 0.5,
        "n_values": [1000],
        "theta_spec": {"values": [2.0]},
        "delta": BAND,
        "epsilon": BAND,
        "trials": 50,
        "seed": 113,
    })


@pytest.fixture(scope="session")
def additive_location():
    return timed_run({
        "experiment": "location",
        "kind": "orth-invariant-additive",
        "n_values": [1000],
        "spectrum": {"name": "semicircle"},
        "theta_spec": {"values": [2.4, 2.2, 2.0, 1.9,
                                  -1.9, -2.0, -2.2, -2.4]},
        "delta": BAND,
        "epsilon": BAND,
        "trials": 50,
        "seed": 103,
    })


@pytest.fixture(scope="session")
def wigner_eigenvector():
    return timed_run({
        "experiment": "eigenvector",
        "kind": "wigner",
        "n_values": [2000],
        "theta_spec": {"values": [2.0]},
        "delta": BAND,
        "epsilon": BAND,
        "trials": 50,
        "seed": 105,
    })


@pytest.fixture(scope="session")
def unit_spectrum_eigenvector():
    return timed_run({
        "experiment": "eigenvector",
        "kind": "orth-invariant-multiplicative",
        "n_values": [400],
        "spectrum": {"name": "values", "values": [1.0]},
        "theta_spec": {"values": [1.0]},
        "delta": 0.1,
        "epsilon": 0.1,
        "trials": 5,
        "seed": 106,
    })


@pytest.fixture(scope="session")
def pushforward_ladder():
    return timed_run({
        "experiment": "pushforward",
        "kind": "wigner",
        "n_values": [500, 1000, 2000],
        "theta_spec": {"distribution": "uniform", "low": 1.5, "high": 2.5},
        "m_rule": {"power": 0.5},
        "delta": BAND,
        "epsilon": BAND,
        "batches": 10,
        "seed": 107,
    })


@pytest.fixture(scope="session")
def concentration_ladder():
    return timed_run({
        "experiment": "concentration",
        "n_values": [1000, 4000],
        "m_rule": {"fixed": 20},
        "spectrum": {"name": "semicircle"},
        "z": 3.0,
        "trials": 200,
        "seed": 109,
    })


def agreement_suite(seed=104, instances=100):
    """Locate every separated outlier on random instances both ways.

    Returns the located roots as (instance, rank, root location, realized
    eigenvalue) tuples; reruns with the same seed must match bit for bit.
    """
    gen = np.random.default_rng(seed)
    rows = []
    for k in range(instances):
        n = int(gen.integers(50, 401))
        m = int(gen.integers(1, 11))
        additive = k % 2 == 0
        if additive:
            vals = gen.uniform(-1.5, 1.5, n)
            thetas = gen.choice([-1.0, 1.0], m) * gen.uniform(2.2, 4.0, m)
            psd = None
            model_of = Model.additive
        else:
            vals = gen.uniform(0.5, 2.5, n)
            thetas = np.where(gen.random(m) < 0.7,
                              gen.uniform(1.5, 4.0, m),
                              gen.uniform(-0.95, -0.55, m))
            psd = True
            model_of = Model.multiplicative
        # One shared spec keeps the operator and the assembled matrix on
        # the same frame; strengths are sorted before the frame attaches.
        order = np.argsort(thetas)[::-1]
        frame = sample_haar_frame(n, m, RngStream(seed, k))
        spectrum = SpectrumModel.from_values(vals, is_psd=psd)
        pert = PerturbationSpec.from_values(thetas[order], frame=frame)
        op = MasterOperator(model=model_of(spectrum), pert=pert)
        base = np.diag(spectrum.eigenvalues)
        matrix = (perturb_additive(base, pert) if additive
                  else perturb_multiplicative(base, pert))
        evals, _ = eigensolve(matrix)
        for root in locate_outliers(op, 0.1):
            idx = target_index(pert, root.rank, n)
            rows.append((k, root.rank, root.location, float(evals[idx - 1])))
    return rows


@pytest.fixture(scope="session")
def agreement_rows():
    start = time.perf_counter()
    rows = agreement_suite()
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def sandwich_sweep():
    start = time.perf_counter()
    results = random_stability_sweep(100, seed=0)
    return results, time.perf_counter() - start


class TestAcceptance:
    def test_wigner_location_coverage(self, wigner_location):
        _, report, elapsed = wigner_location
        agg = report.aggregates
        assert agg["trials"] == 50 and agg["failed_trials"] == 0
        assert agg["outliers_evaluated"] == 500
        assert agg["coverage"] >= COVERAGE_MIN
        assert elapsed < 180.0

    def test_wishart_location_coverage(self, wishart_location):
        _, report, elapsed = wishart_location
        agg = report.aggregates
        assert agg["trials"] == 50 and agg["failed_trials"] == 0
        # Band center is the closed form phi + 1 + theta + phi/theta = 3.75.
        out = report.records[0].outliers[0]
        assert out.predicted == pytest.approx(3.75, rel=1e-12)
        assert agg["coverage"] >= COVERAGE_MIN
        assert elapsed < 120.0

    def test_additive_location_coverage_mixed_signs(self, additive_location):
        _, report, elapsed = additive_location
        agg = report.aggregates
        assert agg["trials"] == 50 and agg["failed_trials"] == 0
        assert agg["coverage"] >= COVERAGE_MIN
        n, m = 1000, 8
        for rec in report.records:
            for out in rec.outliers:
                expected = out.rank if out.rank <= 4 else n - m + out.rank
                assert out.target_index == expected
        assert elapsed < 180.0

    def test_detector_matches_eigensolve_everywhere(self, agreement_rows):
        rows, elapsed = agreement_rows
        # Both model kinds, mixed signs: the sweep should locate hundreds.
        assert len(rows) >= 300
        worst = max(abs(loc - realized) for _, _, loc, realized in rows)
        assert worst <= AGREEMENT_TOL
        assert elapsed < 60.0

    def test_eigenvector_projection_norms(self, wigner_eigenvector,
                                          unit_spectrum_eigenvector):
        _, report, _ = wigner_eigenvector
        agg = report.aggregates
        out = report.records[0].outliers[0]
        assert out.proj_norm_pred == pytest.approx(0.75, rel=1e-12)
        assert agg["proj_norm_abs_error"]["median"] <= NORM_MEDIAN_TOL
        assert agg["residual"]["median"] <= RESIDUAL_MEDIAN_TOL
        # Unit spectrum, theta = 1: the projection is exact.
        _, exact_report, _ = unit_spectrum_eigenvector
        errors = [abs(out.proj_norm_meas - 1.0)
                  for rec in exact_report.records for out in rec.outliers]
        assert errors and max(errors) <= EXACT_TOL

    def test_pushforward_w1_decreases_along_n_ladder(self, pushforward_ladder):
        _, report, elapsed = pushforward_ladder
        agg = report.aggregates
        assert agg["batches"] == 10 and agg["failed_trials"] == 0
        assert agg["monotone_batches"] >= MONOTONE_MIN
        assert elapsed < 300.0

    def test_subspace_concentration_rate(self, concentration_ladder):
        _, report, elapsed = concentration_ladder
        agg = report.aggregates
        assert set(agg["deviation_per_n"]) == {"1000", "4000"}
        assert RATIO_RANGE[0] <= agg["median_ratio"] <= RATIO_RANGE[1]
        assert elapsed < 240.0

    def test_sandwich_bound_sweep(self, sandwich_sweep):
        results, elapsed = sandwich_sweep
        assert len(results) == 100
        rows = sum(len(res.rows) for res in results)
        assert rows == 100 * 11 * 4
        assert all(res.all_passed for res in results)
        assert elapsed < 5.0

    def test_transform_identities(self):
        start = time.perf_counter()
        S1 = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 200))
        S2 = SpectrumModel.from_values(np.linspace(0.5, 2.5, 300))
        for t in np.linspace(0.05, 0.95, 91):
            for signed in (t, -t):
                z = invert_stieltjes(S1, signed)
                assert abs(stieltjes(S1, z) - signed) <= ROUNDTRIP_RTOL
        for t in list(np.linspace(0.1, 3.0, 60)) + list(
                np.linspace(-1.3, -0.1, 40)):
            z = invert_t_transform(S2, t)
            assert abs(t_transform(S2, z) - t) <= ROUNDTRIP_RTOL * max(
                1.0, abs(t))
            assert t_transform(S2, z) == pytest.approx(
                z * stieltjes(S2, z) - 1.0, abs=1e-14)
        for theta in np.linspace(1.05, 6.0, 400):
            loc = theta + 1.0 / theta
            assert abs(semicircle_stieltjes(loc) - 1.0 / theta) <= 1e-12
            assert abs(semicircle_stieltjes(-loc) + 1.0 / theta) <= 1e-12
            mp_loc = 0.5 + 1.0 + theta + 0.5 / theta
            assert abs(mp_t_transform(0.5, mp_loc) - 1.0 / theta) <= 1e-12
        assert time.perf_counter() - start < 1.0

    def test_reruns_reproduce_reports(self, wigner_location, wishart_location,
                                      additive_location, wigner_eigenvector,
                                      unit_spectrum_eigenvector,
                                      pushforward_ladder,
                                      concentration_ladder, agreement_rows,
                                      sandwich_sweep):
        for cfg, report, _ in (wigner_location, wishart_location,
                               additive_location, wigner_eigenvector,
                               unit_spectrum_eigenvector, pushforward_ladder,
                               concentration_ladder):
            assert reports_equal(run_experiment(cfg), report)
        rows, _ = agreement_rows
        assert agreement_suite() == rows
        results, _ = sandwich_sweep
        assert random_stability_sweep(100, seed=0) == results
