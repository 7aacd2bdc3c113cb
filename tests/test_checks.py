"""Tests for the two-sided stability bound verifier."""

import numpy as np
import pytest

from meso_spectra import SpectrumModel
from meso_spectra.experiments import (
    PreconditionError,
    random_stability_sweep,
    verify_sandwich_bounds,
)
from meso_spectra.experiments import checks
from meso_spectra.experiments.checks import FAMILIES, SandwichRow

SIGNED = SpectrumModel.from_values(np.linspace(-1.0, 1.0, 150))
PSD = SpectrumModel.from_values(np.linspace(0.3, 2.0, 150))


class TestVerify:
    def test_signed_spectrum_covers_stieltjes_pair(self):
        delta = 0.1
        res = verify_sandwich_bounds(SIGNED, 2.5, delta, np.linspace(-delta, delta, 9))
        families = {row.family for row in res.rows}
        assert families == {"stieltjes-value", "stieltjes-deriv"}
        assert len(res.rows) == 18
        assert res.all_passed and res.failures() == []

    def test_psd_spectrum_covers_all_families(self):
        delta = 0.1
        res = verify_sandwich_bounds(PSD, 4.0, delta, np.linspace(-delta, delta, 9))
        assert {row.family for row in res.rows} == set(FAMILIES)
        assert len(res.rows) == 36
        assert res.all_passed

    def test_row_order(self):
        # Per transform, then per offset: the value row, then the derivative.
        grid = [-0.1, -0.05, 0.0, 0.05, 0.1]
        res = verify_sandwich_bounds(PSD, 4.0, 0.1, grid)
        expected = [(family, xi)
                    for pair in (("stieltjes-value", "stieltjes-deriv"),
                                 ("t-value", "t-deriv"))
                    for xi in grid for family in pair]
        assert [(row.family, row.xi) for row in res.rows] == expected
        assert list(res.locations) == ["stieltjes", "t"]
        assert FAMILIES == ("stieltjes-value", "stieltjes-deriv", "t-value", "t-deriv")

    def test_lower_side_strength(self):
        delta = 0.1
        res = verify_sandwich_bounds(SIGNED, -2.5, delta, np.linspace(-delta, delta, 9))
        assert res.all_passed
        assert all(x < 0 for x in res.locations.values())

    def test_bounds_bracket_deviation(self):
        res = verify_sandwich_bounds(PSD, 4.0, 0.1, [0.05, -0.05])
        for row in res.rows:
            assert row.lower <= row.deviation <= row.upper
            assert row.lower > 0.0

    def test_zero_offset_trivial_row(self):
        res = verify_sandwich_bounds(SIGNED, 2.5, 0.1, [0.0])
        for row in res.rows:
            assert row.xi == 0.0
            assert row.lower == 0.0 and row.deviation == 0.0

    def test_endpoint_offsets_allowed(self):
        delta = 0.07
        res = verify_sandwich_bounds(SIGNED, 2.5, delta, [-delta, delta])
        assert res.all_passed

    def test_offset_beyond_delta_rejected(self):
        with pytest.raises(PreconditionError):
            verify_sandwich_bounds(SIGNED, 2.5, 0.1, [0.2])

    def test_marginal_strength_rejected(self):
        # 1/1.05 inverts too close to the edge to clear 2 delta.
        with pytest.raises(PreconditionError):
            verify_sandwich_bounds(SIGNED, 1.05, 0.2, [0.0])

    @pytest.mark.parametrize("theta", [0.5, 0.01, -0.3, -0.01])
    def test_precondition_inverts_nothing(self, monkeypatch, theta):
        # The hypothesis is decided from the threshold strength alone; a
        # failing strength never reaches an inverse solve.
        def broken(*args):
            raise AssertionError("a precondition inverted a transform")

        for name in ("invert_stieltjes", "invert_t_transform"):
            monkeypatch.setattr(checks, name, broken)
        for spectrum in (SIGNED, PSD):
            with pytest.raises(PreconditionError, match="below"):
                verify_sandwich_bounds(spectrum, theta, 0.2, [0.0])

    def test_zero_strength_rejected(self):
        with pytest.raises(PreconditionError):
            verify_sandwich_bounds(SIGNED, 0.0, 0.1, [0.0])

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(PreconditionError):
            verify_sandwich_bounds(SIGNED, 2.5, 0.0, [0.0])

    def test_b_constant(self):
        res = verify_sandwich_bounds(SIGNED, 2.5, 0.1, [0.0])
        assert res.b_constant == 2.5
        res = verify_sandwich_bounds(SIGNED, -2.5, 0.1, [0.0])
        assert res.b_constant == 2.5

    def test_float_grid_midpoint_regression(self):
        # linspace midpoints can land within one ulp of zero; those offsets
        # must count as exact zeros rather than failing the lower bound.
        delta = 0.19350038589129607
        res = verify_sandwich_bounds(PSD, 4.0, delta, np.linspace(-delta, delta, 11))
        assert res.all_passed


class TestSweep:
    def test_small_sweep_passes(self):
        results = random_stability_sweep(instances=12, seed=123)
        assert len(results) == 12
        assert all(r.all_passed for r in results)
        # PSD spectra engage all four families on the full grid.
        assert all(len(r.rows) == 44 for r in results)

    def test_alternates_sides(self):
        results = random_stability_sweep(instances=6, seed=5)
        signs = [1.0 if r.theta > 0 else -1.0 for r in results]
        assert signs == [1.0, -1.0] * 3

    def test_deterministic(self):
        a = random_stability_sweep(instances=4, seed=99)
        b = random_stability_sweep(instances=4, seed=99)
        assert [r.theta for r in a] == [r.theta for r in b]
        assert [row.deviation for r in a for row in r.rows] == [
            row.deviation for r in b for row in r.rows
        ]


def test_sandwich_row_pass_logic():
    good = SandwichRow(family="stieltjes-value", xi=0.1, lower=0.1,
                       deviation=0.5, upper=1.0)
    low = SandwichRow(family="stieltjes-value", xi=0.1, lower=0.6,
                      deviation=0.5, upper=1.0)
    high = SandwichRow(family="stieltjes-value", xi=0.1, lower=0.1,
                       deviation=1.5, upper=1.0)
    assert good.passed and not low.passed and not high.passed
