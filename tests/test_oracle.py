"""Tests for the brute-force grid scan and its agreement with the
analytic machinery."""

import pytest

import numpy as np

from coshroots import (
    BaseParameter,
    bounds_x1,
    bounds_x2_initial,
    classify,
    solve_all,
    critical_constants,
    x_star,
)
from coshroots.oracle import min_scan, scan_roots

SEED = 42


def _power_f(a, x):
    try:
        return a**x + a**-x - x
    except OverflowError:
        return float("inf")


class TestScanRoots:
    def test_two_roots_075(self):
        result = scan_roots(BaseParameter(0.75), 0.0, 100.0, 100_000)
        assert len(result.refined_roots) == 2
        r1, r2 = result.refined_roots
        assert abs(r1 - 2.5738) <= 5e-4
        assert abs(r2 - 6.3160) <= 5e-4

    def test_no_roots_outside_interval(self):
        result = scan_roots(BaseParameter(2.0), -50.0, 50.0, 100_000)
        assert result.refined_roots == ()
        assert result.sign_change_intervals == ()

    def test_unit_base_single_root(self):
        result = scan_roots(BaseParameter(1.0), 0.0, 10.0, 1000)
        assert len(result.refined_roots) == 1
        assert abs(result.refined_roots[0] - 2.0) <= 1e-9

    def test_intervals_have_sign_change(self):
        result = scan_roots(BaseParameter(0.9), 0.0, 60.0, 50_000)
        for lo, hi in result.sign_change_intervals:
            assert _power_f(0.9, lo) * _power_f(0.9, hi) < 0.0

    def test_roots_sorted(self):
        result = scan_roots(BaseParameter(1.1), -10.0, 100.0, 50_000)
        roots = result.refined_roots
        assert list(roots) == sorted(roots)

    def test_metadata(self):
        result = scan_roots(BaseParameter(0.75), 0.0, 10.0, 500)
        assert result.grid_size == 500
        assert result.scan_range == (0.0, 10.0)

    def test_validation(self):
        base = BaseParameter(0.75)
        with pytest.raises(ValueError):
            scan_roots(BaseParameter(0.0), 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            scan_roots(base, 5.0, 5.0, 100)
        with pytest.raises(ValueError):
            scan_roots(base, 0.0, 1.0, 1)


class TestMinScan:
    def test_matches_minimizer(self):
        base = BaseParameter(0.75)
        grid = 100_000
        x_min, _ = min_scan(base, 0.0, 50.0, grid)
        step = 50.0 / (grid - 1)
        assert abs(x_min - x_star(base)) <= 2.0 * step

    def test_tangent_base_minimum_is_zero(self):
        c = critical_constants()
        x_min, f_min = min_scan(BaseParameter(c.a_max), 0.0, 10.0, 200_000)
        assert abs(f_min) <= 1e-6
        assert abs(x_min - c.x_dagger) <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            min_scan(BaseParameter(0.0), 0.0, 1.0, 100)


class TestOracleAgreement:
    def test_counts_and_brackets(self):
        # small-scale version of the full acceptance equivalence run
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            a = float(rng.uniform(0.05, 5.0))
            base = BaseParameter(a)
            outcome = classify(base)
            x_hi = 10.0
            if base.ln_a != 0.0:
                x_hi = max(10.0, 3.0 * x_star(base))
            result = scan_roots(base, -10.0, x_hi, 20_000)
            assert len(result.refined_roots) == outcome.root_count
            if outcome.root_count == 2:
                b1 = bounds_x1()
                b2 = bounds_x2_initial(base)
                r1, r2 = result.refined_roots
                assert b1.lo < r1 < b1.hi
                assert b2.lo < r2 < b2.hi

    def test_roots_match_solver(self):
        for a in (0.75, 0.9, 1.08, 1.39):
            base = BaseParameter(a)
            report = solve_all(base)
            scan = scan_roots(base, -10.0, max(10.0, 3.0 * x_star(base)), 100_000)
            assert len(scan.refined_roots) == len(report.roots)
            for got, want in zip(scan.refined_roots, report.roots):
                assert abs(got - want.x) <= 1e-6
