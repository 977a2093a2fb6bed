"""Tests for the brute-force grid scan and its agreement with the
analytic machinery."""

import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

import numpy as np

from coshroots import (
    BaseParameter,
    BracketProvenance,
    RootBracket,
    bisect,
    bounds_x1,
    bounds_x2_initial,
    classify,
    solve_all,
    critical_constants,
    x_star,
)
from coshroots import oracle
from coshroots.cli import main
from coshroots.oracle import ScanResult, min_scan, scan_roots

SEED = 42

# Bases at the ends of the double range, at and around 1, and at the
# critical edges.
_C = critical_constants()
EXTREME_BASES = (
    1e-300,
    5e-324,
    1e300,
    1.7976931348623157e308,
    1.0 + 1e-13,
    1.0 - 1e-13,
    _C.a_min,
    _C.a_max,
    1e10,
    1e-10,
    1.0,
)


def _power_f(a, x):
    try:
        return a**x + a**-x - x
    except OverflowError:
        return float("inf")


def _reference_grid(a, x_lo, x_hi, grid_size):
    """The power form with one np.power for a**x and one for a**-x."""
    xs = np.linspace(x_lo, x_hi, grid_size)
    with np.errstate(over="ignore", under="ignore"):
        return xs, np.power(a, xs) + np.power(a, -xs) - xs


def _reference_scan(base, x_lo, x_hi, grid_size):
    """Grid scan with np.sign products and scalar bisection to 1e-12."""
    a = base.a
    xs, fv = _reference_grid(a, x_lo, x_hi, grid_size)
    roots = [float(x) for x in xs[fv == 0.0]]
    signs = np.sign(fv)
    change = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    intervals = [(float(xs[i]), float(xs[i + 1])) for i in change]
    for lo, hi in intervals:
        f_lo = _power_f(a, lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-12 * max(1.0, abs(mid)) or mid == lo or mid == hi:
                break
            fm = _power_f(a, mid)
            if fm == 0.0:
                break
            if (fm > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return ScanResult(
        sign_change_intervals=tuple(intervals),
        refined_roots=tuple(sorted(roots)),
        grid_size=grid_size,
        scan_range=(float(x_lo), float(x_hi)),
    )


def _scan_ranges(base):
    """[-10, 10] and, unless ln a is 0, [-10, max(10, 3 x*)]: out to the
    upper end of the non-unit --verify range."""
    if base.ln_a == 0.0:
        return ((-10.0, 10.0),)
    return ((-10.0, 10.0), (-10.0, max(10.0, 3.0 * x_star(base))))


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

    def test_power_overflow_saturates(self):
        # the first bisection midpoint of [x*, 5000] needs 0.72**-2501,
        # which overflows a float: f reads +inf there and the root is found
        base = BaseParameter(0.72)
        lo = x_star(base)
        result = scan_roots(base, lo, 5000.0, 2)
        (root,) = result.refined_roots
        bracket = RootBracket(lo, 2.0 * lo - 2.0, BracketProvenance.ORACLE_SCAN)
        assert root == pytest.approx(bisect(base, bracket)[0], rel=1e-12)

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


@pytest.mark.parametrize(
    "x_lo, x_hi", [(-10.0, math.inf), (-math.inf, 10.0), (-1e308, 1e308)]
)
@pytest.mark.parametrize("scan", [scan_roots, min_scan])
def test_range_it_cannot_grid_is_rejected(scan, x_lo, x_hi):
    # an infinite end, or a width that overflows, leaves no finite step
    with pytest.raises(ValueError, match=re.escape(f"[{x_lo}, {x_hi}]")):
        scan(BaseParameter(0.9), x_lo, x_hi, 1001)


class TestAgainstTwoPowerReference:
    """The grid takes a**-x as 1/a**x; the two-power form is the reference."""

    def _check(self, a, x_lo, x_hi, grid_size):
        base = BaseParameter(a)
        assert scan_roots(base, x_lo, x_hi, grid_size) == _reference_scan(
            base, x_lo, x_hi, grid_size
        )
        x_min, f_min = min_scan(base, x_lo, x_hi, grid_size)
        xs, fv = _reference_grid(a, x_lo, x_hi, grid_size)
        i = int(np.argmin(fv))
        assert x_min == float(xs[i])
        with np.errstate(over="ignore"):
            scale = max(np.power(a, x_min), np.power(a, -x_min))
        assert abs(f_min - float(fv[i])) <= 8.0 * np.spacing(scale)

    def test_seeded_bases(self):
        rng = np.random.default_rng(SEED)
        for a in rng.uniform(0.05, 5.0, 500):
            base = BaseParameter(float(a))
            self._check(float(a), *_scan_ranges(base)[1], 20_001)

    @pytest.mark.parametrize("a", EXTREME_BASES, ids=repr)
    def test_extreme_bases(self, a):
        for x_lo, x_hi in _scan_ranges(BaseParameter(a)):
            self._check(a, x_lo, x_hi, 100_001)


def _scalar_base_grid(a, x_lo, x_hi, grid_size):
    """The grid with the base passed to np.power as the float a."""
    xs = np.linspace(x_lo, x_hi, grid_size)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        p = np.power(a, xs)
        return xs, 1.0 / p + p - xs


def _neighbours(x):
    """The 8 doubles nearest x: 4 below and 4 above."""
    out, lo, hi = [], x, x
    for _ in range(4):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _no_root_below_one_bases():
    rng = np.random.default_rng(SEED)
    ln_a = 10.0 ** rng.uniform(-16.0, math.log10(4e-3), 20)
    return (
        list(EXTREME_BASES)
        + [float(a) for a in rng.uniform(0.05, 5.0, 50)]
        + _neighbours(1.0)
        + [math.exp(t) for t in ln_a]
        + [math.exp(-t) for t in ln_a]
        + _neighbours(_C.a_min)
        + _neighbours(_C.a_max)
    )


def test_no_root_below_one():
    """--verify's grid starts at x = 1: below it a**x + 1/a**x - x stays
    at least about 2 - x, so the grid sees no root and no sign change."""
    for a in _no_root_below_one_bases():
        base = BaseParameter(a)
        scan = scan_roots(base, -10.0, 1.0, 100_001)
        assert scan.sign_change_intervals == () and scan.refined_roots == (), a
        assert min_scan(base, -10.0, 1.0, 100_001)[1] > 0.99, a


@pytest.mark.parametrize("scan", [scan_roots, min_scan])
class TestGridBitsMatchScalarBase:
    """_grid passes the base to np.power as a filled array; each scan must
    see the bits a float base gives."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Copies of the (xs, f) arrays each _grid call returns."""
        seen = []
        grid = oracle._grid

        def recording_grid(*args):
            xs, fv = grid(*args)
            seen.append((xs.copy(), fv.copy()))
            return xs, fv

        monkeypatch.setattr(oracle, "_grid", recording_grid)
        return seen

    def _check(self, seen, scan, a, grid_size):
        base = BaseParameter(a)
        for x_lo, x_hi in _scan_ranges(base):
            scan(base, x_lo, x_hi, grid_size)
            xs, fv = seen.pop()
            ref_xs, ref_fv = _scalar_base_grid(a, x_lo, x_hi, grid_size)
            assert np.array_equal(_bits(xs), _bits(ref_xs)), (a, x_lo, x_hi)
            assert np.array_equal(_bits(fv), _bits(ref_fv)), (a, x_lo, x_hi)

    def test_seeded_bases(self, seen, scan):
        rng = np.random.default_rng(SEED)
        for a in rng.uniform(0.05, 5.0, 500):
            self._check(seen, scan, float(a), 20_001)

    @pytest.mark.parametrize("a", EXTREME_BASES, ids=repr)
    def test_extreme_bases(self, seen, scan, a):
        self._check(seen, scan, a, 100_001)


@pytest.mark.parametrize("a", EXTREME_BASES, ids=repr)
def test_extreme_bases_raise_no_warning(a, capsys):
    base = BaseParameter(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x_lo, x_hi in _scan_ranges(base):
            scan_roots(base, x_lo, x_hi, 100_001)
            min_scan(base, x_lo, x_hi, 100_001)
        code = main(["solve", "--a", repr(a), "--verify"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


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


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.int64)


class TestWorkspace:
    """_grid's arrays: xs must stay linspace, and threads share none."""

    def test_xs_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(SEED)
        base = BaseParameter(0.9)
        # On [-10, 0.1], (n - 1)*step - 10 misses 0.1 by an ulp, so the
        # last point must be set to x_hi.
        for n in (2, 100_001, 3, 1000) * 10:
            ranges = [(-10.0, 0.1)]
            for _ in range(3):
                lo = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-20, 20))
                hi = lo + float(rng.uniform(1e-3, 1.0)) * 10.0 ** int(
                    rng.integers(-10, 10)
                )
                if not lo < hi:
                    hi = float(np.nextafter(lo, np.inf))
                ranges.append((lo, hi))
            for lo, hi in ranges:
                xs, _ = oracle._grid(base, lo, hi, n)
                assert len(xs) == n
                assert np.array_equal(_bits(xs), _bits(np.linspace(lo, hi, n)))

    @pytest.mark.parametrize("n", (2, 3, 1000))
    def test_subnormal_span(self, n):
        xs, fv = oracle._grid(BaseParameter(0.9), 0.0, 5e-324, n)
        assert np.array_equal(_bits(xs), _bits(np.linspace(0.0, 5e-324, n)))
        assert np.array_equal(fv, np.full(n, 2.0))

    def test_threads_match_serial(self):
        rng = np.random.default_rng(SEED)
        chunks = [
            [float(a) for a in rng.uniform(0.6, 1.5, 12)] for _ in range(4)
        ]

        def scan_all(bases):
            out = []
            for i, a in enumerate(bases):
                base = BaseParameter(a)
                x_lo, x_hi = _scan_ranges(base)[-1]
                n = (100_001, 20_001)[i % 2]
                out.append(
                    (scan_roots(base, x_lo, x_hi, n), min_scan(base, x_lo, x_hi, n))
                )
            return out

        serial = [scan_all(bases) for bases in chunks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(scan_all, chunks, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == serial
