"""Brute-force root locator, independent of the analytic machinery.

Used to validate classification and brackets: it evaluates the original
power form a**x + a**(-x) - x on a uniform grid, records every sign
change, and bisects each one down to tolerance.  On the grid a**-x is
taken as 1/a**x, so each grid point costs one power, run on two
contiguous arrays (x, and a filled in) for speed; a**x that underflows
to 0 gives inf, as a**-x itself does there.  It deliberately avoids the
cosh/log formulation, the classification logic, and every analytic
bound, so agreement with the solvers is meaningful evidence.

Tangent (double) roots produce no sign change and are invisible to the
scan; use min_scan for those (the function is convex, so the grid minimum
approximates the minimizer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BaseParameter, _range_width

__all__ = ["ScanResult", "scan_roots", "min_scan"]

# Relative width and step budget for bisecting each sign-change interval.
_X_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class ScanResult:
    """Sign-change intervals and their bisected roots from one grid scan."""

    sign_change_intervals: tuple[tuple[float, float], ...]
    refined_roots: tuple[float, ...]
    grid_size: int
    scan_range: tuple[float, float]


def _power_form(a: float, x: float) -> float:
    """Scalar a**x + a**(-x) - x with overflow saturating to +inf."""
    try:
        return a**x + a**-x - x
    except OverflowError:
        return math.inf


def _grid(
    base: BaseParameter, x_lo: float, x_hi: float, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid xs and the power form on it, a**x + 1/a**x - x.

    xs has the bits np.linspace(x_lo, x_hi, grid_size) would give.  The f
    array first holds the base, filled in, for np.power: the bits of a
    scalar base at about half the cost, in the same four arrays.
    """
    if base.a <= 0.0:
        raise ValueError("scan requires a > 0")
    x_lo, x_hi = float(x_lo), float(x_hi)
    width = _range_width(x_lo, x_hi, "x_lo", "x_hi")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    idx = np.arange(grid_size, dtype=np.float64)
    xs, p, fv = np.empty((3, grid_size))
    step = width / (grid_size - 1)
    if step == 0.0:
        # A subnormal span: linspace divides before it multiplies here.
        xs = np.linspace(x_lo, x_hi, grid_size)
    else:
        np.multiply(idx, step, out=xs)
        xs += x_lo
        xs[-1] = x_hi
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        fv.fill(base.a)
        np.power(fv, xs, out=p)
        np.divide(1.0, p, out=fv)
        fv += p
        fv -= xs
    return xs, fv


def scan_roots(
    base: BaseParameter, x_lo: float, x_hi: float, grid_size: int
) -> ScanResult:
    """Locate every simple root of f on [x_lo, x_hi] by grid + bisection.

    Evaluates the power form on a uniform grid of ``grid_size`` points,
    collects each adjacent pair with opposite signs, and bisects each pair
    to a relative width of 1e-12.  Grid points where f is exactly zero
    are reported as roots directly.  An empty result is valid (no roots in
    range, or only a tangency).  A non-finite range or width raises ValueError.
    """
    xs, fv = _grid(base, x_lo, x_hi, grid_size)
    a = base.a
    exact = [float(x) for x in xs[fv == 0.0]]
    neg = fv < 0.0
    pos = fv > 0.0
    change = np.flatnonzero((neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))
    intervals = [(float(xs[i]), float(xs[i + 1])) for i in change]

    roots = list(exact)
    for lo, hi in intervals:
        f_lo = _power_form(a, lo)
        for _ in range(_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if hi - lo <= _X_TOL * max(1.0, abs(mid)) or mid == lo or mid == hi:
                break
            fm = _power_form(a, mid)
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


def min_scan(
    base: BaseParameter, x_lo: float, x_hi: float, grid_size: int
) -> tuple[float, float]:
    """Grid minimum of the power form: returns (x_at_min, f_min).

    The tangency check for bases at the edge of the critical interval:
    a double root shows up as |f_min| ~ 0 with no sign change.
    """
    xs, fv = _grid(base, x_lo, x_hi, grid_size)
    i = int(np.argmin(fv))
    return float(xs[i]), float(fv[i])
