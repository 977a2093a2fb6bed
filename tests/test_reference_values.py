"""Cross-checks against an independent 40-digit-precision oracle.

Everything here recomputes, from scratch with mpmath, the reference values
that the rest of the suite freezes as constants: the critical constants,
the table roots, the omega constant, and the two facts behind the
intentionally failing acceptance criteria (the golden table's bad x1 cell
and the invalid refined lower bound near a = 1).
"""

import mpmath as mp

from coshroots import (
    BaseParameter,
    critical_constants,
    f_value,
    lambert_w_principal,
    solve_all,
    x_star,
)

mp.mp.dps = 40


def _mp_f(a):
    t = mp.log(mp.mpf(a))
    return lambda x: 2 * mp.cosh(x * t) - x


def _mp_bisect(g, lo, hi, flip=False):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        positive = g(mid) > 0
        if positive != flip:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _mp_roots(a):
    g = _mp_f(a)
    t = mp.log(mp.mpf(a))
    xs = mp.asinh(1 / (2 * t)) / t
    x1 = _mp_bisect(g, 2, xs)           # f(2) > 0 > f(xs)
    x2 = _mp_bisect(g, xs, 2 * xs, flip=True)
    return xs, x1, x2


def test_constants_against_oracle():
    q_true = mp.findroot(lambda t: mp.coth(t) - t, mp.mpf("1.2"))
    c = critical_constants()
    assert abs(c.q - float(q_true)) <= 5e-16
    half = 1 / (2 * mp.sinh(q_true))
    assert abs(c.a_min - float(mp.e**-half)) <= 5e-16
    assert abs(c.a_max - float(mp.e**half)) <= 5e-16
    assert abs(c.x_dagger - float(2 * mp.cosh(q_true))) <= 1e-15


def test_table_roots_against_oracle():
    for a in (0.75, 0.9, 1.08, 1.39):
        _, x1_true, x2_true = _mp_roots(a)
        report = solve_all(BaseParameter(a))
        x1, x2 = (r.x for r in report.roots)
        assert abs(x1 - float(x1_true)) <= 1e-12, a
        assert abs(x2 - float(x2_true)) <= max(1e-12, 1e-15 * float(x2_true)), a


def test_minimizer_against_oracle():
    for a in (0.75, 0.9, 1.08, 1.39):
        t = mp.log(mp.mpf(a))
        xs_true = mp.asinh(1 / (2 * t)) / t
        assert abs(x_star(BaseParameter(a)) - float(xs_true)) <= 1e-11


def test_omega_constant_against_oracle():
    omega = float(mp.lambertw(1))
    assert abs(lambert_w_principal(1.0) - omega) <= 1e-15


def test_golden_table_defect_is_real():
    # the golden fixture's x1 for a = 1.39 is 3.3144; the true root is
    # more than 7e-4 away and the fixture value is no root at 4 decimals
    _, x1_true, _ = _mp_roots(1.39)
    assert abs(float(x1_true) - 3.3144) > 7e-4
    assert abs(f_value(BaseParameter(1.39), 3.3144)) > 5e-5
    # the float64 base 1.39 and the exact decimal 1.39 have roots ~5e-15
    # apart; both round to the frozen reference at this scale
    assert abs(float(x1_true) - 3.3136626896380942) <= 1e-13


def test_refined_lower_bound_failure_is_real():
    # for a = 0.98 the claimed refined lower bound 1.5*x* - x1/2 exceeds
    # the actual second root: the bound is invalid near a = 1
    xs, x1, x2 = _mp_roots(0.98)
    refined_lo = mp.mpf(3) / 2 * xs - x1 / 2
    assert refined_lo > x2


# |ln a| at which the refined lower end (3/2)x* - x1/2 meets x2: below it
# the end overshoots x2, above it (up to the tangent slope T) it bounds x2
T0_REF = 0.040969159959903385


def _mp_newton_root(t, x):
    """Root of 2*cosh(t x) = x by Newton's method from x, where f(x) > 0:
    f is convex, so the iterates move monotonically onto the nearer root."""
    for _ in range(200):
        step = (2 * mp.cosh(t * x) - x) / (2 * t * mp.sinh(t * x) - 1)
        x -= step
        if abs(step) <= abs(x) * mp.mpf(10) ** -35:
            return x
    raise AssertionError(f"no convergence at t={t}")


def _mp_refined_gap(t):
    """(x2 - ((3/2)x* - x1/2), (2x* - x1) - x2) at |ln a| = t, 40 digits."""
    t = mp.mpf(t)
    xs = mp.asinh(1 / (2 * t)) / t
    x1 = _mp_newton_root(t, mp.mpf(2))
    x2 = _mp_newton_root(t, 2 * xs - 2)
    return x2 - (3 * xs - x1) / 2, (2 * xs - x1) - x2


def test_refined_bracket_reach_is_pinned():
    from coshroots.solvers import _REFINED_MIN_LOG

    t0 = mp.findroot(
        lambda t: _mp_refined_gap(t)[0], (0.0409, 0.0411), solver="anderson"
    )
    assert abs(t0 - T0_REF) <= 1e-12
    assert t0 <= _REFINED_MIN_LOG <= t0 * (1 + mp.mpf("1e-8"))

    # 60 log-spaced |ln a| on each side, ending at t0(1 -+ 1e-6) and T(1 - 1e-9)
    t_max = critical_constants().tangent_log
    below = mp.linspace(mp.log(1e-8), mp.log(T0_REF * (1 - 1e-6)), 60)
    above = mp.linspace(mp.log(T0_REF * (1 + 1e-6)), mp.log(t_max * (1 - 1e-9)), 60)
    for log_t in below:
        lower_gap, upper_gap = _mp_refined_gap(mp.exp(log_t))
        assert lower_gap < 0 < upper_gap, mp.exp(log_t)
    for log_t in above:
        lower_gap, upper_gap = _mp_refined_gap(mp.exp(log_t))
        assert lower_gap > 0 and upper_gap > 0, mp.exp(log_t)

    for t, provenance in ((0.0409, "minimizer_based"), (0.0411, "refined_given_x1")):
        for sign in (-1, 1):
            report = solve_all(BaseParameter(float(mp.exp(sign * t))))
            assert report.roots[1].bracket.provenance.value == provenance
