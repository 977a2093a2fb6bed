"""Unit tests for bisection, safeguarded Newton, the dispatcher, and the
Lambert-W baseline."""

import functools
import inspect
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import coshroots.solvers as solvers
from coshroots import (
    BaseParameter,
    BracketError,
    BracketProvenance,
    ClassificationTag,
    ConvergenceError,
    RootBracket,
    SolverError,
    bisect,
    bounds_x1,
    bounds_x2_initial,
    bounds_x2_refined,
    classify,
    critical_constants,
    f_derivative,
    f_value,
    lambert_w_principal,
    newton_refine,
    solve_all,
    solve_exp_fixed_point,
)

# independently computed at 40-digit precision
OMEGA_REF = 0.5671432904097838730  # W(1)
X1_139_REF = 3.3136626896380941512
X2_139_REF = 3.9936239332153425304

SEED = 42


class TestAbsTol:
    def test_default(self):
        for solve in (solve_all, newton_refine):
            assert inspect.signature(solve).parameters["abs_tol"].default == 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
    def test_rejected_by_both_entry_points(self, bad):
        message = "tolerances must be finite and strictly positive"
        base = BaseParameter(0.9)
        with pytest.raises(ValueError, match=message):
            solve_all(base, bad)
        with pytest.raises(ValueError, match=message):
            newton_refine(base, 2.5, bounds_x1(), bad)


class TestBisect:
    def test_first_root_075(self):
        x, iters = bisect(BaseParameter(0.75), bounds_x1())
        assert abs(x - 2.5738) <= 5e-4
        assert iters > 0

    def test_unit_base_affine(self):
        bracket = RootBracket(0.0, 10.0, BracketProvenance.ORACLE_SCAN)
        x, _ = bisect(BaseParameter(1.0), bracket)
        assert abs(x - 2.0) <= 1e-9

    def test_second_root_108_on_initial_bracket(self):
        x, _ = bisect(BaseParameter(1.08), bounds_x2_initial(BaseParameter(1.08)))
        assert abs(x - 51.1120) <= 5e-4

    def test_width_contract(self):
        # bisection ends on adjacent doubles: f changes sign between x
        # and one of its neighbours
        base = BaseParameter(0.8)
        x, _ = bisect(base, bounds_x1())
        fx = f_value(base, x)
        neighbours = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
        assert any((f_value(base, n) > 0.0) != (fx > 0.0) for n in neighbours)

    def test_budget_exhausted(self):
        # from [0, 1e300] the midpoint needs ~1000 halvings to reach the
        # root x = 2; the budget of 200 steps ends it first
        bracket = RootBracket(0.0, 1e300, BracketProvenance.ORACLE_SCAN)
        with pytest.raises(ConvergenceError) as err:
            bisect(BaseParameter(1.0), bracket)
        assert err.value.iterations == 200
        assert err.value.bracket is bracket

    def test_no_root_in_bracket(self):
        bracket = RootBracket(7.0, 9.0, BracketProvenance.ORACLE_SCAN)
        with pytest.raises(BracketError) as err:
            bisect(BaseParameter(0.75), bracket)
        assert not err.value.tangent_suspected

    def test_tangent_suspected(self):
        c = critical_constants()
        bracket = RootBracket(2.0, 5.0, BracketProvenance.ORACLE_SCAN)
        with pytest.raises(BracketError) as err:
            bisect(BaseParameter(c.a_max), bracket)
        assert err.value.tangent_suspected


@pytest.mark.parametrize("a, lo, hi, kind", [
    # both ends positive, f(x*) = -11.76 < 0 in between: x1 and x2 inside
    (0.9, 0.0, 100.0, "two roots in bracket (f < 0 at the interior minimum)"),
    (0.9, 1.0, 50.0, "two roots in bracket (f < 0 at the interior minimum)"),
    (2.0, 0.0, 5.0, "no root in bracket"),  # f(x*) > 0, x* = 0.96 inside
])
@pytest.mark.parametrize("solve", [
    lambda base, bracket: bisect(base, bracket),
    lambda base, bracket: newton_refine(base, 1.0, bracket),
], ids=["bisect", "newton_refine"])
def test_no_sign_change_names_the_root_count(solve, a, lo, hi, kind):
    bracket = RootBracket(lo, hi, BracketProvenance.ORACLE_SCAN)
    with pytest.raises(BracketError) as err:
        solve(BaseParameter(a), bracket)
    assert str(err.value).endswith(kind)
    assert not err.value.tangent_suspected


@pytest.mark.parametrize("lo, hi", [
    (2.000000000002, 3.0),  # widens to exactly 2.0 at its lower end
    (1.0, 1.999999999998),  # and at its upper end
])
@pytest.mark.parametrize("solve", [
    lambda base, bracket: bisect(base, bracket),
    lambda base, bracket: newton_refine(base, bracket.midpoint, bracket),
], ids=["bisect", "newton_refine"])
def test_exact_zero_end_is_returned(solve, lo, hi):
    # f = 2 - x exactly at a = 1, so f is 0 at the widened end 2.0: that end
    # is the root, not one sign of a bracket with no sign change
    bracket = RootBracket(lo, hi, BracketProvenance.ORACLE_SCAN)
    assert 2.0 in solvers._widened(bracket)
    assert solve(BaseParameter(1.0), bracket)[:2] == (2.0, 0)


class TestNewtonRefine:
    def test_second_root_09_from_refined_bracket(self):
        bracket = RootBracket(31.1702, 40.8781, BracketProvenance.REFINED_GIVEN_X1)
        x, _, _ = newton_refine(BaseParameter(0.9), bracket.midpoint, bracket)
        assert abs(x - 33.2488) <= 5e-4

    def test_second_root_139_from_seed(self):
        bracket = RootBracket(3.8312, 4.0035, BracketProvenance.REFINED_GIVEN_X1)
        x, _, _ = newton_refine(BaseParameter(1.39), 3.9, bracket)
        assert abs(x - X2_139_REF) <= 1e-12

    def test_quadratic_convergence_against_bisect_oracle(self):
        # bisection (run first, tight width) is the oracle; Newton must
        # agree from any seed and converge fast
        base = BaseParameter(0.75)
        bracket = bounds_x1()
        oracle_x, _ = bisect(base, bracket)
        for seed in np.linspace(bracket.lo + 1e-6, bracket.hi - 1e-6, 15):
            x, iters, _ = newton_refine(base, float(seed), bracket)
            assert iters <= 8
            assert abs(x - oracle_x) <= 1e-12

    def test_seed_outside_bracket_rejected(self):
        with pytest.raises(ValueError):
            newton_refine(BaseParameter(0.75), 5.0, bounds_x1())

    def test_residual_contract(self):
        base = BaseParameter(1.2)
        x, _, residual = newton_refine(base, 2.5, bounds_x1())
        assert abs(f_value(base, x)) <= 1e-12
        assert residual == f_value(base, x)

    def test_failure_carries_best_iterate(self):
        # within ~1e-9 of a = 1 the second root is ~4e10 and the 1e-12
        # residual target is far below the double-precision floor
        base = BaseParameter(1.0 + 1e-9)
        bracket = bounds_x2_initial(base)
        with pytest.raises(ConvergenceError) as err:
            newton_refine(base, bracket.midpoint, bracket)
        assert bracket.lo < err.value.best_x < bracket.hi
        assert err.value.best_residual > 1e-12
        assert err.value.bracket is bracket

    def test_no_sign_change_error(self):
        bracket = RootBracket(7.0, 9.0, BracketProvenance.ORACLE_SCAN)
        with pytest.raises(BracketError):
            newton_refine(BaseParameter(0.75), 8.0, bracket)


class TestSolveAll:
    def test_two_roots_075(self):
        report = solve_all(BaseParameter(0.75))
        assert report.classification.tag is ClassificationTag.TWO_ROOTS
        x1, x2 = report.roots
        assert abs(x1.x - 2.5738) <= 5e-4
        assert abs(x2.x - 6.3160) <= 5e-4
        assert x1.x < x2.x
        assert abs(x1.residual) <= 1e-12
        assert abs(x2.residual) <= 1e-12
        assert x1.bracket.provenance is BracketProvenance.AFFINE_MINORANT
        assert x2.bracket.provenance is BracketProvenance.REFINED_GIVEN_X1

    def test_no_root_regime(self):
        report = solve_all(BaseParameter(2.0))
        assert report.classification.tag is ClassificationTag.NO_ROOT
        assert report.roots == ()

    def test_tangent_base(self):
        c = critical_constants()
        for a in (c.a_min, c.a_max):
            report = solve_all(BaseParameter(a))
            assert report.classification.tag is ClassificationTag.TANGENT_ROOT
            (root,) = report.roots
            assert abs(root.x - 3.62034) <= 5e-6
            assert abs(root.residual) <= 1e-6
            assert root.iterations == 0

    def test_unit_base(self):
        report = solve_all(BaseParameter(1.0))
        (root,) = report.roots
        assert root.x == 2.0
        assert root.residual == 0.0

    def test_zero_base_convention(self):
        report = solve_all(BaseParameter(0.0))
        assert report.classification.by_convention
        (root,) = report.roots
        assert root.x == 0.0
        assert math.isnan(root.residual)

    def test_near_unit_fallback_bracket(self):
        # |ln a| < ~0.041: the refined lower bound overshoots the root,
        # so the dispatcher must fall back to the initial bracket
        report = solve_all(BaseParameter(1.02))
        x2 = report.roots[1]
        assert x2.bracket.provenance is BracketProvenance.MINIMIZER_BASED
        assert abs(x2.residual) <= 1e-12

    def test_far_from_unit_uses_refined_bracket(self):
        report = solve_all(BaseParameter(0.9))
        assert (
            report.roots[1].bracket.provenance
            is BracketProvenance.REFINED_GIVEN_X1
        )

    def test_tangent_residual_above_sqrt_abs_tol_raises(self):
        # the closed-form tangent root is accepted while |f| <= sqrt(abs_tol)
        with pytest.raises(ConvergenceError) as err:
            solve_all(BaseParameter(critical_constants().a_max), 1e-40)
        assert err.value.iterations == 0
        assert err.value.bracket is None
        assert str(err.value) == (
            "tangent-root residual 8.756e-16 exceeds sqrt(abs_tol)=1.000e-20"
        )

    def test_pathological_near_unit_raises_structured_error(self):
        with pytest.raises(ConvergenceError):
            solve_all(BaseParameter(1.0 + 1e-9))

    def test_near_tangent_double_root_splits(self):
        # 2e-9 inside a_max: still two distinct roots, a few 1e-4 apart,
        # straddling the tangent abscissa
        c = critical_constants()
        report = solve_all(BaseParameter(1.39287744))
        assert report.classification.tag is ClassificationTag.TWO_ROOTS
        x1, x2 = (r.x for r in report.roots)
        assert x1 < c.x_dagger < x2
        assert x2 - x1 < 1e-3
        for root in report.roots:
            assert abs(root.residual) <= 1e-12

    def test_roots_inside_their_brackets(self):
        rng = np.random.default_rng(SEED)
        c = critical_constants()
        count = 0
        while count < 40:
            a = rng.uniform(c.a_min + 1e-3, c.a_max - 1e-3)
            if abs(a - 1.0) <= 5e-3:
                continue
            count += 1
            report = solve_all(BaseParameter(a))
            for root in report.roots:
                assert root.bracket.lo < root.x < root.bracket.hi


class TestSolverAgreement:
    def test_bisect_and_newton_agree(self):
        rng = np.random.default_rng(SEED)
        c = critical_constants()
        count = 0
        while count < 100:
            a = rng.uniform(c.a_min + 1e-4, c.a_max - 1e-4)
            if abs(a - 1.0) <= 1e-3:
                continue
            count += 1
            base = BaseParameter(a)
            bracket = bounds_x1()
            xb, _ = bisect(base, bracket)
            try:
                xn, _, _ = newton_refine(base, bracket.midpoint, bracket)
            except ConvergenceError as err:
                # ulp-limited residual floor near a = 1; the best iterate
                # is still the best double approximation of the root
                xn = err.best_x
            assert abs(xb - xn) <= 1e-10


class TestLambertW:
    def test_zero(self):
        assert lambert_w_principal(0.0) == 0.0

    def test_at_e(self):
        assert abs(lambert_w_principal(math.e) - 1.0) <= 1e-12

    def test_omega_constant(self):
        w = lambert_w_principal(1.0)
        assert abs(w - OMEGA_REF) <= 1e-12
        assert abs(w * math.exp(w) - 1.0) <= 1e-12

    def test_branch_point(self):
        assert lambert_w_principal(-math.exp(-1.0)) == -1.0

    def test_branch_point_rounding(self):
        # one rounding below -1/e is the branch point; further below is not
        z = -math.exp(-1.0) * (1.0 + 2e-16)
        assert z < -math.exp(-1.0)
        assert lambert_w_principal(z) == -1.0
        with pytest.raises(ValueError):
            lambert_w_principal(-math.exp(-1.0) * (1.0 + 1e-15))

    def test_near_branch_point(self):
        z = -math.exp(-1.0) + 1e-12
        w = lambert_w_principal(z)
        assert w >= -1.0
        assert abs(w * math.exp(w) - z) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w_principal(-0.4)
        with pytest.raises(ValueError):
            lambert_w_principal(math.nan)
        with pytest.raises(ValueError):
            lambert_w_principal(-math.inf)

    def test_infinity(self):
        assert lambert_w_principal(math.inf) == math.inf

    def test_round_trip_sample(self):
        for w in (-0.9, -0.5, 0.1, 1.0, 3.0, 5.0):
            z = w * math.exp(w)
            got = lambert_w_principal(z)
            assert abs(got * math.exp(got) - z) <= 1e-12


def _lambert_w_residual_only(z):
    """Halley for W(z) that stops only on |w*e**w - z| <= 1e-12.

    The iteration lambert_w_principal ran before it also stopped on a step
    of at most 2 ulp; the reference where that target is reachable.
    Returns None where it is not.
    """
    if z == -math.exp(-1.0):
        return -1.0
    if z > math.e:
        log_z = math.log(z)
        w = log_z - math.log(log_z)
    elif z > 0.5:
        w = math.log1p(z)
    elif z >= -0.25:
        w = z * (1.0 - z + 1.5 * z * z)
    else:
        p = math.sqrt(2.0 * max(0.0, math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p * p * p
    for _ in range(200):
        ew = math.exp(w)
        fw = w * ew - z
        if abs(fw) <= 1e-12:
            return max(w, -1.0)
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * fw / (2.0 * wp1)
        if denom == 0.0 or not math.isfinite(denom):
            denom = ew * wp1
        w -= fw / denom
    return None


class TestLambertWLargeZ:
    """Beyond z ~ 1e4 the 1e-12 residual is below the float floor."""

    def test_within_one_ulp_of_mpmath(self):
        rng = np.random.default_rng(SEED)
        zs = [1e4, 1e6, 1e300] + [float(z) for z in 10.0 ** rng.uniform(3, 308, 300)]
        with mpmath.workdps(40):
            for z in zs:
                w = lambert_w_principal(z)
                ref = float(mpmath.lambertw(mpmath.mpf(z)))
                assert abs(w - ref) <= math.ulp(ref), z

    def test_unchanged_where_residual_target_is_reachable(self):
        rng = np.random.default_rng(SEED)
        em1 = math.exp(-1.0)
        zs = np.concatenate(
            [
                -em1 * (1.0 - 10.0 ** rng.uniform(-16, 0, 1000)),
                rng.uniform(-em1, 0.0, 1000),
                10.0 ** rng.uniform(-12, 3, 3000),
            ]
        )
        checked = 0
        for z in zs:
            z = max(float(z), -em1)
            want = _lambert_w_residual_only(z)
            if want is not None:
                assert lambert_w_principal(z) == want, z
                checked += 1
        assert checked == len(zs)


class TestSolveExpFixedPoint:
    def test_sqrt2(self):
        x = solve_exp_fixed_point(BaseParameter(math.sqrt(2.0)))
        assert abs(x - 2.0) <= 1e-10

    def test_boundary_base(self):
        # a = e**(1/e): the fixed point x = e sits at the Lambert branch
        # point, where conditioning is square-root limited (~1e-8)
        a = math.exp(math.exp(-1.0))
        x = solve_exp_fixed_point(BaseParameter(a))
        assert abs(x - math.e) <= 1e-6

    def test_against_bisection_oracle(self):
        a = 1.2
        g = lambda x: a**x - x
        lo, hi = 1.0, 2.0
        assert g(lo) > 0.0 > g(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        x = solve_exp_fixed_point(BaseParameter(a))
        assert abs(x - oracle) <= 1e-10
        assert abs(a**x - x) <= 1e-12

    def test_base_below_one(self):
        a = 0.5
        x = solve_exp_fixed_point(BaseParameter(a))
        assert abs(a**x - x) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_exp_fixed_point(BaseParameter(2.0))  # above e**(1/e)
        with pytest.raises(ValueError):
            solve_exp_fixed_point(BaseParameter(1.0))
        with pytest.raises(ValueError):
            solve_exp_fixed_point(BaseParameter(0.0))


class TestLambertWNearDoubleMax:
    """Above z ~ 1.7951e308, e**w * (w + 1) overflows; the step is taken
    in its e**-w-scaled form there."""

    @pytest.mark.parametrize("z", [1.7951e308, 1.797e308, sys.float_info.max])
    def test_within_one_ulp_of_mpmath(self, z):
        w = lambert_w_principal(z)
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(mpmath.mpf(z)))
        assert abs(w - ref) <= math.ulp(ref)


def _mp_root(a, x, dps=50, ln_a=None):
    """The root of 2*cosh(x ln a) = x nearest the double x, to dps digits,
    by Newton's method from x; a float ln_a, taken exactly, stands in for
    ln a where given."""
    with mpmath.workdps(dps):
        ln_a = mpmath.log(mpmath.mpf(a)) if ln_a is None else mpmath.mpf(ln_a)
        xm = mpmath.mpf(x)
        for _ in range(20):
            e = mpmath.exp(xm * ln_a)
            step = (e + 1 / e - xm) / (ln_a * (e - 1 / e) - 1)
            xm -= step
            if abs(step) <= abs(xm) * mpmath.mpf(10) ** (10 - dps):
                break
        return xm


class TestSeededHalley:
    """solve_all's seeds and Halley steps, checked root by root against
    50-digit values away from the near-unit band, edges included."""

    @staticmethod
    def _bases():
        rng = np.random.default_rng(SEED)
        t_max = critical_constants().tangent_log
        bulk = rng.uniform(4e-3, t_max * (1.0 - 2e-9), 2000)
        edge = t_max * (1.0 - 10.0 ** rng.uniform(math.log10(2e-9), math.log10(0.3), 400))
        ts = np.concatenate([bulk, edge])
        signs = rng.choice([-1.0, 1.0], len(ts))
        return [BaseParameter(math.exp(float(s * t))) for s, t in zip(signs, ts)]

    def test_residual_iterations_and_ulp_error(self):
        worst = 0.0
        for base in self._bases():
            report = solve_all(base)
            assert report.classification.tag is ClassificationTag.TWO_ROOTS, base
            for root in report.roots:
                assert abs(root.residual) <= 1e-12, (base, root)
                assert root.iterations <= 2, (base, root)
                if abs(f_derivative(base, root.x)) >= 0.1:
                    ref = _mp_root(base.a, root.x)
                    err = float(abs(mpmath.mpf(root.x) - ref)) / math.ulp(root.x)
                    worst = max(worst, err)
                    assert err <= 16.0, (base, root, err)
        assert worst > 0.0

    @pytest.mark.parametrize(
        "a", [0.75, critical_constants().a_max - 1e-8], ids=["0.75", "a_max-1e-8"]
    )
    def test_newton_refine_from_any_seed_in_bounds_x1(self, a):
        base = BaseParameter(a)
        bracket = bounds_x1()
        lo = bracket.lo - 1e-12 * max(1.0, abs(bracket.lo))
        hi = bracket.hi + 1e-12 * max(1.0, abs(bracket.hi))
        for seed in np.linspace(bracket.lo, bracket.hi, 200):
            x, _, _ = newton_refine(base, float(seed), bracket)
            assert lo <= x <= hi, seed
            assert abs(f_value(base, x)) <= 1e-12, seed


def _outcome(call):
    """(x, iterations, residual), or the error's kind and text."""
    try:
        return call()
    except SolverError as err:
        return type(err).__name__, str(err)


class TestProvenOrientation:
    """``newton_refine(..., lo_negative=...)``: the orientation the analytic
    bounds prove stands in for the endpoint evaluations, with the same
    answer, and public calls without it still check the ends."""

    def test_no_root_base_on_analytic_bracket_still_raises(self):
        with pytest.raises(BracketError) as err:
            newton_refine(BaseParameter(2.0), 2.5, bounds_x1())
        assert err.value.f_lo > 0.0 and err.value.f_hi > 0.0
        assert not err.value.tangent_suspected

    @staticmethod
    def _bases():
        rng = np.random.default_rng(SEED + 11)
        t_max = critical_constants().tangent_log
        bulk = rng.uniform(4e-3, t_max, 1700)
        edge = t_max * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0, 500))
        ts = np.concatenate([bulk, edge])
        signs = rng.choice([-1.0, 1.0], len(ts))
        bases = [BaseParameter(math.exp(float(s * t))) for s, t in zip(signs, ts)]
        return [b for b in bases if classify(b).tag is ClassificationTag.TWO_ROOTS]

    def test_same_answer_as_endpoint_check(self):
        bases = self._bases()
        assert len(bases) >= 2000
        refined_count = 0
        for base in bases:
            quad = solvers._tangent_model(base)
            b1, b2 = classify(base).brackets
            brackets = [(b1, False), (b2, True)]
            x1, _, _ = newton_refine(base, solvers._seed(base, b1, quad, True), b1)
            if abs(base.ln_a) > solvers._REFINED_MIN_LOG:
                brackets.append((bounds_x2_refined(base, x1), True))
                refined_count += 1
            for bracket, neg in brackets:
                seed = solvers._seed(base, bracket, quad, not neg)
                plain = _outcome(lambda: newton_refine(base, seed, bracket))
                proven = _outcome(
                    lambda: newton_refine(base, seed, bracket, lo_negative=neg)
                )
                assert repr(proven) == repr(plain), (base, bracket)
        assert refined_count >= 1500

    @pytest.mark.parametrize("a", [0.9, 1.02])
    def test_solve_all_evaluates_no_bracket_end(self, a, monkeypatch):
        base = BaseParameter(a)
        xs = []

        def recording(fn):
            def recorder(b, x):
                xs.append(x)
                return fn(b, x)

            return recorder

        monkeypatch.setattr(solvers, "f_value", recording(f_value))
        monkeypatch.setattr(
            solvers, "_f_and_derivative", recording(solvers._f_and_derivative)
        )
        report = solve_all(base)
        monkeypatch.undo()
        # the seed and every iterate of each root's solve is recorded
        for root in report.roots:
            lo, hi = solvers._widened(root.bracket)
            assert sum(lo <= x <= hi for x in xs) >= root.iterations + 1, root
        x1 = report.roots[0].x
        refined = bounds_x2_refined(base, x1)
        ends = {refined.lo}
        for bracket in (bounds_x1(), bounds_x2_initial(base), refined):
            ends.update(solvers._widened(bracket))
        assert xs and not ends.intersection(xs)
        expected = (
            BracketProvenance.REFINED_GIVEN_X1
            if abs(base.ln_a) > solvers._REFINED_MIN_LOG
            else BracketProvenance.MINIMIZER_BASED
        )
        assert report.roots[1].bracket.provenance is expected


# t0: below it x2's refined bracket misses the root (tests/test_reference_values.py)
T0 = 0.040969159959903385


def _lib_solve_like_bases(n, seed):
    """n bases drawn like the lib_solve benchmark's: 3% two-root bases with
    |ln a| = T(1 - d), d log-uniform over [1e-8, 1e-4], the rest uniform
    over [0.6, 1.5] outside the near-unit band |ln a| < 4e-3."""
    rng = np.random.default_rng(seed)
    t_max = critical_constants().tangent_log
    n_edge = n * 3 // 100
    d = 10.0 ** rng.uniform(-8.0, -4.0, n_edge)
    edge = np.exp(rng.choice([-1.0, 1.0], n_edge) * t_max * (1.0 - d))
    bulk = rng.uniform(0.6, 1.5, 2 * n)
    bulk = bulk[np.abs(np.log(bulk)) >= 4e-3][: n - n_edge]
    return [BaseParameter(float(a)) for a in np.concatenate([edge, bulk])]


def _reference_seed(base, bracket, model, first):
    """The seeds solve_all took before the Aitken rounds: the same tangent
    model, x1 = 2*cosh(t*2*cosh(2t)) (two fixed-point steps from 2), and
    three steps x = acosh(x/2)/t for x2 from its bracket's midpoint."""
    if model is not None:
        xs, r = model
        return min(max(xs - r if first else xs + r, bracket.lo), bracket.hi)
    t = abs(base.ln_a)
    if first:
        return 2.0 * math.cosh(t * 2.0 * math.cosh(2.0 * t))
    x = bracket.midpoint
    for _ in range(3):
        x = math.acosh(0.5 * x) / t
    return min(max(x, bracket.lo), bracket.hi)


def _ulp_error(x, ref):
    return float(abs(mpmath.mpf(x) - ref)) / math.ulp(x)


def _lib_solve_stream(seeds):
    """Batch 0 of the lib_solve benchmark's timed inputs for each seed, as
    perfbench/workloads.py generates them."""
    here = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, here)
    try:
        import workloads
    finally:
        sys.path.remove(here)
    lib = workloads.LIB_SOLVE
    return [a for seed in seeds for a in lib.inputs(seed, 0, lib.batch_size)]


def _neighbours(a, n):
    """a and the n doubles on each side of it."""
    out = [a]
    for direction in (-math.inf, math.inf):
        x = a
        for _ in range(n):
            x = math.nextafter(x, direction)
            out.append(x)
    return out


class TestAitkenSeeds:
    """Aitken's delta-squared over the fixed-point maps x = 2*cosh(t*x) (x1)
    and x = acosh(x/2)/t (x2), against the seeds it replaced."""

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def _stress_bases():
        """|ln a| log-spaced over [1e-16, T] on both sides of a = 1, the
        doubles next to a_min, a_max and 1, the tangent-model band's edge
        0.95*T and t0 give or take a little, and the lib_solve stream of
        seeds 1-5."""
        c = critical_constants()
        t_max = c.tangent_log
        ts = list(np.logspace(-16.0, math.log10(t_max), 2000))
        for t in (t_max * (1.0 - solvers._TANGENT_SEED_BAND), T0):
            ts += [t * (1.0 + s * e) for s in (-1.0, 1.0) for e in (2e-16, 1e-12, 1e-9)]
        a_values = [math.exp(s * float(t)) for t in ts for s in (-1.0, 1.0)]
        for a in (c.a_min, c.a_max, 1.0):
            a_values += _neighbours(a, 4)
        a_values += _lib_solve_stream(range(1, 6))
        return [BaseParameter(a) for a in a_values]

    def test_only_solver_errors_escape(self):
        # the seeds feed math.acosh, which raises ValueError below 2: every
        # failure of solve_all must be a SolverError, at the default target
        # and at either end of the double range, and every root it returns
        # must lie in its widened bracket
        c = critical_constants()
        bases = self._stress_bases()
        assert len(bases) >= 4000 + 27 + 25_000
        edges = [
            BaseParameter(a)
            for a in (0.0, 1.0, c.a_min, c.a_max, 5e-324, sys.float_info.max)
        ]

        def failures(bases, *abs_tol):
            failed = 0
            for base in bases:
                try:
                    report = solve_all(base, *abs_tol)
                except SolverError:
                    failed += 1
                    continue
                for root in report.roots:
                    if root.bracket is not None:
                        lo, hi = solvers._widened(root.bracket)
                        assert lo <= root.x <= hi, (base, abs_tol, root)
            return failed

        assert 0 < failures(bases) < len(bases) // 10  # the near-unit band fails
        for abs_tol in (5e-324, 1e-300, 1e300, sys.float_info.max):
            failures(bases + edges, abs_tol)

    def test_seed_inside_bracket_every_round(self, monkeypatch):
        cases = []
        for base in self._stress_bases():
            outcome = classify(base)
            if outcome.tag is not ClassificationTag.TWO_ROOTS:
                continue
            quad = solvers._tangent_model(base)
            b1, initial = outcome.brackets
            brackets = [(b1, True), (initial, False)]
            seed = solvers._seed(base, b1, quad, True)
            x1 = _outcome(lambda: newton_refine(base, seed, b1))[0]
            if isinstance(x1, float) and 2.0 < x1 < initial.lo:
                brackets.append((bounds_x2_refined(base, x1), False))
            cases.append((base, quad, brackets))
        assert len(cases) >= 20_000
        for rounds in range(1, solvers._AITKEN_ROUNDS + 1):
            monkeypatch.setattr(solvers, "_AITKEN_ROUNDS", rounds)
            for base, quad, brackets in cases:
                for bracket, first in brackets:
                    seed = solvers._seed(base, bracket, quad, first)
                    assert bracket.lo <= seed <= bracket.hi, (base, bracket, rounds, seed)

    def test_lib_solve_sample(self, monkeypatch):
        bases = _lib_solve_like_bases(20_000, SEED)
        aitken = [solve_all(b) for b in bases]
        monkeypatch.setattr(solvers, "_seed", _reference_seed)
        reference = [solve_all(b) for b in bases]
        monkeypatch.undo()
        errors = []
        for base, new, old in zip(bases, aitken, reference):
            assert new.classification == old.classification
            for root, old_root in zip(new.roots, old.roots):
                assert root.iterations <= old_root.iterations, (base, root, old_root)
                assert root.iterations <= 2, (base, root)
                if root.x == old_root.x:
                    continue
                moved = abs(root.x - old_root.x) / math.ulp(old_root.x)
                assert moved <= 4.0, (base, root, old_root)
                # ulp errors against the root for a itself and against the
                # root of the equation as evaluated, with ln a rounded
                exact = _mp_root(base.a, root.x, 60)
                rounded = _mp_root(base.a, root.x, 60, ln_a=base.ln_a)
                errors.append(
                    [_ulp_error(r.x, ref)
                     for ref in (exact, rounded) for r in (root, old_root)]
                )
        assert len(errors) >= 4000
        new_exact, old_exact, new_rounded, old_rounded = np.array(errors).T
        # roots that moved come closer to the root for a more often than not,
        # and their median error does not grow
        assert np.sum(new_exact < old_exact) > np.sum(new_exact > old_exact)
        assert np.median(new_exact) <= np.median(old_exact)
        # against the equation as evaluated, the median and the count of
        # roots more than 1 ulp off do not grow either
        assert np.median(new_rounded) <= np.median(old_rounded)
        assert np.sum(new_rounded > 1.0) <= np.sum(old_rounded > 1.0)


class TestResidual:
    """newton_refine's third item is f(x) as f_value gives it, bit for bit,
    on every path by which it returns."""

    @staticmethod
    def _solve(monkeypatch, *args, **kwargs):
        """newton_refine's result and the points it evaluated the kernel at."""
        xs = []
        kernel = solvers._f_and_derivative

        def recorder(base, x):
            xs.append(x)
            return kernel(base, x)

        monkeypatch.setattr(solvers, "_f_and_derivative", recorder)
        try:
            result = newton_refine(*args, **kwargs)
        finally:
            monkeypatch.setattr(solvers, "_f_and_derivative", kernel)
        return result, xs

    @staticmethod
    def _check(base, result):
        x, _, residual = result
        assert residual.hex() == f_value(base, x).hex(), (base, result)

    @pytest.mark.parametrize("lo, hi", [(2.000000000002, 3.0), (1.0, 1.999999999998)])
    def test_exact_zero_end(self, monkeypatch, lo, hi):
        base = BaseParameter(1.0)
        bracket = RootBracket(lo, hi, BracketProvenance.ORACLE_SCAN)
        result, xs = self._solve(monkeypatch, base, bracket.midpoint, bracket)
        assert result == (2.0, 0, 0.0) and xs == []
        self._check(base, result)

    def test_final_step_keeps_or_moves_x(self, monkeypatch):
        # solve_all's seeds, and the bracket midpoints, on both brackets
        paths = {"keeps x": 0, "moves x": 0}
        for base in _lib_solve_like_bases(1_000, SEED + 1):
            outcome = classify(base)
            if outcome.tag is not ClassificationTag.TWO_ROOTS:
                continue
            quad = solvers._tangent_model(base)
            for bracket, neg in zip(outcome.brackets, (False, True)):
                aitken = solvers._seed(base, bracket, quad, not neg)
                for seed in (aitken, bracket.midpoint):
                    result, xs = self._solve(
                        monkeypatch, base, seed, bracket, lo_negative=neg
                    )
                    x, iterations, _ = result
                    assert xs[-1] == x, (base, result)
                    if len(xs) == iterations + 1:
                        paths["keeps x"] += 1
                    else:
                        assert len(xs) == iterations + 2, (base, result)
                        paths["moves x"] += 1
                    self._check(base, result)
        assert min(paths.values()) >= 100, paths

    @pytest.mark.parametrize("a", [0.75, 1.2, 0.99])
    def test_best_iterate(self, monkeypatch, a):
        # one step allowed: the loop ends on its budget with the first
        # iterate inside the target, and returns it as the best iterate
        base = BaseParameter(a)
        b1 = bounds_x1()
        x1 = solve_all(base).roots[0].x
        monkeypatch.setattr(solvers, "_MAX_ITER", 1)
        result, xs = self._solve(monkeypatch, base, x1 + 1e-7, b1, lo_negative=False)
        assert abs(f_value(base, xs[0])) > 1e-12
        assert result[:2] == (xs[1], 1)
        self._check(base, result)


# solve_all(BaseParameter(0.9)) as printed by frozen dataclasses; x1 and x2
# are 0.41 and 0.53 ulp from 60-digit mpmath, and both Aitken seeds already
# meet the residual target (0 iterations)
SOLVE_09_REPR = (
    "SolveReport(classification=SolutionClassification(tag=<ClassificationTag."
    "TWO_ROOTS: 'two_roots'>, root=None, brackets=(RootBracket(lo=2.0, "
    "hi=3.6203411613979544, provenance=<BracketProvenance.AFFINE_MINORANT: "
    "'affine_minorant'>), RootBracket(lo=21.4623831288115, hi=40.924766257623, "
    "provenance=<BracketProvenance.MINIMIZER_BASED: 'minimizer_based'>))), "
    "roots=(RootResult(x=2.0466807962770357, residual=-4.8367850919544295e-20, "
    "iterations=0, bracket=RootBracket(lo=2.0, hi=3.6203411613979544, "
    "provenance=<BracketProvenance.AFFINE_MINORANT: 'affine_minorant'>)), "
    "RootResult(x=33.24882859404177, residual=-3.795056052047495e-15, "
    "iterations=0, bracket=RootBracket(lo=31.170234295078732, "
    "hi=40.87808546134596, provenance=<BracketProvenance.REFINED_GIVEN_X1: "
    "'refined_given_x1'>))))"
)


class TestReportRecords:
    """RootResult and SolveReport are immutable NamedTuples that print and
    hash as the frozen dataclasses before them."""

    def test_repr_text(self):
        assert repr(solve_all(BaseParameter(0.9))) == SOLVE_09_REPR

    def test_immutable_and_hashable(self):
        report = solve_all(BaseParameter(0.9))
        for record in (report, report.roots[1]):
            for name in (record._fields[0], "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
            assert hash(record) == hash(tuple(record))
        assert report == solve_all(BaseParameter(0.9))
        assert report._replace(roots=()).roots == ()
