"""Unit tests for bisection, safeguarded Newton, the dispatcher, and the
Lambert-W baseline."""

import math
import sys

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
    SolverConfig,
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


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.abs_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": math.inf},
            {"abs_tol": math.nan},
        ],
    )
    def test_non_finite_tolerances_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**kwargs)


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
    assert solve(BaseParameter(1.0), bracket) == (2.0, 0)


class TestNewtonRefine:
    def test_second_root_09_from_refined_bracket(self):
        bracket = RootBracket(31.1702, 40.8781, BracketProvenance.REFINED_GIVEN_X1)
        x, _ = newton_refine(BaseParameter(0.9), bracket.midpoint, bracket)
        assert abs(x - 33.2488) <= 5e-4

    def test_second_root_139_from_seed(self):
        bracket = RootBracket(3.8312, 4.0035, BracketProvenance.REFINED_GIVEN_X1)
        x, _ = newton_refine(BaseParameter(1.39), 3.9, bracket)
        assert abs(x - X2_139_REF) <= 1e-12

    def test_quadratic_convergence_against_bisect_oracle(self):
        # bisection (run first, tight width) is the oracle; Newton must
        # agree from any seed and converge fast
        base = BaseParameter(0.75)
        bracket = bounds_x1()
        oracle_x, _ = bisect(base, bracket)
        for seed in np.linspace(bracket.lo + 1e-6, bracket.hi - 1e-6, 15):
            x, iters = newton_refine(base, float(seed), bracket)
            assert iters <= 8
            assert abs(x - oracle_x) <= 1e-12

    def test_seed_outside_bracket_rejected(self):
        with pytest.raises(ValueError):
            newton_refine(BaseParameter(0.75), 5.0, bounds_x1())

    def test_residual_contract(self):
        base = BaseParameter(1.2)
        x, _ = newton_refine(base, 2.5, bounds_x1())
        assert abs(f_value(base, x)) <= 1e-12

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
            solve_all(BaseParameter(critical_constants().a_max), SolverConfig(1e-40))
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
                xn, _ = newton_refine(base, bracket.midpoint, bracket)
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


def _mp_root(a, x):
    """The root of 2*cosh(x ln a) = x nearest the double x, to 50 digits,
    by Newton's method from x."""
    with mpmath.workdps(50):
        ln_a = mpmath.log(mpmath.mpf(a))
        xm = mpmath.mpf(x)
        for _ in range(20):
            e = mpmath.exp(xm * ln_a)
            step = (e + 1 / e - xm) / (ln_a * (e - 1 / e) - 1)
            xm -= step
            if abs(step) <= abs(xm) * mpmath.mpf(10) ** -40:
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
                assert root.iterations <= 4, (base, root)
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
            x, _ = newton_refine(base, float(seed), bracket)
            assert lo <= x <= hi, seed
            assert abs(f_value(base, x)) <= 1e-12, seed


def _outcome(call):
    """(x, iterations), or the error's kind and text."""
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
            x1, _ = newton_refine(base, solvers._seed(base, b1, quad), b1)
            if abs(base.ln_a) > solvers._REFINED_MIN_LOG:
                brackets.append((bounds_x2_refined(base, x1), True))
                refined_count += 1
            for bracket, neg in brackets:
                seed = solvers._seed(base, bracket, quad)
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


class TestX2Seed:
    """x2's seed: fixed-point steps x = acosh(x/2)/|ln a| from the bracket's
    midpoint, against the midpoint seed itself (_X2_SEED_STEPS = 0)."""

    @staticmethod
    def _seeds(base):
        """(bracket, seed) for x2's initial bracket and the one solve_all takes."""
        quad = solvers._tangent_model(base)
        b1, initial = classify(base).brackets
        seed = solvers._seed(base, b1, quad)
        x1, _ = newton_refine(base, seed, b1, lo_negative=False)
        brackets = {initial, solvers._second_root_bracket(base, x1, initial)}
        return quad, [(b, solvers._seed(base, b, quad)) for b in brackets]

    def test_seed_inside_bracket(self):
        t_max = critical_constants().tangent_log
        ts = list(np.logspace(-12.0, math.log10(4e-3), 60))
        ts += list(np.linspace(4e-3, 0.9 * t_max, 20))
        for t in (T0, t_max * (1.0 - solvers._TANGENT_SEED_BAND)):
            ts += [t * (1.0 + s * e) for s in (-1.0, 1.0) for e in (1e-9, 1e-6, 1e-3)]
        checked = closer = 0
        for t in ts:
            for sign in (-1.0, 1.0):
                base = BaseParameter(math.exp(sign * float(t)))
                if classify(base).tag is not ClassificationTag.TWO_ROOTS:
                    continue  # |ln a| rounded to 1e-12 or below: the unit base
                quad, seeds = self._seeds(base)
                x2 = solve_all(base).roots[1].x if t >= 4e-3 else None
                for bracket, seed in seeds:
                    assert bracket.lo <= seed <= bracket.hi, (base, bracket, seed)
                    checked += 1
                    if quad is None and x2 is not None and bracket.lo < x2 < bracket.hi:
                        # the steps move monotonically towards x2
                        assert abs(seed - x2) <= abs(bracket.midpoint - x2), base
                        closer += 1
        assert checked >= 200 and closer >= 70

    def test_lib_solve_sample(self, monkeypatch):
        bases = _lib_solve_like_bases(20_000, SEED)
        seeded = [solve_all(b) for b in bases]
        monkeypatch.setattr(solvers, "_X2_SEED_STEPS", 0)
        midpoint = [solve_all(b) for b in bases]
        monkeypatch.undo()
        errors = []
        for base, new, old in zip(bases, seeded, midpoint):
            assert new.classification == old.classification
            if new.classification.tag is not ClassificationTag.TWO_ROOTS:
                continue
            (x1, x2), (old_x1, old_x2) = new.roots, old.roots
            assert x1 == old_x1, base
            assert x2.iterations <= old_x2.iterations, (base, x2, old_x2)
            # where f'(x2)*ulp(x2) >= abs_tol (|ln a| <~ 6e-3) even a double
            # next to x2 can miss the residual target, and the solve may take
            # a third step from any seed
            if f_derivative(base, x2.x) * math.ulp(x2.x) < 1e-12:
                assert x2.iterations <= 2, (base, x2)
            assert abs(x2.x - old_x2.x) <= 4.0 * math.ulp(old_x2.x), (base, x2, old_x2)
            if x2.x != old_x2.x:
                ref = _mp_root(base.a, x2.x)
                errors.append(
                    [float(abs(mpmath.mpf(r.x) - ref)) / math.ulp(r.x)
                     for r in (x2, old_x2)]
                )
        assert len(errors) >= 1000
        new_err, old_err = zip(*errors)
        assert np.median(new_err) <= np.median(old_err)


# solve_all(BaseParameter(0.9)) as printed by frozen dataclasses and the
# midpoint x2 seed, whose solve takes one step more than the fixed-point seed
SOLVE_09_REPR = (
    "SolveReport(classification=SolutionClassification(tag=<ClassificationTag."
    "TWO_ROOTS: 'two_roots'>, root=None, brackets=(RootBracket(lo=2.0, "
    "hi=3.6203411613979544, provenance=<BracketProvenance.AFFINE_MINORANT: "
    "'affine_minorant'>), RootBracket(lo=21.4623831288115, hi=40.924766257623, "
    "provenance=<BracketProvenance.MINIMIZER_BASED: 'minimizer_based'>))), "
    "roots=(RootResult(x=2.0466807962770357, residual=-4.8367850919544295e-20, "
    "iterations=1, bracket=RootBracket(lo=2.0, hi=3.6203411613979544, "
    "provenance=<BracketProvenance.AFFINE_MINORANT: 'affine_minorant'>)), "
    "RootResult(x=33.24882859404177, residual=-3.795056052047495e-15, "
    "iterations=3, bracket=RootBracket(lo=31.170234295078732, "
    "hi=40.87808546134596, provenance=<BracketProvenance.REFINED_GIVEN_X1: "
    "'refined_given_x1'>))))"
)


class TestReportRecords:
    """RootResult and SolveReport are immutable NamedTuples that print and
    hash as the frozen dataclasses before them."""

    def test_repr_text(self, monkeypatch):
        assert repr(solve_all(BaseParameter(0.9))) == SOLVE_09_REPR.replace(
            "iterations=3", "iterations=2"
        )
        monkeypatch.setattr(solvers, "_X2_SEED_STEPS", 0)
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
