"""Unit tests for bisection, safeguarded Newton, the dispatcher, and the
Lambert-W baseline."""

import math

import numpy as np
import pytest

from coshroots import (
    BaseParameter,
    BracketError,
    BracketProvenance,
    ClassificationTag,
    ConvergenceError,
    RootBracket,
    SolverConfig,
    bisect,
    bounds_x1,
    bounds_x2_initial,
    critical_constants,
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
        assert cfg.x_tol == 1e-12
        assert cfg.max_iter == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"x_tol": 0.0},
            {"max_iter": 0},
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
            {"x_tol": math.inf},
            {"x_tol": math.nan},
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
        cfg = SolverConfig(x_tol=1e-10)
        base = BaseParameter(0.8)
        x, _ = bisect(base, bounds_x1(), cfg)
        # the residual implies the distance to the root is below the
        # width target (|f'| < 1 on the first-root branch)
        assert abs(f_value(base, x)) <= 1e-9

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
        oracle_x, _ = bisect(base, bracket, SolverConfig(x_tol=1e-15))
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
        cfg = SolverConfig(x_tol=1e-14)
        count = 0
        while count < 100:
            a = rng.uniform(c.a_min + 1e-4, c.a_max - 1e-4)
            if abs(a - 1.0) <= 1e-3:
                continue
            count += 1
            base = BaseParameter(a)
            bracket = bounds_x1()
            xb, _ = bisect(base, bracket, cfg)
            try:
                xn, _ = newton_refine(base, bracket.midpoint, bracket, cfg)
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

    def test_round_trip_sample(self):
        for w in (-0.9, -0.5, 0.1, 1.0, 3.0, 5.0):
            z = w * math.exp(w)
            got = lambert_w_principal(z)
            assert abs(got * math.exp(got) - z) <= 1e-12


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
