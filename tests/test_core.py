"""Unit tests for the constants, function family, classification, and
analytic brackets."""

import math
import random
import struct

import mpmath
import pytest

from coshroots import (
    BaseParameter,
    BracketProvenance,
    ClassificationTag,
    RootBracket,
    SolutionClassification,
    bisect,
    bounds_x1,
    bounds_x2_initial,
    bounds_x2_refined,
    classify,
    compute_q,
    critical_constants,
    critical_interval,
    f_derivative,
    f_value,
    x_star,
)
from coshroots.core import _f_and_derivative

# independently computed at 40-digit precision
Q_REF = 1.1996786402577338339
SINH_Q_REF = 1.5088795615383199289
A_MIN_REF = 0.7179382548412651278
A_MAX_REF = 1.3928774421152668940
X_DAGGER_REF = 3.6203411613979545490
TWO_COSH1_MINUS_1 = 2.0861612696304875570


class TestComputeQ:
    def test_eight_decimal_value(self):
        q = compute_q()
        assert abs(q - 1.19967864) <= 5e-9

    def test_defining_equation_residual(self):
        q = compute_q()
        assert abs(1.0 / math.tanh(q) - q) <= 1e-10

    def test_algebraic_restatement(self):
        # cosh(q) = q*sinh(q) is coth(q) = q rearranged
        q = compute_q()
        assert abs(math.cosh(q) - q * math.sinh(q)) <= 1e-10

    def test_deterministic(self):
        assert compute_q() == compute_q()

    def test_exceeds_one(self):
        assert compute_q() > 1.0

    def test_high_precision_reference(self):
        assert abs(compute_q() - Q_REF) <= 5e-16


class TestCriticalConstants:
    def test_values(self):
        c = critical_constants()
        assert abs(c.q - Q_REF) <= 5e-16
        assert abs(c.sinh_q - SINH_Q_REF) <= 5e-15
        assert abs(c.a_min - 0.71793825) <= 5e-9
        assert abs(c.a_max - 1.39287744) <= 5e-9
        assert abs(c.x_dagger - 3.62034) <= 5e-6

    def test_coth_residual_invariant(self):
        c = critical_constants()
        assert abs(1.0 / math.tanh(c.q) - c.q) <= 1e-14

    def test_interval_endpoints_are_reciprocal(self):
        c = critical_constants()
        assert abs(c.a_min * c.a_max - 1.0) <= 1e-14

    def test_x_dagger_construction(self):
        c = critical_constants()
        assert c.x_dagger == 2.0 * math.cosh(c.q)

    def test_critical_interval(self):
        c = critical_constants()
        lo, hi = critical_interval()
        assert (lo, hi) == (c.a_min, c.a_max)

    def test_tangent_log(self):
        c = critical_constants()
        assert abs(c.tangent_log - 1.0 / (2.0 * SINH_Q_REF)) <= 1e-15


class TestBaseParameter:
    def test_positive_base(self):
        b = BaseParameter(0.9)
        assert b.a == 0.9
        assert b.ln_a == math.log(0.9)

    def test_unit_base_log_is_zero(self):
        assert BaseParameter(1.0).ln_a == 0.0

    def test_negative_zero_base_is_positive_zero(self):
        b = BaseParameter(-0.0)
        assert math.copysign(1.0, b.a) == 1.0
        assert b.ln_a == -math.inf

    def test_zero_base_log_flagged(self):
        b = BaseParameter(0.0)
        assert b.ln_a == -math.inf
        assert not math.isfinite(b.ln_a)

    def test_log_finite_iff_positive(self):
        assert math.isfinite(BaseParameter(1e-300).ln_a)
        assert math.isfinite(BaseParameter(1e300).ln_a)

    @pytest.mark.parametrize("bad", [-0.5, -1e-12, math.nan, math.inf])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            BaseParameter(bad)


class TestFValue:
    def test_unit_base_is_affine(self):
        b = BaseParameter(1.0)
        assert f_value(b, 2.0) == 0.0
        assert f_value(b, -3.0) == 5.0

    def test_reciprocal_bases_coincide(self):
        assert f_value(BaseParameter(2.0), 3.0) == pytest.approx(
            f_value(BaseParameter(0.5), 3.0), rel=1e-14
        )

    def test_base_e_reference(self):
        # 2*cosh(1) - 1, evaluated independently at high precision
        got = f_value(BaseParameter(math.e), 1.0)
        assert abs(got - TWO_COSH1_MINUS_1) <= 1e-14

    def test_saturates_instead_of_overflowing(self):
        assert f_value(BaseParameter(10.0), 1e6) == math.inf
        assert f_value(BaseParameter(0.1), 1e6) == math.inf

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError):
            f_value(BaseParameter(0.0), 1.0)

    @pytest.mark.parametrize("x", [1.4e300, 1.7976931348623157e308])
    def test_unit_base_is_affine_at_huge_x(self, x):
        # |x| beyond ~1.34e300 overflows the Veltkamp split of x*ln a
        b = BaseParameter(1.0)
        assert f_value(b, x) == 2.0 - x
        assert f_value(b, -x) == 2.0 + x


class TestFDerivative:
    def test_unit_base_slope(self):
        b = BaseParameter(1.0)
        for x in (-5.0, 0.0, 17.3):
            assert f_derivative(b, x) == -1.0

    def test_zero_at_minimizer(self):
        b = BaseParameter(0.9)
        assert abs(f_derivative(b, x_star(b))) <= 1e-10

    def test_central_difference_oracle(self):
        b = BaseParameter(1.2)
        h = 1e-6
        fd = (f_value(b, 3.0 + h) - f_value(b, 3.0 - h)) / (2.0 * h)
        assert abs(f_derivative(b, 3.0) - fd) <= 1e-6

    def test_saturation_sign_follows_x(self):
        assert f_derivative(BaseParameter(10.0), 1e6) == math.inf
        assert f_derivative(BaseParameter(10.0), -1e6) == -math.inf

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError):
            f_derivative(BaseParameter(0.0), 1.0)


class TestUnitBaseAtInfinity:
    """At a = 1, f is 2 - x and f' is -1 for every x: x * ln a is nan at
    infinite x, which must not leak into either value."""

    @pytest.mark.parametrize("x", [math.inf, -math.inf, 1e308, -1e308, 0.0])
    def test_affine_values(self, x):
        b = BaseParameter(1.0)
        assert f_value(b, x) == 2.0 - x
        assert f_derivative(b, x) == -1.0
        assert _f_and_derivative(b, x) == (2.0 - x, -1.0)


def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def _ulp_errors(base, x, f, d):
    """Errors of (f, f') at x against 60-digit mpmath, in the units of
    TestEvaluationAccuracy.  An f' beyond the double range must be that
    infinity (error 0), else the error is inf."""
    t = base.ln_a
    with mpmath.workdps(60):
        w = mpmath.mpf(x) * mpmath.mpf(t)
        ref = 2 * mpmath.cosh(w) - x
        ref_d = 2 * mpmath.mpf(t) * mpmath.sinh(w) - 1
        wf = float(w)
        unit_f = 1.5 * (math.ulp(2.0 * math.cosh(wf)) + math.ulp(float(ref)))
        err_f = float(abs(f - ref)) / unit_f
        if math.isinf(float(ref_d)):
            return err_f, 0.0 if d == float(ref_d) else math.inf
        unit_d = 2.0 * (1.0 + abs(wf)) * max(
            math.ulp(2.0 * abs(t * math.sinh(wf))), math.ulp(1.0)
        )
        return err_f, float(abs(d - ref_d)) / unit_d


class TestFAndDerivative:
    """The solvers' kernel, the one evaluator of f and f', against its
    documented rare cases exactly and against mpmath elsewhere."""

    @staticmethod
    def _bases(rng):
        c = critical_constants()
        bases = [1.0, c.a_min, c.a_max, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]
        bases += [rng.uniform(0.6, 1.5) for _ in range(120)]
        bases += [rng.uniform(1e-6, 1e6) for _ in range(20)]
        for k in range(40):  # near-unit, both sides
            t = 10.0 ** rng.uniform(-16.0, -2.0)
            bases.append(math.exp(t if k % 2 else -t))
        for k in range(40):  # near either tangent edge
            t = c.tangent_log * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0))
            bases.append(math.exp(t if k % 2 else -t))
        return [BaseParameter(a) for a in bases]

    @staticmethod
    def _xs(rng, base):
        xs = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
              2.2250738585072014e-308, 1e308, -1e308, 1.4e300, -1.4e300, 2.0]
        if base.ln_a != 0.0:  # either side of the cosh saturation
            edge = 709.0 / abs(base.ln_a)
            xs += [edge, -edge, math.nextafter(edge, 0.0), -math.nextafter(edge, 0.0)]
        xs += [rng.uniform(-50.0, 50.0) for _ in range(200)]
        xs += [math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5)
               for _ in range(250)]
        return xs

    @staticmethod
    def _rare_case(base, x):
        """The documented value of (f, f') at a rare point, else None."""
        t = base.ln_a
        w = x * t
        if t == 0.0 or w == 0.0:  # a = 1 gives (nan, -1) at a nan x
            return 2.0 - x, -1.0
        if math.isnan(x):
            return math.nan, math.nan
        if abs(w) >= 709.0:
            return math.inf, math.copysign(math.inf, x)
        return None

    def test_rare_cases_exact_and_others_within_a_few_ulp(self):
        rng = random.Random(1301)
        rare = 0
        ordinary = []
        for base in self._bases(rng):
            for x in self._xs(rng, base):
                pair = _f_and_derivative(base, x)
                want = self._rare_case(base, x)
                if want is None:
                    ordinary.append((base, x, pair))
                    continue
                assert _bits(*pair) == _bits(*want), (base, x, pair, want)
                rare += 1
        assert rare >= 20_000 and len(ordinary) >= 50_000
        for base, x, pair in rng.sample(ordinary, 3000):
            err_f, err_d = _ulp_errors(base, x, *pair)
            assert err_f <= 1.0 and err_d <= 1.0, (base, x, err_f, err_d)

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError):
            _f_and_derivative(BaseParameter(0.0), 1.0)


class TestEvaluationAccuracy:
    """f_value and f_derivative against 60-digit mpmath, with ln a taken as
    the double ``base.ln_a``: what is measured is the evaluation error, not
    the rounding of ln a.  Without the compensated product's correction
    ``2*sinh(w)*w_err``, f is off by up to about 160 of the units below."""

    @staticmethod
    def _bases(rng):
        c = critical_constants()
        bases = [c.a_min, c.a_max]
        for k in range(40):  # both sides of a = 1
            t = rng.uniform(4e-3, c.tangent_log)
            bases.append(math.exp(t if k % 2 else -t))
        for k in range(40):  # near-unit
            t = 10.0 ** rng.uniform(-12.0, -2.0)
            bases.append(math.exp(t if k % 2 else -t))
        return [BaseParameter(a) for a in bases]

    @staticmethod
    def _xs(rng, base):
        ws = [rng.uniform(-708.0, 708.0) for _ in range(20)]
        ws += [math.copysign(10.0 ** rng.uniform(-8.0, math.log10(708.0)),
                             rng.random() - 0.5) for _ in range(40)]
        xs = [w / base.ln_a for w in ws]
        if classify(base).tag is ClassificationTag.TWO_ROOTS:  # f cancels near roots
            for bracket in (bounds_x1(), bounds_x2_initial(base)):
                x, _ = bisect(base, bracket)
                xs += [x, x * (1.0 + 1e-9), x * (1.0 - 1e-9), x * 1.01]
        return xs

    def test_within_a_few_ulp_of_mpmath(self):
        rng = random.Random(1401)
        for base in self._bases(rng):
            for x in self._xs(rng, base):
                err_f, err_d = _ulp_errors(base, x, f_value(base, x), f_derivative(base, x))
                assert err_f <= 1.0 and err_d <= 1.0, (base, x, err_f, err_d)


class TestXStar:
    def test_table_value_09(self):
        assert abs(x_star(BaseParameter(0.9)) - 21.4624) <= 5e-4

    def test_table_value_139(self):
        assert abs(x_star(BaseParameter(1.39)) - 3.6589) <= 5e-4

    def test_reciprocal_symmetry(self):
        a = 1.25
        assert x_star(BaseParameter(a)) == pytest.approx(
            x_star(BaseParameter(1.0 / a)), rel=1e-12
        )

    def test_always_positive(self):
        for a in (0.2, 0.75, 1.3, 7.0):
            assert x_star(BaseParameter(a)) > 0.0

    def test_rejects_unit_and_zero_base(self):
        with pytest.raises(ValueError):
            x_star(BaseParameter(1.0))
        with pytest.raises(ValueError):
            x_star(BaseParameter(0.0))


class TestClassify:
    def test_no_root_below_interval(self):
        assert classify(BaseParameter(0.6)).tag is ClassificationTag.NO_ROOT

    def test_no_root_above_interval(self):
        assert classify(BaseParameter(2.0)).tag is ClassificationTag.NO_ROOT

    def test_unit_base(self):
        outcome = classify(BaseParameter(1.0))
        assert outcome.tag is ClassificationTag.UNIT_BASE
        assert outcome.root == 2.0
        assert outcome.root_count == 1

    def test_zero_base_flagged_as_convention(self):
        outcome = classify(BaseParameter(0.0))
        assert outcome.tag is ClassificationTag.ZERO_BASE
        assert outcome.root == 0.0
        assert outcome.by_convention

    def test_tangent_at_critical_bases(self):
        c = critical_constants()
        for a in (c.a_min, c.a_max):
            outcome = classify(BaseParameter(a))
            assert outcome.tag is ClassificationTag.TANGENT_ROOT
            assert abs(outcome.root - 3.62034) <= 5e-6

    def test_tangency_band_is_relative_in_exponent_space(self):
        c = critical_constants()
        inside = BaseParameter(math.exp(c.tangent_log * (1.0 + 5e-10)))
        outside = BaseParameter(math.exp(c.tangent_log * (1.0 + 5e-9)))
        assert classify(inside).tag is ClassificationTag.TANGENT_ROOT
        assert classify(outside).tag is ClassificationTag.NO_ROOT

    def test_eight_digit_rounded_edge_bases(self):
        # the 8-digit roundings of the critical bases fall outside the
        # tangency band: one lands just below a_min (root-free), the other
        # just inside a_max (two nearby roots)
        assert classify(BaseParameter(0.71793825)).tag is ClassificationTag.NO_ROOT
        assert classify(BaseParameter(1.39287744)).tag is ClassificationTag.TWO_ROOTS

    def test_two_roots_payload(self):
        outcome = classify(BaseParameter(0.9))
        assert outcome.tag is ClassificationTag.TWO_ROOTS
        assert outcome.root_count == 2
        b1, b2 = outcome.brackets
        assert b1.provenance is BracketProvenance.AFFINE_MINORANT
        assert b2.provenance is BracketProvenance.MINIMIZER_BASED


class TestRootBracket:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            RootBracket(2.0, 2.0, BracketProvenance.ORACLE_SCAN)
        with pytest.raises(ValueError):
            RootBracket(3.0, 2.0, BracketProvenance.ORACLE_SCAN)

    def test_midpoint_and_width(self):
        b = RootBracket(2.0, 4.0, BracketProvenance.ORACLE_SCAN)
        assert b.midpoint == 3.0
        assert b.width == 2.0

    def test_message_and_replace_check_the_order(self):
        message = r"^bracket requires lo < hi, got \[3.0, 2.0\]$"
        with pytest.raises(ValueError, match=message):
            RootBracket(3.0, 2.0, BracketProvenance.ORACLE_SCAN)
        scan = BracketProvenance.ORACLE_SCAN
        b = RootBracket(lo=2.0, hi=4.0, provenance=scan)
        assert b._replace(hi=5.0) == RootBracket(2.0, 5.0, scan)
        with pytest.raises(ValueError, match="lo < hi"):
            b._replace(hi=1.0)

    @pytest.mark.parametrize(
        "lo, hi", [(21.0, math.inf), (-math.inf, 21.0), (-math.inf, math.inf)]
    )
    def test_infinite_ends_are_rejected(self, lo, hi):
        # an infinite end used to reach bisect, whose first midpoint equals it,
        # so it returned that end as a root
        message = rf"^bracket requires finite ends, got \[{lo}, {hi}\]$"
        scan = BracketProvenance.ORACLE_SCAN
        with pytest.raises(ValueError, match=message):
            RootBracket(lo, hi, scan)
        with pytest.raises(ValueError, match=message):
            RootBracket(2.0, 22.0, scan)._replace(lo=lo, hi=hi)


# classify(BaseParameter(0.9)) as the frozen dataclasses printed it
CLASSIFY_09_REPR = (
    "SolutionClassification(tag=<ClassificationTag.TWO_ROOTS: 'two_roots'>, "
    "root=None, brackets=(RootBracket(lo=2.0, hi=3.6203411613979544, "
    "provenance=<BracketProvenance.AFFINE_MINORANT: 'affine_minorant'>), "
    "RootBracket(lo=21.4623831288115, hi=40.924766257623, "
    "provenance=<BracketProvenance.MINIMIZER_BASED: 'minimizer_based'>)))"
)


class TestRecords:
    """The bracket and classification records are immutable NamedTuples
    that print, hash and default as the frozen dataclasses before them."""

    def test_repr_text(self):
        assert repr(classify(BaseParameter(0.9))) == CLASSIFY_09_REPR
        assert repr(classify(BaseParameter(1.0))) == (
            "SolutionClassification(tag=<ClassificationTag.UNIT_BASE: "
            "'unit_base'>, root=2.0, brackets=None)"
        )

    def test_immutable(self):
        outcome = classify(BaseParameter(0.9))
        for record in (outcome, outcome.brackets[1]):
            for name in (record._fields[1], "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 1.0)

    def test_hash_is_the_field_tuples(self):
        outcome = classify(BaseParameter(0.9))
        assert hash(outcome) == hash(tuple(outcome))
        assert hash(outcome.brackets[1]) == hash(tuple(outcome.brackets[1]))
        assert {outcome, classify(BaseParameter(0.9))} == {outcome}

    def test_defaults_and_properties(self):
        bare = SolutionClassification(ClassificationTag.NO_ROOT)
        assert bare.root is None and bare.brackets is None
        assert bare.root_count == 0 and not bare.by_convention
        assert SolutionClassification(ClassificationTag.ZERO_BASE, 0.0).by_convention
        tangent = SolutionClassification(ClassificationTag.TANGENT_ROOT, 3.6)
        assert tangent.root_count == 1
        assert classify(BaseParameter(0.9)).root_count == 2

    def test_equal_to_plain_tuple(self):
        b = RootBracket(2.0, 4.0, BracketProvenance.ORACLE_SCAN)
        assert b == (2.0, 4.0, BracketProvenance.ORACLE_SCAN)


class TestBoundsX1:
    def test_universal_interval(self):
        b = bounds_x1()
        assert b.lo == 2.0
        assert abs(b.hi - 3.62034) <= 5e-6

    @pytest.mark.parametrize("x1_ref", [2.5738, 2.0467])
    def test_table_roots_inside(self, x1_ref):
        b = bounds_x1()
        assert b.lo < x1_ref < b.hi


class TestBoundsX2Initial:
    def test_table_value_09(self):
        b = bounds_x2_initial(BaseParameter(0.9))
        assert abs(b.lo - 21.4624) <= 5e-4
        assert abs(b.hi - 40.9248) <= 5e-4

    def test_table_value_108(self):
        b = bounds_x2_initial(BaseParameter(1.08))
        assert abs(b.lo - 33.3978) <= 5e-4
        assert abs(b.hi - 64.7955) <= 5e-4

    def test_width_is_x_star_minus_two(self):
        for a in (0.75, 0.9, 1.08, 1.3):
            b = bounds_x2_initial(BaseParameter(a))
            xs = x_star(BaseParameter(a))
            assert b.width == pytest.approx(xs - 2.0, rel=1e-12)
            assert b.width > 0.0

    def test_rejects_outside_regime(self):
        with pytest.raises(ValueError):
            bounds_x2_initial(BaseParameter(2.0))
        with pytest.raises(ValueError):
            bounds_x2_initial(BaseParameter(0.5))
        with pytest.raises(ValueError):
            bounds_x2_initial(BaseParameter(1.0))


class TestBoundsX2Refined:
    def test_table_value_09(self):
        b = bounds_x2_refined(BaseParameter(0.9), 2.0467)
        assert abs(b.lo - 31.1702) <= 5e-4
        assert abs(b.hi - 40.8781) <= 5e-4

    def test_table_value_139(self):
        b = bounds_x2_refined(BaseParameter(1.39), 3.3144)
        assert abs(b.lo - 3.8312) <= 5e-4
        assert abs(b.hi - 4.0035) <= 5e-4

    def test_strictly_inside_initial(self):
        base = BaseParameter(0.75)
        outer = bounds_x2_initial(base)
        inner = bounds_x2_refined(base, 2.5738)
        assert outer.lo < inner.lo and inner.hi < outer.hi

    def test_rejects_x1_outside_range(self):
        base = BaseParameter(0.9)
        xs = x_star(base)
        for bad in (2.0, 1.5, xs, xs + 1.0):
            with pytest.raises(ValueError):
                bounds_x2_refined(base, bad)
