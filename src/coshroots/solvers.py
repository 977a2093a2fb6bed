"""Root solvers: reference bisection, safeguarded Halley, and dispatch.

The safeguarded iteration maintains a sign-change bracket and takes
Halley steps, which cost no extra evaluation because
f''(x) = (ln a)**2 * (f(x) + x); each step evaluates f and f' together
with ``core._f_and_derivative``, one sinh and one cosh.  It falls back to
a Newton step where the Halley denominator is small or the Halley step
would leave the bracket, and to a bisection step whenever the Newton
step would leave the bracket, the derivative degenerates, or progress is
too slow.  Once |f| meets the
tolerance it returns the point one Newton step further on, so stopping
early costs no accuracy.  Convexity of f(x) = 2*cosh(x*ln a) - x
guarantees at most one sign change inside each analytic bracket.
One generator, ``_roots``, solves a classified base's roots in order,
from the seeds ``_seed`` picks (Aitken-accelerated fixed-point steps,
which mostly meet the residual target already), for both ``solve_all``
and the CLI sweep.
The paper's bounds fix the sign of f at every bracket end, so ``_roots``
evaluates f at none: it passes the orientation (``lo_negative``) and takes
x2's refined bracket by |ln a| alone where it holds, 0.0409691599599 <
|ln a| < T.

Also houses the Lambert-W baseline for the simpler fixed-point family
a**x = x, solved in closed form as x = -W(-ln a)/ln(a) on the principal
branch.

All functions are pure and the reports (``NamedTuple``s) are immutable
values, so concurrent solves are safe.  The one setting is ``abs_tol``, the
absolute residual target |f(x)| of ``newton_refine`` and ``solve_all``, a
plain float that defaults to 1e-12.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .core import (
    BaseParameter,
    ClassificationTag,
    RootBracket,
    SolutionClassification,
    _f_and_derivative,
    bounds_x2_refined,
    classify,
    critical_constants,
    f_derivative,  # unused; perfbench/tracer.py wraps solvers.f_derivative
    f_value,
    x_star,
)

__all__ = [
    "RootResult",
    "SolveReport",
    "SolverError",
    "BracketError",
    "ConvergenceError",
    "bisect",
    "newton_refine",
    "solve_all",
    "lambert_w_principal",
    "solve_exp_fixed_point",
]

# Outward widening applied to each analytic (open-interval) bracket
# endpoint so a root sitting on the boundary still produces a numerical
# sign change.
_BRACKET_MARGIN = 1e-12

# Default residual target |f(x)| of newton_refine and solve_all.
_ABS_TOL = 1e-12

# Step budget of bisect and newton_refine; exhausting it raises ConvergenceError.
_MAX_ITER = 200

# Residual target and iteration budget of the Lambert-W Halley loop.
_W_ABS_TOL = 1e-12
_W_MAX_ITER = 200

# Relative distance (T - |ln a|)/T below which solve_all seeds both roots
# from the quadratic model of f at its minimiser.
_TANGENT_SEED_BAND = 0.05

# x2's refined bracket holds exactly for t0 < |ln a| < T: its lower end meets
# x2 only at t0 = 0.040969159959903385 (200-bit mpmath bisection, pinned in
# tests/test_reference_values.py), here rounded up so it is never used below t0.
_REFINED_MIN_LOG = 0.04096916

# Rounds of Aitken's delta-squared, each over two fixed-point steps, that
# seed each root outside the tangent-model band (see ``_seed``).
_AITKEN_ROUNDS = 3

# A Halley denominator below this (a step more than twice Newton's) is
# not trusted; the Newton step is taken instead.
_HALLEY_MIN_DENOM = 0.5


class RootResult(NamedTuple):
    """One solved root: location, signed residual f(x), iteration count,
    and the bracket that produced it (None for analytic shortcuts)."""

    x: float
    residual: float
    iterations: int
    bracket: RootBracket | None


class SolveReport(NamedTuple):
    """Full outcome of solve_all: classification, roots sorted ascending
    (two entries for the two-root regime, one for the analytic single-root
    cases, none when no root exists)."""

    classification: SolutionClassification
    roots: tuple[RootResult, ...]


class SolverError(Exception):
    """Base class for structured solver failures."""


class BracketError(SolverError):
    """The bracket endpoints do not straddle a sign change.

    ``tangent_suspected`` distinguishes "the interior minimum sits at
    ~zero, this looks like a double root" from "no root in bracket" and
    "two roots in bracket"; the message names which.
    """

    def __init__(
        self,
        message: str,
        bracket: RootBracket,
        f_lo: float,
        f_hi: float,
        tangent_suspected: bool,
    ):
        super().__init__(message)
        self.bracket = bracket
        self.f_lo = f_lo
        self.f_hi = f_hi
        self.tangent_suspected = tangent_suspected


class ConvergenceError(SolverError):
    """Iteration budget exhausted (or progress stalled at machine
    resolution) before meeting the residual target; carries the best
    iterate seen."""

    def __init__(
        self,
        message: str,
        best_x: float,
        best_residual: float,
        iterations: int,
        bracket: RootBracket | None,
    ):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual
        self.iterations = iterations
        self.bracket = bracket


def _widened(bracket: RootBracket) -> tuple[float, float]:
    lo, hi, _ = bracket
    abs_lo, abs_hi = abs(lo), abs(hi)
    # conditionals, not max(1.0, ...): a builtin call costs more per solve
    lo -= _BRACKET_MARGIN * (abs_lo if abs_lo > 1.0 else 1.0)
    hi += _BRACKET_MARGIN * (abs_hi if abs_hi > 1.0 else 1.0)
    return lo, hi


def _oriented(
    base: BaseParameter, bracket: RootBracket, abs_tol: float
) -> tuple[float, float]:
    """Widened bracket ends (xl, xh) with f(xl) < 0 < f(xh), or (x, x) for
    an end x where f(x) == 0; BracketError where f has one sign at both."""
    lo, hi = _widened(bracket)
    f_lo = f_value(base, lo)
    f_hi = f_value(base, hi)
    if f_lo == 0.0:
        return lo, lo
    if f_hi == 0.0:
        return hi, hi
    if (f_lo > 0.0) != (f_hi > 0.0):
        return (lo, hi) if f_lo < 0.0 else (hi, lo)
    # f is convex: both endpoints positive with an interior minimum near
    # zero is the signature of a (near-)double root, invisible to sign
    # tests, and with a negative one of two roots.  Both endpoints
    # negative cannot hide a root.  (At a = 0, f_lo has raised ValueError.)
    tangent_suspected = False
    kind = "no root in bracket"
    if f_lo > 0.0 and f_hi > 0.0 and base.ln_a != 0.0:
        probe = x_star(base)
        if not (bracket.lo < probe < bracket.hi):
            probe = bracket.midpoint  # f is monotone here: f(probe) > 0
        f_min = f_value(base, probe)
        tangent_suspected = abs(f_min) <= math.sqrt(abs_tol)
        if tangent_suspected:
            kind = "tangent root suspected (interior minimum ~ 0)"
        elif f_min < 0.0:
            kind = "two roots in bracket (f < 0 at the interior minimum)"
    raise BracketError(
        f"f has the same sign at both endpoints of [{bracket.lo}, {bracket.hi}] "
        f"(f_lo={f_lo:.3e}, f_hi={f_hi:.3e}): {kind}",
        bracket,
        f_lo,
        f_hi,
        tangent_suspected,
    )


def bisect(base: BaseParameter, bracket: RootBracket) -> tuple[float, int]:
    """Bisection on a sign-change bracket, down to adjacent doubles.

    Returns (x, iterations) once the midpoint rounds to an endpoint, so f
    changes sign between x and a neighbouring double (or f(x) == 0).
    Raises BracketError when f does not change sign across the (slightly
    widened) bracket, and ConvergenceError after 200 steps.  The library
    itself solves with ``newton_refine``; this stays public as the
    independent reference its tests check it by.
    """
    xl, xh = _oriented(base, bracket, _ABS_TOL)
    if xl == xh:
        return xl, 0

    iterations = 0
    while True:
        mid = 0.5 * (xl + xh)
        if mid == xl or mid == xh:
            return mid, iterations
        if iterations >= _MAX_ITER:
            raise ConvergenceError(
                f"bisection exceeded {_MAX_ITER} iterations on "
                f"[{bracket.lo}, {bracket.hi}]",
                mid,
                abs(f_value(base, mid)),
                iterations,
                bracket,
            )
        fm = f_value(base, mid)
        iterations += 1
        if fm == 0.0:
            return mid, iterations
        if fm < 0.0:
            xl = mid
        else:
            xh = mid


def newton_refine(
    base: BaseParameter,
    seed: float,
    bracket: RootBracket,
    abs_tol: float = _ABS_TOL,
    *,
    lo_negative: bool | None = None,
) -> tuple[float, int, float]:
    """Safeguarded Halley iteration inside a sign-change bracket.

    Without ``lo_negative`` it first evaluates f at both widened bracket
    ends: it returns an end where f is zero, and raises BracketError where f
    has one sign at both.  With it the caller vouches that f < 0 at the
    lower (True) or upper (False) end, and neither end is evaluated.

    The seed and every iterate are evaluated once, f and f' together
    (``core._f_and_derivative``).  Each step is Halley's
    h / (1 - h*f''/(2f')) with h = f/f' and f'' = (ln a)**2 * (f + x) taken
    from values already in hand.  Where the Halley denominator is below
    1/2 or the Halley step would leave the maintained bracket, the Newton
    step h is taken instead; any step that would leave the bracket, meet a
    degenerate derivative (|f'| < 1e-300), or fail to halve the step before
    last falls back to one bisection step.  Succeeds when |f(x)| <= abs_tol,
    returning x - f/f' (one more Newton step, already computed) when that
    point stays in the bracket, else x, as (x, iterations, residual).  The
    residual is ``f_value(base, x)``: the f already held where x was
    evaluated (an exact-zero end, a last Newton step that leaves x
    unchanged, the best iterate), else one more evaluation.  Raises
    ConvergenceError carrying the best iterate if the budget runs out or
    the bracket collapses to machine resolution first, and ValueError
    where ``abs_tol`` is not finite and positive.
    """
    if not 0.0 < abs_tol < math.inf:
        raise ValueError("tolerances must be finite and strictly positive")
    if not (bracket.lo <= seed <= bracket.hi):
        raise ValueError(
            f"seed {seed!r} lies outside bracket [{bracket.lo}, {bracket.hi}]"
        )
    if lo_negative is None:
        xl, xh = _oriented(base, bracket, abs_tol)
        if xl == xh:
            return xl, 0, 0.0
    else:
        lo, hi = _widened(bracket)
        xl, xh = (lo, hi) if lo_negative else (hi, lo)

    ln_a_sq = base.ln_a * base.ln_a
    x = float(seed)
    fx, dfx = _f_and_derivative(base, x)
    best_x, best_fx = x, fx
    step_prev = abs(xh - xl)
    step = step_prev
    iterations = 0

    while iterations < _MAX_ITER:
        if abs(fx) <= abs_tol:
            if dfx != 0.0:
                x_new = x - fx / dfx
                if x_new == x:
                    return x, iterations, fx
                if (x_new - xl) * (x_new - xh) <= 0.0:
                    return x_new, iterations, _f_and_derivative(base, x_new)[0]
            return x, iterations, fx
        force_bisect = (
            not math.isfinite(fx)
            or not math.isfinite(dfx)
            or abs(dfx) < 1e-300
            or ((x - xh) * dfx - fx) * ((x - xl) * dfx - fx) > 0.0
            or abs(2.0 * fx) > abs(step_prev * dfx)
        )
        step_prev = step
        if force_bisect:
            step = abs(0.5 * (xh - xl))
            x_new = xl + 0.5 * (xh - xl)
            if x_new == xl or x_new == xh:
                break  # bracket at machine resolution
        else:
            h = fx / dfx
            x_new = x - h
            denom = 1.0 - 0.5 * h * ln_a_sq * (fx + x) / dfx
            if denom >= _HALLEY_MIN_DENOM:
                x_halley = x - h / denom
                if (x_halley - xl) * (x_halley - xh) < 0.0:
                    x_new = x_halley
            step = abs(x_new - x)
            if x_new == x:
                break
        x = x_new
        fx, dfx = _f_and_derivative(base, x)
        iterations += 1
        if abs(fx) < abs(best_fx):
            best_x, best_fx = x, fx
        if fx < 0.0:
            xl = x
        else:
            xh = x

    best_f = abs(best_fx)
    if best_f <= abs_tol:
        return best_x, iterations, best_fx
    raise ConvergenceError(
        f"no iterate reached |f| <= {abs_tol:g} within {iterations} "
        f"iterations on [{bracket.lo}, {bracket.hi}] "
        f"(best x={best_x!r}, |f|={best_f:.3e})",
        best_x,
        best_f,
        iterations,
        bracket,
    )


def _tangent_model(base: BaseParameter) -> tuple[float, float] | None:
    """(x*, r), x* -+ r the roots of the quadratic model of f at its
    minimiser, r = sqrt(-2 f(x*) / f''(x*)), where (T - t)/T < 0.05 with
    t = |ln a| and T = 1/(2 sinh q) the tangent slope; else None."""
    t = abs(base.ln_a)
    if 1.0 - t * 2.0 * critical_constants().sinh_q >= _TANGENT_SEED_BAND:
        return None
    xs = x_star(base)
    f_xs = f_value(base, xs)
    return xs, math.sqrt(max(0.0, -2.0 * f_xs / (t * t * (f_xs + xs))))


def _seed(
    base: BaseParameter,
    bracket: RootBracket,
    model: tuple[float, float] | None,
    first: bool,
) -> float:
    """Starting point for ``newton_refine`` on a two-root base's analytic
    bracket for x1 (``first``) or x2, inside it.

    Near the tangent both roots come from ``_tangent_model``'s x* -+ r,
    clamped into the bracket.  Elsewhere each root is a fixed point of the
    equation itself: x1 of x = 2*cosh(t*x), from x = 2, and x2 of
    x = acosh(x/2)/t, from its bracket's midpoint (t = |ln a|).  Both maps
    contract towards their root, linearly, so ``_AITKEN_ROUNDS`` rounds of
    Aitken's delta-squared over two steps each (Aitken 1926; Steffensen
    1933) converge quadratically.  Each round's result is clamped into the
    bracket; x2's lies above x* > 2, and the map takes each point there to
    one between it and x2, so acosh is never given an argument below 1.  A
    round whose second difference is 0 takes its last step instead.
    """
    lo, hi, _ = bracket
    if model is not None:
        xs, r = model
        x = xs - r if first else xs + r
        return lo if x < lo else hi if x > hi else x
    t = abs(base.ln_a)
    acosh, cosh = math.acosh, math.cosh
    x = 2.0 if first else 0.5 * (lo + hi)
    for _ in range(_AITKEN_ROUNDS):
        if first:
            y = 2.0 * cosh(t * x)
            z = 2.0 * cosh(t * y)
        else:
            y = acosh(0.5 * x) / t
            z = acosh(0.5 * y) / t
        d = z - 2.0 * y + x
        x = x - (y - x) * (y - x) / d if d != 0.0 else z
        x = lo if x < lo else hi if x > hi else x
    return x


def _second_root_bracket(
    base: BaseParameter, x1: float, initial: RootBracket
) -> RootBracket:
    """Pick the bracket for the second root once the first is solved.

    The refined interval's lower end 1.5*x_star - x1/2 lies below the root
    only for t0 = 0.0409691599599034 < |ln a| < T, so it is taken iff |ln a|
    exceeds that pinned threshold (``_REFINED_MIN_LOG``), with no f-call;
    else the always valid initial one, as where x1 rounds to exactly 2.0.
    """
    if not (2.0 < x1 < initial.lo):
        return initial
    # built for every x2 solve, so perfbench's refined_frac counts each one
    refined = bounds_x2_refined(base, x1)
    return refined if abs(base.ln_a) > _REFINED_MIN_LOG else initial


def _roots(
    base: BaseParameter, outcome: SolutionClassification, abs_tol: float = _ABS_TOL
) -> Iterator[RootResult]:
    """Yield each root ``outcome`` implies, ascending, as soon as it is solved.

    No-root bases yield nothing; unit/zero/tangent bases yield their
    analytic root without iteration (the zero-base root is the
    conventional x = 0, with residual reported as nan since f is undefined
    at a = 0).  Two-root bases solve x1 on its universal bracket first,
    then x2 on the refined bracket that knowing x1 unlocks where it is
    valid, each from the seed ``_seed`` picks and with the orientation
    f(2) > 0 > f(2 cosh q), f(x*) < 0 < f(2x* - x1) < f(2x* - 2) proves.
    Solver failures propagate with the offending bracket attached.
    """
    tag = outcome.tag
    if tag is ClassificationTag.TWO_ROOTS:
        b1, b2_initial = outcome.brackets
        quad = _tangent_model(base)
        x1, it1, f1 = newton_refine(
            base, _seed(base, b1, quad, True), b1, abs_tol, lo_negative=False
        )
        yield RootResult(x1, f1, it1, b1)
        b2 = _second_root_bracket(base, x1, b2_initial)
        x2, it2, f2 = newton_refine(
            base, _seed(base, b2, quad, False), b2, abs_tol, lo_negative=True
        )
        yield RootResult(x2, f2, it2, b2)
    elif tag is not ClassificationTag.NO_ROOT:  # zero, unit or tangent base
        x = outcome.root
        residual = math.nan if outcome.by_convention else f_value(base, x)
        # double root: |f| scales with the square of the x-error, so the
        # acceptance bound here is sqrt(abs_tol), not abs_tol
        tol = math.sqrt(abs_tol)
        if tag is ClassificationTag.TANGENT_ROOT and abs(residual) > tol:
            raise ConvergenceError(
                f"tangent-root residual {residual:.3e} exceeds "
                f"sqrt(abs_tol)={tol:.3e}",
                x,
                abs(residual),
                0,
                None,
            )
        yield RootResult(x, residual, 0, None)


def solve_all(base: BaseParameter, abs_tol: float = _ABS_TOL) -> SolveReport:
    """Classify the base and solve every root it implies to |f| <= abs_tol,
    as ``_roots`` does; ValueError where ``abs_tol`` is not finite and
    positive."""
    if not 0.0 < abs_tol < math.inf:
        raise ValueError("tolerances must be finite and strictly positive")
    outcome = classify(base)
    return SolveReport(outcome, tuple(_roots(base, outcome, abs_tol)))


def lambert_w_principal(z: float) -> float:
    """Principal branch W(z) of the Lambert W function, for z >= -1/e.

    Halley iteration from a standard region-dependent initial guess:
    log-based for large z, a short Maclaurin series near 0, and the
    square-root expansion in p = sqrt(2(e*z + 1)) near the branch point
    -1/e.  Succeeds when |w*e**w - z| <= 1e-12, or when the Halley step
    is at most 2 ulp of w, in which case it returns w minus that step.
    The absolute target serves |z| up to ~1e3; beyond ~1e4 the
    double-precision floor |e^w (1+w)| * ulp(w)/2 exceeds 1e-12, and the
    step test ends the iteration.  Where e^w (1+w) overflows (z above
    ~1.795e308) the step is taken in its e^-w-scaled form, so W is found
    up to the largest double; W(inf) is inf.
    """
    z = float(z)
    if math.isnan(z):
        raise ValueError("z must be a real number, got nan")
    neg_em1 = -math.exp(-1.0)
    if z < neg_em1:
        if z >= neg_em1 * (1.0 + 4e-16):
            z = neg_em1  # within rounding of the branch point
        else:
            raise ValueError(f"z={z!r} is below -1/e; W(z) is complex there")
    if z == neg_em1:
        return -1.0
    if z == math.inf:
        return math.inf  # W is increasing and unbounded

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

    for _ in range(_W_MAX_ITER):
        ew = math.exp(w)
        wp1 = w + 1.0
        if math.isinf(ew * wp1):
            # z within 0.2% of the largest double: take the same step with
            # the residual and its derivative scaled by e**-w
            fw = w - z * math.exp(-w)
            denom = wp1 - (w + 2.0) * fw / (2.0 * wp1)
        else:
            fw = w * ew - z
            if abs(fw) <= _W_ABS_TOL:
                return max(w, -1.0)
            denom = ew * wp1 - (w + 2.0) * fw / (2.0 * wp1)
            if denom == 0.0 or not math.isfinite(denom):
                denom = ew * wp1  # plain Newton fallback
        step = fw / denom
        if abs(step) <= 2.0 * math.ulp(w):
            return max(w - step, -1.0)
        w -= step
    raise ConvergenceError(
        f"Halley iteration for W({z!r}) did not reach |residual| <= "
        f"{_W_ABS_TOL:g} in {_W_MAX_ITER} iterations",
        w,
        abs(w * math.exp(w) - z),
        _W_MAX_ITER,
        None,
    )


def solve_exp_fixed_point(base: BaseParameter) -> float:
    """Solve a**x = x via the principal Lambert branch: x = -W(-ln a)/ln a.

    Defined for 0 < a <= e**(1/e) with a != 1 (for a > e**(1/e) the
    equation has no real solution on the principal branch; the second
    solution for 1 < a < e**(1/e), which lives on the W_{-1} branch, is
    out of scope).
    """
    if base.a == 0.0:
        raise ValueError("a must be positive")
    t = base.ln_a
    if t == 0.0:
        raise ValueError("the Lambert form -W(-ln a)/ln a is undefined at a = 1")
    inv_e = math.exp(-1.0)
    if t > inv_e * (1.0 + 4e-16):
        raise ValueError(
            f"a={base.a!r} exceeds e**(1/e) ~= {math.exp(inv_e):.8f}; "
            "a**x = x has no real solution on the principal branch"
        )
    w = lambert_w_principal(-t)
    return -w / t
