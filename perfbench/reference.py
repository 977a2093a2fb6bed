"""Independent 50-digit reference for the benchmark's correctness check.

Nothing here imports coshroots.  The constant q (coth q = q), the
critical slope T = 1/(2 sinh q) and the tangent abscissa 2 cosh q are
computed with mpmath; each base is classified by comparing |ln a| with T
in 170-bit arithmetic, and each returned root is polished by Newton's
method on f(x) = 2 cosh(x ln a) - x at the same precision.

The classification follows the library's documented tolerances, not its
code: |ln a| <= 1e-12 is the unit base, | |ln a| * 2 sinh q - 1 | <= 1e-9
is the tangent band.  A returned root is correct when it lies on the
right side of the minimiser and its exact residual |f(x)| is within the
1e-12 contract plus the error any double-precision evaluation of f at x
can make (ln a rounded to double shifts x ln a by up to |x ln a| * 2**-53,
and cosh and the subtraction each round); a tangent root must meet the
double-root contract |f| <= 1e-6.  Separately, a root that misses the
strict contract -- |f(x)| <= 1e-12 exactly, or the nearest double to the
true root -- is counted as a strict miss: that is a known accuracy limit
of the library for large x2, reported rather than failed.

The raw mpmath.libmp routines are used instead of mpf objects because the
check polishes every returned root and the object layer costs about three
times as much.
"""

from __future__ import annotations

import math

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_sub,
    to_float,
)

PREC = 170  # bits, about 51 decimal digits

UNIT_BASE_EPS = 1e-12
TANGENCY_EPS = 1e-9
ABS_TOL = 1e-12
TANGENT_ABS_TOL = 1e-6

ZERO_BASE = "zero_base"
UNIT_BASE = "unit_base"
NO_ROOT = "no_root"
TANGENT_ROOT = "tangent_root"
TWO_ROOTS = "two_roots"


def _constants() -> tuple[tuple, tuple]:
    with mpmath.workdps(60):
        q = mpmath.findroot(lambda t: mpmath.coth(t) - t, mpmath.mpf("1.2"))
        return (2 * mpmath.sinh(q))._mpf_, (2 * mpmath.cosh(q))._mpf_


_TWO_SINH_Q, _X_DAGGER = _constants()
_HALF_TOL = from_float(TANGENCY_EPS)

#: Critical constants rounded to double, for the input generators.
TANGENT_LOG = to_float(mpf_div(fone, _TWO_SINH_Q, PREC))
A_MIN = math.exp(-TANGENT_LOG)
A_MAX = math.exp(TANGENT_LOG)
X_DAGGER = to_float(_X_DAGGER)


class BaseRef:
    """High-precision facts about one double base ``a``."""

    __slots__ = ("a", "ln_a", "tag", "strict_misses")

    def __init__(self, a: float):
        self.a = a
        self.strict_misses = 0
        if a == 0.0:
            self.ln_a = None
            self.tag = ZERO_BASE
            return
        ln_a = mpf_log(from_float(a), PREC)
        self.ln_a = ln_a
        t = to_float(mpf_abs(ln_a))
        if t <= UNIT_BASE_EPS:
            self.tag = UNIT_BASE
            return
        r = mpf_sub(mpf_mul(mpf_abs(ln_a), _TWO_SINH_Q, PREC), fone, PREC)
        if mpf_cmp(mpf_abs(r), _HALF_TOL) <= 0:
            self.tag = TANGENT_ROOT
        elif mpf_cmp(r, fzero) > 0:
            self.tag = NO_ROOT
        else:
            self.tag = TWO_ROOTS

    @property
    def root_count(self) -> int:
        return {NO_ROOT: 0, TWO_ROOTS: 2}.get(self.tag, 1)

    def _f(self, x):
        """(f(x), f'(x)) at PREC bits for an mpf x."""
        e = mpf_exp(mpf_mul(x, self.ln_a, PREC), PREC)
        ei = mpf_div(fone, e, PREC)
        f = mpf_sub(mpf_add(e, ei, PREC), x, PREC)
        fp = mpf_sub(mpf_mul(self.ln_a, mpf_sub(e, ei, PREC), PREC), fone, PREC)
        return f, fp

    def check_root(self, x: float, index: int) -> tuple[str | None, float | None]:
        """Check returned root number ``index`` (0 or 1) at ``x``.

        Returns ``(problem, ulp_error)``: ``problem`` is None when the root
        is correct, else a one-line reason; ``ulp_error`` is the distance
        to the true root in units of ``math.ulp(x)`` (None for the zero
        base, whose root is a convention).  Counts strict misses in ``self.strict_misses``.
        """
        if x is None or not math.isfinite(x):
            return f"root {index + 1} missing or not finite ({x!r})", None
        if self.tag == ZERO_BASE:
            return (None if x == 0.0 else f"zero base root {x!r} != 0"), None
        if index >= self.root_count:
            return f"extra root {index + 1} for a {self.tag} base", None
        ulp = math.ulp(x)
        if self.tag == TANGENT_ROOT:
            err = abs(to_float(mpf_sub(from_float(x), _X_DAGGER, PREC))) / ulp
            f, _ = self._f(from_float(x))
            if abs(to_float(f)) > TANGENT_ABS_TOL:
                return f"tangent root {x!r} has |f| = {to_float(f):.3e}", err
            return None, err
        if self.tag == UNIT_BASE:
            err = abs(x - 2.0) / ulp
            return (None if x == 2.0 else f"unit base root {x!r} != 2"), err

        xm = from_float(x)
        f, fp = self._f(xm)
        residual = abs(to_float(f))
        # x1 lies left of the minimiser (f' < 0), x2 right of it (f' > 0).
        side = mpf_cmp(fp, fzero)
        if (index == 0 and side >= 0) or (index == 1 and side <= 0):
            return f"root {index + 1} {x!r} is on the wrong side of x*", None
        xt = xm
        for _ in range(60):
            step = mpf_div(f, fp, PREC)
            xt = mpf_sub(xt, step, PREC)
            # one more step would move xt by about step**2 * f''/f', far
            # below an ulp of x once step is this small
            if abs(to_float(step)) <= abs(x) * 2.0**-40:
                break
            f, fp = self._f(xt)
        err = abs(to_float(mpf_sub(xm, xt, PREC))) / ulp
        if residual > ABS_TOL and err > 0.5:
            self.strict_misses += 1
            w = abs(x * to_float(self.ln_a))
            allowance = 2.0**-52 * (w * 2.0 * math.sinh(w) + 4.0 * math.cosh(w) + abs(x))
            if residual > ABS_TOL + allowance:
                return (
                    f"root {index + 1} {x!r}: |f| = {residual:.3e} exceeds "
                    f"{ABS_TOL:g} + {allowance:.3e} and is {err:.3g} ulp from "
                    "the true root",
                    err,
                )
        return None, err

    def check(self, tag: str, roots: list) -> tuple[str | None, list[float]]:
        """Check a classification tag and its ordered root list.

        Returns ``(problem, ulp_errors)``.
        """
        if tag != self.tag:
            return f"classified {tag}, reference says {self.tag}", []
        errs: list[float] = []
        if len(roots) != self.root_count:
            return f"{len(roots)} roots, reference says {self.root_count}", errs
        for i, x in enumerate(roots):
            problem, err = self.check_root(x, i)
            if err is not None:
                errs.append(err)
            if problem is not None:
                return problem, errs
        return None, errs
