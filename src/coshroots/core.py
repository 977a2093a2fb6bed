"""Analytic structure of the root family a**x + a**(-x) = x.

For a base ``a > 0`` the equation is equivalent to ``f(x) = 0`` with

    f(x) = 2*cosh(x*ln(a)) - x

``f`` is strictly convex for ``a != 1``, so the equation has zero, one
(tangent), or two real roots depending on where ``|ln a|`` sits relative
to the critical slope ``1/(2*sinh(q))``, where ``q > 1`` is the unique
positive solution of ``coth(q) = q`` (a close relative of the Laplace
limit constant).  The critical bases are ``exp(±1/(2*sinh q))`` and the
tangent (double) root is ``x = 2*cosh(q)``.

This module holds the base/constant types, the function family and its
derivative, regime classification, and the analytic root brackets that
seed the solvers.  Everything here is pure and immutable; all functions
are safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "BaseParameter",
    "CriticalConstants",
    "ClassificationTag",
    "SolutionClassification",
    "BracketProvenance",
    "RootBracket",
    "compute_q",
    "critical_constants",
    "critical_interval",
    "f_value",
    "f_derivative",
    "x_star",
    "classify",
    "bounds_x1",
    "bounds_x2_initial",
    "bounds_x2_refined",
    "UNIT_BASE_EPS",
    "TANGENCY_EPS",
]

# |ln a| at or below this is treated as a == 1 (beyond it the second root
# exceeds ~1e12 and double-precision root finding is meaningless).
UNIT_BASE_EPS = 1e-12

# Relative tolerance, in exponent space, for detecting the tangent
# base: | |ln a| * 2 sinh q - 1 | <= eps.  Residual-based detection would be
# ill-conditioned at a double root (residual ~ eps**2).
TANGENCY_EPS = 1e-9

# cosh overflows just above 710; saturate before that.
_COSH_SATURATION = 709.0

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _two_product(x: float, y: float) -> tuple[float, float]:
    """Dekker product: p + e == x*y exactly (safe for |x*y| < ~1e291)."""
    p = x * y
    cx = _SPLIT * x
    hx = cx - (cx - x)
    lx = x - hx
    cy = _SPLIT * y
    hy = cy - (cy - y)
    ly = y - hy
    e = ((hx * hy - p) + hx * ly + lx * hy) + lx * ly
    return p, e


@dataclass(frozen=True)
class BaseParameter:
    """Validated base ``a >= 0`` with its cached natural log.

    ``ln_a`` is finite iff ``a > 0``; for ``a == 0`` it is ``-inf`` and the
    function family itself is undefined (classification still handles the
    case).  ``ln_a == 0.0`` iff ``a == 1``.
    """

    a: float
    ln_a: float = field(init=False)

    def __post_init__(self) -> None:
        a = float(self.a)
        if not math.isfinite(a) or a < 0.0:
            raise ValueError(f"base must be a finite real >= 0, got {self.a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "ln_a", math.log(a) if a > 0.0 else -math.inf)


def compute_q() -> float:
    """Solve coth(q) = q on [1, 2] to a residual of 1e-15.

    Bisection first (the bracket [1, 2] provably contains the root:
    coth(1) ~= 1.313 > 1 while coth(2) ~= 1.037 < 2), then Newton polish
    using d/dq [coth q - q] = -coth(q)**2.  Deterministic; returns
    q ~= 1.19967864 with |coth(q) - q| <= 1e-15.
    """

    def g(q: float) -> float:
        return 1.0 / math.tanh(q) - q

    lo, hi = 1.0, 2.0
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid

    q = 0.5 * (lo + hi)
    for _ in range(60):
        r = g(q)
        if abs(r) <= 1e-15:
            return q
        coth = 1.0 / math.tanh(q)
        q += r / (coth * coth)
    raise RuntimeError(
        "internal defect: coth(q)=q Newton polish failed to reach "
        f"tolerance 1e-15 (residual {g(q):.3e})"
    )


@dataclass(frozen=True)
class CriticalConstants:
    """The constants that organize the root structure, computed once.

    ``q`` solves ``coth(q) = q``; ``a_min = exp(-1/(2 sinh q))`` and
    ``a_max = exp(+1/(2 sinh q))`` delimit the two-root base interval;
    ``x_dagger = 2 cosh(q)`` is the tangent root at the interval edges.
    """

    q: float
    sinh_q: float
    a_min: float
    a_max: float
    x_dagger: float

    @classmethod
    def compute(cls) -> "CriticalConstants":
        q = compute_q()
        sinh_q = math.sinh(q)
        half = 1.0 / (2.0 * sinh_q)
        return cls(
            q=q,
            sinh_q=sinh_q,
            a_min=math.exp(-half),
            a_max=math.exp(half),
            x_dagger=2.0 * math.cosh(q),
        )

    @property
    def tangent_log(self) -> float:
        """Critical |ln a| = 1/(2 sinh q) at which the two roots merge."""
        return 1.0 / (2.0 * self.sinh_q)


@lru_cache(maxsize=1)
def critical_constants() -> CriticalConstants:
    """Shared full-precision constants (computed on first use)."""
    return CriticalConstants.compute()


def critical_interval() -> tuple[float, float]:
    """Return (a_min, a_max), the open base interval with two roots."""
    c = critical_constants()
    return (c.a_min, c.a_max)


class ClassificationTag(enum.Enum):
    ZERO_BASE = "zero_base"
    UNIT_BASE = "unit_base"
    NO_ROOT = "no_root"
    TANGENT_ROOT = "tangent_root"
    TWO_ROOTS = "two_roots"


class BracketProvenance(enum.Enum):
    """Which derivation produced a bracket."""

    # lower endpoint 2 from the affine minorant f(x) >= 2 - x, upper
    # endpoint the tangent-root abscissa 2 cosh q
    AFFINE_MINORANT = "affine_minorant"
    # (x_star, 2*x_star - 2) from the minimizer and one-sided growth
    MINIMIZER_BASED = "minimizer_based"
    # tightened second-root interval once the first root is known
    REFINED_GIVEN_X1 = "refined_given_x1"
    # produced by the brute-force grid scan (oracle module)
    ORACLE_SCAN = "oracle_scan"


@dataclass(frozen=True)
class RootBracket:
    """Closed interval guaranteed to contain exactly one root."""

    lo: float
    hi: float
    provenance: BracketProvenance

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SolutionClassification:
    """Tagged root-count outcome for one base.

    ``root`` carries the analytic root for the single-root tags
    (``UNIT_BASE`` -> 2, ``TANGENT_ROOT`` -> 2 cosh q, ``ZERO_BASE`` -> 0).
    ``brackets`` carries the (x1, x2) brackets for ``TWO_ROOTS``.
    ``by_convention`` flags the zero-base outcome: x = 0 is adopted as the
    conventional solution there even though under the usual 0**0 = 1
    reading f(0) = 2, so it is not numerically verifiable.
    """

    tag: ClassificationTag
    root: float | None = None
    brackets: tuple[RootBracket, RootBracket] | None = None

    @property
    def by_convention(self) -> bool:
        return self.tag is ClassificationTag.ZERO_BASE

    @property
    def root_count(self) -> int:
        if self.tag is ClassificationTag.NO_ROOT:
            return 0
        if self.tag is ClassificationTag.TWO_ROOTS:
            return 2
        return 1


def f_value(base: BaseParameter, x: float) -> float:
    """Evaluate f(x) = 2*cosh(x*ln a) - x.

    Requires ``a > 0``.  When ``|x*ln a|`` is large enough to overflow the
    cosh, returns ``+inf`` (the cosh term is always positive and dominant).

    The product ``x*ln a`` is formed with a compensated (exact) product and
    the first-order correction ``2*sinh(w)*err`` is added back, so the
    result is accurate to ~1 ulp of ``2*cosh`` even when ``x`` is large.
    This matters for the 1e-12 absolute residual contract: near a = 1 the
    second root reaches ~1e4 and a naively rounded product alone would
    perturb f by several times 1e-12.
    """
    if base.a == 0.0:
        raise ValueError("f is undefined for a = 0 (see classify)")
    x = float(x)
    w, w_err = _two_product(x, base.ln_a)
    if abs(w) >= _COSH_SATURATION:
        return math.inf
    return (2.0 * math.cosh(w) - x) + 2.0 * math.sinh(w) * w_err


def f_derivative(base: BaseParameter, x: float) -> float:
    """Evaluate f'(x) = 2*ln(a)*sinh(x*ln a) - 1.

    Requires ``a > 0``.  Saturates to ``±inf`` (sign of x) when the sinh
    would overflow; ``ln(a)*sinh(x*ln a)`` always carries the sign of x.
    """
    if base.a == 0.0:
        raise ValueError("f' is undefined for a = 0")
    x = float(x)
    w = x * base.ln_a
    if abs(w) >= _COSH_SATURATION:
        return math.inf if x > 0.0 else -math.inf
    return 2.0 * base.ln_a * math.sinh(w) - 1.0


def x_star(base: BaseParameter) -> float:
    """Minimizer of f: x* = (1/ln a) * asinh(1/(2 ln a)).

    Both factors flip sign together, so x* > 0 on either side of a = 1.
    Rejects a = 1 (f is affine, the minimizer escapes to infinity) and
    a = 0 (f undefined).
    """
    if base.a == 0.0:
        raise ValueError("x_star is undefined for a = 0")
    if base.ln_a == 0.0:
        raise ValueError("x_star is undefined for a = 1 (f is affine there)")
    t = base.ln_a
    return math.asinh(0.5 / t) / t


def classify(base: BaseParameter) -> SolutionClassification:
    """Decide how many real roots the equation has for this base.

    Decision order: a = 0, then a = 1 (|ln a| <= 1e-12), then the tangent
    band (|ln a| within ``TANGENCY_EPS`` of 1/(2 sinh q), relative in
    exponent space), then no-root vs two-root by comparing |ln a| to the
    critical slope.  The two-root payload carries the analytic brackets
    for both roots.
    """
    c = critical_constants()
    if base.a == 0.0:
        return SolutionClassification(tag=ClassificationTag.ZERO_BASE, root=0.0)
    t = abs(base.ln_a)
    if t <= UNIT_BASE_EPS:
        return SolutionClassification(tag=ClassificationTag.UNIT_BASE, root=2.0)
    if abs(t * 2.0 * c.sinh_q - 1.0) <= TANGENCY_EPS:
        return SolutionClassification(
            tag=ClassificationTag.TANGENT_ROOT, root=c.x_dagger
        )
    if t > c.tangent_log:
        return SolutionClassification(tag=ClassificationTag.NO_ROOT)
    return SolutionClassification(
        tag=ClassificationTag.TWO_ROOTS,
        brackets=(bounds_x1(), bounds_x2_initial(base)),
    )


@lru_cache(maxsize=1)
def bounds_x1() -> RootBracket:
    """Bracket for the first root: (2, 2 cosh q), independent of the base.

    The lower endpoint comes from the affine minorant f(x) >= 2 - x; the
    upper endpoint is the tangent-root abscissa, which the first root can
    only reach in the degenerate double-root case.  Built once and shared:
    the bracket is immutable.
    """
    c = critical_constants()
    return RootBracket(2.0, c.x_dagger, BracketProvenance.AFFINE_MINORANT)


def bounds_x2_initial(base: BaseParameter) -> RootBracket:
    """Initial bracket for the second root: (x*, 2*x* - 2).

    Valid in the two-root regime, where x* > 2 always holds.  The lower
    endpoint is the minimizer; the upper follows because f grows faster to
    the right of x* than it decays to the left.
    """
    xs = x_star(base)
    if abs(base.ln_a) >= critical_constants().tangent_log or xs <= 2.0:
        raise ValueError(
            f"a={base.a!r} is outside the two-root regime (x_star={xs:.6g})"
        )
    return RootBracket(xs, 2.0 * xs - 2.0, BracketProvenance.MINIMIZER_BASED)


def bounds_x2_refined(base: BaseParameter, x1: float) -> RootBracket:
    """Tighter second-root bracket once the first root is known.

    Returns ((3/2)*x* - x1/2, 2*x* - x1); strictly inside the initial
    bracket whenever 2 < x1 < x*.  The upper endpoint always bounds the
    root: f rises faster right of the minimizer than it falls left of it,
    so x2 - x* < x* - x1.  The lower endpoint rests on the converse claim
    2*(x2 - x*) > x* - x1, which holds exactly for t0 < |ln a| < T, with
    t0 = 0.040969159959903385 (200-bit mpmath bisection); closer to a = 1
    the lower endpoint overshoots the root.  ``solve_all`` takes this
    bracket only for |ln a| above t0 rounded up, with no f-call.
    """
    xs = x_star(base)
    x1 = float(x1)
    if not (2.0 < x1 < xs):
        raise ValueError(
            f"x1={x1!r} must lie strictly inside (2, x_star={xs:.6g})"
        )
    return RootBracket(
        1.5 * xs - 0.5 * x1, 2.0 * xs - x1, BracketProvenance.REFINED_GIVEN_X1
    )
