"""coshroots: classify, bracket, and solve a**x + a**(-x) = x.

The equation is equivalent to 2*cosh(x*ln a) = x.  Depending on the base
it has no real root, one tangent (double) root, or exactly two roots; the
two-root regime is the open base interval (a_min, a_max) around 1, with
a_min = exp(-1/(2 sinh q)), a_max = 1/a_min, and q ~= 1.19967864 the
positive solution of coth(q) = q.

Layout: :mod:`coshroots.core` holds the function family, constants,
classification, and analytic brackets; :mod:`coshroots.solvers` the
bracketed solvers, dispatcher, and the Lambert-W baseline for a**x = x;
:mod:`coshroots.oracle` an independent brute-force root scan used for
validation (import it by name; it is the one module that needs numpy);
:mod:`coshroots.cli` the command-line interface.
"""

from .core import (
    BaseParameter,
    BracketProvenance,
    ClassificationTag,
    CriticalConstants,
    RootBracket,
    SolutionClassification,
    TANGENCY_EPS,
    UNIT_BASE_EPS,
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
from .solvers import (
    BracketError,
    ConvergenceError,
    RootResult,
    SolveReport,
    SolverConfig,
    SolverError,
    bisect,
    lambert_w_principal,
    newton_refine,
    solve_all,
    solve_exp_fixed_point,
)

__version__ = "0.1.0"

__all__ = [
    "BaseParameter",
    "BracketError",
    "BracketProvenance",
    "ClassificationTag",
    "ConvergenceError",
    "CriticalConstants",
    "RootBracket",
    "RootResult",
    "SolutionClassification",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "TANGENCY_EPS",
    "UNIT_BASE_EPS",
    "bisect",
    "bounds_x1",
    "bounds_x2_initial",
    "bounds_x2_refined",
    "classify",
    "compute_q",
    "critical_constants",
    "critical_interval",
    "f_derivative",
    "f_value",
    "lambert_w_principal",
    "newton_refine",
    "solve_all",
    "solve_exp_fixed_point",
    "x_star",
    "__version__",
]
