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
:mod:`coshroots.cli` the command-line interface.  The package root
re-exports exactly ``core.__all__`` and ``solvers.__all__``, plus
``__version__``; it imports neither the oracle nor the CLI.
"""

from . import core, solvers
from .core import *
from .solvers import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += solvers.__all__
