"""How the analytic brackets squeeze the second root.

Before solving anything we already know x1 lives in (2, 2*cosh q) and x2
in (x_star, 2*x_star - 2).  Once x1 is solved, a tighter x2 interval
becomes available for free.  This script shows the squeeze for the bases
of the reference table, plus the near-1 regime where the refined lower
endpoint overshoots the root and the solver falls back to the initial
bracket.
"""

from coshroots import (
    BaseParameter,
    bounds_x1,
    bounds_x2_initial,
    bounds_x2_refined,
    newton_refine,
    solve_all,
    x_star,
)

print(f"{'a':>6} {'x1':>10} {'initial x2 bracket':>24} "
      f"{'refined x2 bracket':>24} {'x2':>10} {'shrink':>7}")
for a in (0.75, 0.9, 1.08, 1.39):
    base = BaseParameter(a)
    b1 = bounds_x1()
    x1, _, _ = newton_refine(base, b1.midpoint, b1)
    initial = bounds_x2_initial(base)
    refined = bounds_x2_refined(base, x1)
    x2, _, _ = newton_refine(base, refined.midpoint, refined)
    print(
        f"{a:>6} {x1:>10.4f} "
        f"({initial.lo:>10.4f},{initial.hi:>10.4f}) "
        f"({refined.lo:>10.4f},{refined.hi:>10.4f}) "
        f"{x2:>10.4f} {refined.width / initial.width:>6.0%}"
    )

print()
print("Close to a = 1 the refined lower endpoint is no longer a bound:")
for a in (0.98, 1.02):
    base = BaseParameter(a)
    report = solve_all(base)
    x1, x2 = (r.x for r in report.roots)
    refined = bounds_x2_refined(base, x1)
    print(
        f"  a = {a}: refined lower endpoint {refined.lo:.3f} vs actual "
        f"x2 = {x2:.3f} -> solve_all used the '{report.roots[1].bracket.provenance.value}' bracket"
    )
print()
print(f"(x_star(0.98) = {x_star(BaseParameter(0.98)):.3f}; the one-sided")
print("growth gap that justifies the refinement vanishes as a -> 1.)")
