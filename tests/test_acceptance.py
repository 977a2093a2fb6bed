"""Acceptance suite: the exit criteria, each at its stated tolerance.

Each criterion prints one pass/fail line (routed past pytest's capture so
the lines always appear in the run log).

Two criteria fail by design and are kept failing on purpose:

* criterion 2 pins the ``table`` command to a golden fixture whose
  a = 1.39 row contains an x1 (3.3144) that is not actually a root of the
  equation (|f(3.3144)| = 9.6e-5, i.e. wrong in the 4th decimal; the true
  root is 3.31366269, verified by 40-digit bisection).  That fixture cell
  and the refined upper bound derived from it (4.0035 vs the true 4.00421)
  cannot be reproduced within 5e-4 by any correct solver.

* criterion 4 asserts the refined second-root bounds
  1.5*x* - x1/2 < x2 and (x* - x1)/2 < x2 - x* over the whole two-root
  regime, but those claimed bounds are mathematically false for bases with
  |ln a| < 0.0409692 (a in ~(0.95986, 1.04182)); roughly 12% of the
  sampled draws land there.  Additionally, for |ln a| <~ 4e-3 the 1e-12
  absolute residual target drops below the double-precision floor
  |f'(x2)| * ulp(x2)/2, so a couple of draws cannot be solved to that
  residual by any float64 implementation.
"""

import contextlib
import math
import sys
import time

import numpy as np

from coshroots import (
    BaseParameter,
    ClassificationTag,
    CriticalConstants,
    SolverError,
    classify,
    critical_constants,
    f_value,
    lambert_w_principal,
    solve_all,
    solve_exp_fixed_point,
    x_star,
)
from coshroots.cli import main as cli_main
from coshroots.oracle import min_scan, scan_roots


def _line(text: str) -> None:
    print(text, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(f"[criterion {num}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    _line(f"[criterion {num}] PASS - {description} ({elapsed:.3f}s)")


def test_criterion_1_constants():
    with criterion(1, "constants q, a_min, a_max, x_dagger at stated precision"):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            c = CriticalConstants.compute()
            best = min(best, time.perf_counter() - t0)
        assert abs(c.q - 1.19967864) <= 5e-9
        assert abs(c.a_min - 0.71793825) <= 5e-9
        assert abs(c.a_max - 1.39287744) <= 5e-9
        assert abs(c.x_dagger - 3.62034) <= 5e-6
        assert best < 1e-3, f"constants took {best*1e3:.3f} ms"


# the published reference values for the table command (a -> column -> value)
GOLDEN_TABLE = {
    0.6: {"x2_lo_initial": 1.6959, "x2_hi_initial": 1.3918},
    0.75: {
        "x1": 2.5738, "x2": 6.3160,
        "x2_lo_initial": 4.5882, "x2_hi_initial": 7.1764,
        "x2_lo_refined": 5.5954, "x2_hi_refined": 6.6026,
    },
    0.9: {
        "x1": 2.0467, "x2": 33.2488,
        "x2_lo_initial": 21.4624, "x2_hi_initial": 40.9248,
        "x2_lo_refined": 31.1702, "x2_hi_refined": 40.8781,
    },
    1.08: {
        "x1": 2.0243, "x2": 51.1120,
        "x2_lo_initial": 33.3978, "x2_hi_initial": 64.7955,
        "x2_lo_refined": 49.0845, "x2_hi_refined": 64.7712,
    },
    1.39: {
        "x1": 3.3144, "x2": 3.9932,
        "x2_lo_initial": 3.6589, "x2_hi_initial": 5.3179,
        "x2_lo_refined": 3.8312, "x2_hi_refined": 4.0035,
    },
}


def test_criterion_2_table_reproduction():
    with criterion(2, "table command reproduces every golden value within 5e-4"):
        import csv as csv_mod
        import io as io_mod

        buf = io_mod.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["table", "--full-precision"])
        elapsed = time.perf_counter() - t0
        out = buf.getvalue()
        assert code == 0
        header, *data = list(csv_mod.reader(io_mod.StringIO(out)))
        rows = {float(r[0]): dict(zip(header, r)) for r in data}
        assert rows[0.6]["classification"] == "no_root"
        mismatches = []
        for a, cells in GOLDEN_TABLE.items():
            for col, want in cells.items():
                got = float(rows[a][col])
                if abs(got - want) > 5e-4:
                    base = BaseParameter(a)
                    note = ""
                    if col in ("x1", "x2"):
                        note = f"; the golden value itself has |f|={abs(f_value(base, want)):.2e}"
                    mismatches.append(
                        f"a={a} {col}: computed {got:.7f} vs golden {want} "
                        f"(delta {abs(got - want):.2e}){note}"
                    )
        assert elapsed < 0.1, f"table took {elapsed*1e3:.1f} ms"
        assert not mismatches, (
            f"{len(mismatches)} golden cells beyond 5e-4 "
            "(the golden x1 for a=1.39 is not a root of the equation to 4 "
            "decimals, and the refined upper bound inherits it):\n"
            + "\n".join(mismatches)
        )


def test_criterion_3_affine_minorant():
    with criterion(3, "f(a, x) >= 2 - x - 1e-12 over 10^4 random pairs"):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            a = rng.uniform(0.1, 10.0)
            x = rng.uniform(-10.0, 50.0)
            assert f_value(BaseParameter(a), x) >= 2.0 - x - 1e-12


def test_criterion_4_bracket_containment():
    with criterion(4, "root containment in the analytic brackets, 200 draws"):
        rng = np.random.default_rng(4)
        c = critical_constants()
        draws = []
        while len(draws) < 200:
            a = rng.uniform(c.a_min + 1e-4, c.a_max - 1e-4)
            if abs(a - 1.0) > 1e-3:
                draws.append(a)
        failures = []
        for a in draws:
            base = BaseParameter(a)
            try:
                report = solve_all(base)
            except SolverError as err:
                failures.append((a, f"a={a!r}: solver failure ({err})"))
                continue
            x1, x2 = (r.x for r in report.roots)
            xs = x_star(base)
            if not (2.0 < x1 < c.x_dagger):
                failures.append((a, f"a={a!r}: x1={x1} outside (2, 2cosh q)"))
            if not (xs < x2 < 2.0 * xs - 2.0):
                failures.append((a, f"a={a!r}: x2={x2} outside (x*, 2x*-2)"))
            if not (1.5 * xs - 0.5 * x1 < x2 < 2.0 * xs - x1):
                failures.append(
                    (a, f"a={a!r}: x2={x2:.4f} outside refined "
                        f"({1.5 * xs - 0.5 * x1:.4f}, {2.0 * xs - x1:.4f})")
                )
            if not ((xs - x1) / 2.0 < x2 - xs < xs - x1):
                failures.append(
                    (a, f"a={a!r}: ordering (x*-x1)/2 < x2-x* < x*-x1 "
                        f"violated ({(xs - x1) / 2.0:.4f}, {x2 - xs:.4f}, "
                        f"{xs - x1:.4f})")
                )
        # the refined lower bound is provably invalid for |ln a| < 0.0409692
        # (~12% of this range) and the 1e-12 residual target sits below the
        # float64 floor |f'(x2)|*ulp(x2)/2 for |ln a| <~ 4e-3; violations
        # outside that zone would be implementation bugs, not known defects
        unexpected = [m for a, m in failures if abs(math.log(a)) >= 0.0409692]
        messages = [m for _, m in failures]
        assert not failures, (
            f"{len(failures)} violations over 200 draws "
            f"({'all' if not unexpected else len(failures) - len(unexpected)} "
            f"inside the documented |ln a| < 0.041 defect zone"
            + (f"; {len(unexpected)} UNEXPECTED outside it" if unexpected else "")
            + "):\n"
            + "\n".join(messages[:12])
            + ("\n..." if len(messages) > 12 else "")
        )


def test_criterion_5_oracle_equivalence():
    with criterion(5, "grid-scan oracle agrees with solve_all on 200 draws"):
        rng = np.random.default_rng(5)
        c = critical_constants()
        t0 = time.perf_counter()
        bases = [float(a) for a in rng.uniform(0.05, 5.0, size=200)]
        for a in bases:
            base = BaseParameter(a)
            report = solve_all(base)
            x_hi = 10.0
            if base.ln_a != 0.0:
                x_hi = max(10.0, 3.0 * x_star(base))
            scan = scan_roots(base, -10.0, x_hi, 1_000_000)
            assert len(scan.refined_roots) == len(report.roots), a
            for got, want in zip(scan.refined_roots, report.roots):
                assert abs(got - want.x) <= 1e-6, a
        # tangent bases have no sign change; check them via the minimum
        for a in (c.a_min, c.a_max):
            base = BaseParameter(a)
            assert classify(base).tag is ClassificationTag.TANGENT_ROOT
            _, f_min = min_scan(base, -10.0, 10.0, 1_000_000)
            assert abs(f_min) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f} s"


def test_criterion_6_reciprocal_symmetry():
    with criterion(6, "solve_all(a) and solve_all(1/a) agree within 1e-10"):
        rng = np.random.default_rng(6)
        count = 0
        while count < 100:
            a = float(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            if abs(a - 1.0) <= 1e-3:
                continue
            count += 1
            ra = solve_all(BaseParameter(a))
            rb = solve_all(BaseParameter(1.0 / a))
            assert ra.classification.tag is rb.classification.tag, a
            assert len(ra.roots) == len(rb.roots), a
            for xa, xb in zip(ra.roots, rb.roots):
                assert abs(xa.x - xb.x) <= 1e-10, a


def test_criterion_7_lambert_baseline():
    with criterion(7, "Lambert-W round trip at 1000 points and a**x = x"):
        for w in np.linspace(-0.99, 5.0, 1000):
            w = float(w)
            z = w * math.exp(w)
            got = lambert_w_principal(z)
            assert abs(got * math.exp(got) - z) <= 1e-12, w
        x = solve_exp_fixed_point(BaseParameter(math.sqrt(2.0)))
        assert abs(x - 2.0) <= 1e-10


def test_criterion_8_residual_contract():
    with criterion(8, "every reported root has |f| <= 1e-12 (tangent 1e-6)"):
        c = critical_constants()
        rng = np.random.default_rng(8)
        bases = [0.72, 0.75, 0.9, 1.0, 1.08, 1.3, 1.39]
        bases += [float(a) for a in rng.uniform(0.05, 5.0, size=50)]
        for a in bases:
            base = BaseParameter(a)
            report = solve_all(base)
            tangent = (
                report.classification.tag is ClassificationTag.TANGENT_ROOT
            )
            bound = 1e-6 if tangent else 1e-12
            for root in report.roots:
                assert abs(root.residual) <= bound, (a, root)
                assert abs(f_value(base, root.x)) <= bound, (a, root)
        for a in (c.a_min, c.a_max):
            base = BaseParameter(a)
            report = solve_all(base)
            (root,) = report.roots
            assert abs(root.residual) <= 1e-6
