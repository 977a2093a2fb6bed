"""Command-line surface: constants, classification, solving, the reference
table for representative bases, and data emission for curve/sweep plots.

Each command returns its records, one dict per row, and ``main`` emits
them through one emitter: either RFC-4180 CSV, whose header row is the
first record's keys, or a single JSON object with a ``records`` array.
Human output uses 6 significant digits by default; ``--full-precision``
switches to 17-digit round-trip floats; the ``constants`` command always
prints at least 15.  Absent values are empty CSV cells / JSON nulls,
never 0.

Exit codes: 0 success, 1 domain error, 2 solver failure, 64 usage error.
Output is built in full before printing, so a failure never emits a
partial table.

``main()`` builds its argument parser on the first call and reuses it for
every later call in the same process; parsing keeps no state between
calls.  ``build_parser()`` returns a fresh parser for callers who want to
customise one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from typing import Any, Callable

from .core import (
    BaseParameter,
    ClassificationTag,
    _range_width,
    bounds_x2_refined,
    classify,
    critical_constants,
    f_value,
    x_star,
)
from .oracle import _power_form, min_scan, scan_roots
from .solvers import (
    SolveReport,
    SolverError,
    _roots,
    newton_refine,  # unused; perfbench/tracer.py wraps cli.newton_refine
    solve_all,
)

__all__ = ["main", "EXIT_OK", "EXIT_DOMAIN", "EXIT_SOLVER", "EXIT_USAGE"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64

# Table bases shipped as the reference fixture.
TABLE_BASES = (0.6, 0.75, 0.9, 1.08, 1.39)

# --verify scans windows of [1, x_hi] never coarser than the grid of
# _VERIFY_GRID points over [-10, x_hi], each +-(_VERIFY_WINDOW + 1/2) steps
# around a root or the minimizer.  Below x = 1 the power form is at least
# 2 - x >= 1, since a**x + a**-x >= 2 (AM-GM): no root lies there.
_VERIFY_GRID = 100_001
_VERIFY_WINDOW = 64
# The sweep's x2_overflow cutoff on 2x* - 2, the upper end of x2's initial
# bracket (x2 itself may lie well below it).
_X2_OVERFLOW_LIMIT = 1e9


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the 64-style exit code; a token
    read as a negative float (``-1e-3``, ``-inf``) is a value, not an option."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _real(op: str, name: str) -> Callable[[str], float]:
    """argparse type for a real ``op`` 0, where ``op`` is ">=" or ">"."""

    def parse(text: str) -> float:
        v = float(text)
        if not (v > 0.0 if op == ">" else v >= 0.0):  # nan fails both
            raise argparse.ArgumentTypeError(f"expected a real {op} 0, got {text!r}")
        return v

    parse.__name__ = name  # argparse's "invalid <name> value" when float() fails
    return parse


_nonneg_float = _real(">=", "_nonneg_float")
_pos_float = _real(">", "_pos_float")


def _steps(text: str) -> int:
    v = int(text)
    if v < 2:
        raise argparse.ArgumentTypeError("steps must be >= 2")
    return v


# ---------------------------------------------------------------------------
# emission helpers


def _cell(value: Any, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return f"{value:.{digits}g}"
    return str(value)


def _jsonable(value: Any, digits: int) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        # 17 significant digits round-trip every double exactly
        return value if digits >= 17 else float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _jsonable(v, digits) for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


def _emit(command: str, records: list[dict[str, Any]], fmt: str, digits: int) -> str:
    if fmt == "json":
        payload = {
            "command": command,
            "records": [_jsonable(r, digits) for r in records],
        }
        return json.dumps(payload, allow_nan=False)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0])  # the header: the first record's keys
    for rec in records:
        writer.writerow([_cell(value, digits) for value in rec.values()])
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_constants(args: argparse.Namespace) -> list[dict[str, Any]]:
    c = critical_constants()
    return [
        {
            "q": c.q,
            "sinh_q": c.sinh_q,
            "a_min": c.a_min,
            "a_max": c.a_max,
            "x_dagger": c.x_dagger,
        }
    ]


def _cmd_classify(args: argparse.Namespace) -> list[dict[str, Any]]:
    base = BaseParameter(args.a)
    outcome = classify(base)
    x1_lo = x1_hi = x2_lo = x2_hi = None
    if outcome.brackets is not None:
        (x1_lo, x1_hi, _), (x2_lo, x2_hi, _) = outcome.brackets
    return [
        {
            "a": base.a,
            "classification": outcome.tag.value,
            "root": outcome.root,
            "x1_lo": x1_lo,
            "x1_hi": x1_hi,
            "x2_lo": x2_lo,
            "x2_hi": x2_hi,
            "by_convention": outcome.by_convention,
        }
    ]


def _verify_against_scan(base: BaseParameter, report: SolveReport) -> bool | None:
    """Whether the oracle, scanning short windows of [1, x_hi], sees the
    reported roots and no other.

    The power form g is convex (g'' = ln(a)**2 * (a**x + a**-x)), so its
    negative set is one interval, and a grid minimum strictly inside a
    window (or at x = 1) is its minimum on [1, inf) to within a step: a
    window's verdict holds on all of [1, x_hi].  An unclipped window is
    offset half a step from the point it is built around, so a root never
    falls on a grid point, where the grid's 1/a**x and the bisection's
    a**-x may disagree in sign.
    """
    if base.a == 0.0:
        return None  # the scan cannot evaluate f at a = 0
    tag = report.classification.tag
    x_hi = 10.0  # a unit base's far root, beyond 1e13, is not reported
    if tag is not ClassificationTag.UNIT_BASE:
        x_hi = max(10.0, 3.0 * x_star(base))
    # Steps of (x_hi + 10)/_VERIFY_GRID, a hair under h, make an unclipped
    # window exactly 2*_VERIFY_WINDOW + 1 steps of 1 + ceil(width/h) points;
    # a clipped or merged window's step is at most h.
    h = (x_hi + 10.0) / (_VERIFY_GRID - 1)
    half = (_VERIFY_WINDOW + 0.5) * (x_hi + 10.0) / _VERIFY_GRID
    if tag in (ClassificationTag.TANGENT_ROOT, ClassificationTag.NO_ROOT):
        centre = report.roots[0].x if report.roots else x_star(base)
        lo = max(1.0, centre - half)
        hi = lo + 2.0 * half
        x, f_min = min_scan(base, lo, hi, 1 + math.ceil((hi - lo) / h))
        if not (lo < x < hi or x == lo == 1.0):
            return False  # the minimum may lie outside the window
        return abs(f_min) <= 1e-6 if report.roots else f_min > 0.0
    windows: list[tuple[float, float]] = []
    for root in report.roots:
        lo, hi = max(1.0, root.x - half), min(x_hi, root.x + half)
        if windows and lo <= windows[-1][1]:
            lo = windows.pop()[0]
        windows.append((lo, hi))
    found: list[float] = []
    for lo, hi in windows:
        found += scan_roots(base, lo, hi, 1 + math.ceil((hi - lo) / h)).refined_roots
    if len(found) != len(report.roots) or not all(
        abs(s - r.x) <= 1e-6 for s, r in zip(found, report.roots)
    ):
        return False
    # Two roots are all a convex g has.  One (the unit band): g(1) > 0, so
    # g(x_hi) < 0 leaves no room for a second in [1, x_hi].
    return len(found) == 2 or _power_form(base.a, x_hi) < 0.0


def _cmd_solve(args: argparse.Namespace) -> list[dict[str, Any]]:
    base = BaseParameter(args.a)
    report = solve_all(base) if args.tol is None else solve_all(base, args.tol)
    # (x, residual, iterations, bracket) of each root, all None for one it lacks
    absent = (None,) * 4
    (x1, res1, it1, _), (x2, res2, it2, _) = (*report.roots, absent, absent)[:2]
    record: dict[str, Any] = {
        "a": base.a,
        "classification": report.classification.tag.value,
        "x1": x1,
        "x2": x2,
        "x1_residual": res1,
        "x2_residual": res2,
        "x1_iterations": it1,
        "x2_iterations": it2,
    }
    if args.verify:
        record["verified"] = _verify_against_scan(base, report)
    return [record]


def _cmd_bounds(args: argparse.Namespace) -> list[dict[str, Any]]:
    base = BaseParameter(args.a)
    outcome = classify(base)
    x1_lo = x1_hi = x2_lo = x2_hi = refined_lo = refined_hi = None
    if outcome.brackets is not None:
        (x1_lo, x1_hi, _), (x2_lo, x2_hi, _) = outcome.brackets
        if args.x1 is not None:
            refined_lo, refined_hi, _ = bounds_x2_refined(base, args.x1)
    return [
        {
            "a": base.a,
            "classification": outcome.tag.value,
            "x1_lo": x1_lo,
            "x1_hi": x1_hi,
            "x2_lo_initial": x2_lo,
            "x2_hi_initial": x2_hi,
            "x2_lo_refined": refined_lo,
            "x2_hi_refined": refined_hi,
        }
    ]


def _cmd_table(args: argparse.Namespace) -> list[dict[str, Any]]:
    """Roots and x2 brackets of TABLE_BASES.  Out of regime the formal x2
    bounds (x*, 2x* - 2) still evaluate, with lo > hi signalling that no root
    exists: CSV flags them in its ``inverted`` column, JSON nests them under
    ``formal_bounds``."""
    records = []
    for a in TABLE_BASES:
        base = BaseParameter(a)
        report = solve_all(base)
        tag = report.classification.tag
        inverted = tag is not ClassificationTag.TWO_ROOTS
        x1 = x2 = refined_lo = refined_hi = None
        if inverted:
            lo = x_star(base)
            hi = 2.0 * lo - 2.0
        else:
            x1, x2 = (r.x for r in report.roots)
            _, (lo, hi, _) = report.classification.brackets
            refined_lo, refined_hi, _ = bounds_x2_refined(base, x1)
        head = {"a": a, "classification": tag.value, "x1": x1, "x2": x2}
        initial = {"x2_lo_initial": lo, "x2_hi_initial": hi}
        refined = {"x2_lo_refined": refined_lo, "x2_hi_refined": refined_hi}
        if args.format == "csv":
            records.append({**head, **initial, **refined, "inverted": inverted})
        elif inverted:
            formal = {**initial, "inverted": True}
            records.append({**head, **refined, "formal_bounds": formal})
        else:
            records.append({**head, **initial, **refined})
    return records


def _cmd_curve(args: argparse.Namespace) -> list[dict[str, Any]]:
    base = BaseParameter(args.a)
    if base.a == 0.0:
        raise ValueError("curve is undefined for a = 0")
    if args.coth_view and base.ln_a == 0.0:
        raise ValueError("the coth view is undefined for a = 1")
    n = args.steps
    step = _range_width(args.x_lo, args.x_hi, "x_lo", "x_hi") / (n - 1)
    y_name = "two_coth" if args.coth_view else "f"
    records = []
    for i in range(n):
        x = args.x_lo + i * step if i < n - 1 else args.x_hi
        if args.coth_view:
            w = x * base.ln_a
            y = 2.0 / math.tanh(w) if w != 0.0 else None
        else:
            y = f_value(base, x)
        records.append({"x": x, y_name: y})
    return records


def _sweep_record(base: BaseParameter) -> dict[str, Any]:
    outcome = classify(base)
    record: dict[str, Any] = {
        "a": base.a,
        "classification": outcome.tag.value,
        "status": "ok",
        "x1": None,
        "x2": None,
    }
    if outcome.tag is ClassificationTag.NO_ROOT:
        record["status"] = "no_root"
        return record
    xs = (root.x for root in _roots(base, outcome))
    try:
        record["x1"] = next(xs)
        if outcome.brackets is not None and outcome.brackets[1].hi > _X2_OVERFLOW_LIMIT:
            # x2 diverges as a -> 1; don't emit an unreliable float
            record["status"] = "x2_overflow"
        else:
            record["x2"] = next(xs, None)  # None after a single root
    except SolverError:  # x1, if solved, still stands
        record["status"] = "solver_error"
    return record


def _cmd_sweep(args: argparse.Namespace) -> list[dict[str, Any]]:
    n = args.steps
    step = _range_width(args.a_lo, args.a_hi, "a_lo", "a_hi") / (n - 1)
    return [
        _sweep_record(BaseParameter(args.a_lo + i * step if i < n - 1 else args.a_hi))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the seven commands."""
    parser = _Parser(
        prog="coshroots",
        description="Classify, bracket, and solve a**x + a**(-x) = x.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, func: Callable[..., Any], summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    a_spec: dict[str, Any] = dict(type=_nonneg_float, required=True, help="base a >= 0")

    command("constants", _cmd_constants, "critical constants q, a_min, a_max, x_dagger")

    p = command("classify", _cmd_classify, "root-count classification for a base")
    p.add_argument("--a", **a_spec)

    p = command("solve", _cmd_solve, "solve all roots for a base")
    p.add_argument("--a", **a_spec)
    p.add_argument("--tol", type=_pos_float, help="absolute residual tolerance")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the roots against a brute-force grid scan",
    )

    p = command("bounds", _cmd_bounds, "analytic root brackets for a base")
    p.add_argument("--a", **a_spec)
    p.add_argument(
        "--x1", type=float, help="known first root; unlocks the refined x2 bracket"
    )

    command("table", _cmd_table, "reference table of roots and bounds")

    p = command("curve", _cmd_curve, "sample (x, f(x)) for plotting")
    p.add_argument("--a", **{**a_spec, "help": "base a > 0"})
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--steps", type=_steps, default=101)
    p.add_argument(
        "--coth-view",
        action="store_true",
        help="emit 2*coth(x*ln a) instead of f(x)",
    )

    p = command("sweep", _cmd_sweep, "classification and roots across a base range")
    p.add_argument("--a-lo", type=_pos_float, required=True)
    p.add_argument("--a-hi", type=_pos_float, required=True)
    p.add_argument("--steps", type=_steps, default=101)

    for p in sub.choices.values():  # after each command's own options
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        p.add_argument(
            "--full-precision",
            action="store_true",
            help="emit 17-digit round-trip floats",
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        digits = 17 if args.full_precision else 15 if args.command == "constants" else 6
        output = _emit(args.command, args.func(args), args.format, digits)
    except SystemExit as exc:  # argparse usage errors / --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
