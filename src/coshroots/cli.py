"""Command-line surface: constants, classification, solving, the reference
table for representative bases, and data emission for curve/sweep plots.

All commands emit either RFC-4180 CSV (header row, comma separated) or a
single JSON object with a ``records`` array.  Human output uses 6
significant digits by default; ``--full-precision`` switches to 17-digit
round-trip floats; the ``constants`` command always prints at least 15.
Absent values are empty CSV cells / JSON nulls, never 0.

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
from typing import Any

from .core import (
    BaseParameter,
    ClassificationTag,
    bounds_x2_refined,
    classify,
    critical_constants,
    f_value,
    x_star,
)
from .oracle import min_scan, scan_roots
from .solvers import (
    SolveReport,
    SolverConfig,
    SolverError,
    _seed,
    _tangent_model,
    newton_refine,
    solve_all,
)

__all__ = ["main", "EXIT_OK", "EXIT_DOMAIN", "EXIT_SOLVER", "EXIT_USAGE"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64

# Table bases shipped as the reference fixture.
TABLE_BASES = (0.6, 0.75, 0.9, 1.08, 1.39)

# Grid used by --verify, and the sweep's x2_overflow cutoff on 2x* - 2, the
# upper end of x2's initial bracket (x2 itself may lie well below it).
_VERIFY_GRID = 100_001
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


def _nonneg_float(text: str) -> float:
    v = float(text)
    if math.isnan(v) or v < 0.0:
        raise argparse.ArgumentTypeError(f"expected a real >= 0, got {text!r}")
    return v


def _pos_float(text: str) -> float:
    v = float(text)
    if math.isnan(v) or v <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a real > 0, got {text!r}")
    return v


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


def _emit(
    command: str,
    columns: list[str],
    records: list[dict[str, Any]],
    fmt: str,
    digits: int,
) -> str:
    if fmt == "json":
        payload = {
            "command": command,
            "records": [_jsonable(r, digits) for r in records],
        }
        return json.dumps(payload, allow_nan=False)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_cell(rec.get(col), digits) for col in columns])
    return buf.getvalue().rstrip("\n")


def _digits(args: argparse.Namespace, default: int = 6) -> int:
    return 17 if args.full_precision else default


# ---------------------------------------------------------------------------
# commands


def _cmd_constants(args: argparse.Namespace) -> str:
    c = critical_constants()
    record = {
        "q": c.q,
        "sinh_q": c.sinh_q,
        "a_min": c.a_min,
        "a_max": c.a_max,
        "x_dagger": c.x_dagger,
    }
    return _emit(
        "constants", list(record), [record], args.format, _digits(args, default=15)
    )


def _cmd_classify(args: argparse.Namespace) -> str:
    base = BaseParameter(args.a)
    outcome = classify(base)
    record: dict[str, Any] = {
        "a": base.a,
        "classification": outcome.tag.value,
        "root": outcome.root,
        "x1_lo": None,
        "x1_hi": None,
        "x2_lo": None,
        "x2_hi": None,
        "by_convention": outcome.by_convention,
    }
    if outcome.brackets is not None:
        b1, b2 = outcome.brackets
        record.update(x1_lo=b1.lo, x1_hi=b1.hi, x2_lo=b2.lo, x2_hi=b2.hi)
    return _emit("classify", list(record), [record], args.format, _digits(args))


def _verify_against_scan(base: BaseParameter, report: SolveReport) -> bool | None:
    if base.a == 0.0:
        return None  # the scan cannot evaluate f at a = 0
    tag = report.classification.tag
    x_hi = 10.0  # a unit base's far root, beyond 1e13, is not reported
    if tag is not ClassificationTag.UNIT_BASE:
        x_hi = max(10.0, 3.0 * x_star(base))
    if tag is ClassificationTag.TANGENT_ROOT:
        _, f_min = min_scan(base, -10.0, x_hi, _VERIFY_GRID)
        return abs(f_min) <= 1e-6
    scan = scan_roots(base, -10.0, x_hi, _VERIFY_GRID)
    if len(scan.refined_roots) != len(report.roots):
        return False
    return all(abs(s - r.x) <= 1e-6 for s, r in zip(scan.refined_roots, report.roots))


def _cmd_solve(args: argparse.Namespace) -> str:
    base = BaseParameter(args.a)
    report = solve_all(base, SolverConfig(args.tol) if args.tol is not None else None)
    roots = report.roots
    record: dict[str, Any] = {
        "a": base.a,
        "classification": report.classification.tag.value,
        "x1": roots[0].x if roots else None,
        "x2": roots[1].x if len(roots) > 1 else None,
        "x1_residual": roots[0].residual if roots else None,
        "x2_residual": roots[1].residual if len(roots) > 1 else None,
        "x1_iterations": roots[0].iterations if roots else None,
        "x2_iterations": roots[1].iterations if len(roots) > 1 else None,
    }
    if args.verify:
        record["verified"] = _verify_against_scan(base, report)
    return _emit("solve", list(record), [record], args.format, _digits(args))


def _cmd_bounds(args: argparse.Namespace) -> str:
    base = BaseParameter(args.a)
    outcome = classify(base)
    record: dict[str, Any] = {
        "a": base.a,
        "classification": outcome.tag.value,
        "x1_lo": None,
        "x1_hi": None,
        "x2_lo_initial": None,
        "x2_hi_initial": None,
        "x2_lo_refined": None,
        "x2_hi_refined": None,
    }
    if outcome.tag is ClassificationTag.TWO_ROOTS:
        b1, b2 = outcome.brackets
        record.update(
            x1_lo=b1.lo, x1_hi=b1.hi, x2_lo_initial=b2.lo, x2_hi_initial=b2.hi
        )
        if args.x1 is not None:
            refined = bounds_x2_refined(base, args.x1)
            record.update(x2_lo_refined=refined.lo, x2_hi_refined=refined.hi)
    return _emit("bounds", list(record), [record], args.format, _digits(args))


def _table_records() -> list[dict[str, Any]]:
    records = []
    for a in TABLE_BASES:
        base = BaseParameter(a)
        report = solve_all(base)
        outcome = report.classification
        record: dict[str, Any] = {
            "a": a,
            "classification": outcome.tag.value,
            "x1": None,
            "x2": None,
            "x2_lo_initial": None,
            "x2_hi_initial": None,
            "x2_lo_refined": None,
            "x2_hi_refined": None,
            "inverted": False,
        }
        if outcome.tag is ClassificationTag.TWO_ROOTS:
            x1, x2 = (r.x for r in report.roots)
            _, initial = outcome.brackets
            refined = bounds_x2_refined(base, x1)
            record.update(
                x1=x1,
                x2=x2,
                x2_lo_initial=initial.lo,
                x2_hi_initial=initial.hi,
                x2_lo_refined=refined.lo,
                x2_hi_refined=refined.hi,
            )
        else:
            # out of regime the formal expressions (x*, 2x* - 2) still
            # evaluate, with lo > hi signalling that no root exists
            xs = x_star(base)
            record.update(
                x2_lo_initial=xs, x2_hi_initial=2.0 * xs - 2.0, inverted=True
            )
        records.append(record)
    return records


def _cmd_table(args: argparse.Namespace) -> str:
    records = _table_records()
    columns = list(records[0])
    if args.format == "json":
        shaped = []
        for rec in records:
            rec = dict(rec)
            if rec.pop("inverted"):
                rec["formal_bounds"] = {
                    "x2_lo_initial": rec.pop("x2_lo_initial"),
                    "x2_hi_initial": rec.pop("x2_hi_initial"),
                    "inverted": True,
                }
            shaped.append(rec)
        return _emit("table", columns, shaped, "json", _digits(args))
    return _emit("table", columns, records, "csv", _digits(args))


def _cmd_curve(args: argparse.Namespace) -> str:
    base = BaseParameter(args.a)
    if base.a == 0.0:
        raise ValueError("curve is undefined for a = 0")
    if args.coth_view and base.ln_a == 0.0:
        raise ValueError("the coth view is undefined for a = 1")
    if not 0.0 < args.x_hi - args.x_lo < math.inf:
        raise ValueError(f"need x_lo < x_hi, got [{args.x_lo}, {args.x_hi}]")
    n = args.steps
    step = (args.x_hi - args.x_lo) / (n - 1)
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
    return _emit("curve", ["x", y_name], records, args.format, _digits(args))


def _sweep_record(base: BaseParameter) -> dict[str, Any]:
    outcome = classify(base)
    tag = outcome.tag
    record: dict[str, Any] = {
        "a": base.a,
        "classification": tag.value,
        "status": "ok",
        "x1": None,
        "x2": None,
    }
    if tag is ClassificationTag.NO_ROOT:
        record["status"] = "no_root"
        return record
    if tag is not ClassificationTag.TWO_ROOTS:
        record["x1"] = outcome.root
        return record
    b1, b2_initial = outcome.brackets
    if b2_initial.hi > _X2_OVERFLOW_LIMIT:
        # x2 diverges as a -> 1; don't emit an unreliable float
        record["status"] = "x2_overflow"
    else:
        try:
            record["x1"], record["x2"] = (r.x for r in solve_all(base).roots)
            return record
        except SolverError:
            record["status"] = "solver_error"
    # x2 is skipped or failed: report x1 alone
    try:
        seed = _seed(base, b1, _tangent_model(base))
        record["x1"], _ = newton_refine(base, seed, b1, lo_negative=False)
    except SolverError:
        record["status"] = "solver_error"
    return record


def _cmd_sweep(args: argparse.Namespace) -> str:
    if not 0.0 < args.a_hi - args.a_lo < math.inf:
        raise ValueError(f"need a_lo < a_hi, got [{args.a_lo}, {args.a_hi}]")
    n = args.steps
    step = (args.a_hi - args.a_lo) / (n - 1)
    records = []
    for i in range(n):
        a = args.a_lo + i * step if i < n - 1 else args.a_hi
        records.append(_sweep_record(BaseParameter(a)))
    return _emit(
        "sweep",
        ["a", "classification", "status", "x1", "x2"],
        records,
        args.format,
        _digits(args),
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the seven commands."""
    parser = _Parser(
        prog="coshroots",
        description="Classify, bracket, and solve a**x + a**(-x) = x.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        p.add_argument(
            "--full-precision",
            action="store_true",
            help="emit 17-digit round-trip floats",
        )

    p = sub.add_parser("constants", help="critical constants q, a_min, a_max, x_dagger")
    add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("classify", help="root-count classification for a base")
    p.add_argument("--a", type=_nonneg_float, required=True, help="base a >= 0")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="solve all roots for a base")
    p.add_argument("--a", type=_nonneg_float, required=True, help="base a >= 0")
    p.add_argument("--tol", type=_pos_float, help="absolute residual tolerance")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the roots against a brute-force grid scan",
    )
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="analytic root brackets for a base")
    p.add_argument("--a", type=_nonneg_float, required=True, help="base a >= 0")
    p.add_argument(
        "--x1", type=float, help="known first root; unlocks the refined x2 bracket"
    )
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", help="reference table of roots and bounds")
    add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("curve", help="sample (x, f(x)) for plotting")
    p.add_argument("--a", type=_nonneg_float, required=True, help="base a > 0")
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--steps", type=_steps, default=101)
    p.add_argument(
        "--coth-view",
        action="store_true",
        help="emit 2*coth(x*ln a) instead of f(x)",
    )
    add_common(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("sweep", help="classification and roots across a base range")
    p.add_argument("--a-lo", type=_pos_float, required=True)
    p.add_argument("--a-hi", type=_pos_float, required=True)
    p.add_argument("--steps", type=_steps, default=101)
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        output = args.func(args)
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
