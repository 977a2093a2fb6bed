"""Differential dump: hash every library outcome and CLI byte of a coshroots tree.

Run it on two trees and compare the sha256 lines; equal hashes mean that
``solve_all`` gives the same report (or the same exception) on every base of
a fixed list, and that a fixed list of CLI commands gives the same stdout,
stderr and exit code.  Standard library only (the CLI's ``--verify`` needs
numpy, as the package does)::

    python tools/differential.py                      # this checkout's src/
    python tools/differential.py --src ../old/src     # another tree's src/
    python tools/differential.py --dump out.txt       # also write the text

The base list and the command list are generated from fixed seeds, so they
are the same on every run; the edges a_min and a_max come from the loaded
library's ``critical_constants()``.  Help texts are rendered at 80 columns.
Hashes can differ between Python versions (argparse's help layout) and
numpy versions; compare two trees on one interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# t0, where x2's refined bracket stops holding (see coshroots.solvers)
T0 = 0.040969159959903385


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _neighbours(x: float, k: int = 4) -> list[float]:
    """x and the k doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def bases(a_min: float, a_max: float) -> list[float]:
    """The fixed base list, stratum by stratum."""
    rng = random.Random(20_260_101)
    out = [rng.uniform(0.05, 5.0) for _ in range(1000)]
    for edge in (a_min, a_max):
        for sign in (-1.0, 1.0):
            for _ in range(200):
                out.append(edge * (1.0 + sign * _log_uniform(rng, 1e-17, 1e-4)))
    for sign in (-1.0, 1.0):
        out += [math.exp(sign * _log_uniform(rng, 1e-16, 4e-3)) for _ in range(300)]
    for sign in (-1.0, 1.0):
        for rel in (-1e-5, 0.0, 1e-5):
            out.append(math.exp(sign * T0 * (1.0 + rel)))
    for x in (a_min, a_max, 1.0):
        out += _neighbours(x)
    out += [0.0, 5e-324, 1e-300, 1e300, sys.float_info.max]
    return out


def library_lines(solve_all, base_parameter, values: list[float]) -> list[str]:
    lines = []
    for a in values:
        try:
            outcome = repr(solve_all(base_parameter(a)))
        except Exception as exc:  # noqa: BLE001 -- the exception is the outcome
            outcome = f"{type(exc).__name__}: {exc}"
        lines.append(f"{a!r} {outcome}")
    return lines


def commands(values: list[float], solve_all, base_parameter) -> list[list[str]]:
    """The fixed CLI command list."""
    variants = [[], ["--full-precision"], ["--format", "json"],
                ["--format", "json", "--full-precision"]]  # fmt: skip
    rng = random.Random(7)
    sample = [0.0, 1.0] + rng.sample(values, 150)
    cmds: list[list[str]] = [["constants"], ["table"]]
    for a in sample:
        s = repr(a)
        try:
            x1 = repr(solve_all(base_parameter(a)).roots[0].x)
        except Exception:  # noqa: BLE001 -- no root, or no solve: any x1 will do
            x1 = "2.5"
        cmds += [
            ["classify", "--a", s],
            ["solve", "--a", s],
            ["bounds", "--a", s],
            ["bounds", "--a", s, "--x1", x1],
            ["curve", "--a", s, "--x-lo", "0", "--x-hi", "40", "--steps", "9"],
            ["curve", "--a", s, "--x-lo", "-5", "--x-hi", "5", "--steps", "6",
             "--coth-view"],
        ]  # fmt: skip
    cmds += [  # statuses ok, no_root, x2_overflow and solver_error
        ["sweep", "--a-lo", "0.5", "--a-hi", "1.5"],
        ["sweep", "--a-lo", "0.05", "--a-hi", "5", "--steps", "37"],
        ["sweep", "--a-lo", "0.9999999995", "--a-hi", "1.0000000005", "--steps", "3"],
        ["sweep", "--a-lo", "0.999", "--a-hi", "1.001", "--steps", "5"],
        ["sweep", "--a-lo", "2", "--a-hi", "3", "--steps", "5"],
    ]
    cmds = [c + v for c in cmds for v in variants]
    for tol in ("1e-40", "1e-15", "1e-12", "1e-10", "1e-3", "1"):
        cmds += [["solve", "--a", a, "--tol", tol] for a in ("0.9", "1.08", "1")]
    verify = [0.0, 1.0] + rng.sample(values, 400)
    cmds += [["solve", "--a", repr(a), "--verify", "--format", "json",
              "--full-precision"] for a in verify]  # fmt: skip
    cmds += [["solve", "--a", repr(a), "--verify"] for a in verify[:40]]
    cmds += [["--help"], ["-h"]]
    names = ("constants", "classify", "solve", "bounds", "table", "curve", "sweep")
    cmds += [[name, "--help"] for name in names]
    # usage errors (64), domain errors (1) and solver failures (2)
    errors = f"""
        frobnicate
        solve
        solve --a
        solve --a abc
        solve --a -3
        solve --a -1e-3
        solve --a nan
        solve --a inf
        solve --a -0.0
        classify --a -0.0
        solve --a 0.9 --tol 0
        solve --a 0.9 --tol -1
        solve --a 0.9 --tol nan
        solve --a 0.9 --tol abc
        solve --a 0.9 --tol inf
        solve --a 0.9 --format xml
        solve --a 1.000000001
        solve --a {_neighbours(1.0)[-1]!r} --tol 1e-40
        bounds --a 0.9 --x1 abc
        bounds --a 0.9 --x1 nan
        bounds --a 0.9 --x1 50
        curve --a abc
        curve --a 0 --x-lo 0 --x-hi 1
        curve --a 1 --x-lo 0 --x-hi 1 --coth-view
        curve --a 0.9 --x-lo 0 --x-hi inf
        curve --a 0.9 --x-lo -inf --x-hi 1
        curve --a 0.9 --x-lo -1e-3 --x-hi 1 --steps 3
        curve --a 0.9 --x-lo=-1e-3 --x-hi 1 --steps 3
        curve --a 0.9 --x-lo=-inf --x-hi 1 --steps 3
        curve --a 0.9 --x-lo 1 --x-hi 1
        curve --a 0.9 --x-lo -1e308 --x-hi 1e308 --steps 3
        curve --a 0.9 --x-lo 0 --x-hi 1.7e308 --steps 3
        curve --a 0.9 --x-lo 0 --x-hi 1 --steps 1
        curve --a 0.9 --x-lo 0 --x-hi 1 --steps x
        sweep --a-lo abc --a-hi 1
        sweep --a-lo 0 --a-hi 1
        sweep --a-lo 0.8
        sweep --a-lo 1 --a-hi 2 --steps 1
        sweep --a-lo 0.5 --a-hi inf --steps 3
        sweep --a-lo 2 --a-hi 1
    """
    cmds += [[]] + [line.split() for line in errors.strip().splitlines()]
    return cmds


def cli_lines(main, cmds: list[list[str]]) -> list[str]:
    lines = []
    for argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines.append(f"{argv!r} {code} {out.getvalue()!r} {err.getvalue()!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the src/ to load")
    parser.add_argument("--dump", type=Path, help="write the canonical text here")
    args = parser.parse_args(argv)

    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    sys.path.insert(0, str(args.src.resolve()))
    import coshroots
    from coshroots import BaseParameter, critical_constants, solve_all
    from coshroots.cli import main as cli_main

    c = critical_constants()
    values = bases(c.a_min, c.a_max)
    cmds = commands(values, solve_all, BaseParameter)
    text = "\n".join(
        library_lines(solve_all, BaseParameter, values) + cli_lines(cli_main, cmds)
    ) + "\n"
    if args.dump is not None:
        args.dump.write_text(text)
    print(f"coshroots: {Path(coshroots.__file__).parent}")
    print(f"{len(values)} library outcomes, {len(cmds)} commands")
    print(f"sha256: {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
