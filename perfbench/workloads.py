"""Seeded input generators, the timed call of each workload, and the
conversion of each call's output into checkable records.

Every workload is a closed loop with one caller in one thread: the next
call starts only when the previous one has returned.  Inputs come in
batches; batch ``k`` of a seed is generated from ``(workload, seed, k)``
alone, so any run of a seed sees the same inputs in the same order.
Each batch is stratified -- a fixed share of exact bases, of near-edge
bases and of bases spread evenly over [0.6, 1.5] -- and then shuffled,
so that every batch carries the same mix of cheap and expensive calls.

Bases with |ln a| < 4e-3 are left out of the timed stream: at this
commit every two-root base with |ln a| <~ 3.72e-3 raises
ConvergenceError, and a timed run must not fail.  That band is measured
separately by each workload's near-unit ``probe``, whose failures the
traced run reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from reference import A_MAX, A_MIN, TANGENT_LOG

A_LO, A_HI = 0.6, 1.5
# The timed stream skips |ln a| < BAND (see the module docstring).
BAND = 4e-3
_BAND_LO, _BAND_HI = math.exp(-BAND), math.exp(BAND)
EXACT_BASES = (0.0, 1.0, A_MIN, A_MAX)


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def _uniform_bases(rng: random.Random, n: int) -> list[float]:
    """n bases stratified over [0.6, 1.5] minus the near-unit band."""
    left = _BAND_LO - A_LO
    total = left + (A_HI - _BAND_HI)
    out = []
    for k in range(n):
        u = (k + rng.random()) / n * total
        out.append(A_LO + u if u < left else _BAND_HI + (u - left))
    return out


def _near_edge_bases(rng: random.Random, n: int) -> list[float]:
    """n two-root bases with |ln a| = T * (1 - d), d stratified
    log-uniformly over [1e-8, 1e-4], alternating the two edges."""
    out = []
    for k in range(n):
        d = 10.0 ** (-8.0 + 4.0 * (k + rng.random()) / n)
        t = TANGENT_LOG * (1.0 - d)
        out.append(math.exp(-t) if k % 2 == 0 else math.exp(t))
    return out


def solve_bases(workload: str, seed: int, batch: int, size: int, near_edge: int) -> list[float]:
    """One shuffled batch: the 4 exact bases, ``near_edge`` near-edge
    bases, and the rest uniform."""
    rng = _rng(workload, seed, batch)
    bases = list(EXACT_BASES)
    bases += _near_edge_bases(rng, near_edge)
    bases += _uniform_bases(rng, size - len(bases))
    rng.shuffle(bases)
    return bases


def near_unit_bases(rng: random.Random, n: int) -> list[float]:
    """n bases with |ln a| stratified log-uniformly over [1e-11, BAND],
    alternating sides of 1: the band the timed stream leaves out."""
    out = []
    for k in range(n):
        t = 10.0 ** (-11.0 + (math.log10(BAND) + 11.0) * (k + rng.random()) / n)
        out.append(math.exp(t) if k % 2 == 0 else math.exp(-t))
    return out


class Record(NamedTuple):
    """One checkable output: a base, its classification tag, its roots
    in ascending order, and whether the operation failed.  A tuple of
    plain values, so the garbage collector stops tracking it and the
    records a run keeps do not slow the collections inside timed calls."""

    a: float
    tag: str | None
    roots: tuple
    failed: bool
    # sweep rows only: the row's status column
    status: str | None = None


@dataclass
class Workload:
    name: str
    unit: str
    units_per_call: int
    batch_size: int  # calls per batch
    segment: int  # calls between two calibrations (a few tens of ms)
    calibration: tuple  # calib.LOOPS names that track this workload's speed
    inputs: Callable[[int, int, int], list]  # (seed, batch, size) -> call inputs
    make_call: Callable[[Any], Callable[[Any], Any]]  # coshroots -> call
    records: Callable[[Any, Any], list[Record]]  # (input, output) -> records
    probe: Callable[[int], list]  # seed -> near-unit probe inputs


# ---------------------------------------------------------------- lib_solve


def _lib_call(cr):
    solvers, BaseParameter, SolverError = cr.solvers, cr.BaseParameter, cr.SolverError

    def call(a):
        try:
            return solvers.solve_all(BaseParameter(a))
        except SolverError as exc:
            return exc

    return call


def _lib_records(a, out) -> list[Record]:
    if isinstance(out, Exception):
        return [Record(a, None, (), True)]
    return [Record(a, out.classification.tag.value, tuple(r.x for r in out.roots), False)]


def _lib_probe(seed: int) -> list:
    return near_unit_bases(_rng("lib_solve.probe", seed, 0), 200)


LIB_SOLVE = Workload(
    name="lib_solve",
    unit="bases",
    units_per_call=1,
    batch_size=5000,
    segment=250,
    calibration=("float", "text"),
    inputs=lambda seed, k, n: solve_bases("lib_solve", seed, k, n, n * 3 // 100),
    make_call=_lib_call,
    records=_lib_records,
    probe=_lib_probe,
)


# -------------------------------------------------------------- cli helpers


def _cli_call(cr):
    cli = cr.cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def _float_or_none(cell) -> float | None:
    if cell is None or cell == "":
        return None
    return float(cell)


# ---------------------------------------------------------------- cli_sweep

SWEEP_ROWS = 50


# Per batch of sweeps, this many windows straddle a critical edge; every
# other window keeps KEEP_OUT away from both edges, so each batch has the
# same near-edge exposure.
EDGE_WINDOWS = 8
KEEP_OUT = 2e-3


def _sweep_windows(seed: int, batch: int, calls: int) -> list:
    """``calls`` sweep argument lists.  EDGE_WINDOWS windows contain a_min
    or a_max at a random row; the rest start at stratified points of
    [0.6, 1.5] and avoid the near-unit band and the edges.  Row spacings
    are stratified log-uniformly over [1e-6, 1e-3].  Formats alternate
    csv/json."""
    rng = _rng("cli_sweep", seed, batch)
    windows = []
    for j in range(EDGE_WINDOWS):
        width = (SWEEP_ROWS - 1) * 10.0 ** (-6.0 + 3.0 * (j + rng.random()) / EDGE_WINDOWS)
        edge = A_MIN if j % 2 == 0 else A_MAX
        lo = edge - width * rng.uniform(0.1, 0.9)
        windows.append((lo, lo + width))
    avoid = (
        (_BAND_LO, _BAND_HI),
        (A_MIN - KEEP_OUT, A_MIN + KEEP_OUT),
        (A_MAX - KEEP_OUT, A_MAX + KEEP_OUT),
    )
    n = calls - EDGE_WINDOWS
    spacings = [10.0 ** (-6.0 + 3.0 * (j + rng.random()) / n) for j in range(n)]
    rng.shuffle(spacings)
    for lo, spacing in zip(_uniform_bases(rng, n), spacings):
        width = (SWEEP_ROWS - 1) * spacing
        lo = min(lo, A_HI - width)
        for out_lo, out_hi in avoid:
            if lo < out_hi and lo + width > out_lo:
                lo = out_hi if lo + 0.5 * width > 0.5 * (out_lo + out_hi) else out_lo - width
        windows.append((lo, lo + width))
    rng.shuffle(windows)
    return [
        sweep_argv(lo, hi, "csv" if k % 2 == 0 else "json")
        for k, (lo, hi) in enumerate(windows)
    ]


def sweep_argv(lo: float, hi: float, fmt: str) -> list[str]:
    return [
        "sweep", "--a-lo", repr(lo), "--a-hi", repr(hi),
        "--steps", str(SWEEP_ROWS), "--format", fmt, "--full-precision",
    ]


def _sweep_rows(argv: list[str], text: str) -> list[dict]:
    if argv[argv.index("--format") + 1] == "json":
        return json.loads(text)["records"]
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row["a"] = float(row["a"])
    return rows


def _sweep_records(argv, out) -> list[Record]:
    code, text = out
    steps = int(argv[argv.index("--steps") + 1])
    if code != 0:
        return [Record(float(argv[2]), None, (), True)] * steps
    rows = _sweep_rows(argv, text)
    if len(rows) != steps:
        raise ValueError(f"sweep {argv[2]}..{argv[4]} emitted {len(rows)} rows, not {steps}")
    lo, hi = float(argv[2]), float(argv[4])
    if rows[0]["a"] != lo or rows[-1]["a"] != hi:
        raise ValueError(f"sweep rows span {rows[0]['a']!r}..{rows[-1]['a']!r}, not {lo!r}..{hi!r}")
    recs = []
    for row in rows:
        status = row["status"]
        x1, x2 = _float_or_none(row["x1"]), _float_or_none(row["x2"])
        roots = tuple(x for x in (x1, x2) if x is not None)
        recs.append(
            Record(
                row["a"],
                row["classification"],
                roots,
                status == "solver_error",
                status,
            )
        )
    return recs


def _sweep_probe(seed: int) -> list:
    """Sweeps across the near-unit band: one over the whole band and one
    within 1e-7 of a = 1 (where x2 exceeds the CLI's 1e9 cut-off)."""
    rng = _rng("cli_sweep.probe", seed, 0)
    j = 1.0 + 1e-3 * rng.random()
    return [
        sweep_argv(_BAND_LO * j, _BAND_HI / j, "csv"),
        sweep_argv(1.0 - 1e-7 * j, 1.0 + 1e-7 * j, "json"),
    ]


CLI_SWEEP = Workload(
    name="cli_sweep",
    unit="rows",
    units_per_call=SWEEP_ROWS,
    batch_size=200,
    segment=10,
    calibration=("float", "text"),
    inputs=_sweep_windows,
    make_call=_cli_call,
    records=_sweep_records,
    probe=_sweep_probe,
)


# --------------------------------------------------------------- cli_verify


def verify_argv(a: float) -> list[str]:
    return ["solve", "--a", repr(a), "--verify", "--format", "json", "--full-precision"]


def _verify_records(argv, out) -> list[Record]:
    code, text = out
    a = float(argv[2])
    if code != 0:
        return [Record(a, None, (), True)]
    (rec,) = json.loads(text)["records"]
    roots = tuple(x for x in (rec["x1"], rec["x2"]) if x is not None)
    # verified is null only for a = 0, where the scan cannot evaluate f
    failed = rec["verified"] is False or (rec["verified"] is None and a != 0.0)
    return [Record(rec["a"], rec["classification"], roots, failed)]


CLI_VERIFY = Workload(
    name="cli_verify",
    unit="commands",
    units_per_call=1,
    batch_size=200,
    segment=10,
    calibration=("float", "numpy"),
    inputs=lambda seed, k, n: [
        verify_argv(a) for a in solve_bases("cli_verify", seed, k, n, max(1, n * 3 // 100))
    ],
    make_call=_cli_call,
    records=_verify_records,
    probe=lambda seed: [verify_argv(a) for a in near_unit_bases(_rng("cli_verify.probe", seed, 0), 10)],
)


WORKLOADS = {w.name: w for w in (LIB_SOLVE, CLI_SWEEP, CLI_VERIFY)}
