"""Host-speed calibration.

Other tenants slow the host the benchmark was tuned on by up to 2x for
seconds at a time, and CPU time slows with wall time, so no statistic
over a 10 s run is steady by itself.  The timed loop therefore runs a
fixed calibration loop every few tens of milliseconds and scales the
times measured in between by the reference time of that loop over its
mean measured time: a time reads as it would on the tuning host in its
fast state.  The code under test cannot change the calibration loop, so
a change in the program moves the scaled figures as much as the raw ones.

No one loop tracks every workload: under load the float loop slows less
than the CLI's string work and the text loop more, so each workload
names the mix of loops that tracks it (workloads.py).  Kept free of
imports beyond the standard library (numpy is imported only for the
numpy loop) so that set-up children can run it cheaply.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time


def _float_loop() -> None:
    """Newton steps on 2 cosh(x t) - x: the float arithmetic, math calls
    and interpreter dispatch that the solvers spend their time on."""
    x = 0.0
    for i in range(2000):
        t = 0.1 + i * 1e-4
        x = 3.0
        for _ in range(4):
            w = x * t
            x -= (2.0 * math.cosh(w) - x) / (2.0 * t * math.sinh(w) - 1.0)
    if not math.isfinite(x):
        raise RuntimeError("calibration loop diverged")


def _text_loop() -> None:
    """200 records formatted as JSON and CSV: the dict building, float
    formatting and string work of the CLI's emission."""
    recs = [
        {"a": 0.7 + i * 1e-3, "classification": "two_roots", "status": "ok",
         "x1": 3.1 + i * 1e-4, "x2": 4.2 - i * 1e-4}
        for i in range(200)
    ]
    json.dumps({"records": [{k: float(f"{v:.17g}") if isinstance(v, float) else v
                             for k, v in r.items()} for r in recs]})
    writer = csv.writer(io.StringIO())
    for r in recs:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in r.values()])


def _numpy_loop() -> None:
    """One 100 001-point evaluation of a**x + a**-x - x and its sign
    changes: the memory-bound array work of the grid-scan oracle."""
    import numpy as np

    xs = np.linspace(-10.0, 16.0, 100_001)
    with np.errstate(over="ignore", under="ignore"):
        fv = np.power(1.1, xs) + np.power(1.1, -xs) - xs
    signs = np.sign(fv)
    np.flatnonzero(signs[:-1] * signs[1:] < 0.0)


# name -> (loop, its fast-state time on the tuning host in ns)
LOOPS = {
    "float": (_float_loop, 1_900_000),
    "text": (_text_loop, 2_200_000),
    "numpy": (_numpy_loop, 4_300_000),
}


class Calibrator:
    """Times a workload's calibration loops, chosen to slow down with the
    host the way the workload's own code does."""

    def __init__(self, loops: tuple[str, ...] = ("float",)):
        self.loops = [LOOPS[name][0] for name in loops]
        self.ref_ns = sum(LOOPS[name][1] for name in loops)

    def measure(self) -> int:
        t0 = time.perf_counter_ns()
        for loop in self.loops:
            loop()
        return time.perf_counter_ns() - t0

    def scale(self, cal_before: int, cal_after: int) -> float:
        """Factor mapping a time measured between two calibrations to the
        reference host speed."""
        return 2.0 * self.ref_ns / (cal_before + cal_after)
