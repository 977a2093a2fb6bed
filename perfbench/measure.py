"""Timing loop, summary statistics and the output check shared by the
untraced and traced runs."""

from __future__ import annotations

import math
import time

from reference import TWO_ROOTS, BaseRef

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


# ------------------------------------------------------------------ stats


def nearest_rank(sorted_values: list, pct: float):
    """The value with pct percent of the sample at or below it."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            best = pct
    return best


# ------------------------------------------------------------------ timing


def run_calls(call, inputs: list) -> list:
    """Untimed calls, in order."""
    return [call(x) for x in inputs]


# In a traced run every TRACE_EVERY-th segment runs with the tracer
# installed; the rest time the same run untraced, for the overhead.
TRACE_EVERY = 8


def run_batch(call, inputs: list, calibrator, segment: int, cal: int, tracer=None, first_seg: int = 0):
    """One closed-loop batch, each call starting when the last returned.

    A calibration runs after every ``segment`` calls; the calls between
    two calibrations are scaled by their factor.  ``cal`` is the
    calibration that precedes the batch.  With a ``tracer``, segment
    number ``first_seg + i`` is traced when it is the last of a group of
    TRACE_EVERY.  Returns (outputs, scaled latencies in ns, segments, the
    last calibration); a segment is (calls, scaled ns, raw ns, first span,
    end span), the spans None when it ran untraced."""
    pc = time.perf_counter_ns
    outs, lat, segs = [], [], []
    for si, s0 in enumerate(range(0, len(inputs), segment)):
        traced = tracer is not None and (first_seg + si) % TRACE_EVERY == TRACE_EVERY - 1
        if traced:
            span0 = len(tracer.start)
            tracer.install()
        seg_lat = []
        t0 = pc()
        for x in inputs[s0 : s0 + segment]:
            t = pc()
            outs.append(call(x))
            seg_lat.append(pc() - t)
        seg_ns = pc() - t0
        if traced:
            tracer.uninstall()
        cal_after = calibrator.measure()
        f = calibrator.scale(cal, cal_after)
        cal = cal_after
        lat.extend(v * f for v in seg_lat)
        spans = (span0, len(tracer.start)) if traced else (None, None)
        segs.append((len(seg_lat), seg_ns * f, seg_ns) + spans)
    return outs, lat, segs, cal


def to_records(wl, inputs: list, outs: list) -> list:
    recs = []
    for x, out in zip(inputs, outs):
        recs.extend(wl.records(x, out))
    return recs


# ------------------------------------------------------------------ checking


class Checker:
    """Runs every record through the reference and keeps the tallies."""

    def __init__(self):
        self.roots = 0
        self.wrong = 0
        self.failed = 0
        self.strict_misses = 0
        self.problems: list[str] = []

    def check(self, records: list, errs: list | None = None) -> None:
        for rec in records:
            if rec.failed:
                self.failed += 1
                continue
            ref = BaseRef(rec.a)
            if rec.status == "x2_overflow":
                # the CLI omits x2 above 1e9 by contract; check x1 alone
                problem = None if ref.tag == TWO_ROOTS else f"x2_overflow on a {ref.tag} base"
                e = []
                if problem is None:
                    problem, err = ref.check_root(rec.roots[0], 0)
                    e = [] if err is None else [err]
            else:
                problem, e = ref.check(rec.tag, list(rec.roots))
            self.roots += len(rec.roots)
            self.strict_misses += ref.strict_misses
            if errs is not None:
                errs.extend(e)
            if problem is not None:
                self.wrong += 1
                if len(self.problems) < 10:
                    self.problems.append(f"a={rec.a!r}: {problem}")
