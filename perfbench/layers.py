"""Per-layer metrics of a traced run.

Times come from the run's traced segments: for each traced segment the
mean per call of a layer's spans, scaled like every time (calib.py),
then the median over the traced segments.  Counts come from a separate untimed pass over batch 0 of the
seed plus the workload's near-unit probe, made twice with fresh tracers;
the two passes must agree exactly, outputs included, or the run fails.
Failure and sweep-status counts include the probe (the only place the
timed stream's excluded band is run); every other count covers batch 0
alone.
"""

from __future__ import annotations

import statistics

import numpy as np

from calib import Calibrator
from measure import Checker, run_calls, to_records
from reference import A_MIN
from tracer import LAYER_ID, X1, X2, Tracer
from workloads import CLI_SWEEP, CLI_VERIFY, sweep_argv, verify_argv

# grid-length float64 arrays the scan formula needs: x, a**x, a**-x, f
SCAN_ARRAYS = 4

# per-layer metrics that time a layer, per call unless named otherwise
TIME_METRICS = {
    "core.classify.us": "us",
    "core.f_value.us": "us",
    "solvers.newton_refine.x1.us": "us",
    "solvers.newton_refine.x2.us": "us",
    "solvers.solve_all.us": "us",
    "solvers.solve_all.self_us": "us",
    "oracle.scan_roots.ms": "ms",
    "oracle.min_scan.ms": "ms",
    "oracle.verify_share": "frac",
    "cli.main.self_us_per_row": "us",
}

# per-layer metrics that count work; they must repeat exactly for a seed
COUNT_METRICS = {
    "core.classify.calls_per_op": "1/op",
    "core.f_value.calls_per_root": "1/root",
    "core.f_derivative.calls_per_root": "1/root",
    "solvers.newton_refine.x1.iters_mean": "iters",
    "solvers.newton_refine.x2.iters_mean": "iters",
    "solvers.newton_refine.x1.iters_max": "iters",
    "solvers.newton_refine.x2.iters_max": "iters",
    "solvers.x2_bracket.refined_frac": "frac",
    "solvers.x2_bracket.rel_width_p50": "rel",
    "solvers.failures.convergence": "count",
    "solvers.failures.bracket": "count",
    "oracle.scan_roots.sign_changes": "1/call",
    "oracle.scan_roots.bytes_computed": "B",
    "cli.sweep.resolve_calls": "count",
    "cli.sweep.status.ok": "count",
    "cli.sweep.status.no_root": "count",
    "cli.sweep.status.x2_overflow": "count",
    "cli.sweep.status.solver_error": "count",
    "accuracy.strict_contract_misses": "count",
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _count_pass(cr, wl, seed: int, size: int):
    """Batch 0 and the probe under fresh tracers, untimed."""
    call = wl.make_call(cr)
    main_t, probe_t = Tracer(cr), Tracer(cr)
    records = []
    for tracer, inputs in ((main_t, wl.inputs(seed, 0, size)), (probe_t, wl.probe(seed))):
        tracer.install()
        try:
            outs = run_calls(call, inputs)
        finally:
            tracer.uninstall()
        records.append(to_records(wl, inputs, outs))
    checker = Checker()
    checker.check(records[0] + records[1])

    main_recs, probe_recs = records
    roots = sum(len(r.roots) for r in main_recs)
    units = wl.units_per_call * size
    layer = np.array(main_t.layer, dtype=np.int16)
    n_layer = np.bincount(layer, minlength=len(LAYER_ID))
    notes, counts = main_t.notes, main_t.counts
    both = counts + probe_t.counts
    status = [r.status for r in main_recs + probe_recs]
    grids = notes["scan.grid"]
    m = {
        "core.classify.calls_per_op": n_layer[LAYER_ID["core.classify"]] / units,
        "core.f_value.calls_per_root": n_layer[LAYER_ID["core.f_value"]] / max(1, roots),
        "core.f_derivative.calls_per_root": n_layer[LAYER_ID["core.f_derivative"]] / max(1, roots),
        "solvers.newton_refine.x1.iters_mean": _mean(notes["x1.iters"]),
        "solvers.newton_refine.x2.iters_mean": _mean(notes["x2.iters"]),
        "solvers.newton_refine.x1.iters_max": max(notes["x1.iters"], default=0),
        "solvers.newton_refine.x2.iters_max": max(notes["x2.iters"], default=0),
        "solvers.x2_bracket.refined_frac": counts["x2.refined_used"] / max(1, counts["x2.refined_attempts"]),
        "solvers.x2_bracket.rel_width_p50": statistics.median(notes["x2.rel_width"] or [0.0]),
        "solvers.failures.convergence": both["failures.convergence"],
        "solvers.failures.bracket": both["failures.bracket"],
        "oracle.scan_roots.sign_changes": _mean(notes["scan.sign_changes"]),
        "oracle.scan_roots.bytes_computed": _mean(grids) * 8 * SCAN_ARRAYS,
        "cli.sweep.resolve_calls": both["sweep.resolve_calls"],
        "cli.sweep.status.ok": status.count("ok"),
        "cli.sweep.status.no_root": status.count("no_root"),
        "cli.sweep.status.x2_overflow": status.count("x2_overflow"),
        "cli.sweep.status.solver_error": status.count("solver_error"),
        "accuracy.strict_contract_misses": checker.strict_misses,
    }
    m = {k: float(v) for k, v in m.items()}
    outputs = [(r.a, r.tag, r.roots, r.failed, r.status) for recs in records for r in recs]
    problem = main_t.check_nesting() or probe_t.check_nesting()
    return m, outputs, checker, problem


def _layer_times(tracer, segments) -> dict[str, list[float]]:
    """Per-call layer times (and the oracle's share of ``cli.main``) for
    each (units, scale, first span, end span) segment; a layer absent
    from a segment adds nothing."""
    a = tracer.arrays()
    dur, self_t = tracer.self_times()
    layer, tag = a["layer"], a["tag"]
    lid = LAYER_ID
    per_seg: dict[str, list[float]] = {}

    def add(name, value):
        if value is not None:
            per_seg.setdefault(name, []).append(value)

    for units, sc, s0, s1 in segments:
        lay, d, st, tg = layer[s0:s1], dur[s0:s1], self_t[s0:s1], tag[s0:s1]

        def mean_us(mask, of=d):
            n = int(mask.sum())
            return float(of[mask].sum()) * sc / n / 1e3 if n else None

        newton = lay == lid["solvers.newton_refine"]
        add("core.classify.us", mean_us(lay == lid["core.classify"]))
        add("core.f_value.us", mean_us(lay == lid["core.f_value"]))
        add("solvers.newton_refine.x1.us", mean_us(newton & (tg == X1)))
        add("solvers.newton_refine.x2.us", mean_us(newton & (tg == X2)))
        add("solvers.solve_all.us", mean_us(lay == lid["solvers.solve_all"]))
        add("solvers.solve_all.self_us", mean_us(lay == lid["solvers.solve_all"], st))
        scan = mean_us(lay == lid["oracle.scan_roots"])
        add("oracle.scan_roots.ms", None if scan is None else scan / 1e3)
        mins = mean_us(lay == lid["oracle.min_scan"])
        add("oracle.min_scan.ms", None if mins is None else mins / 1e3)
        main = lay == lid["cli.main"]
        oracle = (lay == lid["oracle.scan_roots"]) | (lay == lid["oracle.min_scan"])
        if oracle.any():
            add("oracle.verify_share", float(d[oracle].sum()) / float(d[main].sum()))
        if main.any():
            add("cli.main.self_us_per_row", float(st[main].sum()) * sc / units / 1e3)
    return per_seg


def _sample_layers(cr):
    """Time every layer on fixed CLI calls, untimed by the benchmark and
    outside any workload: two verify commands (one on the tangent edge)
    for the oracle, and one 50-row sweep for ``cli.main``.  A layer the
    workload never reaches (the oracle, or the CLI, for ``lib_solve``) is
    reported from these, so that no layer time reads a constant 0."""
    tracer = Tracer(cr)
    call = CLI_VERIFY.make_call(cr)
    calibrator = Calibrator(("float", "text", "numpy"))
    segments = []
    cal = calibrator.measure()
    for argv in (verify_argv(0.9), verify_argv(A_MIN), sweep_argv(0.9, 0.91, "csv")):
        s0 = len(tracer.start)
        tracer.install()
        try:
            call(argv)
        finally:
            tracer.uninstall()
        after = calibrator.measure()
        segments.append((CLI_SWEEP.units_per_call, calibrator.scale(cal, after), s0, len(tracer.start)))
        cal = after
    times = _layer_times(tracer, segments[:2])
    times["cli.main.self_us_per_row"] = _layer_times(tracer, segments[2:])["cli.main.self_us_per_row"]
    return times, tracer.check_nesting()


def layer_metrics(cr, wl, seed, size, tracer, batches, setup, checker):
    """Returns (metrics, details, problem)."""
    first = _count_pass(cr, wl, seed, size)
    second = _count_pass(cr, wl, seed, size)
    problem = first[3] or tracer.check_nesting()
    if first[0] != second[0] or first[1] != second[1]:
        problem = problem or "counts or outputs differ between two passes over one seed"
    counts, _, count_checker, _ = first
    checker.wrong += count_checker.wrong
    checker.problems += count_checker.problems

    segs = [seg for b in batches for seg in b["segs"]]
    traced = [seg for seg in segs if seg[3] is not None]
    per_seg = _layer_times(tracer, [(units, ns / raw, s0, s1) for units, ns, raw, s0, s1 in traced])
    sampled = sorted(name for name in TIME_METRICS if name not in per_seg)
    if sampled:
        sample_times, sample_problem = _sample_layers(cr)
        problem = problem or sample_problem
        for name in sampled:
            per_seg[name] = sample_times[name]

    per_unit = [ns / units for units, ns, _, _, _ in traced]
    plain = [ns / units for units, ns, _, s0, _ in segs if s0 is None]
    metrics = {}
    for name, unit in TIME_METRICS.items():
        metrics[name] = (statistics.median(per_seg[name]), unit)
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (counts[name], unit)
    metrics["setup.interpreter_s"] = (setup["setup.interpreter_s"], "s")
    metrics["setup.import_coshroots_ms"] = (setup["setup.import_coshroots_ms"], "ms")
    metrics["setup.import_numpy_ms"] = (setup["setup.import_numpy_ms"], "ms")
    metrics["setup.import_cli_ms"] = (setup["setup.import_cli_ms"], "ms")
    metrics["setup.critical_constants_us"] = (setup["setup.critical_constants_us"], "us")
    metrics["trace.overhead_frac"] = (statistics.median(per_unit) / statistics.median(plain) - 1.0, "frac")

    details = {
        "traced_segments": len(traced),
        "spans": len(tracer.start),
        "layers_timed_on_sample_calls": sampled,
        "count_pass_failed": count_checker.failed,
        "count_pass_strict_misses": count_checker.strict_misses,
    }
    return metrics, details, problem
