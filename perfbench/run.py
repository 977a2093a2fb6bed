"""Layer-by-layer benchmark for coshroots.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lib_solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Each run measures one workload (see workloads.py) for ``--seconds``
seconds in equal batches, then checks every output against the 50-digit
reference (reference.py) outside the timed region.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics from a run
in which every eighth segment of calls runs traced.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (sample counts, the
percentiles used, error counts).  The exit code is 1 when an output is
wrong and 2 when the checkout has no coshroots sources.

Every time is scaled to a reference host speed by calibration loops run
every few tens of milliseconds (see calib.py) and summarised by a median
over the run's segments, calls or batches (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calib import Calibrator
from measure import TRACE_EVERY, Checker, nearest_rank, run_batch, run_calls, tail_percentile, to_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_coshroots() -> SimpleNamespace:
    if not (SRC / "coshroots" / "__init__.py").is_file():
        fail(f"no coshroots sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coshroots
    import coshroots.cli
    import coshroots.solvers

    if Path(coshroots.__file__).resolve().parent != SRC / "coshroots":
        fail(f"imported coshroots from {coshroots.__file__}, not from {SRC}")
    return SimpleNamespace(
        solvers=coshroots.solvers,
        cli=coshroots.cli,
        BaseParameter=coshroots.BaseParameter,
        SolverError=coshroots.SolverError,
    )


# ------------------------------------------------------------------ set-up


# Printed by a set-up child once its timed start is over; it then runs the
# calibration loop and prints its time.
_CALIBRATE = (
    "print(json.dumps(ready), flush=True)\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from calib import Calibrator\n"
    "print(json.dumps(sorted(Calibrator().measure() for _ in range(3))[1]))\n"
)


def _child_code(with_cli: bool) -> str:
    return (
        "import sys, time, json, resource\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import coshroots\n"
        + ("import coshroots.cli\n" if with_cli else "")
        + "from coshroots.core import critical_constants\n"
        "t = time.perf_counter_ns()\n"
        "critical_constants()\n"
        "cc_ns = time.perf_counter_ns() - t\n"
        "coshroots.solve_all(coshroots.BaseParameter(0.9))\n"
        "ready = {'maxrss_kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 'cc_ns': cc_ns}\n"
        + _CALIBRATE
    )


def _spawn(code: str) -> tuple[float, float, dict]:
    """Start a fresh interpreter on ``code``; returns the wall time until
    it reports ready, the scale from its own calibration, and what it
    reported."""
    t = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        ready = proc.stdout.readline()
        wall = time.perf_counter() - t
        rest, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or not ready:
        fail(f"set-up child failed: {err.strip()[-500:]}")
    cal = json.loads(rest)
    return wall, Calibrator().scale(cal, cal), json.loads(ready)


def measure_setup(with_cli: bool, trace: bool, spawns: int) -> dict:
    """Fresh-interpreter set-up: median scaled wall time and peak RSS
    over ``spawns`` children, after one discarded warm-up spawn."""
    code = _child_code(with_cli)
    _spawn(code)
    runs = [_spawn(code) for _ in range(spawns)]
    out = {
        "setup_s": statistics.median(wall * f for wall, f, _ in runs),
        "setup_s_raw": statistics.median(wall for wall, _, _ in runs),
        "setup_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for _, _, r in runs),
        "setup.critical_constants_us": statistics.median(r["cc_ns"] / 1e3 * f for _, f, r in runs),
    }
    if not trace:
        return out
    bare = [_spawn("import sys, json\nready = 0\n" + _CALIBRATE) for _ in range(spawns)]
    out["setup.interpreter_s"] = statistics.median(wall * f for wall, f, _ in bare)
    imports: dict[str, list[float]] = {"coshroots": [], "numpy": [], "coshroots.cli": []}
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import coshroots, coshroots.cli"
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"-X importtime child failed: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in imports:
                imports[parts[2]].append(int(parts[1]) / 1e3)
    for name, key in (
        ("coshroots", "setup.import_coshroots_ms"),
        ("numpy", "setup.import_numpy_ms"),
        ("coshroots.cli", "setup.import_cli_ms"),
    ):
        if not imports[name]:
            fail(f"-X importtime reported no import of {name}")
        out[key] = statistics.median(imports[name])
    return out


# ------------------------------------------------------------------ the run


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (final line, details).  ``small`` cuts
    batches and set-up spawns tenfold and threefold, for the smoke test."""
    cr = load_coshroots()
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    size = wl.batch_size // 10 if small else wl.batch_size
    tail_pct = tail_percentile(size)
    spawns = 3 if small else SETUP_SPAWNS
    setup = measure_setup(workload != "lib_solve", trace, spawns)

    call = wl.make_call(cr)
    # warm-up, untimed: fills lazy caches such as the critical constants
    run_calls(call, wl.inputs(seed, -1, size)[: max(10, size // 10)])

    tracer = Tracer(cr) if trace else None
    calibrator = Calibrator(wl.calibration)
    batches = []
    records = []
    budget = seconds * 1e9
    timed_ns = 0
    cal = calibrator.measure()
    k = nseg = 0
    # at least two batches, and two traced segments in a traced run
    while timed_ns < budget or k < 2 or (trace and nseg < 2 * TRACE_EVERY):
        inputs = wl.inputs(seed, k, size)
        # what the benchmark itself keeps must not lengthen the program's
        # garbage collections
        gc.freeze()
        outs, lat, segs, cal = run_batch(call, inputs, calibrator, wl.segment, cal, tracer, nseg)
        nseg += len(segs)
        lat.sort()
        batches.append(
            {
                "units": wl.units_per_call * len(inputs),
                # (units, scaled ns, raw ns, first span, end span)
                "segs": [(seg[0] * wl.units_per_call,) + seg[1:] for seg in segs],
                "lat": lat,
                "tail_ns": nearest_rank(lat, tail_pct),
            }
        )
        records.append(to_records(wl, inputs, outs))
        timed_ns += sum(raw for _, _, raw, _, _ in segs)
        k += 1

    checker = Checker()
    acc_errs = []  # per batch, the sorted ulp errors of its roots
    for recs in records:
        errs = []
        checker.check(recs, errs)
        acc_errs.append(sorted(errs))
    records = None
    err_n = min(len(errs) for errs in acc_errs)
    err_tail_pct = tail_percentile(err_n)
    err_tail = statistics.median(nearest_rank(errs, err_tail_pct) for errs in acc_errs)

    attempted = sum(b["units"] for b in batches)
    details = {
        "workload": workload,
        "seed": seed,
        "unit": wl.unit,
        "batches": len(batches),
        "batch_calls": size,
        "attempted": attempted,
        "failed": checker.failed,
        "error_frac": checker.failed / attempted,
        "roots_checked": checker.roots,
        "wrong_frac": checker.wrong / max(1, checker.roots),
        "strict_contract_misses": checker.strict_misses,
        "timed_s": timed_ns / 1e9,
        "setup_spawns": spawns,
        "setup_s_raw": setup["setup_s_raw"],
        "root_err_ulp_tail": err_tail,
        "root_err_tail_pct": err_tail_pct,
        "root_err_min_roots_per_batch": err_n,
    }
    if not trace:
        segs = [seg for b in batches for seg in b["segs"]]
        pooled = sorted(e for errs in acc_errs for e in errs)
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "setup_rss_mb": (setup["setup_rss_mb"], "MB"),
            "throughput_per_s": (statistics.median(u / ns * 1e9 for u, ns, _, _, _ in segs), "1/s"),
            "latency_p50_us": (statistics.median(v for b in batches for v in b["lat"]) / 1e3, "us"),
            "latency_tail_us": (statistics.median(b["tail_ns"] / 1e3 for b in batches), "us"),
            "root_err_ulp_p50": (statistics.median(pooled), "ulp"),
        }
        details.update(
            {
                "latency_tail_pct": tail_pct,
                "root_err_roots": len(pooled),
                "host_scale_median": statistics.median(ns / raw for _, ns, raw, _, _ in segs),
                "throughput_raw_per_s": statistics.median(u / raw * 1e9 for u, _, raw, _, _ in segs),
            }
        )
    else:
        from layers import layer_metrics

        metrics, extra, problem = layer_metrics(cr, wl, seed, size, tracer, batches, setup, checker)
        metrics["accuracy.root_err_ulp_tail"] = (err_tail, "ulp")
        details.update(extra)
        if problem is not None:
            print(json.dumps(details))
            fail(problem)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans_{workload}.npz")

    details["wrong"] = checker.wrong
    details["problems"] = checker.problems
    final = {
        "correct": checker.wrong == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return final, details


def smoke() -> int:
    """Run every workload briefly in both modes, in fresh processes, and
    check the output against BENCHMARK.json: every metric present with
    its unit, counts repeating exactly for one seed.  The traced runs
    check span nesting and self-time sums themselves."""
    from layers import COUNT_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for wl in spec["workloads"]:
        counts = []
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                    "--seed", "7", "--seconds", "0", "--trace", str(trace), "--small"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"FAIL {wl['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            final = json.loads(lines[-1])
            got = final["metrics"]
            for m in expected:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    print(f"FAIL {wl['name']} trace={trace}: {m['name']} missing or not in {m['unit']}")
                    ok = False
                elif not isinstance(got[m["name"]]["value"], (int, float)):
                    print(f"FAIL {wl['name']} trace={trace}: {m['name']} is not a number")
                    ok = False
            extra = set(got) - {m["name"] for m in expected}
            if extra:
                print(f"FAIL {wl['name']} trace={trace}: unlisted metrics {sorted(extra)}")
                ok = False
            if not final["correct"]:
                print(f"FAIL {wl['name']} trace={trace}: outputs wrong")
                ok = False
            if trace:
                counts.append({k: got.get(k) for k in COUNT_METRICS})
        if len(counts) == 2 and counts[0] != counts[1]:
            print(f"FAIL {wl['name']}: counts differ between two runs of one seed")
            ok = False
        print(f"{'ok' if ok else 'FAIL'} {wl['name']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself")
    parser.add_argument("--small", action="store_true", help="tenfold smaller batches (used by --smoke)")
    args = parser.parse_args(argv)
    if args.smoke:
        if not (SRC / "coshroots" / "__init__.py").is_file():
            fail(f"no coshroots sources under {SRC}")
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds < 0:
        fail("--seconds must be >= 0")
    final, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(details))
    for p in details["problems"]:
        print(f"WRONG {p}", file=sys.stderr)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
