"""Spans around calls into each coshroots layer, recorded from outside.

:class:`Tracer` replaces public names where their callers look them up
(``coshroots.solvers.f_value``, ``coshroots.cli.solve_all``, ...) with
wrappers that record a span: layer name, start, end, parent span and op
id.  A span opened with no span open starts a new op.  Spans are kept in
flat arrays in memory and written out once, when the run ends.  No file
under ``src/`` is changed; :meth:`Tracer.uninstall` restores every name.

A few wrappers also note what the call did (newton iterations, the
bracket it was given, the exception it raised, the scan's sign changes);
those notes feed the machine-independent counts.  A wrapper finds its
note method by name: ``_note_`` plus the layer with dots as underscores.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, layer): each name is wrapped where its caller looks it up.
WRAPPED = (
    ("solvers", "f_value", "core.f_value"),
    ("solvers", "f_derivative", "core.f_derivative"),
    ("solvers", "classify", "core.classify"),
    ("cli", "classify", "core.classify"),
    ("solvers", "bounds_x2_refined", "core.bounds_x2_refined"),
    ("solvers", "newton_refine", "solvers.newton_refine"),
    ("cli", "newton_refine", "cli.newton_refine"),
    ("solvers", "solve_all", "solvers.solve_all"),
    ("cli", "solve_all", "solvers.solve_all"),
    ("cli", "scan_roots", "oracle.scan_roots"),
    ("cli", "min_scan", "oracle.min_scan"),
    ("cli", "main", "cli.main"),
)
LAYERS = sorted({layer for _, _, layer in WRAPPED})
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

# span tags
X1, X2 = 1, 2


class Tracer:
    def __init__(self, cr):
        self._cr = cr
        self._saved: list[tuple[object, str, object]] = []
        self.start = array("q")
        self.end = array("q")
        self.layer = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("b")
        self.cur = -1
        self.op_id = -1
        self.counts: Counter = Counter()
        self.notes: dict[str, list] = defaultdict(list)
        self._np: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, layer: str):
        start, end, lay, parent, op, tag = (
            self.start, self.end, self.layer, self.parent, self.op, self.tag,
        )
        lid = LAYER_ID[layer]
        note = getattr(self, "_note_" + layer.replace(".", "_"), None)
        pc = time.perf_counter_ns
        tr = self

        def wrapper(*args, **kwargs):
            i = len(start)
            p = tr.cur
            if p < 0:
                tr.op_id += 1
            lay.append(lid)
            parent.append(p)
            op.append(tr.op_id)
            tag.append(0)
            end.append(0)
            tr.cur = i
            start.append(pc())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = pc()
                tr.cur = p
                if note is not None:
                    note(i, args, None, exc)
                raise
            end[i] = pc()
            tr.cur = p
            if note is not None:
                note(i, args, result, None)
            return result

        return wrapper

    def _note_solvers_newton_refine(self, i, args, result, exc):
        bracket = args[2]
        prov = bracket.provenance.value
        which = X1 if prov == "affine_minorant" else X2
        self.tag[i] = which
        name = "x1" if which == X1 else "x2"
        if exc is not None:
            kind = {"ConvergenceError": "convergence", "BracketError": "bracket"}.get(type(exc).__name__)
            if kind is not None:
                self.counts["failures." + kind] += 1
            return
        self.notes[name + ".iters"].append(result[1])
        if which == X2:
            self.counts["x2.refined_used"] += prov == "refined_given_x1"
            self.notes["x2.rel_width"].append(bracket.width / bracket.midpoint)

    def _note_cli_newton_refine(self, i, args, result, exc):
        self.counts["sweep.resolve_calls"] += 1
        self._note_solvers_newton_refine(i, args, result, exc)

    def _note_core_bounds_x2_refined(self, i, args, result, exc):
        self.counts["x2.refined_attempts"] += 1

    def _note_oracle_scan_roots(self, i, args, result, exc):
        if result is not None:
            self.notes["scan.sign_changes"].append(len(result.sign_change_intervals))
            self.notes["scan.grid"].append(result.grid_size)

    def install(self) -> None:
        for mod_name, attr, layer in WRAPPED:
            mod = getattr(self._cr, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays; copies, so the spans can still grow,
        kept until they do."""
        if self._np is not None and len(self._np["start_ns"]) == len(self.start):
            return self._np
        self._np = {
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "layer": np.array(self.layer, dtype=np.int16),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "tag": np.array(self.tag, dtype=np.int8),
        }
        return self._np

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, in ns.  Self time is the
        duration minus the durations of the span's direct children."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        parent = a["parent"]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur, dur - child.astype(np.int64)

    def check_nesting(self) -> str | None:
        """Check every span nests inside its parent within one op, and
        that per op the self times add up to the root span's duration.
        Returns a problem description or None."""
        a = self.arrays()
        if len(a["start_ns"]) == 0:
            return None
        parent, op = a["parent"], a["op"]
        dur, self_t = self.self_times()
        kids = np.flatnonzero(parent >= 0)
        p = parent[kids]
        if np.any(op[kids] != op[p]):
            return "a span's parent belongs to another op"
        if np.any(a["start_ns"][kids] < a["start_ns"][p]) or np.any(a["end_ns"][kids] > a["end_ns"][p]):
            return "a span is not nested inside its parent"
        if np.any(self_t < 0):
            return "a span's children outlast it"
        roots = np.flatnonzero(parent < 0)
        op_self = np.bincount(op, weights=self_t, minlength=op.max() + 1)
        if not np.array_equal(op_self[op[roots]].astype(np.int64), dur[roots]):
            return "self times do not add up to the op's time"
        return None

    def save(self, path) -> None:
        np.savez(path, layers=np.array(LAYERS), **self.arrays())
