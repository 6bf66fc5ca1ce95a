"""In-memory span recorder for the traced benchmark run.

``Tracer.installed()`` rebinds public uniparam functions, in every uniparam
module that holds them, to wrappers that record one span per call: name,
start, end, parent span, op id (the per-op workloads' op index; -1 inside
the single fig1 scan call) and a tag.  Rebinding the module attributes is
what makes calls made inside the package visible, for example
``uniparam.entanglement.build_unitary`` inside the bopt objective, or
``uniparam.linalg.herm_eig`` inside ``psd_sqrt``.  The optimization
objectives are closures, so the ``make_*_objective`` factories are wrapped
to wrap the closure they return.  Nothing in the package changes on disk,
and only the traced process is touched.

Spans stay in an ``array('q')`` of ``FIELDS`` per span and are written out
by ``write()`` at the end of the run as ``<stem>.spans`` (little-endian
int64, row-major) plus ``<stem>.json`` (span names, tags, field layout and
counters).  Self time is a span's duration minus the summed durations of
its children; children of one span never overlap because calls nest.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import uniparam
import uniparam.cli
import uniparam.composite
import uniparam.entanglement
import uniparam.linalg
import uniparam.optimize
import uniparam.states

MODULES = (uniparam, uniparam.cli, uniparam.composite, uniparam.entanglement,
           uniparam.linalg, uniparam.optimize, uniparam.states)

FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "tag")
NAME, START, END, PARENT, OP, TAG = range(len(FIELDS))
W = len(FIELDS)


def _dim_tag(args, kwargs) -> int:
    """Dimension of the first array argument (composite functions)."""
    return int(getattr(args[0], "shape", (0,))[0]) if args else 0


def _pair_tag(args, kwargs) -> int:
    """d_a * 100 + d_b for bound_b(rho, d_a, d_b, ...)."""
    return int(args[1]) * 100 + int(args[2]) if len(args) >= 3 else 0


# span name -> (module that defines the function, attribute name, tag function)
TRACED = {
    "cli.run_fig1_scan": (uniparam.cli, "run_fig1_scan", None),
    "cli.fig1_point": (uniparam.cli, "_fig1_point", None),
    "optimize.minimize": (uniparam.optimize, "minimize", None),
    "entanglement.optimized_bound_b": (uniparam.entanglement, "optimized_bound_b", None),
    "entanglement.max_distill_x_sq": (uniparam.entanglement, "max_distill_x_sq", None),
    "entanglement.bound_b": (uniparam.entanglement, "bound_b", _pair_tag),
    "entanglement.multipartite_bound_b": (uniparam.entanglement, "multipartite_bound_b", None),
    "entanglement.ppt_min_eigenvalue": (uniparam.entanglement, "ppt_min_eigenvalue", None),
    "entanglement.n_copy_state": (uniparam.entanglement, "n_copy_state", None),
    "composite.build_unitary": (uniparam.composite, "build_unitary", _dim_tag),
    "composite.build_ucs": (uniparam.composite, "build_ucs", _dim_tag),
    "composite.decompose": (uniparam.composite, "decompose", _dim_tag),
    "states.build_density": (uniparam.states, "build_density", None),
    "states.validate_density": (uniparam.states, "validate_density", None),
    "states.subspace_basis": (uniparam.states, "subspace_basis", None),
    "states.canonicalize_subspace": (uniparam.states, "canonicalize_subspace", None),
    "linalg.herm_eig": (uniparam.linalg, "herm_eig", None),
    "linalg.psd_sqrt": (uniparam.linalg, "psd_sqrt", None),
    "linalg.permute_subsystems": (uniparam.linalg, "permute_subsystems", None),
}

# span name of the objective closure -> factory that builds it
OBJECTIVES = {
    "entanglement.bopt_objective": (uniparam.entanglement, "make_bopt_objective"),
    "entanglement.distill_objective": (uniparam.entanglement, "make_distill_objective"),
}


# span names whose individual durations are kept for percentiles
KEEP_DURATIONS = {"cli.fig1_point"}


class Tracer:
    """Records spans while installed; ``paused()`` suspends recording."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.op = -1
        self.paused_depth = 0
        # optimizer telemetry gathered at the minimize / objective boundary
        self.minimize_results: list[tuple[int, bool]] = []
        self.improving_evals = 0
        self._best: list[float] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, tag=None, after=None):
        nid = self._name_id(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused_depth:
                return fn(*args, **kwargs)
            idx = len(spans) // W
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, self.op,
                          tag(args, kwargs) if tag else 0))
            stack.append(idx)
            spans[idx * W + START] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx * W + END] = perf()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _wrap_minimize(self, fn):
        inner = self._wrap("optimize.minimize", fn,
                           after=lambda r: self.minimize_results.append((r.iterations, r.converged)))

        @functools.wraps(fn)
        def minimize(*args, **kwargs):
            self._best.append(float("inf"))
            try:
                return inner(*args, **kwargs)
            finally:
                self._best.pop()

        return minimize

    def _note_eval(self, value: float) -> None:
        if self._best and value < self._best[-1]:
            self._best[-1] = value
            self.improving_evals += 1

    def _wrap_factory(self, name: str, factory):
        @functools.wraps(factory)
        def make(rho, d_a, d_b):
            return self._wrap(name, factory(rho, d_a, d_b), tag=lambda args, kwargs: d_a,
                              after=self._note_eval)

        return make

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every uniparam attribute that holds a traced function, then restore."""
        replacements = {}
        for name, (mod, attr, tag) in TRACED.items():
            fn = getattr(mod, attr)
            if attr == "minimize":
                replacements[id(fn)] = (fn, self._wrap_minimize(fn))
            else:
                replacements[id(fn)] = (fn, self._wrap(name, fn, tag))
        for name, (mod, attr) in OBJECTIVES.items():
            fn = getattr(mod, attr)
            replacements[id(fn)] = (fn, self._wrap_factory(name, fn))
        saved = []
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self.paused_depth += 1
        try:
            yield
        finally:
            self.paused_depth -= 1

    # -- analysis ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans) // W

    def per_name(self) -> dict[str, dict]:
        """calls, inclusive ns, self ns and per-tag (calls, ns), by span name."""
        n = len(self.spans) // W
        s = self.spans
        child = [0] * n
        for i in range(n):
            p = s[i * W + PARENT]
            if p >= 0:
                child[p] += s[i * W + END] - s[i * W + START]
        stats: dict[str, dict] = {}
        for i in range(n):
            name = self.names[s[i * W + NAME]]
            dur = s[i * W + END] - s[i * W + START]
            st = stats.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "durations": [],
                                         "by_tag": {}})
            st["calls"] += 1
            st["ns"] += dur
            st["self_ns"] += dur - child[i]
            if name in KEEP_DURATIONS:
                st["durations"].append(dur)
            tag = s[i * W + TAG]
            t = st["by_tag"].setdefault(tag, [0, 0])
            t[0] += 1
            t[1] += dur
        return stats

    def write(self, stem: Path, counters: dict) -> None:
        stem.parent.mkdir(parents=True, exist_ok=True)
        spans = array("q", self.spans)
        if sys.byteorder != "little":
            spans.byteswap()
        with open(stem.with_suffix(".spans"), "wb") as fh:
            spans.tofile(fh)
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "names": self.names, "spans": self.span_count(),
                       "tags": "bound_b: d_a*100+d_b; composite and objectives: "
                               "dimension; else 0",
                       "counters": counters}, fh, indent=1)


def layer_metrics(tracer: Tracer, extra: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``<module>.<function>.<stat>`` -> (value, unit).

    Times are means per call; a layer the workload never calls reads 0.
    ``extra`` supplies the values measured outside the spans (pool
    efficiency, tracing overhead).
    """
    st = tracer.per_name()
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "durations": [], "by_tag": {}}

    def get(name):
        return st.get(name, empty)

    def mean(name, key, scale):
        g = get(name)
        return g[key] / g["calls"] * scale if g["calls"] else 0.0

    def tag_mean(name, tag, scale):
        calls, ns = get(name)["by_tag"].get(tag, (0, 0))
        return ns / calls * scale if calls else 0.0

    ms, us = 1e-6, 1e-3
    runs = tracer.minimize_results
    evals = sum(get(n)["calls"] for n in OBJECTIVES)
    out: dict[str, tuple[float, str]] = {
        "optimize.minimize.calls": (get("optimize.minimize")["calls"], "count"),
        "optimize.minimize.evals": (evals, "count"),
        "optimize.minimize.iterations": (sum(it for it, _ in runs), "count"),
        "optimize.minimize.self_ms": (mean("optimize.minimize", "self_ns", ms), "ms"),
        "optimize.minimize.converged_frac":
            (sum(c for _, c in runs) / len(runs) if runs else 0.0, "ratio"),
        "optimize.minimize.improving_eval_frac":
            (tracer.improving_evals / evals if evals else 0.0, "ratio"),
    }
    for name in OBJECTIVES:
        out[f"{name}.evals"] = (get(name)["calls"], "count")
        out[f"{name}.self_us"] = (mean(name, "self_ns", us), "us")
        out[f"{name}.us"] = (mean(name, "ns", us), "us")
        out[f"{name}.us_d3"] = (tag_mean(name, 3, us), "us")
    for fn in ("optimized_bound_b", "max_distill_x_sq", "bound_b", "multipartite_bound_b",
               "ppt_min_eigenvalue", "n_copy_state"):
        out[f"entanglement.{fn}.calls"] = (get(f"entanglement.{fn}")["calls"], "count")
        out[f"entanglement.{fn}.ms"] = (mean(f"entanglement.{fn}", "ns", ms), "ms")
    out["entanglement.bound_b.ms_3x3"] = (tag_mean("entanglement.bound_b", 303, ms), "ms")
    for fn in ("build_unitary", "build_ucs", "decompose"):
        out[f"composite.{fn}.calls"] = (get(f"composite.{fn}")["calls"], "count")
        out[f"composite.{fn}.us"] = (mean(f"composite.{fn}", "ns", us), "us")
    for fn in ("build_unitary", "decompose"):
        for d in (3, 6):
            out[f"composite.{fn}.us_d{d}"] = (tag_mean(f"composite.{fn}", d, us), "us")
    for fn in ("build_density", "validate_density", "subspace_basis", "canonicalize_subspace"):
        out[f"states.{fn}.us"] = (mean(f"states.{fn}", "ns", us), "us")
    for fn in ("herm_eig", "psd_sqrt", "permute_subsystems"):
        out[f"linalg.{fn}.calls"] = (get(f"linalg.{fn}")["calls"], "count")
        out[f"linalg.{fn}.us"] = (mean(f"linalg.{fn}", "ns", us), "us")
    points = get("cli.fig1_point")["durations"]
    out["cli.fig1_point.p50_ms"] = (statistics.median(points) * ms if points else 0.0, "ms")
    out["cli.fig1_point.max_ms"] = (max(points) * ms if points else 0.0, "ms")
    out["cli.fig1_point.mean_ms"] = (mean("cli.fig1_point", "ns", ms), "ms")
    out["cli.run_fig1_scan.ms"] = (mean("cli.run_fig1_scan", "ns", ms), "ms")
    out.update(extra)
    return out
