"""Span tracing for the linfflow benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of every linfflow
module at the name the caller looks up: a function imported into another
module is wrapped there apart from its home module, so ``flow.solve_box_linf``
(a max-flow probe) and ``cli.solve_box_linf`` (a plain regression) are told
apart.  Methods are wrapped once on their class.  Each wrapped call records a
span (name, start, end, parent span, CLI operation) in flat arrays; nothing
is aggregated until the traced round ends.

A few primitives are left unwrapped because they run several times per
coordinate step or per mirror-prox iteration, where a span each would
multiply the tracing overhead: their cost falls in the self time of the
enclosing span, and ``DynamicTree`` work is read from its own counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("baselines", "cdsolver", "cli", "core", "errors", "flow", "graphs",
           "mirrorprox", "sampling", "simplexmaint", "smoothing")

UNWRAPPED = {
    "sampling.BufferedUniforms.next",
    "sampling.DynamicTree.update",
    "sampling.DynamicTree.sample",
    "sampling.DynamicTree.get",
    "sampling.StaticAlias.sample",
    "smoothing.SoftmaxState.apply_coord_update",
    "core.SparseMatrix.col",
    "core.SparseMatrix.row",
    "simplexmaint.SimplexMaintainer.value",
}

# constructors whose instances carry counters the program maintains itself
COUNTED = ("sampling.DynamicTree.__init__", "simplexmaint.SimplexMaintainer.__init__",
           "flow.TreeApproximator.__init__")


class Tracer:
    """Span store plus the instances whose own counters are read after each round."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.instances = {key: [] for key in COUNTED}
        self.returns = {"moving_steps": 0, "certified_solves": 0}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, observe=None):
        nid = self._name_id(name)
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observer(self, key):
        if key in self.instances:
            bucket = self.instances[key]
            return lambda args, out: bucket.append(args[0])
        if key == "cdsolver.lcd_step":
            def moving(args, out):
                if out[1] != 0.0:
                    self.returns["moving_steps"] += 1
            return moving
        if key == "cdsolver.SubproblemSolver.solve":
            def certified(args, out):
                if out.certified:
                    self.returns["certified_solves"] += 1
            return certified
        return None

    def install(self):
        """Wrap every public linfflow function and method; call once per process."""
        mods = {m: importlib.import_module(f"linfflow.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("linfflow."):
                    continue
                home = home.split(".", 1)[1]
                if inspect.isfunction(obj):
                    key = f"{home}.{obj.__name__}"
                    if key in UNWRAPPED:
                        continue
                    name = key if home == short else f"{key}@{short}"
                    setattr(mod, attr, self.wrap(obj, name, self._observer(key)))
                elif inspect.isclass(obj) and home == short:
                    self._install_class(short, obj)

    def _install_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = f"{short}.{cls.__name__}.{attr}"
            if key in UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                inner = self.wrap(raw.__func__, key, self._observer(key))
                setattr(cls, attr, type(raw)(inner))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, key, self._observer(key)))

    def dump(self, path):
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 names=np.array(json.dumps(self.names)))


class SpanTable:
    """Aggregates over the recorded spans: counts, inclusive and self times."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = (np.frombuffer(tracer.end, dtype=np.int64)
               - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64)
        self.dur = dur
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.self_ns = dur - child

    def _mask(self, name, exact=False):
        """Spans of one definition at every call site (``name`` or ``name@site``);
        with ``exact``, only the spans named ``name`` itself."""
        ids = [k for k, n in enumerate(self.names)
               if n == name or (not exact and n.startswith(name + "@"))]
        return np.isin(self.name, ids)

    def count(self, name, exact=False):
        return int(self._mask(name, exact).sum())

    def outer_ms(self, prefix):
        """Inclusive time of the outermost spans of a definition (no double count)."""
        mask = self._mask(prefix)
        idx = np.flatnonzero(mask)
        keep = [k for k in idx if not self._has_ancestor(k, mask)]
        return float(self.dur[keep].sum()) / 1e6

    def _has_ancestor(self, k, mask):
        p = self.parent[k]
        while p >= 0:
            if mask[p]:
                return True
            p = self.parent[p]
        return False

    def self_ms(self, prefix):
        return float(self.self_ns[self._mask(prefix)].sum()) / 1e6

    def mean_self_us(self, prefix):
        mask = self._mask(prefix)
        n = int(mask.sum())
        return float(self.self_ns[mask].sum()) / 1e3 / n if n else 0.0

    def total_ms(self, name, exact=False):
        return float(self.dur[self._mask(name, exact)].sum()) / 1e6

    def outside_children_ms(self, parent_prefix, child_prefix):
        """Inclusive time of parent spans minus that of their direct child spans."""
        pmask = self._mask(parent_prefix)
        cmask = self._mask(child_prefix)
        under = cmask & (self.parent >= 0)
        under[under] = pmask[self.parent[under]]
        return float(self.dur[pmask].sum() - self.dur[under].sum()) / 1e6


def layer_metrics(tracer):
    """Every per-layer metric of the benchmark from one traced round."""
    t = SpanTable(tracer)
    trees = tracer.instances["sampling.DynamicTree.__init__"]
    maints = tracer.instances["simplexmaint.SimplexMaintainer.__init__"]
    approx = tracer.instances["flow.TreeApproximator.__init__"]
    steps = t.count("cdsolver.lcd_step")
    solves = t.count("cdsolver.SubproblemSolver.solve")
    # a probe is a regression solve that flow.almost_route makes
    probe_sites = ("cdsolver.solve_box_linf@flow", "mirrorprox.solve_flow_regress@flow")
    probes = sum(t.count(site, exact=True) for site in probe_sites)
    probe_ms = sum(t.total_ms(site, exact=True) for site in probe_sites)
    return {
        "core.from_triplets_ms": (t.outer_ms("core.SparseMatrix.from_triplets"), "ms"),
        "core.sign_double_ms": (t.outer_ms("core.sign_double"), "ms"),
        "core.scaled_calls": (t.count("core.SparseMatrix.scaled"), "count"),
        "core.scaled_ms": (t.outer_ms("core.SparseMatrix.scaled"), "ms"),
        "core.dot_calls": (t.count("core.SparseMatrix.dot")
                           + t.count("core.SparseMatrix.t_dot"), "count"),
        "core.dot_ms": (t.self_ms("core.SparseMatrix.dot")
                        + t.self_ms("core.SparseMatrix.t_dot"), "ms"),
        "graphs.read_dimacs_ms": (t.outer_ms("graphs.read_dimacs"), "ms"),
        "graphs.flow_network_ms": (t.outer_ms("graphs.FlowNetwork.__init__"), "ms"),
        "smoothing.softmax_state_builds": (t.count("smoothing.SoftmaxState.__init__"),
                                           "count"),
        "smoothing.softmax_state_build_ms": (
            t.outer_ms("smoothing.SoftmaxState.__init__"), "ms"),
        "sampling.coord_sampler_builds": (t.count("sampling.CoordSampler.__init__"),
                                          "count"),
        "sampling.coord_sampler_build_ms": (
            t.outer_ms("sampling.CoordSampler.__init__"), "ms"),
        "sampling.sample_us": (t.mean_self_us("sampling.CoordSampler.sample"), "us"),
        "sampling.step_us": (t.mean_self_us("sampling.CoordSampler.step"), "us"),
        "sampling.tree_updates": (sum(tr.update_count for tr in trees), "count"),
        "sampling.tree_touched_nodes": (sum(tr.touched_nodes for tr in trees), "count"),
        "cdsolver.lcd_steps": (steps, "count"),
        "cdsolver.lcd_step_us": (t.mean_self_us("cdsolver.lcd_step"), "us"),
        "cdsolver.moving_step_ratio": (
            tracer.returns["moving_steps"] / steps if steps else 0.0, "ratio"),
        "cdsolver.subproblem_solves": (solves, "count"),
        "cdsolver.subproblem_certified_ratio": (
            tracer.returns["certified_solves"] / solves if solves else 0.0, "ratio"),
        "cdsolver.solve_overhead_ms": (
            t.outside_children_ms("cdsolver.SubproblemSolver.solve", "cdsolver.lcd_step"),
            "ms"),
        "cdsolver.outer_iterations": (t.count("cdsolver.prox_outer_iterate"), "count"),
        "mirrorprox.iterations": (t.count("mirrorprox.phase_iterate"), "count"),
        "mirrorprox.phase_iterate_us": (t.mean_self_us("mirrorprox.phase_iterate"), "us"),
        "mirrorprox.sample_pj_us": (t.mean_self_us("mirrorprox.sample_pj"), "us"),
        "mirrorprox.phase_state_builds": (t.count("mirrorprox.PhaseState.__init__"),
                                          "count"),
        "mirrorprox.phase_state_build_ms": (
            t.outer_ms("mirrorprox.PhaseState.__init__"), "ms"),
        "mirrorprox.run_phase_aggregate_ms": (
            t.outside_children_ms("mirrorprox.run_phase", "mirrorprox.phase_iterate"),
            "ms"),
        "mirrorprox.phases": (t.count("mirrorprox.run_phase"), "count"),
        "simplexmaint.update_us": (
            t.mean_self_us("simplexmaint.SimplexMaintainer.update"), "us"),
        "simplexmaint.update_half_us": (
            t.mean_self_us("simplexmaint.SimplexMaintainer.update_half"), "us"),
        "simplexmaint.coord_us": (
            t.mean_self_us("simplexmaint.SimplexMaintainer.coord"), "us"),
        "simplexmaint.coord_half_us": (
            t.mean_self_us("simplexmaint.SimplexMaintainer.coord_half"), "us"),
        "simplexmaint.sample_us": (
            t.mean_self_us("simplexmaint.SimplexMaintainer.sample"), "us"),
        "simplexmaint.restarts": (sum(s.restarts for s in maints), "count"),
        "simplexmaint.forced_restarts": (sum(s.forced_restarts for s in maints), "count"),
        "simplexmaint.restart_ms": (
            t.outer_ms("simplexmaint.SimplexMaintainer.restart"), "ms"),
        "simplexmaint.work": (sum(s.work for s in maints), "count"),
        "flow.tree_build_ms": (t.outer_ms("flow.TreeApproximator.__init__"), "ms"),
        "flow.tree_alpha": (float(np.mean([a.alpha for a in approx])) if approx else 0.0,
                            "factor"),
        "flow.regression_parts_ms": (
            t.outer_ms("flow.TreeApproximator.regression_parts"), "ms"),
        "flow.probes": (probes, "count"),
        "flow.probe_s": (probe_ms / probes / 1e3 if probes else 0.0, "s"),
        "flow.rounds": (t.count("flow.almost_route"), "count"),
        "flow.round_to_integral_ms": (t.outer_ms("flow.round_to_integral"), "ms"),
        "flow.augment_ms": (t.outer_ms("flow.augment_to_max"), "ms"),
        "flow.directed_reduce_ms": (t.outer_ms("flow.directed_reduce"), "ms"),
        "flow.dinic_ms": (t.outer_ms("flow.dinic_oracle"), "ms"),
        "trace.spans": (len(t.dur), "count"),
    }
