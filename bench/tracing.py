"""Spans around calls into modularflow's public functions, for traced runs.

A span is recorded as ``[name, start, end, parent, op, count]``: ``parent``
is the index of the enclosing span (-1 at top level), ``op`` the operation
id, and ``count`` the work the call carried (input samples for
``weyl_field.fourier``, mapped points for the ray flows, written bytes for
``cone_wedge.emit_flow_figure`` and for the verify reports).

``verify`` and ``cli`` import layer functions by name and ``weyl_field``
binds scipy's ``czt``, so a wrapper on the defining module alone would miss
most calls.  ``install`` therefore replaces the function in every namespace
that binds it (the package and its six modules), with one wrapper per
function.  Spans are recorded only while ``op`` is set; they stay in memory
until ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("cli", "verify", "weyl_field", "cone_wedge", "flow_maps", "axb_group")

# per-layer metrics of BENCHMARK.json, reported per traced operation
LAYER_METRICS = (
    [f"verify.suite.{s}.s" for s in
     ("group-laws", "flows", "kernels", "kms", "thm22", "rates")]
    + ["verify.matrix_element_bound.calls", "verify.matrix_element_bound.self_s",
       "verify.kms_boundary_check.s", "verify.kms_boundary_check.self_s",
       "weyl_field.two_point_position.s",
       "verify.vector_deviation.calls", "verify.vector_deviation.s",
       "weyl_field.fourier.calls", "weyl_field.fourier.s", "weyl_field.fourier.samples",
       "weyl_field.czt.calls", "weyl_field.czt.s"]
    + [f"weyl_field.{fn}.{k}"
       for fn in ("omega2", "symplectic_K", "weyl_inner", "two_point_momentum",
                  "modular_transform", "gamma_transform", "higher_transform")
       for k in ("calls", "s")]
    + [f"flow_maps.{fn}.{k}"
       for fn in ("modular_flow_ray", "gamma_flow_ray")
       for k in ("calls", "points", "s")]
    + ["cone_wedge.flow_line.calls", "cone_wedge.flow_line.s",
       "cone_wedge.flow_line.self_s", "cone_wedge.figure_lines.s",
       "cone_wedge.emit_flow_figure.s", "cone_wedge.emit_flow_figure.bytes",
       "cli.main.s", "cli.report.bytes",
       "axb_group.compose.calls", "axb_group.compose.s"]
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "samples": "count",
         "points": "count", "bytes": "bytes"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(a, k, out):
    return int(np.size(_arg(a, k, 3, "x")))


# spans that carry a count: its metric suffix, and how a call's count is taken
# ("cli.report" is counted by the workload, see Tracer.count)
COUNTS = {
    "weyl_field.fourier": ("samples", lambda a, k, out: len(_arg(a, k, 0, "f").samples)),
    "flow_maps.modular_flow_ray": ("points", _points),
    "flow_maps.gamma_flow_ray": ("points", _points),
    "cone_wedge.emit_flow_figure": ("bytes", lambda a, k, out: os.path.getsize(out)),
    "cli.report": ("bytes", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None  # spans are recorded only while set

    def install(self, package):
        """Wrap every public function of the package in every namespace binding it."""
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        ours = {f"{package.__name__}.{m}" for m in MODULES}
        wrappers = {}
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if not isinstance(fn, types.FunctionType) or attr.startswith("_"):
                    continue
                if fn.__module__ in ours:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                elif ns is package.weyl_field and attr == "czt":
                    name = "weyl_field.czt"
                else:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name)
                setattr(ns, attr, wrappers[id(fn)])

    def _wrap(self, fn, name):
        tracer = self
        count = COUNTS.get(name, (None, None))[1]
        if name == "verify.run_suite":
            def span_name(a, k):
                return f"verify.suite.{_arg(a, k, 0, 'name')}"
        else:
            def span_name(a, k):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [span_name(args, kwargs), 0.0, 0.0, parent, tracer.op, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    def count(self, name: str, value: int):
        """Record work done outside any wrapped call as a zero-length span."""
        if self.op is not None:
            now = time.perf_counter()
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, now, now, parent, self.op, int(value)])

    def layer_metrics(self, n_ops: int) -> dict[str, dict]:
        """calls, inclusive s, self_s and counts per operation, for every layer metric."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(float)
        for i, (name, start, end, _, _, n) in enumerate(self.spans):
            agg[f"{name}.calls"] += 1
            agg[f"{name}.s"] += end - start
            agg[f"{name}.self_s"] += end - start - child[i]
            if name in COUNTS:
                agg[f"{name}.{COUNTS[name][0]}"] += n
        out = {}
        for key in LAYER_METRICS:
            unit = UNITS[key.rsplit(".", 1)[1]]
            out[key] = {"value": agg.get(key, 0.0) / n_ops, "unit": unit}
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh)
