"""Per-layer spans recorded from outside the pctv package.

The benchmark wraps public pctv functions, and the scipy solvers that
``pctv.transport`` calls, in timing wrappers.  ``pctv.experiments`` and
``pctv.bisection`` import library names directly (``from .graph import
build_graph``), so a wrapper only takes effect on the module where the
caller looks the name up: ``install`` replaces the function on every
loaded pctv module that holds it.

Each span adds its duration to its layer's busy time and to the child
time of the enclosing span on the same thread; self time is busy time
minus child time.  Counters are summed in the same place.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (defining module, function, span name).  The scipy solvers are wrapped
# where pctv.transport looks them up.
LAYERS = [
    ("pctv.config", "validate_config", "config.validate_config"),
    ("pctv.geometry", "sample_iid", "geometry.sample_iid"),
    ("pctv.kernels", "surface_tension", "kernels.surface_tension"),
    ("pctv.continuum", "weighted_tv_smooth", "continuum.weighted_tv_smooth"),
    ("pctv.graph", "build_graph", "graph.build_graph"),
    ("pctv.graph", "graph_total_variation", "graph.graph_total_variation"),
    ("pctv.graph", "component_labels", "graph.component_labels"),
    ("pctv.graph", "is_connected", "graph.is_connected"),
    ("pctv.transport", "bottleneck_distance", "transport.bottleneck_distance"),
    ("pctv.transport", "tlp_distance", "transport.tlp_distance"),
    ("pctv.transport", "maximum_flow", "transport.maximum_flow"),
    ("pctv.transport", "linear_sum_assignment", "transport.linear_sum_assignment"),
    ("pctv.transport", "linprog", "transport.linprog"),
    ("pctv.bisection", "local_search_bisection", "bisection.local_search_bisection"),
    ("pctv.bisection", "sweep_run", "bisection.sweep_run"),
    ("pctv.experiments", "write_records_csv", "experiments.write_records_csv"),
    ("pctv.svgplot", "line_figure", "svgplot.line_figure"),
    ("pctv.svgplot", "scatter_figure", "svgplot.scatter_figure"),
]


def _edges(result, args, kwargs):
    return {"graph.edges": result.edge_count}


def _points(result, args, kwargs):
    return {"geometry.points": result.n}


def _feasible(result, args, kwargs):
    # A probe finds a perfect matching exactly when the flow saturates
    # every edge leaving the source.
    graph, source = args[0], args[1]
    capacity = graph.data[graph.indptr[source]:graph.indptr[source + 1]].sum()
    return {"transport.maximum_flow.feasible": int(result.flow_value >= capacity)}


COUNTERS = {
    "graph.build_graph": _edges,
    "geometry.sample_iid": _points,
    "transport.maximum_flow": _feasible,
}


class Tracer:
    """Thread-safe span and counter totals for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy = {}
        self.self_time = {}
        self.calls = {}
        self.counters = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        stack = self._stack()
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.busy[name] = self.busy.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[0]
                self.calls[name] = self.calls.get(name, 0) + 1
        count = COUNTERS.get(name)
        if count is not None:
            with self._lock:
                for key, value in count(result, args, kwargs).items():
                    self.counters[key] = self.counters.get(key, 0) + value
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Replace every traced function on all loaded pctv modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pctv" or key.startswith("pctv."))]
        for module_name, attr, name in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def snapshot(self):
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }
