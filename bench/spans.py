"""Spans around the public calls of each simplexcut layer.

The tracer wraps module-level functions from outside the package: every
loaded ``simplexcut`` module that holds a reference to a wrapped function
gets the wrapper in its place, so calls the package makes internally are
recorded too.  A span is ``[name, start, end, parent, attrs]``; spans stay
in memory until the run ends and are then summarised (and written out by
the worker).
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from fractions import Fraction

LAYERS = (
    "cli",
    "reproduce",
    "bounds",
    "search",
    "sperner",
    "instances",
    "cuts",
    "lattice",
    "io",
)

COMPONENT_SPANS = {1: "face", 2: "lines", 3: "cycles", 4: "uniform"}


class Tracer:
    """Records one span per wrapped call, with the enclosing span as parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Wrap fn; name is a span name or a function of (args, kwargs)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, position, keyword, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def _component_name(args, kwargs):
    index = _arg(args, kwargs, 0, "index")
    return f"instances.component.{COMPONENT_SPANS.get(index, index)}"


def _graph_attrs():
    # A graph object returned for the first time was built by this call;
    # a repeat was served from the cache.
    seen: dict[int, weakref.ref] = {}

    def attrs(args, kwargs, g):
        ref = seen.get(id(g))
        built = ref is None or ref() is not g
        if built:
            seen[id(g)] = weakref.ref(g)
        return {"edges": len(g.edges), "built": built}

    return attrs


def _weights_attrs(args, kwargs, w):
    return {"weighted_edges": len(w.weights)}


def _search_attrs(args, kwargs, result):
    budget = _arg(args, kwargs, 1, "budget")
    mode = "branch_and_bound" if budget is None else budget.mode
    return {
        "mode": mode,
        "nodes": result.explored,
        "certified": result.proven_optimal,
        "min_cost": str(result.min_cost),
        "n": result.argmin.graph.n,
    }


def _extremal_attrs(args, kwargs, report):
    return {"labelings": report.explored}


def _text_attrs(args, kwargs, text):
    return {"bytes": len(text.encode())}


# (module, function, span name, attrs factory or None)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("reproduce", "run_suite", "reproduce.run_suite", None),
    (
        "reproduce",
        "run_criterion",
        lambda a, k: f"reproduce.{_arg(a, k, 0, 'name')}",
        None,
    ),
    ("bounds", "limitation_sup", "bounds.limitation_sup", None),
    ("bounds", "limitation_min", "bounds.limitation_min", None),
    ("bounds", "optimize_params", "bounds.optimize_params", None),
    ("bounds", "nonopposite_cost_floor", "bounds.nonopposite_cost_floor", None),
    ("search", "min_non_opposite_cost", "search.min_non_opposite_cost", lambda: _search_attrs),
    ("search", "enumerate_non_opposite", "search.enumerate_non_opposite", None),
    ("search", "min_terminal_face_cut", "search.maxflow", None),
    ("sperner", "exhaustive_extremal", "sperner.extremal", lambda: _extremal_attrs),
    ("instances", "build_base_triangle", "instances.base_triangle", lambda: _weights_attrs),
    ("instances", "build_component", _component_name, lambda: _weights_attrs),
    ("instances", "combine", "instances.combine", lambda: _weights_attrs),
    ("instances", "combine_maps", "instances.combine_maps", lambda: _weights_attrs),
    ("cuts", "cost", "cuts.cost", None),
    ("cuts", "canonicalize", "cuts.canonicalize", None),
    ("lattice", "build_graph", "lattice.build_graph", _graph_attrs),
    ("io", "emit_instance_dimacs", "io.emit_dimacs", lambda: _text_attrs),
    ("io", "emit_instance_json", "io.emit_json", lambda: _text_attrs),
    ("io", "parse_instance", "io.parse_instance", None),
)


def install(tracer: Tracer, package: str = "simplexcut") -> None:
    """Replace every reference to a WRAPPED function in the loaded package
    modules with a traced wrapper."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for module, function, name, attrs in WRAPPED:
        original = getattr(sys.modules[f"{package}.{module}"], function)
        wrapper = tracer.wrap(name, original, attrs() if attrs else None)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# the criteria of simplexcut.reproduce.CRITERIA, fixed so that every metric
# name is emitted even if a criterion disappears
CRITERIA = (
    "optimizer",
    "limitation",
    "instance-totals",
    "named-cut-goldens",
    "sperner-extremal",
    "cut-size-floor",
    "exhaustive-min-floor",
    "terminal-flow-floor",
    "canonicalization",
    "format-determinism",
)

# per-layer metric -> the span name whose total duration (or call count) it is
_DURATIONS = {
    "lattice.build_graph_s": "lattice.build_graph",
    "instances.component.face_s": "instances.component.face",
    "instances.component.lines_s": "instances.component.lines",
    "instances.component.cycles_s": "instances.component.cycles",
    "instances.component.uniform_s": "instances.component.uniform",
    "instances.combine_maps_s": "instances.combine_maps",
    "cuts.cost_s": "cuts.cost",
    "cuts.canonicalize_s": "cuts.canonicalize",
    "search.maxflow_s": "search.maxflow",
    "sperner.extremal_s": "sperner.extremal",
    "bounds.limitation_sup_s": "bounds.limitation_sup",
    "bounds.limitation_min_s": "bounds.limitation_min",
    "io.emit_dimacs_s": "io.emit_dimacs",
    "io.parse_instance_s": "io.parse_instance",
    **{f"reproduce.{c}_s": f"reproduce.{c}" for c in CRITERIA},
}
_CALLS = {
    "lattice.build_graph_calls": "lattice.build_graph",
    "cuts.cost_calls": "cuts.cost",
    "cuts.canonicalize_calls": "cuts.canonicalize",
    "search.maxflow_calls": "search.maxflow",
}


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); layers that did no work read 0.

    A layer's busy time is the union of its span intervals and its self
    time the part of that not covered by child spans.  Children run inside
    their parent and one at a time, so both reduce to sums.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    duration: dict[str, float] = {}
    calls: dict[str, int] = {}
    edges_built = weighted_edges = emitted = 0
    bnb_s = bnb_nodes = bnb_runs = bnb_certified = 0
    n6_incumbent = 0.0
    labelings = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        layer = layer_of(name)
        took = end - start
        self_time[layer] += took - child_time[i]
        ancestor = parent
        while ancestor >= 0 and layer_of(spans[ancestor][0]) != layer:
            ancestor = spans[ancestor][3]
        outermost = ancestor < 0
        if outermost:
            busy[layer] += took
        duration[name] = duration.get(name, 0.0) + took
        calls[name] = calls.get(name, 0) + 1
        attrs = attrs or {}
        if attrs.get("built"):
            edges_built += attrs["edges"]
        if outermost and "weighted_edges" in attrs:
            weighted_edges += attrs["weighted_edges"]
        emitted += attrs.get("bytes", 0)
        labelings += attrs.get("labelings", 0)
        if attrs.get("mode") == "branch_and_bound":
            bnb_s += took
            bnb_nodes += attrs["nodes"]
            bnb_runs += 1
            bnb_certified += attrs["certified"]
            if not attrs["certified"] and attrs["n"] == 6:
                n6_incumbent = float(Fraction(attrs["min_cost"]))
    metrics = {m: (duration.get(s, 0.0), "s") for m, s in _DURATIONS.items()}
    metrics.update({m: (calls.get(s, 0), "count") for m, s in _CALLS.items()})
    metrics.update(
        {
            "lattice.edges_built": (edges_built, "count"),
            "instances.weighted_edges": (weighted_edges, "count"),
            "io.bytes": (emitted, "bytes"),
            "sperner.labelings": (labelings, "count"),
            "search.bnb_s": (bnb_s, "s"),
            "search.bnb_nodes": (bnb_nodes, "count"),
            "search.bnb_nodes_per_s": (bnb_nodes / bnb_s if bnb_s else 0.0, "1/s"),
            "search.bnb_runs": (bnb_runs, "count"),
            "search.bnb_certified": (bnb_certified, "count"),
            "search.bnb_certified_share": (
                bnb_certified / bnb_runs if bnb_runs else 0.0,
                "ratio",
            ),
            "search.bnb_n6_incumbent": (n6_incumbent, "cost"),
            "trace.spans": (len(spans), "count"),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (busy[layer], "s")
        metrics[f"{layer}.self_s"] = (self_time[layer], "s")
    return metrics
