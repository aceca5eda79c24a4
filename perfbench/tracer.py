"""Spans around the public functions of each fvsbound module, from outside.

The solvers import their helpers by name (``from .graph import
is_two_connected``), so wrapping a function only on its home module misses
those calls. ``Tracer.installed`` instead rebinds every name, in every loaded
``fvsbound`` module, that refers to a wrapped function, and restores them all
on exit. Modules are looked up in ``sys.modules``, never as package
attributes.

A span's self time is its duration minus the durations of the wrapped calls
made inside it. ``cubic.apply_rule`` is keyed by its rule argument; the
rule matchers are private, so ``cubic.find_rule`` is timed as a whole.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer (module) -> public functions that get a span.
WRAPPED = {
    "graph": ("is_two_connected", "has_two_edge_cut", "min_side_two_edge_cut",
              "cut_vertices", "connected_components", "weighted_girth", "validate_fvs"),
    "cubic": ("find_rule", "apply_rule", "solve_cubic"),
    "planar": ("faces_of", "suppress_degree2_vertex", "find_guaranteed_merger",
               "plane_subgraph", "apply_merger", "split_high_degree_vertex", "embed"),
    "girth": ("solve_planar_weighted", "trivial_baseline"),
    "oracle": ("min_fvs_exact",),
    "instances": ("random_cubic_2connected", "random_planar_girth"),
}
# Every rule apply_rule can be called with, by its short code.
CUBIC_RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")
GRAPH_SPAN = "graph.Graph"


class Tracer:
    """Per-span call counts and self times, accumulated in memory."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    def _wrap(self, fn, key=None, key_of=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                name = key if key_of is None else key_of(args)
                calls[name] += 1
                self_s[name] += elapsed - child

        return span

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED, and Graph construction, while active."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fvsbound" or name.startswith("fvsbound."))]
        undo = []
        for layer, names in WRAPPED.items():
            home = sys.modules[f"fvsbound.{layer}"]
            for name in names:
                fn = getattr(home, name)
                if name == "apply_rule":
                    wrapper = self._wrap(fn, key_of=lambda args: f"cubic.apply_rule.{args[1].value[:2]}")
                else:
                    wrapper = self._wrap(fn, key=f"{layer}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        graph_cls = sys.modules["fvsbound.graph"].Graph
        init = graph_cls.__init__
        undo.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap(init, key=GRAPH_SPAN)
        try:
            yield self
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)


def span_names() -> list[str]:
    """Every span key a Tracer can record, in report order."""
    out = [GRAPH_SPAN]
    for layer, names in WRAPPED.items():
        for name in names:
            if name == "apply_rule":
                out.extend(f"cubic.apply_rule.{r}" for r in CUBIC_RULES)
            else:
                out.append(f"{layer}.{name}")
    return out
