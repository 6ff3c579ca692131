"""Per-layer tracing from outside the program.

``install`` replaces each traced function with a timing wrapper in
every loaded ``orientopt`` module that binds it by name (and
``PhiSum.resolve`` on the class), and returns a function that puts the
originals back.  Spans are folded into a calling-context tree while the
run goes on: one root per request (or per set-up), one node per
distinct (parent node, layer) pair, holding the call count and the
total time.  Folding keeps memory bounded when the oracles call
``evaluate`` hundreds of thousands of times.  A node's self time is
its total minus its children's totals, so the self times of all nodes
under a root add up to that root's time exactly.
"""

from __future__ import annotations

import json
import sys
import types
from math import factorial
from time import perf_counter

#: (module, function, layer, counter).  A counter maps the call's
#: arguments and result to {metric: increment}.
TRACED = [
    ("flow", "solve_cyclic", "flow.solve_cyclic",
     lambda a, r: {"flow.solve_cyclic_calls": 1, "flow.edges": a[0].m}),
    ("flow", "solve_mixed", "flow.solve_mixed",
     lambda a, r: {"flow.edges": a[0].m - len(a[1])}),
    ("flow", "build_network", "flow.build_network", None),
    ("flow", "min_cost_flow", "flow.min_cost_flow", None),
    ("ordering", "exact_subset_dp", "ordering.exact_subset_dp",
     lambda a, r: {"ordering.dp_subsets": 1 << a[0].n}),
    ("ordering", "solve_acyclic_exact", "ordering.solve_acyclic_exact", None),
    ("ordering", "weighted_smallest_last", "ordering.smallest_last",
     lambda a, r: {"ordering.smallest_last_vertices": a[0].n}),
    ("ordering", "greedy_min_degree", "ordering.greedy_min_degree", None),
    ("ordering", "derandomized_order", "ordering.derandomized_order", None),
    ("ordering", "conditional_expectation", "ordering.cond_exp",
     lambda a, r: {"ordering.cond_exp_calls": 1}),
    ("ordering", "relative_order_counts", "ordering.relative_order_counts",
     lambda a, r: {"ordering.relative_order_counts_calls": 1}),
    ("ordering", "combine_st_orders", "ordering.combine_st", None),
    ("ordering", "random_order_trials", "ordering.random_trials", None),
    ("ordering", "linear_slope_order", "ordering.slope", None),
    ("graph", "block_tree", "graph.block_tree", None),
    ("graph", "st_order", "graph.st_order", lambda a, r: {"graph.st_order_calls": 1}),
    ("graph", "degrees_of_order", "graph.degrees", lambda a, r: {"graph.degrees_calls": 1}),
    ("graph", "degrees_of_orientation", "graph.degrees",
     lambda a, r: {"graph.degrees_calls": 1}),
    ("graph", "orientation_of_order", "graph.orientation_of_order", None),
    ("formats", "parse_graph", "formats.parse_graph",
     lambda a, r: {"formats.parse_graph_bytes": len(a[0].encode())}),
    ("formats", "parse_objective", "formats.parse_objective", None),
    ("formats", "key_to_json", "formats.to_json", None),
    ("formats", "objective_to_json", "formats.to_json", None),
    ("formats", "rational_to_json", "formats.to_json", None),
    ("objectives", "evaluate", "objectives.evaluate",
     lambda a, r: {"objectives.evaluate_calls": 1}),
    ("exhaustive", "brute_optimal", "exhaustive.brute_optimal",
     lambda a, r: {"exhaustive.brute_optimal_calls": 1,
                   "exhaustive.candidates":
                   factorial(a[0].n) if a[2] == "acyclic" else 1 << a[0].m}),
    ("instances", "random_multigraph", "instances.generate", None),
    ("instances", "random_scheduling_instance", "instances.generate", None),
    ("instances", "scheduling_to_orientation", "instances.generate", None),
]

#: Cached graph properties the traced run computes right after parsing,
#: so their cost shows as graph.props instead of inside the first solver
#: that happens to need them.
GRAPH_PROPS = ("incident", "degrees", "loop_counts", "neighbor_counts",
               "max_degree", "has_loops", "is_simple")

COUNTERS = sorted({
    "flow.solve_cyclic_calls", "flow.edges", "ordering.dp_subsets",
    "ordering.smallest_last_vertices", "ordering.cond_exp_calls",
    "ordering.relative_order_counts_calls", "graph.st_order_calls",
    "graph.degrees_calls", "formats.parse_graph_bytes", "objectives.evaluate_calls",
    "objectives.resolve_calls", "exhaustive.brute_optimal_calls", "exhaustive.candidates",
})
REQUEST_LAYER = "cli"
SETUP_LAYER = "setup"


class Recorder:
    """Calling-context tree of spans plus integer counters."""

    def __init__(self):
        # node id -> [layer, parent id, calls, total seconds, root label]
        self.nodes: list[list] = []
        self.children: list[dict[str, int]] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.installed: set[str] = set()  # layers whose functions exist

    def _node(self, layer: str, parent: int, label=None) -> int:
        self.nodes.append([layer, parent, 0, 0.0, label])
        self.children.append({})
        return len(self.nodes) - 1

    def begin(self, layer: str, label: str) -> None:
        """Open a root span: one request or one set-up."""
        self.stack.append(self._node(layer, -1, label))

    def end(self, seconds: float) -> None:
        node = self.nodes[self.stack.pop()]
        node[2] += 1
        node[3] += seconds

    def enter(self, layer: str) -> int:
        parent = self.stack[-1]
        node = self.children[parent].get(layer)
        if node is None:
            node = self.children[parent][layer] = self._node(layer, parent)
        self.stack.append(node)
        return node

    def leave(self, node: int, seconds: float) -> None:
        self.stack.pop()
        rec = self.nodes[node]
        rec[2] += 1
        rec[3] += seconds

    def wrap(self, fn, layer: str, counter=None):
        rec = self

        def traced(*args, **kwargs):
            if not rec.stack:  # called outside any request, e.g. by the checker
                return fn(*args, **kwargs)
            node = rec.enter(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.leave(node, perf_counter() - t0)
            if counter is not None:
                for name, inc in counter(args, result).items():
                    rec.counters[name] += inc
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_parse_graph(self, fn, counter):
        """parse_graph, followed by a graph.props span that touches the
        cached properties of the parsed graph."""
        parse = self.wrap(fn, "formats.parse_graph", counter)
        rec = self

        def traced(*args, **kwargs):
            graph = parse(*args, **kwargs)
            if rec.stack:
                node = rec.enter("graph.props")
                t0 = perf_counter()
                for prop in GRAPH_PROPS:
                    getattr(graph, prop)
                rec.leave(node, perf_counter() - t0)
            return graph

        return traced

    # -- results -----------------------------------------------------------

    def self_times(self, root_layer: str) -> dict[str, float]:
        """Self time per layer, summed over the trees under roots of
        ``root_layer``; the root's own self time is ``<root_layer>.self``."""
        child_total = [0.0] * len(self.nodes)
        under = [False] * len(self.nodes)
        for i, (layer, parent, _, total, _) in enumerate(self.nodes):
            if parent >= 0:
                child_total[parent] += total
                under[i] = under[parent]
            else:
                under[i] = layer == root_layer
        out: dict[str, float] = {}
        for i, (layer, parent, _, total, _) in enumerate(self.nodes):
            if under[i]:
                name = f"{root_layer}.self" if parent < 0 else layer
                out[name] = out.get(name, 0.0) + total - child_total[i]
        return out

    def dump(self, path) -> None:
        keys = ("layer", "parent", "calls", "seconds", "request")
        rows = [dict(zip(keys, rec)) for rec in self.nodes]
        path.write_text(json.dumps({"nodes": rows, "counters": self.counters}) + "\n")


def install(recorder: Recorder, lib, layers=None):
    """Wrap the traced functions (only those of ``layers``, if given) in
    every loaded orientopt module; returns the undo function.  A
    function missing from its module is skipped, so its metrics are
    absent rather than an error."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "orientopt" or name.startswith("orientopt."))]
    undo = []
    for mod_name, attr, layer, counter in TRACED:
        if layers is not None and layer not in layers:
            continue
        original = getattr(getattr(lib, mod_name), attr, None)
        if original is None:
            continue
        if attr == "parse_graph":
            wrapper = recorder.wrap_parse_graph(original, counter)
        else:
            wrapper = recorder.wrap(original, layer, counter)
        recorder.installed.add(layer)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    if layers is None:
        phisum = lib.objectives.PhiSum
        undo.append((phisum, "resolve", phisum.resolve))
        recorder.installed |= {"objectives.resolve", "graph.props"}
        phisum.resolve = recorder.wrap(
            phisum.resolve, "objectives.resolve",
            lambda a, r: {"objectives.resolve_calls": 1})
        # the report's json.dumps is part of serialization
        cli = lib.cli
        undo.append((cli, "json", cli.json))
        shim = types.SimpleNamespace(**vars(cli.json))
        shim.dumps = recorder.wrap(cli.json.dumps, "formats.to_json")
        cli.json = shim

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(recorder: Recorder, traced_s: float, overhead: float) -> dict:
    """Every per-layer metric: self seconds per layer, counters, the
    traced request time and the tracing overhead."""
    selfs = recorder.self_times(REQUEST_LAYER)
    setup = recorder.self_times(SETUP_LAYER)
    metrics = {}
    for layer in sorted(recorder.installed):
        if layer == "instances.generate":
            metrics[f"{layer}_s"] = (setup.get(layer, 0.0), "s")
        else:
            metrics[f"{layer}_s"] = (selfs.get(layer, 0.0), "s")
    metrics["cli.self_s"] = (selfs.get(f"{REQUEST_LAYER}.self", 0.0), "s")
    for name, value in recorder.counters.items():
        metrics[name] = (value, "count")
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics
