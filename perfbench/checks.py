"""Output checker: every report is verified outside the timed region.

The checks use their own graph parser, objective evaluator and
certificates, so a solver bug cannot hide behind shared code:

* every solve report is consistent: the order is a permutation, the
  orientation points each edge at an endpoint (and follows the order),
  the indegrees and the key re-evaluate from it;
* cyclic answers pass a path certificate: no directed path s -> t with
  gain(s) < loss(t) under the request's lifted cost (square for
  dec_min / inc_max, whose cyclic optima are the square-sum optima);
* heuristic guarantees hold: smallest-last and greedy reach the
  (weighted) degeneracy, slope reaches sum min(a_u, a_v) + sum b,
  combine-st reaches ``terminal_imbalance_bound``, derandomized reaches
  the exact uniform-order expectation, random's best is at least its
  reported mean, compare reports a match;
* exact-mode keys equal the keys recorded in ``expected/`` at the seed
  commit, for the seeds recorded there.

A failed check is a failed request; it never aborts the run.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

KEY_KINDS = ("dec_min", "inc_max", "rho_delta_sum", "max_weighted_indeg",
             "forbidden_subpaths")
#: Modes whose key is exact, hence comparable with the recorded keys.
EXACT_MODES = ("cyclic-flow", "acyclic-exact", "smallest-last", "slope", "combine-st",
               "cyclic", "acyclic")
#: The cli's default --trials, which the random-mode requests keep.
TRIALS = 100


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...] | None

    @cached_property
    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def read_graph(path) -> Graph:
    """Parse the text graph files the workloads write (no comments, no loops)."""
    lines = path.read_text().split("\n")
    head = lines[0].split()
    n, m = int(head[0]), int(head[1])
    weighted = "weighted" in head[2:]
    edges, weights = [], []
    for line in lines[1:m + 1]:
        parts = line.split()
        edges.append((int(parts[0]), int(parts[1])))
        if weighted:
            weights.append(Fraction(parts[2]))
    return Graph(n, tuple(edges), tuple(weights) if weighted else None)


def num(x):
    """JSON form of an exact number, as reports write it."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def key_json(key):
    """JSON form of a key object returned by the library."""
    if hasattr(key, "penalty"):
        return {"penalty": key.penalty, "base": num(key.base)}
    if isinstance(key, tuple):
        return list(key)
    return num(key)


# ---------------------------------------------------------------------------
# Objectives, evaluated independently of orientopt.objectives.


def _shape(doc, degree):
    if isinstance(doc, str):
        doc = {"kind": doc}
    kind = doc["kind"]
    if kind == "square":
        return lambda z: z * z
    if kind == "cube":
        return lambda z: z ** 3
    if kind == "binom2":
        return lambda z: z * (z - 1) // 2
    if kind == "abs_balance":
        d = degree if doc.get("d") is None else doc["d"]
        return lambda z: abs(2 * z - d)
    if kind == "linear":
        a, b = Fraction(doc.get("a", 0)), Fraction(doc.get("b", 0))
        return lambda z: a * z + b
    if kind == "zero":
        return lambda z: 0
    if kind == "table":
        values = [Fraction(x) for x in doc["values"]]
        return lambda z: values[z]
    raise ValueError(f"unknown cost kind {kind!r}")


def _lifted(shape, f, g):
    """Cost as a (penalty, base) pair: units outside [f, g], cost at the
    clamped indegree.  Pairs compare lexicographically, like LiftedCost."""
    def cost(z):
        pen = 0
        if f is not None and z < f:
            pen, z = f - z, f
        if g is not None and z > g:
            pen, z = z - g, g
        return pen, shape(z)
    return cost


def normalize(spec) -> dict:
    doc = {"kind": spec} if isinstance(spec, str) else spec
    if doc["kind"] in KEY_KINDS or doc["kind"] == "phi_sum":
        return doc
    return {"kind": "phi_sum", "shared": doc}


def vertex_costs(spec, degrees) -> list:
    """Per-vertex lifted costs of a phi_sum spec."""
    doc = normalize(spec)
    n = len(degrees)

    def at(bound, v):
        return bound[v] if isinstance(bound, list) else bound

    costs = []
    for v in range(n):
        entry = doc["per_vertex"][v] if "per_vertex" in doc else doc["shared"]
        f, g = at(doc.get("f"), v), at(doc.get("g"), v)
        if isinstance(entry, dict) and ("f" in entry or "g" in entry):
            f, g = entry.get("f"), entry.get("g")
        costs.append(_lifted(_shape(entry, degrees[v]), f, g))
    return costs


def evaluate(spec, graph: Graph, heads) -> object:
    """JSON key of an orientation (heads per edge) under a spec."""
    doc = normalize(spec)
    kind = doc["kind"]
    deg = graph.degrees
    indeg = [0] * graph.n
    for h in heads:
        indeg[h] += 1
    if kind == "phi_sum":
        pen, base = 0, 0
        for v, cost in enumerate(vertex_costs(doc, deg)):
            p, b = cost(indeg[v])
            pen, base = pen + p, base + b
        return {"penalty": pen, "base": num(base)}
    if kind == "dec_min":
        return sorted(indeg, reverse=True)
    if kind == "inc_max":
        return sorted(indeg)
    if kind == "rho_delta_sum":
        return sum(z * (d - z) for z, d in zip(indeg, deg))
    if kind == "forbidden_subpaths":
        return sum(z * (z - 1) // 2 for z in indeg)
    if kind == "max_weighted_indeg":
        w = graph.weights or (1,) * len(graph.edges)
        wind = [0] * graph.n
        for j, h in enumerate(heads):
            wind[h] += w[j]
        return num(max(wind, default=0))
    raise ValueError(f"unknown objective kind {kind!r}")


def is_orientation(graph: Graph, heads) -> bool:
    return len(heads) == len(graph.edges) and all(h in e for h, e in zip(heads, graph.edges))


def heads_of_order(graph: Graph, order) -> list[int]:
    pos = [0] * graph.n
    for i, v in enumerate(order):
        pos[v] = i
    return [v if pos[u] < pos[v] else u for u, v in graph.edges]


# ---------------------------------------------------------------------------
# Certificates and guarantees.


def path_certificate(graph: Graph, heads, costs, free=None) -> str | None:
    """None iff no directed path s -> t (over free arcs) has
    loss(t) > gain(s): reversing such a path would move one unit of
    indegree from t to s and lower a separable convex cost."""
    n = graph.n
    indeg = [0] * n
    for h in heads:
        indeg[h] += 1
    out: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(graph.edges):
        if free is None or j in free:
            h = heads[j]
            out[u if h == v else v].append(h)

    def diff(a, b):
        return a[0] - b[0], a[1] - b[1]

    loss = [diff(costs[v](indeg[v]), costs[v](indeg[v] - 1)) if indeg[v] else None
            for v in range(n)]
    for s in range(n):
        if not out[s]:
            continue
        gain = diff(costs[s](indeg[s] + 1), costs[s](indeg[s]))
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in seen:
                    continue
                seen.add(y)
                stack.append(y)
                if loss[y] > gain:
                    return f"reversing a path {s} -> {y} improves the cost"
    return None


def peel_max(graph: Graph, weights=None) -> object:
    """Weighted degeneracy: the largest (weighted) degree a vertex has
    when minimum-degree peeling removes it, whatever the tie rule."""
    n = graph.n
    w = weights or (1,) * len(graph.edges)
    adj: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    deg = [0] * n
    for j, (u, v) in enumerate(graph.edges):
        adj[u].append((v, w[j]))
        adj[v].append((u, w[j]))
        deg[u] += w[j]
        deg[v] += w[j]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    gone = [False] * n
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if gone[v] or d != deg[v]:
            continue
        gone[v] = True
        best = max(best, d)
        for u, c in adj[v]:
            if not gone[u]:
                deg[u] -= c
                heapq.heappush(heap, (deg[u], u))
    return best


def uniform_expectation(graph: Graph) -> Fraction:
    """Exact mean of sum indeg*outdeg over uniform vertex orders:
    (d^2 - sum of squared multiplicities) / 6 per vertex."""
    mult: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for u, v in graph.edges:
        mult[u][v] = mult[u].get(v, 0) + 1
        mult[v][u] = mult[v].get(u, 0) + 1
    total = Fraction(0)
    for v in range(graph.n):
        d = sum(mult[v].values())
        total += Fraction(d * d - sum(c * c for c in mult[v].values()), 6)
    return total


# ---------------------------------------------------------------------------
# Per-request checks.


class Checker:
    """Checks the outcomes of one run; ``records`` maps request names to
    the keys recorded at the seed commit for this seed (may be empty)."""

    def __init__(self, lib, records: dict):
        self.lib = lib
        self.records = records

    def check(self, req, outcome) -> tuple[list[str], object]:
        """Problems with one request's outcome (empty means it passed),
        and the key to record when the request runs an exact mode."""
        if outcome.error is not None:
            return [f"raised {outcome.error}"], None
        if outcome.code != 0:
            return [f"exit code {outcome.code}, expected 0: {outcome.stderr.strip()[:200]}"], None
        graph = read_graph(req.graph)
        try:
            if req.kind == "mixed":
                report = {"orientation": list(outcome.value.orientation.heads),
                          "key": key_json(outcome.value.key)}
            else:
                report = _parse_report(outcome.stdout)
            problems, observed = getattr(self, f"_{req.kind}")(req, report, graph)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as e:
            return [f"malformed report: {type(e).__name__}: {e}"], None
        if req.mode not in EXACT_MODES:
            observed = None
        want = self.records.get(req.name)
        if want is not None and observed != want:
            problems.append(f"key {observed} differs from the recorded {want}")
        return problems, observed

    # -- solve ------------------------------------------------------------

    def _solve(self, req, rep, graph):
        problems = []
        if rep["schema"] != 1 or rep["subcommand"] != "solve" or rep["mode"] != req.mode:
            problems.append("wrong schema, subcommand or mode")
        if rep["n"] != graph.n or rep["m"] != len(graph.edges):
            problems.append("wrong n or m")
        order, heads = rep["order"], rep["orientation"]
        if order is not None:
            if sorted(order) != list(range(graph.n)):
                return problems + ["order is not a permutation"], None
            if heads != heads_of_order(graph, order):
                problems.append("orientation does not follow the order")
        elif req.mode != "cyclic-flow":
            return problems + ["order missing"], None
        if heads is None or not is_orientation(graph, heads):
            return problems + ["orientation missing or not an orientation"], None
        deg = graph.degrees
        indeg = [0] * graph.n
        for h in heads:
            indeg[h] += 1
        if rep["indeg"] != indeg or rep["outdeg"] != [d - z for d, z in zip(deg, indeg)]:
            problems.append("indeg/outdeg do not match the orientation")
        key = evaluate(req.objective, graph, heads)
        if rep["key"] != key:
            problems.append(f"key {rep['key']} does not re-evaluate (got {key})")
        if isinstance(key, dict) and rep.get("feasible") != (key["penalty"] == 0):
            problems.append("feasible flag disagrees with the penalty")
        problems += self._guarantee(req, rep, graph, heads)
        return problems, rep["key"]

    def _guarantee(self, req, rep, graph, heads):
        mode = req.mode
        if mode == "cyclic-flow":
            bad = path_certificate(graph, heads, _certificate_costs(req.objective, graph))
            return [bad] if bad else []
        if mode == "smallest-last":
            want = num(peel_max(graph, graph.weights))
            return [] if rep["key"] == want else [f"max weighted indeg is not {want}"]
        if mode == "acyclic-greedy":
            left = [0] * graph.n
            for h in heads:
                left[h] += 1
            return [] if max(left) == peel_max(graph) else ["greedy misses the degeneracy"]
        if mode == "slope":
            doc = normalize(req.objective)["per_vertex"]
            a = [Fraction(x["a"]) for x in doc]
            best = sum(min(a[u], a[v]) for u, v in graph.edges)
            best += sum(Fraction(x["b"]) for x in doc)
            want = {"penalty": 0, "base": num(best)}
            return [] if rep["key"] == want else [f"slope key is not the optimum {want}"]
        if mode == "combine-st":
            lib = self.lib
            g = lib.graph.build_graph(graph.n, graph.edges)
            bound = lib.ordering.terminal_imbalance_bound(g)
            ideal = sum((d // 2) * ((d + 1) // 2) for d in graph.degrees)
            return [] if ideal - rep["key"] == bound else ["imbalance is not the bound"]
        if mode == "derandomized":
            mean = uniform_expectation(graph)
            return [] if rep["key"] >= mean else ["value below the uniform expectation"]
        if mode == "random":
            trials = rep["trials"]
            if trials["count"] != TRIALS:
                return ["wrong trial count"]
            return [] if rep["key"] >= Fraction(trials["mean"]) else ["best below the mean"]
        return []

    # -- compare, oracle, mixed -------------------------------------------

    def _compare(self, req, rep, graph):
        problems = []
        if rep["subcommand"] != "compare" or rep["mode"] != req.mode:
            problems.append("wrong subcommand or mode")
        if rep["match"] is not True or rep["solver_key"] != rep["oracle_key"]:
            problems.append("solver and oracle keys differ")
        return problems, [rep["solver_key"], rep["oracle_key"]]

    def _oracle(self, req, rep, graph):
        problems = []
        if rep["subcommand"] != "oracle" or rep["mode"] != req.mode:
            problems.append("wrong subcommand or mode")
        if req.mode == "acyclic":
            if sorted(rep["order"]) != list(range(graph.n)):
                return problems + ["witness is not a permutation"], None
            heads = heads_of_order(graph, rep["order"])
        else:
            heads = rep["orientation"]
            if not is_orientation(graph, heads):
                return problems + ["witness is not an orientation"], None
            bad = path_certificate(graph, heads, _certificate_costs(req.objective, graph))
            if bad:
                problems.append(bad)
        if rep["key"] != evaluate(req.objective, graph, heads):
            problems.append("key does not re-evaluate from the witness")
        if not isinstance(rep["optima"], int) or rep["optima"] < 1:
            problems.append("optima count is not positive")
        return problems, [rep["key"], rep["optima"]]

    def _mixed(self, req, rep, graph):
        problems = []
        heads = rep["orientation"]
        if not is_orientation(graph, heads):
            return ["not an orientation"], None
        if any(heads[j] != h for j, h in req.fixed.items()):
            problems.append("a fixed edge changed its head")
        if rep["key"] != evaluate(req.objective, graph, heads):
            problems.append("key does not re-evaluate")
        free = set(range(len(graph.edges))) - set(req.fixed)
        bad = path_certificate(graph, heads, _certificate_costs(req.objective, graph), free)
        if bad:
            problems.append(bad)
        return problems, rep["key"]


def _certificate_costs(spec, graph: Graph):
    kind = normalize(spec)["kind"]
    if kind in ("dec_min", "inc_max"):
        spec = "square"
    elif kind != "phi_sum":
        raise ValueError(f"no path certificate for {kind!r}")
    return vertex_costs(spec, graph.degrees)


def _parse_report(stdout: str) -> dict:
    lines = stdout.strip().split("\n")
    if len(lines) != 1:
        raise ValueError(f"expected one report line, got {len(lines)}")
    return json.loads(lines[0])
