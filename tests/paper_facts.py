"""Closed forms and small references from the paper that only the tests
check solvers against: the harmonic bound on greedy square sums, the
optimum of a linear cost sum, the degree-product imbalance of an order,
the two orders of the G_k tightness family, a brute-force scheduling
optimum, a minimize-me rank of an order's key, a graph's JSON document,
a cost's discrete convexity, a graph's Fraction weighted degrees, the
blocks at a vertex, the cycle-reversal certificate of a cyclic
orientation, an additive order value's sum, count and max over every
order, and the worst greedy minimum-degree run."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from orientopt.exhaustive import ORDER_CAP, _walk_orders
from orientopt.formats import rational_to_json
from orientopt.graph import (
    BlockTree,
    DegreeVector,
    Multigraph,
    Orientation,
    check_orientation,
    degrees_of_order,
    degrees_of_orientation,
)
from orientopt.instances import SchedulingInstance
from orientopt.objectives import PhiSpec, evaluate, exact_number


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def linear_optimum_value(graph: Multigraph, slopes: Sequence, intercepts=None):
    """Closed-form optimum of a linear cost sum: every edge pays the
    smaller endpoint slope, plus all intercepts."""
    if graph.has_loops:
        raise ValueError("the closed form assumes a loop-free graph")
    a = [exact_number(s) for s in slopes]
    if len(a) != graph.n:
        raise ValueError("need one slope per vertex")
    total = sum(min(a[u], a[v]) for u, v in graph.edges)
    if intercepts is not None:
        if len(intercepts) != graph.n:
            raise ValueError("need one intercept per vertex")
        total += sum(exact_number(b) for b in intercepts)
    return total


@dataclass(frozen=True)
class ImbalanceReport:
    """Per-vertex floor(d/2)*ceil(d/2) - leftdeg*rightdeg and its sum."""

    per_vertex: tuple[int, ...]
    total: int


def imbalance_report(graph: Multigraph, order: Sequence[int]) -> ImbalanceReport:
    dv = degrees_of_order(graph, order)
    per = tuple(
        (d // 2) * ((d + 1) // 2) - i * o
        for d, i, o in zip(graph.degrees, dv.indeg, dv.outdeg)
    )
    return ImbalanceReport(per, sum(per))


def gk_adversarial_order(k: int) -> tuple[int, ...]:
    """Greedy-feasible order on ``gen_gk(k)`` scoring 9k-4: all triangles
    first, then the connectors.  With that vertex numbering this is the
    identity."""
    return tuple(range(4 * k - 1))


def gk_optimal_order(k: int) -> tuple[int, ...]:
    """Order on ``gen_gk(k)`` scoring 7k-2: first triangle, then
    connector + triangle alternating."""
    order = [0, 1, 2]
    for i in range(2, k + 1):
        order.append(3 * k + i - 2)
        order += [3 * (i - 1), 3 * (i - 1) + 1, 3 * (i - 1) + 2]
    return tuple(order)


def brute_schedule_cost(instance: SchedulingInstance):
    """Exact minimum total cost over every feasible assignment,
    including the cost of empty slots."""
    choices = [sorted(I) for I in instance.feasible]
    best = None
    stack = [(0, [0] * instance.num_slots)]
    while stack:
        j, loads = stack.pop()
        if j == len(choices):
            cost = sum(
                exact_number(instance.slot_costs[t](loads[t]))
                for t in range(instance.num_slots)
            )
            if best is None or cost < best:
                best = cost
            continue
        for t in choices[j]:
            nl = list(loads)
            nl[t] += 1
            stack.append((j + 1, nl))
    return best


def rank_of(objective, key):
    """Map a natural key to a totally ordered minimize-me key."""
    k = objective.kind
    if k == "phi_sum":
        return (key.penalty, key.base)
    if k in ("inc_max", "dec_max"):
        return tuple(-x for x in key)
    if k == "rho_delta_sum":
        return -key
    return key


def rank_key(objective, graph: Multigraph, dv: DegreeVector):
    return rank_of(objective, evaluate(objective, graph, dv))


def graph_to_json(graph: Multigraph) -> dict:
    if graph.weights is None:
        edges = [[u, v] for u, v in graph.edges]
    else:
        edges = [
            [u, v, rational_to_json(w)] for (u, v), w in zip(graph.edges, graph.weights)
        ]
    doc: dict = {"n": graph.n, "edges": edges}
    if graph.allow_loops:
        doc["allow_loops"] = True
    return doc


def validate_convex(spec: PhiSpec, d_max: int) -> tuple[int, ...]:
    """Check discrete convexity of ``spec`` on ``0..d_max``.

    Returns the interior points where convexity is strict
    (phi(z+1) + phi(z-1) > 2 phi(z)); raises if it fails anywhere.
    """
    if spec.kind == "table" and len(spec.params) - 1 < d_max:
        raise ValueError(f"table cost is only defined up to indegree {len(spec.params) - 1}, need {d_max}")
    strict = []
    for z in range(1, d_max):
        gap = spec(z + 1) + spec(z - 1) - 2 * spec(z)
        if gap < 0:
            raise ValueError(f"cost is not convex at indegree {z}")
        if gap > 0:
            strict.append(z)
    return tuple(strict)


def weighted_degrees(graph: Multigraph) -> tuple[Fraction, ...]:
    return tuple(Fraction(d, graph.int_weights[1]) for d in graph.int_weighted_degrees)


def blocks_at(tree: BlockTree, v: int) -> tuple[int, ...]:
    return tuple(i for i, b in enumerate(tree.blocks) if v in b.vertices)


def shortest_directed_cycle(graph: Multigraph, orientation: Orientation):
    """Arc ids of a shortest directed cycle, or None if acyclic."""
    check_orientation(graph, orientation)
    n = graph.n
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, h in enumerate(orientation.heads):
        t = graph.other_end(j, h)
        out[t].append((h, j))
    best: list[int] | None = None
    for s in range(n):
        # BFS over arcs from s; first time we re-enter s closes a cycle
        dist = [-1] * n
        par_v = [-1] * n
        par_e = [-1] * n
        dist[s] = 0
        queue = [s]
        closing = None
        while queue and closing is None:
            nxt = []
            for v in queue:
                for h, j in out[v]:
                    if h == s:
                        closing = (v, j)
                        break
                    if dist[h] == -1:
                        dist[h] = dist[v] + 1
                        par_v[h] = v
                        par_e[h] = j
                        nxt.append(h)
                if closing:
                    break
            queue = nxt
        if closing is None:
            continue
        v, j = closing
        cyc = [j]
        while v != s:
            cyc.append(par_e[v])
            v = par_v[v]
        cyc.reverse()
        if best is None or len(cyc) < len(best):
            best = cyc
    return best


def cycle_reversal_decomposition(graph: Multigraph, orientation: Orientation):
    """Express a cyclic orientation's indegree vector as the exact average
    of k vectors, by reversing each arc of one directed k-cycle in turn.

    Returns the k orientations; raises on acyclic input.
    """
    cyc = shortest_directed_cycle(graph, orientation)
    if cyc is None:
        raise ValueError("orientation is acyclic; no cycle to decompose")
    heads = orientation.heads
    out = []
    for j in cyc:
        flipped = list(heads)
        flipped[j] = graph.other_end(j, heads[j])
        out.append(Orientation(tuple(flipped)))
    k = len(out)
    base = degrees_of_orientation(graph, orientation).indeg
    sums = [0] * graph.n
    for o in out:
        for v, z in enumerate(degrees_of_orientation(graph, o).indeg):
            sums[v] += z
    if sums != [k * z for z in base]:
        raise RuntimeError("internal error: reversal vectors do not average back")
    return tuple(out)


def order_value_stats(graph: Multigraph, value_of_left_degree=None):
    """Sum, count and max of an additive order value over all n! orders.

    Default value is sum of left degree times right degree.  Used for
    exact expectations: mean = total / n!.
    """
    if graph.n > ORDER_CAP:
        raise ValueError(f"refusing to enumerate {graph.n}! orders")
    if graph.has_loops:
        raise ValueError("degree-split statistics expect a loop-free graph")
    degs = graph.degrees
    value = value_of_left_degree or (lambda v, z: z * (degs[v] - z))
    values = [[value(v, z) for z in range(d + 1)] for v, d in enumerate(degs)]
    acc = [0, 0, None]  # total, leaves, best

    def visit(head, left, order):
        tb = head[1]
        acc[0] += tb
        acc[1] += 1
        if acc[2] is None or tb > acc[2]:
            acc[2] = tb
        return 1, 0  # every penalty is 0, so this bar lets every order through

    zeros = [[0] * (d + 1) for d in degs]
    _walk_orders(graph, ([1] * graph.m, zeros, values, None, 1, None), visit)
    return acc[0], acc[1], acc[2]


def _greedy_worst(graph: Multigraph) -> tuple[int, ...]:
    """The greedy minimum-degree run whose order has the largest square
    sum of left degrees, by a memoized walk over every greedy-feasible
    removal choice.  Refuses graphs of more than 20 vertices."""
    n = graph.n
    if n > 20:
        raise ValueError("the worst greedy run is searched only on graphs of at most 20 vertices")
    nbrs = [list(graph.neighbor_counts[v].items()) for v in range(n)]
    loops = graph.loop_counts

    @cache
    def worst(mask: int) -> tuple[int, int]:
        """Largest square sum over the vertices of mask, and which of them
        to place last: its left degree is then its degree within mask."""
        if mask == 0:
            return 0, -1
        inside = [v for v in range(n) if mask >> v & 1]
        deg = {v: loops[v] + sum(c for u, c in nbrs[v] if mask >> u & 1) for v in inside}
        lo = min(deg.values())
        best, pick = None, -1
        for v in inside:
            if deg[v] == lo:
                val = worst(mask ^ (1 << v))[0] + lo * lo
                if best is None or val > best:
                    best, pick = val, v
        return best, pick

    mask = (1 << n) - 1
    suffix = []
    while mask:
        _, v = worst(mask)
        suffix.append(v)
        mask ^= 1 << v
    return tuple(reversed(suffix))
