"""Brute-force oracles: full enumeration of orientations and orders.

Deliberately free of solver shortcuts — the only cleverness allowed here
is incremental bookkeeping while enumerating, never a structural insight
that could share a bug with a solver.  Every candidate is visited, by a
Gray code over the 2**m orientations (one edge flips per step) or a
recursion over the n! orders (left degrees carried down), on int degrees
with weights scaled by the LCM of their denominators.  A per-kind ranker
ranks each candidate: by the penalty and base sums of per-vertex tables,
kept by delta updates, for separable kinds; by the maximum or the sorted
degree list, negated where the objective maximizes, for the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import lcm
from typing import Iterator

from .graph import (
    Multigraph,
    Orientation,
    check_orientation,
    degrees_of_order,
    degrees_of_orientation,
    is_acyclic,
    topological_order,
)
from .objectives import evaluate, needs_weighted_degrees

ORIENTATION_CAP = 20  # at most 2**20 orientations
ORDER_CAP = 10  # at most 10! orders


def enumerate_orientations(graph: Multigraph, cap: int = ORIENTATION_CAP) -> Iterator[Orientation]:
    """Yield every orientation of a loop-free graph, 2**m of them."""
    if graph.has_loops:
        raise ValueError("graphs with loops cannot be oriented")
    if graph.m > cap:
        raise ValueError(f"refusing to enumerate 2**{graph.m} orientations")
    edges = graph.edges
    for bits in range(1 << graph.m):
        yield Orientation(tuple(e[1] if bits >> j & 1 == 0 else e[0] for j, e in enumerate(edges)))


def enumerate_orders(graph: Multigraph, cap: int = ORDER_CAP) -> Iterator[tuple[int, ...]]:
    if graph.n > cap:
        raise ValueError(f"refusing to enumerate {graph.n}! orders")
    return permutations(range(graph.n))


@dataclass(frozen=True)
class BruteResult:
    key: object  # natural objective key
    witness: object  # Orientation or order tuple
    count: int  # number of optima (1 unless counting was requested)


def _ranker(graph: Multigraph, objective):
    """``(w, pen, base, leaf)``: int edge weights, then either per-vertex
    penalty and base tables indexed by degree (``leaf`` None) or a
    function ranking the degree list (tables None).  Smaller is better."""
    k = objective.kind
    degs = graph.degrees
    w = [1] * graph.m
    zeros = [[0] * (d + 1) for d in degs]
    if k == "phi_sum":
        costs = [[phi.cost(z) for z in range(d + 1)] for phi, d in zip(objective.resolve(graph), degs)]
        return w, [[c.penalty for c in cs] for cs in costs], [[c.base for c in cs] for cs in costs], None
    if k == "rho_delta_sum":
        return w, zeros, [[-z * (d - z) for z in range(d + 1)] for d in degs], None
    if k == "forbidden_subpaths":
        return w, zeros, [[z * (z - 1) // 2 for z in range(d + 1)] for d in degs], None
    if k == "max_weighted_indeg" and graph.weights is not None:
        scale = lcm(*(x.denominator for x in graph.weights))
        w = [int(x * scale) for x in graph.weights]
    leaves = {
        "max_weighted_indeg": lambda ind: max(ind, default=0),
        "dec_min": lambda ind: sorted(ind, reverse=True),
        "inc_min": sorted,
        "dec_max": lambda ind: [-z for z in sorted(ind, reverse=True)],
        "inc_max": lambda ind: [-z for z in sorted(ind)],
    }
    if k not in leaves:
        raise ValueError(f"unknown objective kind {k!r}")
    return w, None, None, leaves[k]


def _walk_orientations(graph: Multigraph, w, pen, base, visit) -> None:
    """Call ``visit(tp, tb, indeg, heads)`` on each of the 2**m
    orientations of a loop-free graph, in Gray-code order from every edge
    pointing at its second end.  ``indeg`` counts in units of ``w``;
    ``tp`` and ``tb`` sum the tables at it (0 without tables)."""
    edges = graph.edges
    heads = [v for _, v in edges]
    ind = [0] * graph.n
    for j, v in enumerate(heads):
        ind[v] += w[j]
    tp = sum(p[z] for p, z in zip(pen, ind)) if pen is not None else 0
    tb = sum(b[z] for b, z in zip(base, ind)) if base is not None else 0
    visit(tp, tb, ind, heads)
    for i in range(1, 1 << len(edges)):
        j = (i & -i).bit_length() - 1
        u, v = edges[j]
        lose = heads[j]
        gain = heads[j] = u if lose == v else v
        zl, zg = ind[lose], ind[gain]
        yl = ind[lose] = zl - w[j]
        yg = ind[gain] = zg + w[j]
        if pen is not None:
            tp += pen[lose][yl] - pen[lose][zl] + pen[gain][yg] - pen[gain][zg]
            tb += base[lose][yl] - base[lose][zl] + base[gain][yg] - base[gain][zg]
        visit(tp, tb, ind, heads)


def _walk_orders(graph: Multigraph, w, pen, base, visit) -> None:
    """Call ``visit(tp, tb, left, order)`` on each of the n! vertex orders,
    in lexicographic order.  ``left`` holds the left degrees in units of
    ``w`` (a loop counts once); ``tp`` and ``tb`` sum the tables at them
    (0 without tables)."""
    n = graph.n
    prefix = [0] * n  # left degree each vertex would get if placed now
    wn: list[dict[int, int]] = [{} for _ in range(n)]
    for j, (u, v) in enumerate(graph.edges):
        if u == v:
            prefix[u] += w[j]
        else:
            wn[u][v] = wn[u].get(v, 0) + w[j]
            wn[v][u] = wn[v].get(u, 0) + w[j]
    nbrs = [list(d.items()) for d in wn]
    left = [0] * n
    rest = list(range(n))  # unplaced vertices, increasing
    order: list[int] = []

    def rec(tp, tb):
        if len(rest) == 1:  # the last vertex has no successor to update
            v = rest[0]
            z = left[v] = prefix[v]
            order.append(v)
            if pen is not None:
                tp, tb = tp + pen[v][z], tb + base[v][z]
            visit(tp, tb, left, order)
            order.pop()
            return
        for i in range(len(rest)):
            v = rest.pop(i)
            z = left[v] = prefix[v]
            order.append(v)
            for u, c in nbrs[v]:
                prefix[u] += c
            if pen is None:
                rec(tp, tb)
            else:
                rec(tp + pen[v][z], tb + base[v][z])
            for u, c in nbrs[v]:
                prefix[u] -= c
            order.pop()
            rest.insert(i, v)

    if rest:
        rec(0, 0)
    else:  # the empty graph has one order, the empty one
        visit(0, 0, left, order)


def brute_optimal(graph: Multigraph, objective, mode: str, count_optima: bool = False) -> BruteResult:
    """Exhaustive optimum of an objective over all orientations (mode
    ``"cyclic"``) or all vertex orders (mode ``"acyclic"``).

    The witness is the first optimum in a fixed enumeration sequence:
    the Gray code of :func:`_walk_orientations`, or lexicographic order.
    """
    if mode == "cyclic":
        if graph.has_loops:
            raise ValueError("graphs with loops cannot be oriented")
        if graph.m > ORIENTATION_CAP:
            raise ValueError(f"refusing to enumerate 2**{graph.m} orientations")
        walk, witness_of, degrees_of = _walk_orientations, Orientation, degrees_of_orientation
    elif mode == "acyclic":
        if graph.n > ORDER_CAP:
            raise ValueError(f"refusing to enumerate {graph.n}! orders")
        walk, witness_of, degrees_of = _walk_orders, tuple, degrees_of_order
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
    w, pen, base, leaf = _ranker(graph, objective)
    best = [None, None, 0]  # rank, witness, number of optima

    def visit(tp, tb, degrees, at):
        rank = (tp, tb) if leaf is None else leaf(degrees)
        if best[0] is None or rank < best[0]:
            best[:] = rank, tuple(at), 1
        elif count_optima and rank == best[0]:
            best[2] += 1

    walk(graph, w, pen, base, visit)
    witness = witness_of(best[1])
    dv = degrees_of(graph, witness, needs_weighted_degrees(objective))
    return BruteResult(evaluate(objective, graph, dv), witness, best[2])


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

    def visit(tp, tb, left, order):
        acc[0] += tb
        acc[1] += 1
        if acc[2] is None or tb > acc[2]:
            acc[2] = tb

    _walk_orders(graph, [1] * graph.m, [[0] * (d + 1) for d in degs], values, visit)
    return acc[0], acc[1], acc[2]


def _greedy_worst(graph: Multigraph, cap: int = 20) -> tuple[int, ...]:
    """The greedy minimum-degree run whose order has the largest square
    sum of left degrees (the ``exhaustive-worst`` tie rule), by a memoized
    walk over every greedy-feasible removal choice."""
    n = graph.n
    if n > cap:
        raise ValueError("exhaustive-worst greedy is limited to small graphs")
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


# ---------------------------------------------------------------------------
# Corner certificates for the two orientation regimes.


def vertex_certificate(graph: Multigraph, orientation: Orientation, cap: int = 16):
    """Linear weights certifying an acyclic orientation's indegree vector.

    Assigns strictly decreasing weights along a topological order, then
    checks by full enumeration that this vector is the unique minimizer
    of the weighted indegree sum.  Returns ``(weights, verdict)``.
    """
    topo = topological_order(graph, orientation)
    if topo is None:
        raise ValueError("orientation has a directed cycle")
    if graph.m > cap:
        raise ValueError(f"refusing to certify over 2**{graph.m} orientations")
    n = graph.n
    slopes = [0] * n
    for pos, v in enumerate(topo):
        slopes[v] = n - pos
    target = degrees_of_orientation(graph, orientation).indeg
    vectors = {degrees_of_orientation(graph, o).indeg for o in enumerate_orientations(graph, cap=cap)}
    value = {ind: sum(s * z for s, z in zip(slopes, ind)) for ind in vectors}
    least = min(value.values())
    verdict = {ind for ind, val in value.items() if val == least} == {target}
    return tuple(slopes), verdict


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
