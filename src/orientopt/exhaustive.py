"""Brute-force oracles: full enumeration of orientations and orders.

Deliberately free of solver shortcuts — the only cleverness allowed here
is incremental bookkeeping while enumerating, never a structural insight
that could share a bug with a solver.  Every candidate is visited, by a
Gray code over the 2**m orientations (one edge flips per step) or a
recursion over the n! orders (left degrees carried down), on int degrees
with weights scaled by the LCM of their denominators.  A per-kind ranker
ranks each candidate: by the penalty and base sums of per-vertex tables
(built from the cost specs here, not by the solvers' cost code), kept by
delta updates, for separable kinds; by the maximum or the sorted degree
list, negated where the objective maximizes, for the others.

Four savings per candidate are allowed, and no more.  The order walk
closes the last three vertices a < b < c directly: in each of their six
orders x, y, z, taken lexicographically, x gets left degree prefix[x],
y gets prefix[y] + mult[x][y] and z gets prefix[z] + mult[x][z] +
mult[y][z].  The table sums are compared with the best so far inside
the walk.  A sorted key is built only when its head, the maximum or
minimum degree (negated where the objective maximizes), ties or beats
the best head, since a strictly worse head cannot start an optimal rank.
For inc_min and inc_max a tied head is followed by the number of
vertices at the minimum, the next thing the sorted key compares: more
of them is better for inc_min and worse for inc_max, and a strictly
worse count skips the sorted key as well.  So a caller sees only the
candidates that tie or beat the best so far, in the same sequence, and
the witness and the number of optima stay exact.
"""

from __future__ import annotations

from itertools import permutations
from math import lcm
from typing import Iterator

from .graph import (
    Frozen,
    Multigraph,
    Orientation,
    degrees_of_order,
    degrees_of_orientation,
    topological_order,
)
from .objectives import LiftedPhi, PhiSum, abs_balance, evaluate, linear

ORIENTATION_CAP = 20  # at most 2**20 orientations
ORDER_CAP = 10  # at most 10! orders


def _refuse(graph: Multigraph, mode: str) -> None:
    """Raise unless the orientations of a loop-free graph (``"cyclic"``)
    or the vertex orders (``"acyclic"``) are within their cap."""
    if mode == "cyclic":
        if graph.has_loops:
            raise ValueError("graphs with loops cannot be oriented")
        if graph.m > ORIENTATION_CAP:
            raise ValueError(f"refusing to enumerate 2**{graph.m} orientations")
    elif mode != "acyclic":
        raise ValueError(f"unknown oracle mode {mode!r}")
    elif graph.n > ORDER_CAP:
        raise ValueError(f"refusing to enumerate {graph.n}! orders")


def enumerate_orientations(graph: Multigraph) -> Iterator[Orientation]:
    """Yield every orientation of a loop-free graph, 2**m of them."""
    _refuse(graph, "cyclic")
    edges = graph.edges
    for bits in range(1 << graph.m):
        yield Orientation(tuple(e[1] if bits >> j & 1 == 0 else e[0] for j, e in enumerate(edges)))


def enumerate_orders(graph: Multigraph) -> Iterator[tuple[int, ...]]:
    _refuse(graph, "acyclic")
    return permutations(range(graph.n))


class BruteResult(Frozen):
    """The natural objective key of the optimum, a witness attaining it
    (an Orientation or an order tuple) and the number of optima, which is
    None unless counting was requested."""

    __slots__ = _fields = ("key", "witness", "count")

    def __init__(self, key, witness, count: int | None):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "count", count)


def _ranker(graph: Multigraph, objective):
    """``(w, pen, base, top, sign, leaf)``: int edge weights, then either
    per-vertex penalty and base tables indexed by degree, for a table kind
    (``w`` all 1), or a ``leaf`` ranking the degree list, whose first
    entry, the head, is ``sign * top(degrees)``.  Smaller is better."""
    k = objective.kind
    degs = graph.degrees
    w = [1] * graph.m
    zeros = [[0] * (d + 1) for d in degs]
    if k == "phi_sum":
        # a degree outside [f, g] is clamped into it and pays one penalty unit per unit moved
        n = graph.n
        specs = objective.per_vertex if objective.per_vertex is not None else [objective.shared] * n
        fs, gs = ([b] * n if b is None or isinstance(b, int) else b for b in (objective.f, objective.g))
        if not len(specs) == len(fs) == len(gs) == n:
            raise ValueError("need a cost spec and degree bounds for every vertex")
        pen, base = [], []
        for spec, f, g, d in zip(specs, fs, gs, degs):
            spec = spec if isinstance(spec, LiftedPhi) else LiftedPhi(spec, f, g)  # checks f, g
            spec, f, g = spec.spec, spec.f, spec.g
            if spec.kind == "abs_balance" and spec.params[0] is None:
                spec = abs_balance(d)
            at = [z if f is None or z >= f else f for z in range(d + 1)]
            at = [y if g is None or y <= g else g for y in at]
            pen.append([abs(z - y) for z, y in enumerate(at)])
            base.append([spec(y) for y in at])
        return w, pen, base, None, 1, None
    if k == "rho_delta_sum":
        return w, zeros, [[-z * (d - z) for z in range(d + 1)] for d in degs], None, 1, None
    if k == "forbidden_subpaths":
        return w, zeros, [[z * (z - 1) // 2 for z in range(d + 1)] for d in degs], None, 1, None
    if k == "max_weighted_indeg" and graph.weights is not None:
        scale = lcm(*(x.denominator for x in graph.weights))
        w = [int(x * scale) for x in graph.weights]
    leaves = {
        "max_weighted_indeg": (max, 1, lambda ind: max(ind, default=0)),
        "dec_min": (max, 1, lambda ind: sorted(ind, reverse=True)),
        "inc_min": (min, 1, sorted),
        "dec_max": (max, -1, lambda ind: [-z for z in sorted(ind, reverse=True)]),
        "inc_max": (min, -1, lambda ind: [-z for z in sorted(ind)]),
    }
    if k not in leaves:
        raise ValueError(f"unknown objective kind {k!r}")
    return (w, None, None, *leaves[k])


def _head(r, deg):
    """The head of a degree list's rank: the table sums ``(tp, tb)``, or
    ``sign * top`` (0 without vertices)."""
    _, pen, base, top, sign, _ = r
    if pen is None:
        return sign * top(deg, default=0)
    return sum(p[z] for p, z in zip(pen, deg)), sum(b[z] for b, z in zip(base, deg))


def _walk_orientations(graph: Multigraph, r, visit) -> None:
    """Walk the 2**m orientations of a loop-free graph in Gray-code order
    from every edge pointing at its second end, with ``visit(head, indeg,
    heads)`` called as in :func:`_walk_orders`.  ``indeg`` counts in units
    of ``w``; the table sums follow each flip by the tables' steps."""
    w, pen, base, top, sign, _ = r
    edges = graph.edges
    heads = [v for _, v in edges]
    other = [u ^ v for u, v in edges]  # a head XOR this is the edge's other end
    ind = [0] * graph.n
    for j, v in enumerate(heads):
        ind[v] += w[j]
    h = _head(r, ind)
    bar = visit(h, ind, heads)
    if pen is None:
        for i in range(1, 1 << len(edges)):
            j = (i & -i).bit_length() - 1
            lose = heads[j]
            gain = heads[j] = lose ^ other[j]
            ind[lose] -= w[j]
            ind[gain] += w[j]
            h = sign * top(ind)
            if h <= bar:
                bar = visit(h, ind, heads)
        return
    (tp, tb), (bp, bb) = h, bar
    # the change of each table when a vertex's indegree goes from z to z + 1
    dp = [[y - x for x, y in zip(t, t[1:])] for t in pen]
    db = [[y - x for x, y in zip(t, t[1:])] for t in base]
    for i in range(1, 1 << len(edges)):
        j = (i & -i).bit_length() - 1
        lose = heads[j]
        gain = heads[j] = lose ^ other[j]
        yl = ind[lose] = ind[lose] - 1
        zg = ind[gain]
        ind[gain] = zg + 1
        tp += dp[gain][zg] - dp[lose][yl]
        tb += db[gain][zg] - db[lose][yl]
        if tp < bp or tp == bp and tb <= bb:
            bp, bb = visit((tp, tb), ind, heads)


def _walk_orders(graph: Multigraph, r, visit) -> None:
    """Walk the n! vertex orders in lexicographic order.  ``left`` holds
    the left degrees in units of ``w`` (a loop counts once).  One walk for
    every n: it closes the last three vertices when n >= 3.

    ``bar = visit(head, left, order)`` sees the first candidate and each
    later one whose head (see :func:`_head`; pairs compare
    lexicographically) is at most the bar it last returned: a candidate
    with a greater head ranks worse than one already seen.  A bar that no
    head exceeds lets every candidate through."""
    n = graph.n
    w, pen, base, top, sign, _ = r
    prefix = [0] * n  # left degree each vertex would get if placed now
    mult = [[0] * n for _ in range(n)]  # weight between two distinct vertices
    left = [0] * n  # those of the identity order, the first one walked
    for j, (u, v) in enumerate(graph.edges):
        if u == v:
            prefix[u] += w[j]
        else:
            mult[u][v] += w[j]
            mult[v][u] += w[j]
        left[max(u, v)] += w[j]
    bar = _head(r, left)
    nbrs = [[(u, c) for u, c in enumerate(row) if c] for row in mult]
    rest = list(range(n))  # unplaced vertices, increasing
    order: list[int] = []

    def rec(tp, tb):
        nonlocal bar
        if len(rest) == 3:  # close the last three a < b < c in their six orders
            a, b, c = rest
            pa, pb, pc = prefix[a], prefix[b], prefix[c]
            ab, ac, bc = mult[a][b], mult[a][c], mult[b][c]
            # x, y, z: x gets prefix[x], y adds mult[x][y], z adds mult[x][z] + mult[y][z]
            tail = (
                (a, b, c, pa, pb + ab, pc + ac + bc),
                (a, c, b, pa, pc + ac, pb + ab + bc),
                (b, a, c, pb, pa + ab, pc + ac + bc),
                (b, c, a, pb, pc + bc, pa + ab + ac),
                (c, a, b, pc, pa + ac, pb + ab + bc),
                (c, b, a, pc, pb + bc, pa + ab + ac),
            )
            if pen is None:
                for x, y, z, zx, zy, zz in tail:
                    left[x], left[y], left[z] = zx, zy, zz
                    h = sign * top(left)
                    if h <= bar:
                        bar = visit(h, left, (*order, x, y, z))
                return
            for x, y, z, zx, zy, zz in tail:
                sp = tp + pen[x][zx] + pen[y][zy] + pen[z][zz]
                sb = tb + base[x][zx] + base[y][zy] + base[z][zz]
                if sp < bar[0] or sp == bar[0] and sb <= bar[1]:
                    left[x], left[y], left[z] = zx, zy, zz
                    bar = visit((sp, sb), left, (*order, x, y, z))
            return
        if not rest:  # every vertex placed, reached only when n < 3
            h = _head(r, left)
            if h <= bar:
                bar = visit(h, left, order)
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

    rec(0, 0)


def brute_optimal(graph: Multigraph, objective, mode: str, count_optima: bool = False) -> BruteResult:
    """Exhaustive optimum of an objective over all orientations (mode
    ``"cyclic"``) or all vertex orders (mode ``"acyclic"``).

    The witness is the first optimum in a fixed enumeration sequence:
    the Gray code of :func:`_walk_orientations`, or lexicographic order.
    """
    _refuse(graph, mode)
    if mode == "cyclic":
        walk, witness_of, degrees_of = _walk_orientations, Orientation, degrees_of_orientation
    else:
        walk, witness_of, degrees_of = _walk_orders, tuple, degrees_of_order
    r = _ranker(graph, objective)
    *_, sign, leaf = r
    # past the minimum, an inc key ranks by how many vertices sit at it: more
    # is better for inc_min and worse for inc_max; tie * count is smaller-better
    tie = {"inc_min": -1, "inc_max": 1}.get(objective.kind, 0)
    best = [None, None, 0, None, 0]  # rank, witness, number of optima, head, tie * count

    def visit(head, degrees, at):
        if tie and head == best[3] and tie * degrees.count(sign * head) > best[4]:
            return head
        rank = head if leaf is None else leaf(degrees)
        if best[0] is None or rank < best[0]:
            best[:] = rank, tuple(at), 1, head, tie and tie * degrees.count(sign * head)
        elif count_optima and rank == best[0]:
            best[2] += 1
        return best[3]

    walk(graph, r, visit)
    witness = witness_of(best[1])
    dv = degrees_of(graph, witness, objective.kind == "max_weighted_indeg")
    count = best[2] if count_optima else None
    return BruteResult(evaluate(objective, graph, dv), witness, count)


# ---------------------------------------------------------------------------
# Corner certificate of an acyclic orientation.


def vertex_certificate(graph: Multigraph, orientation: Orientation):
    """Linear weights certifying an acyclic orientation's indegree vector.

    Assigns strictly decreasing weights along a topological order, then
    asks :func:`brute_optimal` whether the orientation is the unique
    minimizer of the weighted indegree sum.  No other orientation has its
    indegree vector (their differing arcs, oriented as here, would be
    balanced and hold a directed cycle).  Returns ``(weights, verdict)``;
    the query refuses above the oracle's ``ORIENTATION_CAP`` edges.
    """
    topo = topological_order(graph, orientation)
    if topo is None:
        raise ValueError("orientation has a directed cycle")
    n = graph.n
    slopes = [0] * n
    for pos, v in enumerate(topo):
        slopes[v] = n - pos
    objective = PhiSum(per_vertex=tuple(linear(s) for s in slopes))
    least = brute_optimal(graph, objective, "cyclic", count_optima=True)
    return tuple(slopes), least.count == 1 and least.witness == orientation
