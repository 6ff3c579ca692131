"""Brute-force oracles: full enumeration of orientations and orders.

Deliberately free of solver shortcuts — the only cleverness allowed here
is incremental bookkeeping while enumerating, never a structural insight
that could share a bug with a solver.  Every candidate is visited, by a
Gray code over the 2**m orientations (one edge flips per step) or plain
changes over the n! orders (one adjacent swap per step), on int degrees
with weights scaled by the LCM of their denominators.  A per-kind ranker
ranks each candidate: by the penalty and base sums of per-vertex tables
(built from the cost specs here, not by the solvers' cost code), kept by
delta updates, for separable kinds; by the maximum or the sorted degree
list, negated where the objective maximizes, for the others.

Three savings per candidate are allowed, and no more.  The table sums
are compared with the best so far inside the walk.  A sorted key is
built only when its head, the maximum or minimum degree (negated where
the objective maximizes), ties or beats the best head, since a strictly
worse head cannot start an optimal rank.  For inc_min and inc_max a
tied head is followed by the number of vertices at the minimum, the
next thing the sorted key compares: more of them is better for inc_min
and worse for inc_max, and a strictly worse count skips the sorted key
as well.  So a caller sees every candidate that ties or beats the best
so far, and the witness and the number of optima stay exact.
"""

from __future__ import annotations

from math import lcm

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
    """Walk the n! vertex orders by plain changes (Knuth's Algorithm
    7.2.1.2P), from the identity: vertex t = n - 1 sweeps across the
    others, one adjacent swap per order, and between two sweeps the others
    take one plain change.  ``left`` holds the left degrees in units of
    ``w`` (a loop counts once).  When x, y becomes y, x, left[x] gains and
    left[y] loses the weight between them: four row reads per table sum.

    ``bar = visit(head, left, order)`` sees the first candidate and each
    later one whose head (see :func:`_head`; pairs compare
    lexicographically) is at most the bar it last returned: a candidate
    with a greater head ranks worse than one already seen.  A bar that no
    head exceeds lets every candidate through."""
    n = graph.n
    w, pen, base, top, sign, _ = r
    mult = [[0] * n for _ in range(n)]  # weight between two distinct vertices
    left = [0] * n  # those of the identity order, the first one walked
    for j, (u, v) in enumerate(graph.edges):
        if u != v:
            mult[u][v] += w[j]
            mult[v][u] += w[j]
        left[max(u, v)] += w[j]
    order = list(range(n))
    bar = visit(h := _head(r, left), left, order)
    if n < 2:
        return
    t = n - 1
    # per sweep: t's positions, its step back, the gain of the vertex it passes,
    # and s, Algorithm P's offset: 1 when the sweep leaves t first
    sweeps = (range(t - 1, -1, -1), 1, mult[t], 1), (range(1, n), -1, [-k for k in mult[t]], 0)
    c, o = [0] * t, [1] * t  # Algorithm P's offsets and directions below t

    def change(s):  # one plain change of the vertices below t: x, y becomes y, x
        j = t - 1
        while (q := c[j] + o[j]) < 0 or q > j:
            if not j:
                return None  # that was the last order
            s += q > j
            o[j] = -o[j]
            j -= 1
        i = j - max(c[j], q) + s
        c[j] = q
        x, y = order[i], order[i + 1]
        order[i], order[i + 1] = y, x
        k = mult[x][y]
        left[x], left[y] = left[x] + k, left[y] - k
        return x, y, k

    if pen is None:
        while True:
            for steps, d, row, s in sweeps:
                for i in steps:
                    x = order[i]
                    order[i + d] = x
                    order[i] = t
                    k = row[x]
                    if k:
                        left[x] += k
                        left[t] -= k
                        h = sign * top(left)
                    if h <= bar:
                        bar = visit(h, left, order)
                if change(s) is None:
                    return
                h = sign * top(left)
                if h <= bar:
                    bar = visit(h, left, order)
    (tp, tb), (bp, bb) = h, bar
    pt, bt = pen[t], base[t]
    while True:
        for steps, d, row, s in sweeps:
            for i in steps:
                x = order[i]
                order[i + d] = x
                order[i] = t
                k = row[x]
                if k:
                    z = left[x]
                    zk = left[x] = z + k
                    zt = left[t] = left[t] - k
                    px, bx = pen[x], base[x]
                    tp += px[zk] - px[z] + pt[zt] - pt[zt + k]
                    tb += bx[zk] - bx[z] + bt[zt] - bt[zt + k]
                if tp < bp or tp == bp and tb <= bb:
                    bp, bb = visit((tp, tb), left, order)
            if (xyk := change(s)) is None:
                return
            x, y, k = xyk
            zx, zy = left[x], left[y]
            tp += pen[x][zx] - pen[x][zx - k] + pen[y][zy] - pen[y][zy + k]
            tb += base[x][zx] - base[x][zx - k] + base[y][zy] - base[y][zy + k]
            if tp < bp or tp == bp and tb <= bb:
                bp, bb = visit((tp, tb), left, order)


def brute_optimal(graph: Multigraph, objective, mode: str, count_optima: bool = False) -> BruteResult:
    """Exhaustive optimum of an objective over all orientations (mode
    ``"cyclic"``) or all vertex orders (mode ``"acyclic"``).

    The witness is the first optimum of :func:`_walk_orientations`' Gray
    code, or the lexicographically first optimal order (a tie keeps the smaller).
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
    lex = mode == "acyclic"
    best = [None, None, 0, None, 0]  # rank, witness, number of optima, head, tie * count

    def visit(head, degrees, at):
        if tie and head == best[3] and tie * degrees.count(sign * head) > best[4]:
            return head
        rank = head if leaf is None else leaf(degrees)
        if best[0] is None or rank < best[0]:
            best[:] = rank, at[:], 1, head, tie and tie * degrees.count(sign * head)
        elif rank == best[0]:
            best[2] += 1
            if lex and at < best[1]:
                best[1] = at[:]
        return best[3]

    walk(graph, r, visit)
    witness = witness_of(tuple(best[1]))
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
