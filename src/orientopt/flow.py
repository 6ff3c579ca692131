"""Cyclic-regime solver by path augmentation on the orientation.

Reversing a directed path s ~> t moves one unit of indegree from t to
s.  Under a separable convex cost, with the marginals

    D+(s) = phi_s(indeg(s) + 1) - phi_s(indeg(s)),
    D-(t) = phi_t(indeg(t)) - phi_t(indeg(t) - 1),

that reversal changes the cost by D+(s) - D-(t).  The indegree vectors
of the orientations form an M-convex set, so an orientation is optimal
if and only if no path s ~> t has D+(s) < D-(t) (Murota, *Discrete
Convex Analysis*).  On such a set the dec-min, inc-max and square-sum
optima coincide (Frank & Murota, *Discrete Decreasing Minimization*),
so those keys are solved as the square sum.

This is the unit-capacity min-cost flow of the layered network (source,
vertex nodes, edge nodes, sink) with the network left implicit: only
its source arcs cost anything, and a residual path through edge nodes
is a directed path of the current orientation.  :func:`build_network`
builds the source arc costs, one row of marginals per vertex, and
:func:`min_cost_flow` augments along those paths, the semi-matching
augmentation of Harvey, Ladner, Lovasz & Tamir (J. Algorithms 2006).
The marginals are ``(penalty, base)`` pairs of the lifted costs, which
Python compares lexicographically, so a degree-bound penalty outweighs
any finite cost without a numeric big-M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Multigraph, Orientation, degrees_of_orientation
from .objectives import DecMin, IncMax, LiftedCost, PhiSum, evaluate, resolved, square


def build_network(graph: Multigraph, phis, heads) -> list[list[tuple]]:
    """The marginal cost rows of the free edges' heads.

    ``heads`` holds the head of each fixed edge and None for each free
    edge.  Row v lists phi_v(z + 1) - phi_v(z) as a ``(penalty, base)``
    pair for z from v's fixed indegree up to that plus its free degree,
    exclusive: the indegrees the free edges can reach.  Each row must be
    non-decreasing, which is convexity on those indegrees.
    """
    if len(phis) != graph.n:
        raise ValueError("need one cost spec per vertex")
    start = [0] * graph.n
    free = [0] * graph.n
    for (u, v), head in zip(graph.edges, heads):
        if head is not None:
            start[head] += 1
        elif u == v:
            raise ValueError("graphs with loops cannot be oriented")
        else:
            free[u] += 1
            free[v] += 1
    rows = []
    for phi, lo, k in zip(phis, start, free):
        prev = phi.parts(lo)
        row = []
        for z in range(lo + 1, lo + k + 1):
            cur = phi.parts(z)
            step = (cur[0] - prev[0], cur[1] - prev[1])
            if row and step < row[-1]:
                raise ValueError(
                    f"cost is not convex at indegree {z - 1}; the flow solver needs convexity"
                )
            row.append(step)
            prev = cur
        rows.append(row)
    return rows


def min_cost_flow(graph: Multigraph, marg, heads, free) -> list:
    """Orient the ``free`` edges (ids) in ``heads``, in place and at least
    cost, given the rows ``marg`` of :func:`build_network`.

    The free edges are inserted in id order.  For edge u-v, a backward
    search over the inserted free edges finds every vertex x with a
    directed path to u or v.  The x with the least ``(D+(x), x)`` takes
    the unit: its path is reversed and the edge points at the path's
    end.  Only x's indegree changes.  Fixed edges are never traversed.

    Each insertion keeps the orientation H of the inserted edges optimal.
    Let H' be the result of inserting u-v into an optimal H with x*
    chosen, and let s ~> t be a path of H' (s != t).  It has no
    improving reversal:

    * If the path uses no arc new in H' (a reversed arc or u-v), it is a
      path of H, and D'+(s) >= D+(s) by convexity.  If t != x*, then
      D'-(t) = D-(t) <= D+(s) by H's optimality.  If t = x*, s reaches x*
      and so u or v in H, so D+(s) >= D+(x*) = D'-(x*) by the choice.
    * Otherwise, the tail of its first new arc reaches u or v in H (it is
      on the reversed path, or it is u or v), so s does too and
      D'+(s) >= D+(s) >= D+(x*).  The head of its last new arc is on
      x*'s path in H, so x* reaches t in H and D+(x*) >= D-(t) = D'-(t)
      by H's optimality if t != x*, while D'-(x*) = D+(x*).

    Either way D'+(s) >= D'-(t).  Returns ``heads``.
    """
    edges = graph.edges
    load = [0] * graph.n  # free units each vertex holds
    inserted = [[] for _ in range(graph.n)]  # inserted free edges per vertex
    for j in free:
        u, v = edges[j]
        parent = {u: -1, v: -1}  # vertex -> its arc toward u or v
        queue = [u, v]
        for y in queue:
            for e in inserted[y]:
                if heads[e] == y:
                    a, b = edges[e]
                    x = a + b - y
                    if x not in parent:
                        parent[x] = e
                        queue.append(x)
        x = min(queue, key=lambda y: (marg[y][load[y]], y))
        load[x] += 1
        while parent[x] >= 0:
            e = parent[x]
            a, b = edges[e]
            heads[e] = x
            x = a + b - x
        heads[j] = x
        inserted[u].append(j)
        inserted[v].append(j)
    return heads


@dataclass(frozen=True)
class CyclicSolution:
    orientation: Orientation
    key: object  # natural objective key
    feasible: bool


def _solution(graph: Multigraph, objective, o: Orientation) -> CyclicSolution:
    key = evaluate(objective, graph, degrees_of_orientation(graph, o))
    return CyclicSolution(o, key, key.feasible if isinstance(key, LiftedCost) else True)


def _internal_phis(graph: Multigraph, objective):
    """Resolve the objective to per-vertex lifted costs; dec-min and
    inc-max resolve to the square sum, whose optima they share."""
    if isinstance(objective, PhiSum):
        return resolved(objective, graph)
    if isinstance(objective, (DecMin, IncMax)):
        return PhiSum(shared=square()).resolve(graph)
    raise ValueError(
        f"objective {objective.kind!r} is not solvable by the flow reduction"
    )


def _complete(graph: Multigraph, objective, phis, heads: list) -> CyclicSolution:
    free = [j for j, head in enumerate(heads) if head is None]
    if free:
        min_cost_flow(graph, build_network(graph, phis, heads), heads, free)
    return _solution(graph, objective, Orientation(tuple(heads)))


def solve_cyclic(graph: Multigraph, objective) -> CyclicSolution:
    """Optimal unconstrained orientation for a separable convex cost or a
    dec-min / inc-max key."""
    phis = _internal_phis(graph, objective)
    return _complete(graph, objective, phis, [None] * graph.m)


def solve_mixed(graph: Multigraph, fixed, objective) -> CyclicSolution:
    """Optimal completion of a partial orientation.

    ``fixed`` maps edge ids to their imposed heads.  The search starts
    from the fixed heads and never reverses them; the reported key
    covers the whole orientation.
    """
    phis = _internal_phis(graph, objective)
    heads = [None] * graph.m
    for eid, head in fixed.items():
        if not 0 <= eid < graph.m:
            raise ValueError(f"fixed edge id {eid} out of range")
        u, v = graph.edges[eid]
        if head not in (u, v):
            raise ValueError(f"fixed head {head} is not an endpoint of edge {eid}")
        heads[eid] = head
    return _complete(graph, objective, phis, heads)
