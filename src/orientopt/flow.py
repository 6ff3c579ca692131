"""Cyclic-regime solver by path reversal on the orientation.

Reversing a directed path s ~> t moves one unit of indegree from t to
s.  Under a separable convex cost, with the marginals

    D+(s) = phi_s(indeg(s) + 1) - phi_s(indeg(s)),
    D-(t) = phi_t(indeg(t)) - phi_t(indeg(t) - 1),

that reversal changes the cost by D+(s) - D-(t).  The indegree vectors
of the orientations form an M-convex set, so an orientation is optimal
if and only if no path s ~> t has D+(s) < D-(t) (Murota, *Discrete
Convex Analysis*): if label(x) is the largest D-(t) over the vertices t
that x reaches by a path of one or more arcs, every x with such a path
has D+(x) >= label(x).  On such a set the dec-min, inc-max and
square-sum optima coincide (Frank & Murota, *Discrete Decreasing
Minimization*), so those keys are solved as the square sum, and so is
the sum of C(indeg, 2), which is (square sum - m) / 2 on every orientation.

This is the unit-capacity min-cost flow of the layered network (source,
vertex nodes, edge nodes, sink) with the network left implicit: only
its source arcs cost anything, and a residual path through edge nodes
is a directed path of the current orientation.  :func:`build_network`
builds the source arc costs, one row of marginals per vertex, and
:func:`min_cost_flow` reverses edge-disjoint improving paths in
phases, in the style of the semi-matching algorithm of Harvey, Ladner,
Lovasz & Tamir (J. Algorithms 2006) and the egalitarian orientations of
Borradaile et al. (JGAA 2017).  Each phase starts with a pass that
computes every label, and the pass that finds no violation of the
condition above is the optimality certificate.  The marginals are
``(penalty, base)`` pairs of the lifted costs, which Python compares
lexicographically, so a degree-bound penalty outweighs any finite cost
without a numeric big-M.
"""

from __future__ import annotations

from .graph import Frozen, Multigraph, Orientation, degrees_of_orientation
from .objectives import LiftedCost, PhiSum, evaluate, resolved, square


def build_network(graph: Multigraph, phis, heads) -> list[list[tuple]]:
    """The marginal cost rows of the free edges' heads.

    ``heads`` holds the head of each fixed edge and None for each free
    edge.  Row v lists phi_v(z + 1) - phi_v(z) as a ``(penalty, base)``
    pair for z from v's fixed indegree up to that plus its free degree,
    exclusive: the indegrees the free edges can reach.  Each row must be
    non-decreasing, which is convexity on those indegrees.  Vertices with
    the same cost object, fixed indegree and free degree share one row
    list, which callers only read.
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
    memo = {}  # keyed by id(phi): phis keeps every phi alive
    for phi, lo, k in zip(phis, start, free):
        key = (id(phi), lo, k)
        row = memo.get(key)
        if row is None:
            row = memo[key] = []
            prev = phi.parts(lo)
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

    With ``load[x]`` the free units x holds, D+(x) = ``marg[x][load[x]]``
    and D-(x) = ``marg[x][load[x] - 1]``.  Fixed edges are never
    traversed or reversed.

    * **Start.**  Each free edge, in id order, points at the endpoint
      with the smaller ``(D+, id)``.
    * **Label pass.**  The vertices holding a unit are grouped by D-,
      from the highest level to the lowest.  For each level, one
      multi-source backward search over the free arcs starts from that
      level's unlabelled vertices and gives each unlabelled vertex it
      reaches the level as its label and the arc it came by as its
      parent.  A vertex reached at a level was not reached at a higher
      one, so its label is the largest D- of a vertex it reaches: the
      label(x) of the module docstring, for every vertex with a parent.
      A root, labelled by its own D-, has D+ >= D- by convexity.
    * **Reversal.**  A vertex x with a parent and D+(x) < label(x) is a
      violator.  Taken by ``(D+, label, id)``, a violator's parent path
      to its root r is reversed when no vertex on it but r has been used
      in this phase and D+(x) < D-(r) at the loads of that moment; its
      vertices but r are then marked used, and r is marked once its load
      reaches 0.  The paths of a phase share at most their roots, so they
      are edge-disjoint and each one is still a path when it is
      reversed, and x's load is still that of the pass: the reversal
      changes the cost by D+(x) - D-(r) < 0.  The first violator's path
      is always reversed, since its D-(r) is label(x), so every phase
      that finds a violator strictly lowers the lexicographic
      ``(penalty, base)`` cost, and there are finitely many
      orientations: the phases end.
    * **Stop.**  A pass that finds no violator has D+(x) >= label(x) for
      every vertex with a parent, which is the optimality condition.

    Returns ``heads``.
    """
    edges = graph.edges
    load = [0] * graph.n
    into = [set() for _ in range(graph.n)]  # free edges into each vertex
    other = [u ^ v for u, v in edges]  # an endpoint xor this is the other one
    for j in free:
        u, v = edges[j]
        x = u if (marg[u][load[u]], u) < (marg[v][load[v]], v) else v
        heads[j] = x
        load[x] += 1
        into[x].add(j)
    while True:
        label = [None] * graph.n
        parent = [-1] * graph.n
        violators = []
        levels = {}
        for v in range(graph.n):
            if load[v]:
                levels.setdefault(marg[v][load[v] - 1], []).append(v)
        for level in sorted(levels, reverse=True):
            queue = [t for t in levels[level] if label[t] is None]
            for t in queue:
                label[t] = level
            for y in queue:
                for e in into[y]:
                    x = other[e] ^ y
                    if label[x] is None:
                        label[x] = level
                        parent[x] = e
                        queue.append(x)
                        if marg[x][load[x]] < level:
                            violators.append(x)
        if not violators:
            return heads
        violators.sort(key=lambda x: (marg[x][load[x]], label[x], x))
        used = [False] * graph.n
        for x in violators:
            path = [x]
            while not used[path[-1]] and parent[path[-1]] >= 0:
                path.append(other[parent[path[-1]]] ^ path[-1])
            r = path.pop()
            if used[r] or not marg[x][load[x]] < marg[r][load[r] - 1]:
                continue
            for y in path:
                e = parent[y]
                into[heads[e]].remove(e)
                into[y].add(e)
                heads[e] = y
                used[y] = True
            load[x] += 1
            load[r] -= 1
            used[r] = not load[r]


class CyclicSolution(Frozen):
    """An orientation, its natural objective key and whether it meets
    every degree bound."""

    __slots__ = _fields = ("orientation", "key", "feasible")

    def __init__(self, orientation: Orientation, key, feasible: bool):
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "feasible", feasible)


def _solution(graph: Multigraph, objective, o: Orientation) -> CyclicSolution:
    key = evaluate(objective, graph, degrees_of_orientation(graph, o))
    return CyclicSolution(o, key, key.feasible if isinstance(key, LiftedCost) else True)


def _internal_phis(graph: Multigraph, objective):
    """Resolve the objective to per-vertex lifted costs; dec-min, inc-max
    and forbidden subpaths resolve to the square sum, whose optima they share."""
    if isinstance(objective, PhiSum):
        return resolved(objective, graph)
    if objective.kind in ("dec_min", "inc_max", "forbidden_subpaths"):
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
    dec-min, inc-max or forbidden-subpaths key."""
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
