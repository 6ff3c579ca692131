"""Cyclic-regime solver via min-cost flow.

An orientation minimizing a separable convex indegree cost corresponds
to a min-cost flow of value m on a layered network: the source feeds
each vertex node through d(v) parallel unit arcs whose l-th arc costs
phi(l) - phi(l-1) (non-decreasing by convexity, so cheaper units are
used first), vertex nodes feed the edge nodes of their incident edges,
and every edge node passes one unit to the sink.  The unit leaving edge
node j through vertex node v means v is the head of edge j.

The network holds :class:`LiftedCost` arc costs, so degree-bound
penalties dominate any finite cost without a numeric big-M.  The solver
encodes each of them once, as the exact int ``penalty * M + base`` over
bases scaled by the LCM of their denominators, with M one more than
8 * sum |base| over the forward arcs.  That exceeds every base
difference the shortest-path computations compare (proof at
:func:`min_cost_flow`), so every comparison and every tie comes out as
it would on the LiftedCost pairs, and so does the orientation.  Arc costs
are normalized by phi(0); the dropped constant is restored afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .graph import Multigraph, Orientation, build_graph, degrees_of_orientation
from .objectives import (
    DecMin,
    IncMax,
    LiftedCost,
    LiftedPhi,
    PhiSum,
    _int_costs,
    evaluate,
    exp_base,
    neg_exp_base,
)


@dataclass
class FlowNetwork:
    """Residual network; arcs come in forward/backward pairs (i, i^1)."""

    num_nodes: int
    source: int
    sink: int
    required: int
    to: list[int] = field(default_factory=list)
    cap: list[int] = field(default_factory=list)
    cost: list[LiftedCost] = field(default_factory=list)
    adj: list[list[int]] = field(default_factory=list)
    offset: LiftedCost = field(default_factory=LiftedCost.zero)
    # bookkeeping for extraction
    parallel: list[list[int]] = field(default_factory=list)  # per vertex, s-arc ids by level
    incidence: list[list[tuple[int, int]]] = field(default_factory=list)  # per edge, (arc, vertex)

    def add_arc(self, u: int, v: int, cost: LiftedCost) -> int:
        a = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((1, 0))
        self.cost.extend((cost, -cost))
        self.adj[u].append(a)
        self.adj[v].append(a + 1)
        return a

    def used(self, arc: int) -> bool:
        return self.cap[arc] == 0


def _check_convex_interval(phi: LiftedPhi, lo: int, hi: int) -> None:
    spec = phi.spec
    for z in range(lo + 1, hi):
        if spec(z + 1) + spec(z - 1) - 2 * spec(z) < 0:
            raise ValueError(f"cost is not convex at indegree {z}; the flow solver needs convexity")


def build_network(graph: Multigraph, phis) -> FlowNetwork:
    """Layered network for per-vertex lifted costs ``phis``.

    n+m+2 nodes; sum(d) parallel source arcs, sum(d) incidence arcs and
    m sink arcs, all unit capacity.
    """
    if graph.has_loops:
        raise ValueError("graphs with loops cannot be oriented")
    n, m = graph.n, graph.m
    if len(phis) != n:
        raise ValueError("need one cost spec per vertex")
    net = FlowNetwork(num_nodes=n + m + 2, source=0, sink=n + m + 1, required=m)
    net.adj = [[] for _ in range(net.num_nodes)]
    offset = LiftedCost.zero()
    for v in range(n):
        d = graph.degrees[v]
        phi = phis[v]
        # the spec only ever gets evaluated at clamped arguments in this range
        lo, hi = phi.shift, d + phi.shift
        if phi.f is not None:
            lo = max(lo, phi.f)
        if phi.g is not None:
            hi = min(hi, phi.g)
        if lo < hi:
            _check_convex_interval(phi, lo, hi)
        prev = phi.cost(0)
        offset = offset + prev
        arcs = []
        for level in range(1, d + 1):
            cur = phi.cost(level)
            arcs.append(net.add_arc(net.source, 1 + v, cur - prev))
            prev = cur
        net.parallel.append(arcs)
    for j, (u, v) in enumerate(graph.edges):
        enode = 1 + n + j
        au = net.add_arc(1 + u, enode, LiftedCost.zero())
        av = net.add_arc(1 + v, enode, LiftedCost.zero())
        net.incidence.append([(au, u), (av, v)])
        net.add_arc(enode, net.sink, LiftedCost.zero())
    net.offset = offset
    return net


def min_cost_flow(net: FlowNetwork) -> LiftedCost:
    """Successive shortest paths with potentials; ``net.required`` unit
    augmentations.  Mutates ``net`` to hold the residual capacities.

    After solving, each vertex's used parallel arcs are normalized to a
    prefix of the level-sorted list (cost-neutral by convexity), so the
    flow read back is canonical.

    Everything runs on the int encodings of the arc costs, with
    M = 8B + 1 where B is the sum of |scaled base| over the forward arcs.
    Encoding commutes with + and -, so the int run follows the LiftedCost
    run step by step as long as every pair it compares differs by at
    most 8B in base:

    * a residual path without repeated nodes uses each arc pair at most
      once, so its base is at most B in absolute value; so is a tree
      path extended by one arc, which either adds a new pair or undoes
      the tree path's last arc;
    * the source potential stays 0, since reduced costs stay non-negative
      (so the sink distance dt >= 0);
    * after each round a vertex's potential is either the cost of its
      shortest-path tree path, or it moved by dt like the sink's, which
      is the cost of the sink's tree path.  So pot(v) - pot(sink) is a
      difference of two path costs and pot(v) is within 3B of 0;
    * a tentative distance d(u) + rc(a) is the cost of the tree path to u
      plus a, minus pot(v): within 4B of 0.

    The heap, the stale-entry test and ``dist < dt`` compare such
    distances, at most 8B apart.  The initial sweep compares path costs,
    at most 2B apart, and the prefix check two sums of one vertex's arcs,
    at most B apart.
    """
    N = net.num_nodes
    to, cap, adj, source = net.to, net.cap, net.adj, net.source
    fwd = _int_costs([net.cost[0::2]], lambda rows: 8 * sum(abs(b) for b in rows[0]))[0]
    cost = [0] * len(to)
    cost[0::2] = fwd
    cost[1::2] = [-c for c in fwd]
    # initial potentials: the fresh network is layered, so one relaxation
    # sweep in node order is a topological shortest-path computation
    pot: list[int | None] = [None] * N
    pot[source] = 0
    for u in range(N):
        pu = pot[u]
        if pu is None:
            continue
        for a in adj[u]:
            if a & 1 or cap[a] == 0:
                continue
            nd = pu + cost[a]
            pv = pot[to[a]]
            if pv is None or nd < pv:
                pot[to[a]] = nd

    for _ in range(net.required):
        dist: list[int | None] = [None] * N
        parent = [-1] * N
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            du = d + pot[u]
            for a in adj[u]:
                if cap[a] == 0:
                    continue
                v = to[a]
                pv = pot[v]
                if pv is None:
                    # never reachable in this network (isolated vertex node)
                    continue
                nd = du + cost[a] - pv
                dv = dist[v]
                if dv is None or nd < dv:
                    dist[v] = nd
                    parent[v] = a
                    heappush(heap, (nd, v))
        dt = dist[net.sink]
        if dt is None:
            raise RuntimeError("internal error: demand exceeds the max flow")
        pot = [
            p if p is None else p + (dv if dv is not None and dv < dt else dt)
            for p, dv in zip(pot, dist)
        ]
        v = net.sink
        while v != source:
            a = parent[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = to[a ^ 1]

    # prefix normalization of parallel arcs
    for arcs in net.parallel:
        k = sum(1 for a in arcs if cap[a] == 0)
        used_cost = sum(cost[a] for a in arcs if cap[a] == 0)
        if used_cost != sum(cost[a] for a in arcs[:k]):
            raise RuntimeError("internal error: used parallel arcs are not cost-minimal")
        for i, a in enumerate(arcs):
            cap[a] = 0 if i < k else 1
            cap[a ^ 1] = 1 - cap[a]

    return sum((net.cost[a] for a in range(0, len(to), 2) if cap[a] == 0), LiftedCost.zero())


def _extract_orientation(graph: Multigraph, net: FlowNetwork) -> Orientation:
    heads = []
    for j in range(graph.m):
        carriers = [v for a, v in net.incidence[j] if net.used(a)]
        if len(carriers) != 1:
            raise RuntimeError("internal error: edge node is not covered exactly once")
        heads.append(carriers[0])
    return Orientation(tuple(heads))


@dataclass(frozen=True)
class CyclicSolution:
    orientation: Orientation
    key: object  # natural objective key
    feasible: bool


def _solution(graph: Multigraph, objective, o: Orientation) -> CyclicSolution:
    key = evaluate(objective, graph, degrees_of_orientation(graph, o))
    return CyclicSolution(o, key, key.feasible if isinstance(key, LiftedCost) else True)


def _internal_phis(graph: Multigraph, objective):
    """Resolve the objective to per-vertex lifted costs for the network."""
    if isinstance(objective, PhiSum):
        return objective.resolve(graph), objective
    base = max(graph.n, 2)
    if isinstance(objective, DecMin):
        return PhiSum(shared=exp_base(base)).resolve(graph), objective
    if isinstance(objective, IncMax):
        return PhiSum(shared=neg_exp_base(base)).resolve(graph), objective
    raise ValueError(
        f"objective {objective.kind!r} is not solvable by the flow reduction"
    )


def solve_cyclic(graph: Multigraph, objective) -> CyclicSolution:
    """Optimal unconstrained orientation for a separable convex cost or a
    dec-min / inc-max key (solved through their power-sum encodings)."""
    phis, objective = _internal_phis(graph, objective)
    if graph.m == 0:
        return _solution(graph, objective, Orientation(()))
    net = build_network(graph, phis)
    min_cost_flow(net)
    return _solution(graph, objective, _extract_orientation(graph, net))


def solve_mixed(graph: Multigraph, fixed, objective) -> CyclicSolution:
    """Optimal completion of a partial orientation.

    ``fixed`` maps edge ids to their imposed heads.  Pre-oriented edges
    shift the remaining cost of their head vertex by one unit, so the
    flow runs on the leftover edges only; the reported key covers the
    whole orientation.
    """
    phis, objective = _internal_phis(graph, objective)
    shift = [0] * graph.n
    for eid, head in fixed.items():
        if not 0 <= eid < graph.m:
            raise ValueError(f"fixed edge id {eid} out of range")
        u, v = graph.edges[eid]
        if head not in (u, v):
            raise ValueError(f"fixed head {head} is not an endpoint of edge {eid}")
        shift[head] += 1
    free_ids = [j for j in range(graph.m) if j not in fixed]
    sub = build_graph(graph.n, [graph.edges[j] for j in free_ids])
    heads = [0] * graph.m
    if free_ids:
        net = build_network(sub, tuple(phis[v].shifted(shift[v]) for v in range(graph.n)))
        min_cost_flow(net)
        sub_heads = _extract_orientation(sub, net).heads
        for pos, j in enumerate(free_ids):
            heads[j] = sub_heads[pos]
    for eid, head in fixed.items():
        heads[eid] = head
    return _solution(graph, objective, Orientation(tuple(heads)))
