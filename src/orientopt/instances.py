"""Named graphs, seeded random suites, and the job-scheduling reduction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

from .graph import Frozen, Multigraph, build_graph, is_connected
from .objectives import (
    LiftedPhi,
    PhiSpec,
    PhiSum,
    binom2,
    cube,
    linear,
    square,
    table,
    zero,
)

#: 9-vertex, 18-edge simple graph on which the acyclic dec-min and
#: inc-max optima force disjoint orientation sets (vertex v_i maps to
#: index i-1).
FIG4_EDGES = (
    (0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0),
    (0, 2), (0, 3), (1, 3),
    (4, 6), (5, 7),
    (8, 1), (8, 2), (8, 4), (8, 5), (8, 6), (8, 7),
)

#: An order attaining the optimal dec-min key (3,3,3,3,2,2,1,1,0).
FIG4_DECMIN_ORDER = (8, 7, 6, 5, 4, 3, 2, 0, 1)

#: An order attaining the optimal inc-max key (0,1,2,2,2,2,2,3,4).
FIG4_INCMAX_ORDER = (0, 3, 1, 2, 8, 4, 5, 6, 7)


def fig4_graph() -> Multigraph:
    return build_graph(9, FIG4_EDGES)


def gen_gk(k: int) -> Multigraph:
    """Chain of k triangles joined by length-2 paths.

    Triangle i occupies vertices 3(i-1)..3(i-1)+2; connector u_i
    (vertex 3k+i-2) joins the third vertex of triangle i-1 to the first
    of triangle i.  Greedy square-sum runs can score 9k-4 on it against
    the optimum 7k-2, giving ratios that approach 9/7.
    """
    if k < 1:
        raise ValueError("need at least one triangle")
    edges = []
    for i in range(k):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    for i in range(2, k + 1):
        u = 3 * k + i - 2
        edges += [(3 * (i - 1) - 1, u), (u, 3 * (i - 1))]
    return build_graph(4 * k - 1, edges)


# a drawn weight is Fraction(randint(1, 9), randint(1, 4)); _WEIGHTS[a][b]
# is the one whose two draws are 1 + a and 1 + b
_WEIGHTS = tuple(tuple(Fraction(a + 1, b + 1) for b in range(4)) for a in range(9))


def random_multigraph(
    n: int,
    m: int,
    seed,
    simple: bool = False,
    max_degree: int | None = None,
    connected: bool = False,
    allow_loops: bool = False,
    weighted: bool = False,
) -> Multigraph:
    """Seed-deterministic random graph with optional structure constraints.

    The edges are in range and loop-free by construction, so the
    Multigraph is built directly, without :func:`build_graph`'s checks.

    Raises ValueError when the parameters are infeasible (or when
    rejection sampling gives up, which the caller should treat the same
    way).
    """
    if n < 0 or m < 0:
        raise ValueError("need n >= 0 and m >= 0")
    if simple and allow_loops:
        raise ValueError("a simple graph cannot have loops")
    if simple and m > n * (n - 1) // 2:
        raise ValueError("too many edges for a simple graph")
    if n == 0 and m > 0:
        raise ValueError("edges need endpoints")
    if n == 1 and m > 0 and not allow_loops:
        raise ValueError("a loop-free graph on one vertex has no edges")
    if max_degree is not None and m * 2 > n * max_degree:
        raise ValueError("edge count exceeds the degree budget")
    if connected and n > 0 and m < n - 1:
        raise ValueError("too few edges to connect the graph")
    rng = random.Random(seed)
    # rng.randrange(n), inlined: the getrandbits(bits) draws it makes, with
    # bits = n.bit_length(), redrawn while at least n; randint(1, c) is
    # 1 + such a draw below c.  So every seed keeps its graph.
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    for _ in range(300):
        if simple:
            # sample indices into combinations(range(n), 2) rather than a
            # list of all n(n-1)/2 pairs: the same draw, in O(m) memory
            edges = [_pair_at(n, k) for k in sorted(rng.sample(range(n * (n - 1) // 2), m))]
        else:
            edges = []
            deg = [0] * n
            for _ in range(100 * (m + 1)):
                if len(edges) == m:
                    break
                u = getrandbits(bits)
                while u >= n:
                    u = getrandbits(bits)
                v = getrandbits(bits)
                while v >= n:
                    v = getrandbits(bits)
                if u == v and not allow_loops:
                    continue
                if max_degree is not None:
                    du = 2 if u == v else 1
                    if deg[u] + du > max_degree or (u != v and deg[v] + 1 > max_degree):
                        continue
                    deg[u] += du
                    if u != v:
                        deg[v] += 1
                edges.append((u, v) if u < v else (v, u))
            if len(edges) < m:
                continue
        if simple and max_degree is not None:
            if any(d > max_degree for d in _degree_list(n, edges)):
                continue
        weights = None
        if weighted:
            weights = []
            for _ in range(m):
                a = getrandbits(4)
                while a >= 9:
                    a = getrandbits(4)
                b = getrandbits(3)
                while b >= 4:
                    b = getrandbits(3)
                weights.append(_WEIGHTS[a][b])
            weights = tuple(weights)
        g = Multigraph(n, tuple(edges), weights, allow_loops)
        if connected and not is_connected(g):
            continue
        return g
    raise ValueError("could not sample a graph with these constraints")


def _pair_at(n: int, k: int) -> tuple[int, int]:
    """The k-th pair of ``combinations(range(n), 2)``."""
    r = n * (n - 1) // 2 - 1 - k  # position counted from the last pair
    i = n - 2 - (isqrt(8 * r + 1) - 1) // 2
    return i, k - i * (2 * n - i - 1) // 2 + i + 1


def _degree_list(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


#: Vertices plus edges of the largest graph the command line builds or
#: reads: the sized builtin families' caps below, a graph file's vertex
#: count and the most ``generate --family random`` or ``scheduling`` makes.
SIZE_BUDGET = 2 * 10**6

# Largest parameter of each sized builtin family, within about SIZE_BUDGET
# vertices plus edges.  Built with Python 3.11 on a 2-core x86 VM,
# complete:2000 took 0.53 s and peaked at 308 MB, path:10**6 0.29 s and
# 223 MB, cycle:10**6 0.32 s and 223 MB, and gk:222222 0.39 s and 233 MB.
_CAPS = {"gk": 222_222, "path": 10**6, "cycle": 10**6, "complete": 2000}


class _UnknownName(ValueError):
    """A name that no builtin family matches, as opposed to a builtin
    family with a bad parameter."""


def named_instance(name: str) -> Multigraph:
    """Resolve builtin graph names: ``k3``, ``fig4``, ``gk:K``,
    ``path:N``, ``cycle:N``, ``complete:N``; a sized family above its
    cap in ``_CAPS`` raises ValueError."""
    base, _, arg = name.partition(":")
    base = base.lower()
    if base == "fig4" and not arg:
        return fig4_graph()
    if base == "k3" and not arg:
        return build_graph(3, [(0, 1), (1, 2), (0, 2)])
    if base in _CAPS:
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"instance {name!r} needs an integer parameter") from None
        if k > _CAPS[base]:
            raise ValueError(
                f"{base}:{k} is too large: at most {base}:{_CAPS[base]}, about"
                " 2 million vertices and edges, up to about 300 MB to build"
            )
        if base == "gk":
            return gen_gk(k)
        if base == "path":
            if k < 1:
                raise ValueError("a path needs at least one vertex")
            return build_graph(k, [(i, i + 1) for i in range(k - 1)])
        if base == "cycle":
            if k < 3:
                raise ValueError("a cycle needs at least three vertices")
            return build_graph(k, [(i, (i + 1) % k) for i in range(k)])
        if k < 1:
            raise ValueError("a complete graph needs at least one vertex")
        return build_graph(k, list(combinations(range(k), 2)))
    raise _UnknownName(f"unknown instance name {name!r}")


# ---------------------------------------------------------------------------
# Scheduling: unit jobs, feasible timeslot sets, convex per-slot load costs.


class SchedulingInstance(Frozen):
    """Unit-sized jobs, each restricted to a set of feasible timeslots,
    with a discrete convex cost per slot as a function of its load."""

    __slots__ = _fields = ("num_slots", "feasible", "slot_costs")

    def __init__(self, num_slots: int, feasible: tuple[frozenset[int], ...],
                 slot_costs: tuple[PhiSpec, ...]):
        if len(slot_costs) != num_slots:
            raise ValueError("need one cost function per timeslot")
        for j, I in enumerate(feasible):
            if not I:
                raise ValueError(f"job {j} has no feasible timeslot")
            if not all(0 <= t < num_slots for t in I):
                raise ValueError(f"job {j} names an unknown timeslot")
        object.__setattr__(self, "num_slots", num_slots)
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "slot_costs", slot_costs)

    @property
    def num_jobs(self) -> int:
        return len(self.feasible)


def scheduling_to_orientation(instance: SchedulingInstance):
    """Encode scheduling as an orientation problem on a bipartite graph.

    Vertices are jobs then slots; job j joins every slot in its feasible
    set.  Forcing job j's indegree to exactly |I_j|-1 (lifted all-zero
    cost) leaves one out-edge — the chosen slot — and each slot vertex
    then pays its cost at its indegree, the assigned load.  Returns the
    graph and the matching cost-sum objective.
    """
    J = instance.num_jobs
    edges = []
    for j, I in enumerate(instance.feasible):
        for t in sorted(I):
            edges.append((j, J + t))
    phis: list[LiftedPhi] = []
    for I in instance.feasible:
        k = len(I) - 1
        phis.append(LiftedPhi(zero(), f=k, g=k))
    for t in range(instance.num_slots):
        phis.append(LiftedPhi(instance.slot_costs[t]))
    graph = build_graph(J + instance.num_slots, edges)
    return graph, PhiSum(per_vertex=tuple(phis))


def random_scheduling_instance(
    seed, max_jobs: int = 4, max_slots: int = 3
) -> SchedulingInstance:
    """Seeded random instance with convex slot costs (builtin shapes or
    random convex tables), of 1..max_jobs jobs and 1..max_slots slots."""
    if max_jobs < 1 or max_slots < 1:
        raise ValueError(f"need max_jobs and max_slots of at least 1, not {max_jobs} and {max_slots}")
    rng = random.Random(seed)
    T = rng.randint(1, max_slots)
    J = rng.randint(1, max_jobs)
    feasible = tuple(
        frozenset(rng.sample(range(T), rng.randint(1, T))) for _ in range(J)
    )
    costs = []
    for _ in range(T):
        shape = rng.randrange(5)
        if shape == 0:
            costs.append(square())
        elif shape == 1:
            costs.append(cube())
        elif shape == 2:
            costs.append(binom2())
        elif shape == 3:
            costs.append(linear(rng.randint(0, 4), rng.randint(0, 3)))
        else:
            # random convex table over loads 0..J via non-decreasing slopes
            val = rng.randint(0, 3)
            slope = rng.randint(-2, 2)
            vals = [val]
            for _ in range(J):
                val += slope
                vals.append(val)
                slope += rng.randint(0, 2)
            costs.append(table(vals))
    return SchedulingInstance(T, feasible, tuple(costs))
