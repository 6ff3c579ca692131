"""Cyclic optima against an independent exact reference: networkx's
network simplex on the layered unit-arc network, in exact ints.

The reference compares values, not orientations, far past the reach of
the brute-force oracles.  It needs networkx (the ``test`` extra); the
module is skipped where networkx is not installed.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from orientopt.flow import solve_cyclic, solve_mixed
from orientopt.instances import (
    named_instance, random_multigraph, random_scheduling_instance, scheduling_to_orientation,
)
from orientopt.objectives import ForbiddenSubpaths, LiftedCost, PhiSum, abs_balance, binom2, cube, square

nx = pytest.importorskip("networkx")


def network_simplex_optimum(graph, phis, fixed=None):
    """The least ``sum_v phi_v(indeg(v))`` over the orientations of
    ``graph`` that keep the ``fixed`` heads (edge id -> head), as a
    LiftedCost.

    Every phi_v must be convex on 0..deg(v).  Vertex v's values there
    become ints: bases are scaled by the LCM L of their denominators and
    a ``(penalty, base)`` pair is encoded as penalty * M + base, with M
    one more than the sum over v of the spread (max - min) of v's scaled
    bases.  Two orientations' base sums then differ by less than M, so
    the encoding keeps the lexicographic order of their costs.  Each
    free edge is a node supplying one unit, with an arc to each
    endpoint; each fixed edge adds one unit to its head's supply.
    Vertex v sends its units to the sink over one unit arc per indegree
    z = 1..deg(v), costing its encoded phi_v(z) - phi_v(z - 1), which
    convexity fills in order.
    """
    fixed = fixed or {}
    degree = [0] * graph.n
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    parts = [[phi.parts(z) for z in range(d + 1)] for phi, d in zip(phis, degree)]
    scale = lcm(*(Fraction(b).denominator for row in parts for _, b in row))
    bases = [[int(b * scale) for _, b in row] for row in parts]
    big = sum(max(row) - min(row) for row in bases) + 1
    enc = [[p * big + b for (p, _), b in zip(row, brow)] for row, brow in zip(parts, bases)]

    net = nx.MultiDiGraph()
    net.add_node("sink", demand=graph.m)
    for v in range(graph.n):
        net.add_node(("v", v), demand=0)
        for z in range(1, degree[v] + 1):
            net.add_edge(("v", v), "sink", capacity=1, weight=enc[v][z] - enc[v][z - 1])
    for j, (u, v) in enumerate(graph.edges):
        if j in fixed:
            net.nodes[("v", fixed[j])]["demand"] -= 1
        else:
            net.add_node(("e", j), demand=-1)
            net.add_edge(("e", j), ("v", u), capacity=1, weight=0)
            net.add_edge(("e", j), ("v", v), capacity=1, weight=0)
    total = nx.network_simplex(net)[0] + sum(row[0] for row in enc)
    # the optimum's base sum lies in [low, low + big)
    low = sum(min(row) for row in bases)
    penalty = (total - low) // big
    return LiftedCost(penalty, Fraction(total - penalty * big, scale))


def _graph(n, seed):
    return random_multigraph(n, 3 * n, seed=seed)


def _fixed(rng, graph, share):
    ids = rng.sample(range(graph.m), int(share * graph.m))
    return {j: graph.edges[j][rng.randint(0, 1)] for j in ids}


@pytest.mark.parametrize(
    "spec, n",
    [(square(), 2000), (square(), 200), (cube(), 1000), (abs_balance(), 1000),
     (square(), "complete:60"), (cube(), "complete:121")],
    ids=["square-2000", "square-200", "cube-1000", "abs_balance-1000",
         "square-complete:60", "cube-complete:121"],
)
def test_solve_cyclic_value_equals_network_simplex(spec, n):
    """Sparse random multigraphs, and complete graphs, where a phase
    reverses many paths into one root."""
    g = named_instance(n) if isinstance(n, str) else _graph(n, seed=n)
    obj = PhiSum(shared=spec)
    assert solve_cyclic(g, obj).key == network_simplex_optimum(g, obj.resolve(g))


def test_forbidden_subpaths_value_equals_network_simplex():
    """The flow solves the sum of C(indeg, 2) as the square sum; its key
    is the binom2 optimum."""
    g = _graph(1000, seed=5)
    want = network_simplex_optimum(g, PhiSum(shared=binom2()).resolve(g))
    assert want.penalty == 0
    assert solve_cyclic(g, ForbiddenSubpaths()).key == want.base


def test_bounded_square_value_equals_network_simplex():
    """f/g-bounded square: loose bounds, which every vertex meets, and
    tight ones (g = f + 1), which leave a penalty."""
    rng = random.Random(3)
    g = _graph(1000, seed=3)
    for tight in (False, True):
        f = tuple(rng.choice([None, 1]) for _ in range(g.n))
        gg = tuple((fv or 0) + 1 if tight else rng.choice([None, 6]) for fv in f)
        obj = PhiSum(shared=square(), f=f, g=gg)
        sol = solve_cyclic(g, obj)
        assert sol.feasible != tight
        assert sol.key == network_simplex_optimum(g, obj.resolve(g))


def test_scheduling_tables_value_equals_network_simplex():
    for seed in range(5):
        inst = random_scheduling_instance(seed=700 + seed, max_jobs=60, max_slots=12)
        g, obj = scheduling_to_orientation(inst)
        sol = solve_cyclic(g, obj)
        assert sol.feasible
        assert sol.key == network_simplex_optimum(g, obj.resolve(g))


@pytest.mark.parametrize("share", [0.3, 0.8, 1.0])
def test_solve_mixed_value_equals_network_simplex(share):
    """Fixed edges become supplies at their heads."""
    rng = random.Random(int(share * 10))
    g = _graph(1000, seed=11)
    fixed = _fixed(rng, g, share)
    for obj in (PhiSum(shared=square()), PhiSum(shared=cube())):
        assert solve_mixed(g, fixed, obj).key == network_simplex_optimum(g, obj.resolve(g), fixed)
