"""Every orientation and every vertex order of a graph, as plain lazy
sequences, for the tests that scan all candidates one by one.  They
refuse what the oracles refuse, by ``orientopt.exhaustive._refuse``, and
share nothing else with the oracles' walkers."""

from itertools import permutations

from orientopt.exhaustive import _refuse
from orientopt.graph import Orientation


def enumerate_orientations(graph):
    """Yield every orientation of a loop-free graph, 2**m of them: bit j
    of the candidate's number points edge j at its first end."""
    _refuse(graph, "cyclic")
    edges = graph.edges
    for bits in range(1 << graph.m):
        yield Orientation(tuple(e[1] if bits >> j & 1 == 0 else e[0] for j, e in enumerate(edges)))


def enumerate_orders(graph):
    """Every vertex order, lexicographically; refuses at once, not on the
    first ``next``."""
    _refuse(graph, "acyclic")
    return permutations(range(graph.n))
