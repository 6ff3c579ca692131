"""Closed forms from the paper that only the tests check solvers
against: the harmonic bound on greedy square sums, the optimum of a
linear cost sum, and the degree-product imbalance of an order."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from orientopt.graph import Multigraph, degrees_of_order
from orientopt.objectives import exact_number


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
