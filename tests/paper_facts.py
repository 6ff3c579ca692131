"""Closed forms and small references from the paper that only the tests
check solvers against: the harmonic bound on greedy square sums, the
optimum of a linear cost sum, the degree-product imbalance of an order,
the two orders of the G_k tightness family, a brute-force scheduling
optimum, a minimize-me rank of an order's key, and a graph's JSON
document."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from orientopt.formats import rational_to_json
from orientopt.graph import DegreeVector, Multigraph, degrees_of_order
from orientopt.instances import SchedulingInstance
from orientopt.objectives import evaluate, exact_number, rank_of


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


def gk_adversarial_order(k: int) -> tuple[int, ...]:
    """Greedy-feasible order on ``gen_gk(k)`` scoring 9k-4: all triangles
    first, then the connectors.  With that vertex numbering this is the
    identity."""
    return tuple(range(4 * k - 1))


def gk_optimal_order(k: int) -> tuple[int, ...]:
    """Order on ``gen_gk(k)`` scoring 7k-2: first triangle, then
    connector + triangle alternating."""
    order = [0, 1, 2]
    for i in range(2, k + 1):
        order.append(3 * k + i - 2)
        order += [3 * (i - 1), 3 * (i - 1) + 1, 3 * (i - 1) + 2]
    return tuple(order)


def brute_schedule_cost(instance: SchedulingInstance):
    """Exact minimum total cost over every feasible assignment,
    including the cost of empty slots."""
    choices = [sorted(I) for I in instance.feasible]
    best = None
    stack = [(0, [0] * instance.num_slots)]
    while stack:
        j, loads = stack.pop()
        if j == len(choices):
            cost = sum(
                exact_number(instance.slot_costs[t](loads[t]))
                for t in range(instance.num_slots)
            )
            if best is None or cost < best:
                best = cost
            continue
        for t in choices[j]:
            nl = list(loads)
            nl[t] += 1
            stack.append((j + 1, nl))
    return best


def rank_key(objective, graph: Multigraph, dv: DegreeVector):
    return rank_of(objective, evaluate(objective, graph, dv))


def graph_to_json(graph: Multigraph) -> dict:
    if graph.weights is None:
        edges = [[u, v] for u, v in graph.edges]
    else:
        edges = [
            [u, v, rational_to_json(w)] for (u, v), w in zip(graph.edges, graph.weights)
        ]
    doc: dict = {"n": graph.n, "edges": edges}
    if graph.allow_loops:
        doc["allow_loops"] = True
    return doc
