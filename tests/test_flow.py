"""Path-reversal orientation solver against exhaustive oracles and
the optimality condition."""

import random
from fractions import Fraction

import pytest

from orientopt.exhaustive import brute_optimal
from orientopt.flow import build_network, min_cost_flow, solve_cyclic, solve_mixed
from orientopt.graph import Orientation, build_graph, degrees_of_orientation
from orientopt.instances import (
    SchedulingInstance,
    fig4_graph,
    named_instance,
    random_multigraph,
    random_scheduling_instance,
    scheduling_to_orientation,
)
from orientopt.objectives import (
    DecMin,
    ForbiddenSubpaths,
    IncMax,
    LiftedCost,
    LiftedPhi,
    PhiSum,
    RhoDeltaSum,
    abs_balance,
    binom2,
    cube,
    evaluate,
    square,
    table,
    zero,
)

from enumeration_reference import enumerate_orientations
from paper_facts import brute_schedule_cost, rank_of


def k3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_network_shape_and_increment_costs():
    g = k3()
    phis = PhiSum(shared=square()).resolve(g)
    # one row per vertex, one square increment per free incident edge
    assert build_network(g, phis, [None] * 3) == [[(0, 1), (0, 3)]] * 3
    # a fixed head starts its vertex's row at the fixed indegree
    assert build_network(g, phis, [1, None, None]) == [[(0, 1)], [(0, 3)], [(0, 1), (0, 3)]]


def test_lifted_zero_arc_costs_step_down_then_up():
    # f=g=1 on a degree-2 vertex: first unit of indegree pays off a penalty,
    # the second one buys a new penalty
    g = build_graph(2, [(0, 1), (0, 1)])
    phis = PhiSum(per_vertex=(LiftedPhi(zero(), 1, 1), LiftedPhi(zero(), 0, None))).resolve(g)
    assert build_network(g, phis, [None, None])[0] == [(-1, 0), (1, 0)]


def test_network_rejects_loops_and_bad_spec_count():
    g = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    phis = PhiSum(shared=square()).resolve(g)
    with pytest.raises(ValueError, match="loops"):
        build_network(g, phis, [None, None])
    # a fixed loop is never oriented by the solver
    assert build_network(g, phis, [0, None]) == [[(0, 3)], [(0, 1)]]
    with pytest.raises(ValueError, match="one cost spec per vertex"):
        build_network(k3(), (LiftedPhi(square()),), [None] * 3)


def test_nonconvex_table_is_rejected():
    g = build_graph(2, [(0, 1), (0, 1)])
    bad = PhiSum(shared=table([0, 5, 6]))  # concave at z=1
    with pytest.raises(ValueError, match="not convex at indegree 1;"):
        solve_cyclic(g, bad)
    # only the indegrees the free edges can reach must be convex: 2 ends
    # the range 0..2, and 1 ends vertex 0's range 1..2 once it has a
    # fixed in-edge
    assert solve_cyclic(g, PhiSum(shared=table([0, 1, 2, 0]))).key == LiftedCost(0, 2)
    assert solve_mixed(g, {0: 0}, bad).key == LiftedCost(0, 6)


def test_k3_square_optimum_is_eulerian():
    sol = solve_cyclic(k3(), PhiSum(shared=square()))
    assert sol.key == LiftedCost(0, 3)
    assert sol.feasible
    dv = degrees_of_orientation(k3(), sol.orientation)
    assert sorted(dv.indeg) == [1, 1, 1]


def test_two_parallel_edges_split():
    g = build_graph(2, [(0, 1), (0, 1)])
    sol = solve_cyclic(g, PhiSum(shared=square()))
    assert sol.key == LiftedCost(0, 2)


def test_empty_graph():
    g = build_graph(3, [])
    sol = solve_cyclic(g, PhiSum(shared=square()))
    assert sol.key == LiftedCost(0, 0)
    assert sol.orientation.heads == ()
    assert solve_cyclic(g, DecMin()).key == (0, 0, 0)


def test_decmin_key_type_is_sorted_tuple():
    sol = solve_cyclic(fig4_graph(), DecMin())
    assert sol.key == tuple(sorted(sol.key, reverse=True))
    assert brute_optimal(fig4_graph(), DecMin(), "cyclic").key == sol.key


def test_incmax_on_fig4():
    sol = solve_cyclic(fig4_graph(), IncMax())
    assert sol.key == brute_optimal(fig4_graph(), IncMax(), "cyclic").key


def test_unsupported_objective():
    with pytest.raises(ValueError):
        solve_cyclic(k3(), RhoDeltaSum())


def test_infeasible_bounds_report_penalty():
    # single edge, both endpoints demand indegree exactly 1
    g = build_graph(2, [(0, 1)])
    sol = solve_cyclic(g, PhiSum(shared=zero(), f=1, g=1))
    assert not sol.feasible
    assert sol.key.penalty == 1
    assert sol.key == brute_optimal(g, PhiSum(shared=zero(), f=1, g=1), "cyclic").key


def test_feasible_bounds_have_zero_penalty():
    g = k3()
    sol = solve_cyclic(g, PhiSum(shared=zero(), f=1, g=1))
    assert sol.feasible and sol.key == LiftedCost(0, 0)
    # one penalty unit outweighs a 10**9 base: the head that saves it
    # breaks g = 0 at vertex 0 (upper) or leaves f = 1 unmet at vertex 0
    # (lower)
    edge = build_graph(2, [(0, 1)])
    for unit in (1, Fraction(1, 7)):
        big = 10**9 * unit
        upper = PhiSum(per_vertex=(LiftedPhi(table([0, 0]), None, 0), LiftedPhi(table([0, big]))))
        lower = PhiSum(per_vertex=(LiftedPhi(table([0, 0]), 1, None), LiftedPhi(table([big, 0]))))
        for obj, head in ((upper, 1), (lower, 0)):
            sol = solve_cyclic(edge, obj)
            assert sol.orientation.heads == (head,)
            assert sol.feasible and sol.key == LiftedCost(0, big)


OBJECTIVES = [
    PhiSum(shared=square()),
    PhiSum(shared=cube()),
    PhiSum(shared=binom2()),
    PhiSum(shared=abs_balance()),
    DecMin(),
    IncMax(),
]


def bounded_tables(rng, g, f, gg, unit):
    """Per-vertex convex tables with bases spanning about 10**9 * unit,
    under the bounds f <= indeg <= gg (None for no bound)."""
    phis = []
    for v in range(g.n):
        size = max(g.degrees[v], gg[v] or 0, f[v] or 0) + 1
        slopes = sorted(rng.randint(-(10**9), 10**9) for _ in range(size - 1))
        values = [rng.randint(-(10**9), 10**9)]
        for s in slopes:
            values.append(values[-1] + s)
        phis.append(LiftedPhi(table([unit * x for x in values]), f[v], gg[v]))
    return PhiSum(per_vertex=tuple(phis))


def test_flow_matches_brute_on_random_multigraphs():
    rng = random.Random(99)
    done = 0
    while done < 40:
        n = rng.randint(2, 6)
        m = rng.randint(1, 9)
        try:
            g = random_multigraph(n, m, seed=rng.random())
        except ValueError:
            continue
        done += 1
        obj = OBJECTIVES[done % len(OBJECTIVES)]
        assert solve_cyclic(g, obj).key == brute_optimal(g, obj, "cyclic").key
        f = [rng.choice([None, 0, 1, 2]) for _ in range(n)]
        gg = [rng.choice([None, (fv or 0) + rng.randint(0, 2)]) for fv in f]
        obj = bounded_tables(rng, g, f, gg, rng.choice([1, Fraction(1, 3)]))
        assert solve_cyclic(g, obj).key == brute_optimal(g, obj, "cyclic").key


def test_forbidden_subpaths_match_brute_on_multigraphs():
    """The sum of C(indeg, 2) is (square sum - m) / 2 on every
    orientation, so the flow solves it as the square sum: its keys equal
    the oracle's, unconstrained and with some heads fixed, on multigraphs
    with a doubled edge and up to 16 edges."""
    rng = random.Random(44)
    obj = ForbiddenSubpaths()
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 15))]
        edges.append(rng.choice(edges))
        g = build_graph(n, edges)
        assert solve_cyclic(g, obj).key == brute_optimal(g, obj, "cyclic").key
        fixed = {j: rng.choice(g.edges[j]) for j in rng.sample(range(g.m), rng.randint(0, 3))}
        best = min(
            evaluate(obj, g, degrees_of_orientation(g, o))
            for o in enumerate_orientations(g)
            if all(o.heads[j] == h for j, h in fixed.items())
        )
        assert solve_mixed(g, fixed, obj).key == best


def test_lifted_bounds_match_brute_and_flag_feasibility():
    rng = random.Random(7)
    done = 0
    while done < 30:
        n = rng.randint(2, 5)
        m = rng.randint(1, 8)
        try:
            g = random_multigraph(n, m, seed=rng.random())
        except ValueError:
            continue
        done += 1
        f = tuple(rng.randint(0, 2) for _ in range(n))
        gg = tuple(fv + rng.randint(0, 2) for fv in f)
        exists = any(
            all(
                f[v] <= z <= gg[v]
                for v, z in enumerate(degrees_of_orientation(g, o).indeg)
            )
            for o in enumerate_orientations(g)
        )
        for obj in (
            PhiSum(shared=zero(), f=f, g=gg),
            bounded_tables(rng, g, f, gg, 1),
            bounded_tables(rng, g, f, gg, Fraction(1, 7)),
        ):
            sol = solve_cyclic(g, obj)
            assert sol.key == brute_optimal(g, obj, "cyclic").key
            assert sol.feasible == exists
            assert sol.feasible == (sol.key.penalty == 0)


def test_mixed_completion_is_optimal_given_fixed_arcs():
    """Every objective of OBJECTIVES and bounded tables (unit 1 and 1/7)
    with 0 to m edges fixed: the completion keeps the fixed heads and
    its key is the best over every orientation that keeps them."""
    rng = random.Random(31)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        m = rng.randint(2, 7)
        try:
            g = random_multigraph(n, m, seed=rng.random())
        except ValueError:
            continue
        done += 1
        f = [rng.choice([None, 0, 1, 2]) for _ in range(n)]
        gg = [rng.choice([None, (fv or 0) + rng.randint(0, 2)]) for fv in f]
        tables = [bounded_tables(rng, g, f, gg, unit) for unit in (1, Fraction(1, 7))]
        for obj in OBJECTIVES + tables:
            ids = rng.sample(range(m), rng.randint(0, m))
            fixed = {j: g.edges[j][rng.randint(0, 1)] for j in ids}
            sol = solve_mixed(g, fixed, obj)
            for j, head in fixed.items():
                assert sol.orientation.heads[j] == head
            best = min(
                (
                    evaluate(obj, g, degrees_of_orientation(g, o))
                    for o in enumerate_orientations(g)
                    if all(o.heads[j] == h for j, h in fixed.items())
                ),
                key=lambda key: rank_of(obj, key),
            )
            assert sol.key == best


def test_scheduling_completion_matches_brute_assignment():
    """The scheduling reduction against the brute-force assignment, with
    no edge fixed and with some jobs' slots imposed: an edge fixed at
    its slot assigns the job there, one fixed at its job rules that
    slot out."""
    for s in range(40):
        inst = random_scheduling_instance(seed=2200 + s, max_jobs=6, max_slots=4)
        graph, objective = scheduling_to_orientation(inst)
        sol = solve_cyclic(graph, objective)
        assert sol.feasible and sol.key == LiftedCost(0, brute_schedule_cost(inst)), s
        rng = random.Random(s)
        J = len(inst.feasible)
        feasible = list(inst.feasible)
        fixed = {}
        for j in rng.sample(range(J), rng.randint(1, J)):
            eid = rng.choice([e for e, (a, _) in enumerate(graph.edges) if a == j])
            slot = graph.edges[eid][1] - J
            if len(feasible[j]) > 1 and rng.random() < 0.5:
                fixed[eid] = j
                feasible[j] = feasible[j] - {slot}
            else:
                fixed[eid] = J + slot
                feasible[j] = frozenset({slot})
        restricted = SchedulingInstance(inst.num_slots, tuple(feasible), inst.slot_costs)
        sol = solve_mixed(graph, fixed, objective)
        assert sol.feasible and sol.key == LiftedCost(0, brute_schedule_cost(restricted)), s


def test_mixed_with_everything_fixed():
    g = k3()
    fixed = {0: 1, 1: 2, 2: 0}  # the directed cycle
    sol = solve_mixed(g, fixed, PhiSum(shared=square()))
    assert sol.orientation.heads == (1, 2, 0)
    assert sol.key == LiftedCost(0, 3)


def test_mixed_validates_fixed_edges():
    g = k3()
    with pytest.raises(ValueError):
        solve_mixed(g, {5: 0}, PhiSum(shared=square()))
    with pytest.raises(ValueError):
        solve_mixed(g, {0: 2}, PhiSum(shared=square()))


def test_mixed_refuses_a_fixed_loop():
    # a free loop is refused while the network is built; a fixed one only
    # by the check of the finished orientation
    g = build_graph(3, [(0, 0), (0, 1), (1, 2)], allow_loops=True)
    for fixed in ({0: 0}, {0: 0, 1: 1, 2: 2}):
        with pytest.raises(ValueError, match="loops cannot be oriented"):
            solve_mixed(g, fixed, PhiSum(shared=square()))


def test_min_cost_flow_units_add_up_to_the_key():
    g = k3()
    rows = build_network(g, PhiSum(shared=square()).resolve(g), [None] * 3)
    heads = min_cost_flow(g, rows, [None] * 3, range(3))
    indeg = degrees_of_orientation(g, Orientation(tuple(heads))).indeg
    taken = [step for v in range(3) for step in rows[v][: indeg[v]]]
    assert tuple(map(sum, zip(*taken))) == (0, 3)


def _improving_path(g, phis, heads, movable):
    """A pair (s, t) with a directed path s ~> t over the ``movable`` edges
    whose reversal lowers the cost, found by a backward search from each
    t; None if there is none."""
    indeg = [0] * g.n
    for h in heads:
        indeg[h] += 1
    into = [[] for _ in range(g.n)]
    for j in movable:
        u, v = g.edges[j]
        into[heads[j]].append(u + v - heads[j])
    for t in range(g.n):
        if indeg[t] == 0:
            continue
        loss = phis[t].cost(indeg[t]) - phis[t].cost(indeg[t] - 1)
        seen = {t}
        stack = [t]
        while stack:
            for s in into[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
                    if phis[s].cost(indeg[s] + 1) - phis[s].cost(indeg[s]) < loss:
                        return s, t
    return None


def test_no_improving_path_at_scale():
    """Past the oracles' reach, no orientation admits an improving path:
    square, f/g-bounded square and bounded tables with bases spanning
    about 10**9, through solve_cyclic and through solve_mixed."""
    rng = random.Random(4)
    for n in (40, 120, 300):
        g = random_multigraph(n, 3 * n, seed=n)
        f = [rng.choice([None, 1, 2, 3]) for _ in range(n)]
        gg = [rng.choice([None, (fv or 0) + rng.randint(0, 2)]) for fv in f]
        for obj in (
            PhiSum(shared=square()),
            PhiSum(shared=square(), f=tuple(f), g=tuple(gg)),
            bounded_tables(rng, g, f, gg, 1),
            bounded_tables(rng, g, f, gg, Fraction(1, 7)),
        ):
            phis = obj.resolve(g)
            heads = solve_cyclic(g, obj).orientation.heads
            assert _improving_path(g, phis, heads, range(g.m)) is None
            fixed = {j: g.edges[j][rng.randint(0, 1)] for j in rng.sample(range(g.m), g.m // 3)}
            heads = solve_mixed(g, fixed, obj).orientation.heads
            assert all(heads[j] == h for j, h in fixed.items())
            movable = [j for j in range(g.m) if j not in fixed]
            assert _improving_path(g, phis, heads, movable) is None


def _label_violations(g, phis, heads, movable):
    """The vertices s with D+(s) < label(s), where label(s) is the
    largest D-(t) of a vertex t that s reaches by one or more
    ``movable`` arcs.  One backward search per target, from the highest
    D- down, labels the vertices it reaches that have no label yet: a
    labelled vertex was reached from a target at least as high, and so
    was every vertex that reaches it."""
    indeg = [0] * g.n
    for h in heads:
        indeg[h] += 1
    into = [[] for _ in range(g.n)]
    for j in movable:
        u, v = g.edges[j]
        into[heads[j]].append(u + v - heads[j])

    def drop(t):
        return phis[t].cost(indeg[t]) - phis[t].cost(indeg[t] - 1)

    label = [None] * g.n
    for t in sorted((t for t in range(g.n) if into[t]), key=drop, reverse=True):
        level = drop(t)
        stack = [t]
        while stack:
            for s in into[stack.pop()]:
                if label[s] is None:
                    label[s] = level
                    stack.append(s)
    return [
        s
        for s in range(g.n)
        if label[s] is not None
        and phis[s].cost(indeg[s] + 1) - phis[s].cost(indeg[s]) < label[s]
    ]


def _complete_square_minimum(n):
    """The least square sum over the orientations of K_n: indegrees as
    even as m = n(n - 1)/2 allows, (n - 1)/2 each for odd n, and n/2 and
    n/2 - 1 at half the vertices each for even n."""
    if n % 2:
        return n * ((n - 1) // 2) ** 2
    return n // 2 * ((n // 2) ** 2 + (n // 2 - 1) ** 2)


@pytest.mark.parametrize("n", [2, 3, 9, 40, 500])
def test_complete_graph_square_key_is_the_closed_form(n):
    """Dense graphs, where many improving paths of a phase end at one root."""
    key = solve_cyclic(named_instance(f"complete:{n}"), PhiSum(shared=square())).key
    assert key == LiftedCost(0, _complete_square_minimum(n))


def test_label_pass_certifies_optimality_at_scale():
    """A label pass of its own checks the optimality condition on one
    square solve at n = 10**4, m = 3 * 10**4 and one on ``complete:150``,
    and on one completion of bounded tables at n = 2000 with a third of
    the edges fixed.  The same pass finds violations in an orientation
    that points every edge at its first endpoint."""
    obj = PhiSum(shared=square())
    for g in (random_multigraph(10**4, 3 * 10**4, seed=1), named_instance("complete:150")):
        phis = obj.resolve(g)
        assert _label_violations(g, phis, [u for u, _ in g.edges], range(g.m))
        heads = solve_cyclic(g, obj).orientation.heads
        assert _label_violations(g, phis, heads, range(g.m)) == []

    rng = random.Random(5)
    g = random_multigraph(2000, 6000, seed=2)
    f = [rng.choice([None, 1, 2, 3]) for _ in range(g.n)]
    gg = [rng.choice([None, (fv or 0) + rng.randint(0, 2)]) for fv in f]
    obj = bounded_tables(rng, g, f, gg, Fraction(1, 7))
    phis = obj.resolve(g)
    fixed = {j: g.edges[j][rng.randint(0, 1)] for j in rng.sample(range(g.m), g.m // 3)}
    movable = [j for j in range(g.m) if j not in fixed]
    heads = solve_mixed(g, fixed, obj).orientation.heads
    assert all(heads[j] == h for j, h in fixed.items())
    assert _label_violations(g, phis, heads, movable) == []
