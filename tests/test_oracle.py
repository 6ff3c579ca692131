"""The exhaustive oracles themselves need oracles: counting arguments,
closed forms, and cross-checks between independent enumeration styles."""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

import pytest

from orientopt.exhaustive import (
    ORDER_CAP,
    ORIENTATION_CAP,
    BruteResult,
    _head,
    _ranker,
    _walk_orders,
    brute_optimal,
    vertex_certificate,
)
from orientopt.graph import (
    Orientation,
    build_graph,
    degrees_of_order,
    degrees_of_orientation,
    is_acyclic,
)
from orientopt.instances import fig4_graph, random_multigraph
from orientopt.objectives import (
    DecMax,
    DecMin,
    ForbiddenSubpaths,
    IncMax,
    IncMin,
    LiftedCost,
    LiftedPhi,
    MaxWeightedIndeg,
    PhiSum,
    RhoDeltaSum,
    evaluate,
    linear,
    square,
    zero,
)
from orientopt.ordering import conditional_expectation, solve_acyclic_exact

from enumeration_reference import enumerate_orders, enumerate_orientations
from paper_facts import (
    _greedy_worst,
    cycle_reversal_decomposition,
    order_value_stats,
    rank_of,
    shortest_directed_cycle,
)


EVERY_KIND = (
    PhiSum(shared=square()),
    PhiSum(shared=linear(Fraction(3, 2), Fraction(-1, 3)), f=1, g=2),
    DecMin(),
    IncMax(),
    IncMin(),
    DecMax(),
    RhoDeltaSum(),
    MaxWeightedIndeg(),
    ForbiddenSubpaths(),
)


def k3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


class TestEnumeration:
    def test_k3_orientation_counts(self):
        orients = list(enumerate_orientations(k3()))
        assert len(orients) == 8
        assert len(set(orients)) == 8
        assert sum(is_acyclic(k3(), o) for o in orients) == 6

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert [o.heads for o in enumerate_orientations(g)] == [(1,), (0,)]

    def test_empty_graph_orders(self):
        assert len(list(enumerate_orders(build_graph(3, [])))) == 6

    def test_caps_refuse_blowups(self):
        wide = build_graph(2, [(0, 1)] * (ORIENTATION_CAP + 1))
        with pytest.raises(ValueError):
            list(enumerate_orientations(wide))
        tall = build_graph(ORDER_CAP + 1, [])
        with pytest.raises(ValueError):
            enumerate_orders(tall)
        with pytest.raises(ValueError):
            brute_optimal(wide, PhiSum(shared=square()), "cyclic")
        with pytest.raises(ValueError):
            brute_optimal(tall, DecMin(), "acyclic")

    def test_worst_greedy_run_refuses_more_than_20_vertices(self):
        g = build_graph(21, [])
        with pytest.raises(ValueError, match="at most 20 vertices"):
            _greedy_worst(g)
        assert "neighbor_counts" not in vars(g)  # refused before the search read the graph

    def test_loops_cannot_be_oriented(self):
        g = build_graph(1, [(0, 0)], allow_loops=True)
        with pytest.raises(ValueError):
            list(enumerate_orientations(g))
        with pytest.raises(ValueError):
            brute_optimal(g, PhiSum(shared=square()), "cyclic")


class TestBruteOptimal:
    def test_k3_square_cyclic_vs_acyclic(self):
        res = brute_optimal(k3(), PhiSum(shared=square()), "cyclic", count_optima=True)
        assert res.key == LiftedCost(0, 3)
        assert res.count == 2  # the two rotation directions
        res = brute_optimal(k3(), PhiSum(shared=square()), "acyclic", count_optima=True)
        assert res.key == LiftedCost(0, 5)
        assert res.count == 6  # every order of K3 gives indegrees 0,1,2

    def test_witness_attains_key(self):
        g = fig4_graph()
        res = brute_optimal(g, PhiSum(shared=square()), "cyclic")
        dv = degrees_of_orientation(g, res.witness)
        assert evaluate(PhiSum(shared=square()), g, dv) == res.key

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            brute_optimal(k3(), DecMin(), "sideways")

    @pytest.mark.parametrize("objective", [  # built in the test: some fail at construction
        lambda: PhiSum(),
        lambda: PhiSum(per_vertex=(square(),) * 2),
        lambda: PhiSum(shared=square(), g=(1, 1)),
        lambda: PhiSum(shared=square(), f=(2, 2, 2), g=(1, 1, 1)),
        lambda: PhiSum(shared=square(), f=(-1, 0, 0)),
        lambda: PhiSum(per_vertex=(LiftedPhi(square(), 0, 2),) * 3, f=1),
    ], ids=[f"objective{i}" for i in range(6)])
    def test_malformed_phi_sum_is_refused_before_the_walk(self, objective, monkeypatch):
        import orientopt.exhaustive as ex

        def walked(*args):
            raise AssertionError("walked before refusing")

        monkeypatch.setattr(ex, "_walk_orientations", walked)
        monkeypatch.setattr(ex, "_walk_orders", walked)
        for mode in ("cyclic", "acyclic"):
            with pytest.raises(ValueError):
                brute_optimal(k3(), objective(), mode)

    def test_gray_code_walk_agrees_with_plain_scan(self):
        # the Gray-code walk must agree with a naive evaluate-everything
        # loop on the optimum and the number of optima, for every kind
        rng = random.Random(14)
        done = 0
        while done < 24:
            n = rng.randint(2, 5)
            m = rng.randint(1, 7)
            try:
                g = random_multigraph(n, m, seed=rng.random(), weighted=done >= 12)
            except ValueError:
                continue
            done += 1
            for obj in EVERY_KIND:
                wtd = obj.kind == "max_weighted_indeg"
                ranks = [
                    rank_of(obj, evaluate(obj, g, degrees_of_orientation(g, o, weighted=wtd)))
                    for o in enumerate_orientations(g)
                ]
                want = min(ranks)
                got = brute_optimal(g, obj, "cyclic", count_optima=True)
                assert rank_of(obj, got.key) == want, obj
                assert got.count == ranks.count(want), obj
                dv = degrees_of_orientation(g, got.witness, weighted=wtd)
                assert evaluate(obj, g, dv) == got.key, obj
            assert brute_optimal(g, PhiSum(shared=zero()), "cyclic", True).count == 2**g.m

    def test_acyclic_mode_agrees_with_order_scan(self):
        rng = random.Random(15)
        done = 0
        while done < 20:
            n = rng.randint(2, 5)
            m = rng.randint(1, 7)
            try:
                g = random_multigraph(
                    n, m, seed=rng.random(), weighted=done < 10, allow_loops=done >= 15
                )
            except ValueError:
                continue
            done += 1
            orders = list(enumerate_orders(g))
            for obj in EVERY_KIND:
                wtd = obj.kind == "max_weighted_indeg"
                ranks = [
                    rank_of(obj, evaluate(obj, g, degrees_of_order(g, o, weighted=wtd)))
                    for o in orders
                ]
                want = min(ranks)
                got = brute_optimal(g, obj, "acyclic", count_optima=True)
                assert rank_of(obj, got.key) == want, obj
                assert got.count == ranks.count(want), obj
                # the oracle keeps the lexicographically first optimum, as this scan does
                assert got.witness == orders[ranks.index(want)], obj
            assert brute_optimal(g, PhiSum(shared=zero()), "acyclic", True).count == factorial(n)

    def test_fig4_incmin_zero_count_is_independence_number(self):
        g = fig4_graph()
        order, key = solve_acyclic_exact(g, IncMin())
        assert key == brute_optimal(g, IncMin(), "acyclic").key
        # the zero-indegree vertices of an order form an independent set,
        # and {1, 2, 4, 7} is the unique maximum one here
        assert key[:4] == (0, 0, 0, 0) and key[4] > 0
        for u, v in g.edges:
            assert not (u in {1, 2, 4, 7} and v in {1, 2, 4, 7})


def gray_orientations(g):
    """The orientations in the oracle's Gray sequence, rebuilt from
    i ^ (i >> 1): a set bit j points edge j at its first end."""
    for i in range(1 << g.m):
        code = i ^ (i >> 1)
        yield Orientation(tuple(u if code >> j & 1 else v for j, (u, v) in enumerate(g.edges)))


def later_ends(g, order):
    """Each edge's later end in an order; a loop's is its vertex."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple(v if pos[u] < pos[v] else u for u, v in g.edges)


def assert_first_optimum(g, mode, objectives=EVERY_KIND):
    """brute_optimal against a plain evaluate scan of the same sequence:
    the optimum, the number of optima and the first optimum, every kind.
    Orientations come in Gray order and orders straight from
    itertools.permutations, so the first optimal order is the
    lexicographically first.  The candidates that count every edge at the
    same end share their degree vectors, which are evaluated once."""
    if mode == "cyclic":
        candidates, degrees_of = list(gray_orientations(g)), degrees_of_orientation
        heads = [c.heads for c in candidates]
    else:
        candidates, degrees_of = list(permutations(range(g.n))), degrees_of_order
        heads = [later_ends(g, c) for c in candidates]
    index, reps = {}, []  # per distinct heads: its number, its first candidate
    for c, h in zip(candidates, heads):
        if h not in index:
            index[h] = len(reps)
            reps.append(c)
    at = [index[h] for h in heads]
    plain = [degrees_of(g, c) for c in reps]
    weighted = [degrees_of(g, c, weighted=True) for c in reps]
    for obj in objectives:
        dvs = weighted if obj.kind == "max_weighted_indeg" else plain
        keys = [evaluate(obj, g, dv) for dv in dvs]
        distinct = [rank_of(obj, key) for key in keys]
        ranks = [distinct[k] for k in at]
        want = min(ranks)
        got = brute_optimal(g, obj, mode, count_optima=True)
        assert got.key == keys[at[ranks.index(want)]], obj
        assert got.count == ranks.count(want), obj
        assert got.witness == candidates[ranks.index(want)], obj


class TestWalkerContract:
    def test_cyclic_witness_is_the_first_gray_optimum(self):
        rng = random.Random(20)
        done = 0
        while done < 16:
            try:
                g = random_multigraph(
                    rng.randint(2, 5), rng.randint(1, 8), seed=rng.random(), weighted=done >= 8
                )
            except ValueError:
                continue
            done += 1
            assert_first_optimum(g, "cyclic")

    @pytest.mark.parametrize(
        "n, edges, weights",
        [
            (0, [], None),
            (1, [], None),
            (1, [(0, 0), (0, 0)], [Fraction(1, 2), 3]),
            (2, [(1, 0)], None),
            (2, [(0, 1), (0, 1), (1, 1)], [1, Fraction(2, 3), 2]),
            (3, [(0, 0), (1, 2)], None),
            (3, [(0, 1), (1, 2), (0, 2), (2, 2), (1, 0)], [2, 1, Fraction(1, 3), 5, 1]),
            # n < 2 visits only the identity; n = 2 is one sweep of vertex 1
            (1, [(0, 0), (0, 0), (0, 0)], None),
            (2, [(1, 0), (0, 1), (1, 0), (0, 0), (1, 1), (1, 1)], None),
            (2, [(0, 0), (1, 0), (1, 0), (1, 1)], [3, Fraction(1, 2), Fraction(5, 2), 1]),
        ],
    )
    def test_orders_at_n_up_to_3(self, n, edges, weights):
        assert_first_optimum(build_graph(n, edges, weights, allow_loops=True), "acyclic")

    @pytest.mark.parametrize(
        "n, edges, weights",
        [
            (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], None),
            (4, [(3, 3), (0, 3), (0, 3), (1, 2), (2, 1), (1, 1)], [1, Fraction(1, 2), 2, 3, 1, 1]),
            (4, [(0, 0), (0, 0)], [Fraction(2, 3), 1]),
            (5, [(0, 4), (4, 1), (1, 3), (3, 2), (2, 0), (4, 2), (2, 2)], None),
            (5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 4), (4, 2)],
             [Fraction(3, 2), 1, 2, Fraction(1, 3), 5, 2, 1]),
            (6, [(0, 5), (5, 4), (4, 3), (3, 5), (1, 2), (2, 2), (1, 2), (0, 3)], None),
            (6, [(5, 0), (0, 1), (1, 4), (4, 2), (2, 3), (3, 3), (3, 5), (2, 5), (1, 1)],
             [1, Fraction(5, 4), 2, 1, Fraction(2, 3), 1, 3, 1, 2]),
        ],
    )
    def test_orders_of_four_to_six_vertices_with_loops_parallel_edges_and_weights(
            self, n, edges, weights):
        # n = 4, 5, 6: the vertices below the sweeping one change at 2, 3, 4 levels
        assert_first_optimum(build_graph(n, edges, weights, allow_loops=True), "acyclic")

    def test_seven_vertices_in_each_regime(self):
        assert_first_optimum(random_multigraph(7, 12, seed=71), "cyclic")
        g = random_multigraph(7, 12, seed=72, weighted=True, allow_loops=True)
        assert_first_optimum(g, "acyclic")

    @pytest.mark.parametrize("seed, weighted", [(81, True), (82, False)])
    def test_eight_vertices_every_kind(self, seed, weighted):
        # each plain-changes sweep of vertex 7 crosses seven others, and the
        # first optimum is still the lexicographically first
        g = random_multigraph(8, 14, seed=seed, weighted=weighted, allow_loops=weighted)
        assert_first_optimum(g, "acyclic")


def walk_graph(n):
    """n vertices and 2n + 3 edges (none at n = 0), rational weights: loops
    and parallel edges, one of each at the sweeping vertex n - 1."""
    rng = random.Random(40 + n)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    if n:
        edges += [(0, n - 1), (n - 1, 0), (n - 1, n - 1)]
    weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in edges]
    return build_graph(n, edges, weights, allow_loops=True)


def walked_orders(g, objective):
    """The ranker and every ``(head, left, order)`` that ``_walk_orders``
    shows a visit whose bar no head exceeds."""
    r = _ranker(g, objective)
    lets_all = 1 << 60 if r[1] is None else (1 << 60, 0)
    seen = []

    def visit(head, left, order):
        seen.append((head, list(left), tuple(order)))
        return lets_all

    _walk_orders(g, r, visit)
    return r, seen


# the table loop with penalties, and the other loop on scaled weights
WALKED_KINDS = (PhiSum(shared=square(), f=1, g=2), MaxWeightedIndeg())


class TestPlainChanges:
    @pytest.mark.parametrize("n", range(9))
    def test_each_order_once_one_adjacent_swap_apart(self, n):
        g = walk_graph(n)
        for obj in WALKED_KINDS:
            orders = [order for _, _, order in walked_orders(g, obj)[1]]
            assert orders[0] == tuple(range(n))
            assert len(orders) == len(set(orders)) == factorial(n)
            for a, b in zip(orders, orders[1:]):
                i = next(i for i in range(n) if a[i] != b[i])
                assert (b[i], b[i + 1]) == (a[i + 1], a[i]) and a[i + 2:] == b[i + 2:]

    @pytest.mark.parametrize("n", range(9))
    def test_left_degrees_and_heads_at_every_visit(self, n):
        g = walk_graph(n)
        scale = lcm(*(x.denominator for x in g.weights))
        (rt, tables), (rw, weighted) = (walked_orders(g, obj) for obj in WALKED_KINDS)
        known = {}  # orders with the same later ends have the same degrees
        for (ht, lt, order), (hw, lw, again) in zip(tables, weighted, strict=True):
            assert order == again
            ends = later_ends(g, order)
            if ends not in known:
                plain = degrees_of_order(g, order).indeg
                known[ends] = list(plain), [z * scale for z in degrees_of_order(g, order, True).indeg]
            assert [lt, lw] == list(known[ends]), order
            assert ht == _head(rt, lt) and hw == _head(rw, lw), order


def star(n, center):
    return build_graph(n, [(v, center) for v in range(n) if v != center])


class TestTieCountAtTheMinimum:
    """Loop-free graphs with fewer edges than vertices, or walked as
    orders, have minimum indegree 0 in every candidate, so the inc heads
    always tie and the number of vertices at 0 (sources) decides next."""

    @pytest.mark.parametrize(
        "g",
        [
            star(5, 0),
            star(5, 4),
            build_graph(6, [(0, 1), (0, 1), (1, 2), (3, 4), (5, 4)]),
            build_graph(6, [(5, 2), (2, 3), (3, 0), (1, 4)]),
        ],
        ids=["star-center-first", "star-center-last", "forest-multi", "forest-paths"],
    )
    @pytest.mark.parametrize("mode", ["cyclic", "acyclic"])
    def test_inc_keys_in_both_modes(self, g, mode):
        assert_first_optimum(g, mode, (IncMax(), IncMin()))

    def test_dense_orders_tie_at_zero(self):
        g = random_multigraph(6, 11, seed=5)
        assert_first_optimum(g, "acyclic", (IncMax(), IncMin()))

    def test_source_counts_decide(self):
        # inc_max wants one source: the center or a leaf, then the center;
        # inc_min wants every leaf before the center
        g = star(5, 4)
        assert brute_optimal(g, IncMax(), "acyclic", count_optima=True).count == 48
        assert brute_optimal(g, IncMin(), "acyclic", count_optima=True).count == 24
        assert brute_optimal(g, IncMax(), "cyclic").key == (0, 1, 1, 1, 1)
        assert brute_optimal(g, IncMin(), "cyclic").key == (0, 0, 0, 0, 4)


class TestOrderValueStats:
    def test_default_value_matches_expectation_machinery(self):
        g = random_multigraph(5, 7, seed=2)
        total, count, best = order_value_stats(g)
        assert count == factorial(5)
        assert Fraction(total, count) == conditional_expectation(g)
        assert best == brute_optimal(g, RhoDeltaSum(), "acyclic").key

    def test_custom_value(self):
        g = k3()
        total, count, best = order_value_stats(g, lambda v, z: z)
        # every order of K3 has left degrees 0,1,2
        assert (total, count, best) == (18, 6, 3)

    def test_rejects_loops(self):
        g = build_graph(1, [(0, 0)], allow_loops=True)
        with pytest.raises(ValueError):
            order_value_stats(g)


class TestVertexCertificate:
    def test_k3_topological_slopes(self):
        g = k3()
        o = Orientation((1, 2, 2))  # order 0,1,2
        slopes, verdict = vertex_certificate(g, o)
        assert slopes == (3, 2, 1)
        assert verdict

    def test_tree_orientation_certified(self):
        g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
        o = Orientation((1, 2, 3))
        slopes, verdict = vertex_certificate(g, o)
        assert verdict

    def test_cyclic_orientation_rejected(self):
        with pytest.raises(ValueError):
            vertex_certificate(k3(), Orientation((1, 2, 0)))

    def test_cap(self):
        m = ORIENTATION_CAP + 1
        wide = build_graph(2, [(0, 1)] * m)
        o = Orientation((1,) * m)
        with pytest.raises(ValueError):
            vertex_certificate(wide, o)

    def test_doubled_edge(self):
        g = build_graph(2, [(0, 1), (1, 0)])
        assert vertex_certificate(g, Orientation((0, 0))) == ((1, 2), True)
        with pytest.raises(ValueError, match="directed cycle"):
            vertex_certificate(g, Orientation((1, 0)))

    def test_no_edges(self):
        assert vertex_certificate(build_graph(3, []), Orientation(())) == ((3, 2, 1), True)
        assert vertex_certificate(build_graph(0, []), Orientation(())) == ((), True)

    def test_the_oracle_cap_is_the_only_refusal(self):
        def path_of(m):  # oriented from 0 to m
            g = build_graph(m + 1, [(v, v + 1) for v in range(m)])
            return g, Orientation(tuple(range(1, m + 1)))

        assert ORIENTATION_CAP == 20
        for m in (17, 20):
            assert vertex_certificate(*path_of(m)) == (tuple(range(m + 1, 0, -1)), True)
        with pytest.raises(ValueError) as refused:
            vertex_certificate(*path_of(21))
        assert str(refused.value) == "refusing to enumerate 2**21 orientations"

    def test_verdict_is_a_unique_minimizing_indegree_vector(self):
        """The verdict against its definition, by plain enumeration: the
        slope-weighted indegree sum has one minimizing vector, the
        orientation's own, on multigraphs with parallel edges."""
        rng = random.Random(44)
        for _ in range(30):
            n = rng.randint(2, 5)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 7))]
            edges.append(rng.choice(edges))
            g = build_graph(n, edges)
            vectors = {degrees_of_orientation(g, o).indeg for o in enumerate_orientations(g)}
            for o in enumerate_orientations(g):
                if not is_acyclic(g, o):
                    continue
                slopes, verdict = vertex_certificate(g, o)
                cost = {vec: sum(s * z for s, z in zip(slopes, vec)) for vec in vectors}
                least = min(cost.values())
                want = [vec for vec, c in cost.items() if c == least]
                assert verdict == (want == [degrees_of_orientation(g, o).indeg])

    def test_every_acyclic_orientation_certifies(self):
        rng = random.Random(77)
        done = 0
        while done < 10:
            n = rng.randint(2, 5)
            m = rng.randint(1, 6)
            try:
                g = random_multigraph(n, m, seed=rng.random())
            except ValueError:
                continue
            done += 1
            for o in enumerate_orientations(g):
                if is_acyclic(g, o):
                    assert vertex_certificate(g, o)[1]


class TestCycleReversal:
    def test_k3_directed_cycle(self):
        g = k3()
        o = Orientation((1, 2, 0))
        parts = cycle_reversal_decomposition(g, o)
        assert len(parts) == 3
        for p in parts:
            assert sum(a != b for a, b in zip(p.heads, o.heads)) == 1
        # reversing one arc of the 3-cycle leaves degrees (0,1,2) in some order
        for p in parts:
            assert sorted(degrees_of_orientation(g, p).indeg) == [0, 1, 2]

    def test_two_parallel_arcs(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        parts = cycle_reversal_decomposition(g, Orientation((1, 0)))
        assert len(parts) == 2

    def test_acyclic_input_rejected(self):
        with pytest.raises(ValueError):
            cycle_reversal_decomposition(k3(), Orientation((1, 2, 2)))

    def test_shortest_cycle_prefers_two_cycles(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2), (1, 0)])
        o = Orientation((1, 2, 0, 0))  # contains 0->1->0 and the triangle
        cyc = shortest_directed_cycle(g, o)
        assert cyc is not None and len(cyc) == 2

    def test_shortest_cycle_none_when_acyclic(self):
        assert shortest_directed_cycle(k3(), Orientation((1, 2, 2))) is None
