"""Builtin instances, seeded generators, and the scheduling reduction."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from orientopt.flow import solve_cyclic
from orientopt.graph import build_graph, degrees_of_order, is_connected
from orientopt.instances import (
    FIG4_DECMIN_ORDER,
    FIG4_INCMAX_ORDER,
    SchedulingInstance,
    fig4_graph,
    gen_gk,
    named_instance,
    random_multigraph,
    random_scheduling_instance,
    scheduling_to_orientation,
)
from orientopt.objectives import LiftedCost, linear, square, zero
from orientopt.ordering import exact_subset_dp

from paper_facts import brute_schedule_cost, gk_adversarial_order, gk_optimal_order
from peeling_reference import ref_is_greedy_run


def square_sum(g, order):
    return sum(z * z for z in degrees_of_order(g, order).indeg)


def reference_random_multigraph(n, m, seed, max_degree=None, connected=False,
                                allow_loops=False, weighted=False):
    """``random_multigraph`` without ``simple``, as it drew with
    ``randrange`` and ``randint``, on parameters that pass its checks."""
    rng = random.Random(seed)
    for _ in range(300):
        edges = []
        deg = [0] * n
        tries = 0
        while len(edges) < m and tries < 100 * (m + 1):
            tries += 1
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v and not allow_loops:
                continue
            du = 2 if u == v else 1
            if max_degree is not None and (
                deg[u] + du > max_degree
                or (u != v and deg[v] + 1 > max_degree)
            ):
                continue
            edges.append((min(u, v), max(u, v)))
            deg[u] += du
            if u != v:
                deg[v] += 1
        if len(edges) < m:
            continue
        weights = None
        if weighted:
            weights = [
                Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)
            ]
        g = build_graph(n, edges, weights, allow_loops=allow_loops)
        if connected and not is_connected(g):
            continue
        return g
    raise ValueError("could not sample a graph with these constraints")


class TestFig4:
    def test_shape(self):
        g = fig4_graph()
        assert (g.n, g.m) == (9, 18)
        assert g.is_simple and is_connected(g)
        assert g.degrees == (4, 3, 3, 4, 4, 4, 4, 4, 6)
        # exactly two vertices of degree < 4, and the hub has degree 6
        assert [v for v in range(9) if g.degrees[v] <= 3] == [1, 2]

    def test_reference_orders_are_permutations(self):
        assert sorted(FIG4_DECMIN_ORDER) == list(range(9))
        assert sorted(FIG4_INCMAX_ORDER) == list(range(9))

    def test_decmin_and_incmax_optima_are_disjoint(self):
        """Enumerate all acyclic orientations (via orders, deduplicated)
        and intersect the two optimal sets; they must not overlap."""
        g = fig4_graph()
        edges = g.edges
        decmin_best, decmin_set = None, set()
        incmax_best, incmax_set = None, set()
        seen = set()
        for perm in permutations(range(9)):
            pos = [0] * 9
            for i, v in enumerate(perm):
                pos[v] = i
            heads = tuple(v if pos[u] < pos[v] else u for u, v in edges)
            if heads in seen:
                continue
            seen.add(heads)
            indeg = [0] * 9
            for h in heads:
                indeg[h] += 1
            dec = tuple(sorted(indeg, reverse=True))
            if decmin_best is None or dec < decmin_best:
                decmin_best, decmin_set = dec, {heads}
            elif dec == decmin_best:
                decmin_set.add(heads)
            inc = tuple(sorted(indeg))
            if incmax_best is None or inc > incmax_best:
                incmax_best, incmax_set = inc, {heads}
            elif inc == incmax_best:
                incmax_set.add(heads)
        assert len(seen) == 15168  # acyclic orientations of the graph
        assert decmin_best == (3, 3, 3, 3, 2, 2, 1, 1, 0)
        assert incmax_best == (0, 1, 2, 2, 2, 2, 2, 3, 4)
        assert len(decmin_set) == 544
        assert len(incmax_set) == 100
        assert not (decmin_set & incmax_set)


class TestGk:
    def test_shape(self):
        for k in range(1, 5):
            g = gen_gk(k)
            assert g.n == 4 * k - 1
            assert g.m == 5 * k - 2
            assert is_connected(g) and g.is_simple
            assert g.max_degree <= 3

    def test_needs_a_triangle(self):
        with pytest.raises(ValueError):
            gen_gk(0)

    def test_order_values(self):
        for k in range(1, 5):
            g = gen_gk(k)
            assert square_sum(g, gk_optimal_order(k)) == 7 * k - 2
            adversarial = gk_adversarial_order(k)
            assert square_sum(g, adversarial) == 9 * k - 4
            assert ref_is_greedy_run(g, adversarial)

    def test_optimal_order_is_actually_optimal(self):
        for k in range(1, 4):
            g = gen_gk(k)
            _, value = exact_subset_dp(g, lambda v, z: z * z)
            assert value == 7 * k - 2

    def test_ratio_climbs_toward_nine_sevenths(self):
        from fractions import Fraction

        ratios = [Fraction(9 * k - 4, 7 * k - 2) for k in range(1, 8)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < Fraction(9, 7) for r in ratios)


class TestNamedInstances:
    def test_known_names(self):
        assert named_instance("k3").m == 3
        assert named_instance("fig4").n == 9
        assert named_instance("gk:2").n == 7
        assert named_instance("path:4").m == 3
        assert named_instance("cycle:5").m == 5
        assert named_instance("complete:4").m == 6
        assert named_instance("path:1").m == 0

    def test_bad_names(self):
        for name in ("mystery", "gk", "gk:x", "cycle:2", "path:0", "complete:0", "k3:1"):
            with pytest.raises(ValueError):
                named_instance(name)


class TestRandomMultigraph:
    def test_deterministic_per_seed(self):
        a = random_multigraph(6, 9, seed=42, weighted=True)
        b = random_multigraph(6, 9, seed=42, weighted=True)
        assert a == b
        c = random_multigraph(6, 9, seed=43, weighted=True)
        assert (a.edges, a.weights) != (c.edges, c.weights)

    def test_respects_counts_and_flags(self):
        rng = random.Random(0)
        for _ in range(30):
            n = rng.randint(2, 7)
            m = rng.randint(0, 9)
            simple = rng.random() < 0.3 and m <= n * (n - 1) // 2
            try:
                g = random_multigraph(
                    n,
                    m,
                    seed=rng.random(),
                    simple=simple,
                    max_degree=3 if rng.random() < 0.3 else None,
                    connected=rng.random() < 0.3 and m >= n - 1,
                )
            except ValueError:
                continue
            assert (g.n, g.m) == (n, m)
            assert not g.has_loops
            if simple:
                assert g.is_simple

    def test_simple_draw_matches_the_pair_list_draw(self):
        # the index draw must pick what sampling the full pair list picked
        for seed in range(40):
            for n, m in ((2, 1), (5, 4), (6, 15), (9, 20), (30, 50)):
                rng = random.Random(seed)
                want = sorted(rng.sample(list(combinations(range(n), 2)), m))
                g = random_multigraph(n, m, seed=seed, simple=True)
                assert list(g.edges) == want, (seed, n, m)

    def test_simple_draw_does_not_list_every_pair(self):
        t0 = time.perf_counter()
        g = random_multigraph(10**5, 10, seed=1, simple=True)
        assert time.perf_counter() - t0 < 1.0
        assert (g.n, g.m) == (10**5, 10) and g.is_simple

    def test_draws_match_the_randrange_reference(self, monkeypatch):
        # same graph or same error, and the generator's Random left in the
        # same state, over 480 parameter sets
        made = []

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        def outcome(generate, n, m, seed, **kw):
            try:
                g = generate(n, m, seed, **kw)
                got = (g.n, g.edges, g.weights, g.allow_loops)
            except ValueError as e:
                got = str(e)
            return got, made[-1].getstate()

        monkeypatch.setattr(random, "Random", Recorded)
        rng = random.Random(7)
        errors = 0
        for case in range(480):
            n = rng.choice((1, 2, 3, 5, 8, rng.randint(1, 300)))
            loops = case % 2 == 1
            md = rng.randint(2, 8) if case % 4 == 0 else None
            m = 0 if n == 1 and not loops else rng.randint(0, 3 * n if md is None else n * md // 2)
            # connected large graphs are drawn dense enough to succeed, except
            # a sparse small one now and then, which makes the generator give up
            connected = case % 5 < 2 and m >= (n - 1 if n <= 8 else 2 * n)
            if case % 40 == 39:
                n, connected = rng.randint(10, 30), True
                m = n - 1 if md is None else min(n - 1, n * md // 2)
            kw = dict(allow_loops=loops, weighted=case % 3 == 0, max_degree=md,
                      connected=connected)
            seed = rng.randrange(10**6)
            want = outcome(reference_random_multigraph, n, m, seed, **kw)
            assert outcome(random_multigraph, n, m, seed, **kw) == want, (n, m, seed, kw)
            errors += isinstance(want[0], str)
        assert errors >= 5

    def test_graphs_are_what_build_graph_builds(self):
        # random_multigraph builds its Multigraph without build_graph's
        # per-edge checks; over the parameter sets of the test above, and
        # the simple graphs of the loop-free ones, build_graph accepts every
        # graph it returns and builds the same graph
        rng = random.Random(7)
        built = 0
        for case in range(480):
            n = rng.choice((1, 2, 3, 5, 8, rng.randint(1, 300)))
            loops = case % 2 == 1
            md = rng.randint(2, 8) if case % 4 == 0 else None
            m = 0 if n == 1 and not loops else rng.randint(0, 3 * n if md is None else n * md // 2)
            connected = case % 5 < 2 and m >= (n - 1 if n <= 8 else 2 * n)
            if case % 40 == 39:
                n, connected = rng.randint(10, 30), True
                m = n - 1 if md is None else min(n - 1, n * md // 2)
            kw = dict(allow_loops=loops, weighted=case % 3 == 0, max_degree=md,
                      connected=connected)
            seed = rng.randrange(10**6)
            for simple in (False, True) if not loops else (False,):
                try:
                    g = random_multigraph(n, m, seed, simple=simple, **kw)
                except ValueError:
                    continue
                assert g == build_graph(n, g.edges, g.weights, g.allow_loops), (n, m, seed, kw)
                built += 1
        assert built >= 500, built

    def test_max_degree_is_enforced(self):
        g = random_multigraph(6, 9, seed=1, max_degree=3)
        assert g.max_degree <= 3

    def test_simple_graphs_keep_the_degree_cap(self):
        # sparse enough to succeed, dense enough that some draws break the
        # cap and are drawn again
        for seed in range(12):
            for n, m, k in ((8, 10, 3), (9, 8, 2), (6, 6, 2)):
                g = random_multigraph(n, m, seed=seed, simple=True, max_degree=k)
                assert (g.n, g.m) == (n, m) and g.is_simple
                assert g.max_degree <= k, (seed, n, m, k)

    def test_connected_flag(self):
        g = random_multigraph(7, 8, seed=2, connected=True)
        assert is_connected(g)

    def test_loops_show_up_only_when_allowed(self):
        g = random_multigraph(1, 2, seed=3, allow_loops=True)
        assert g.loop_counts == (2,)
        for s in range(10):
            assert not random_multigraph(3, 6, seed=s).has_loops

    def test_infeasible_parameters(self):
        cases = [
            dict(n=3, m=4, simple=True),
            dict(n=1, m=1),
            dict(n=0, m=1),
            dict(n=4, m=7, max_degree=3),
            dict(n=5, m=2, connected=True),
            dict(n=3, m=1, simple=True, allow_loops=True),
            dict(n=-1, m=0),
        ]
        for kw in cases:
            with pytest.raises(ValueError):
                random_multigraph(seed=0, **kw)


class TestScheduling:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            SchedulingInstance(1, (frozenset(),), (square(),))
        with pytest.raises(ValueError):
            SchedulingInstance(1, (frozenset({3}),), (square(),))
        with pytest.raises(ValueError):
            SchedulingInstance(2, (frozenset({0}),), (square(),))
        inst = SchedulingInstance(2, (frozenset({0, 1}),), (square(), square()))
        assert inst.num_jobs == 1

    def test_one_slot_forces_full_load(self):
        inst = SchedulingInstance(
            1, (frozenset({0}), frozenset({0})), (square(),)
        )
        graph, objective = scheduling_to_orientation(inst)
        sol = solve_cyclic(graph, objective)
        assert sol.key == LiftedCost(0, 4)  # both jobs pile onto the slot
        assert brute_schedule_cost(inst) == 4

    def test_two_slots_split_the_load(self):
        inst = SchedulingInstance(
            2,
            (frozenset({0, 1}), frozenset({0, 1})),
            (square(), square()),
        )
        graph, objective = scheduling_to_orientation(inst)
        sol = solve_cyclic(graph, objective)
        assert sol.key == LiftedCost(0, 2)
        assert brute_schedule_cost(inst) == 2

    def test_empty_slots_still_cost(self):
        # constant cost 3 on slot 1 applies whether or not it gets work
        inst = SchedulingInstance(
            2, (frozenset({0, 1}),), (linear(1), linear(0, 3))
        )
        assert brute_schedule_cost(inst) == 3
        graph, objective = scheduling_to_orientation(inst)
        assert solve_cyclic(graph, objective).key == LiftedCost(0, 3)

    def test_reduction_shape(self):
        inst = SchedulingInstance(
            2, (frozenset({0}), frozenset({0, 1})), (square(), square())
        )
        graph, objective = scheduling_to_orientation(inst)
        assert graph.n == 4  # 2 jobs + 2 slots
        assert graph.m == 3  # one edge per (job, feasible slot) pair
        phis = objective.resolve(graph)
        assert (phis[0].f, phis[0].g) == (0, 0)
        assert (phis[1].f, phis[1].g) == (1, 1)
        assert phis[0].spec == zero()

    def test_random_instances_match_brute(self):
        for s in range(15):
            inst = random_scheduling_instance(seed=s)
            graph, objective = scheduling_to_orientation(inst)
            sol = solve_cyclic(graph, objective)
            assert sol.feasible
            assert sol.key.penalty == 0
            assert sol.key.base == brute_schedule_cost(inst)

    def test_random_instance_determinism(self):
        assert random_scheduling_instance(seed=9) == random_scheduling_instance(seed=9)

    @pytest.mark.parametrize("jobs, slots", [(0, 3), (4, 0), (0, 0), (-2, 5)])
    def test_random_instance_needs_a_job_and_a_slot(self, jobs, slots):
        with pytest.raises(ValueError, match=f"at least 1, not {jobs} and {slots}$"):
            random_scheduling_instance(seed=1, max_jobs=jobs, max_slots=slots)

    def test_one_job_and_one_slot(self):
        inst = random_scheduling_instance(seed=3, max_jobs=1, max_slots=1)
        assert (inst.num_jobs, inst.num_slots, inst.feasible) == (1, 1, (frozenset({0}),))
