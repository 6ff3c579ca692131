"""End-to-end acceptance suite.

Thirteen checks, one per headline guarantee, each reporting a single
pass/fail line under ``pytest -v``.  Every random suite is seeded, so
reruns are reproducible; wall-clock budgets are asserted where the
check is meant to stay interactive.
"""

import random
import time
from fractions import Fraction

from orientopt.exhaustive import brute_optimal, vertex_certificate
from orientopt.flow import solve_cyclic
from orientopt.graph import degrees_of_order, degrees_of_orientation, is_acyclic
from orientopt.instances import (
    fig4_graph,
    gen_gk,
    random_multigraph,
    random_scheduling_instance,
    scheduling_to_orientation,
)
from orientopt.objectives import (
    DecMin,
    IncMax,
    MaxWeightedIndeg,
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
from orientopt.ordering import (
    combine_st_orders,
    conditional_expectation,
    derandomized_order,
    greedy_min_degree,
    solve_acyclic_exact,
    terminal_imbalance_bound,
    weighted_smallest_last,
)

from enumeration_reference import enumerate_orders, enumerate_orientations
from paper_facts import (
    _greedy_worst,
    brute_schedule_cost,
    cycle_reversal_decomposition,
    gk_adversarial_order,
    harmonic,
    imbalance_report,
    order_value_stats,
)
from peeling_reference import ref_is_greedy_run

SQUARE_SUM = PhiSum(shared=square())


def degeneracy(g):
    """Largest left degree of the lowest-id smallest-last order."""
    return max(degrees_of_order(g, greedy_min_degree(g)).indeg, default=0)


def _flow_suite():
    """200 multigraphs with at most 12 edges, shared by the two flow checks."""
    rng = random.Random(3404)
    return [
        random_multigraph(rng.randint(2, 6), rng.randint(1, 12), seed=34_000 + i)
        for i in range(200)
    ]


def _expectation_suite():
    """50 graphs with n <= 7, alternating simple and multigraph draws."""
    rng = random.Random(820)
    suite = []
    for i in range(50):
        n = rng.randint(2, 7)
        simple = i % 2 == 0
        m = rng.randint(1, n * (n - 1) // 2 if simple else 10) if n > 2 or not simple else 1
        suite.append((random_multigraph(n, m, seed=82_000 + i, simple=simple), simple))
    return suite


def _square_sum_suite():
    """The ladder family for k <= 5, each paired with its designed worst greedy
    run, plus 45 seeded random multigraphs (n <= 8, worst run found by search)."""
    suite = [(gen_gk(k), gk_adversarial_order(k)) for k in range(1, 6)]
    rng = random.Random(1220)
    for i in range(45):
        n = rng.randint(2, 8)
        m = rng.randint(1, 12)
        suite.append((random_multigraph(n, m, seed=122_000 + i), None))
    return suite


def test_fig4_exact_keys():
    """The 9-vertex reference graph: dec-min key (3,3,3,3,2,2,1,1,0) and
    inc-max key (0,1,2,2,2,2,2,3,4) from the exact acyclic solver; < 1 s."""
    t0 = time.perf_counter()
    g = fig4_graph()
    _, decmin_key = solve_acyclic_exact(g, DecMin())
    _, incmax_key = solve_acyclic_exact(g, IncMax())
    elapsed = time.perf_counter() - t0
    assert decmin_key == (3, 3, 3, 3, 2, 2, 1, 1, 0)
    assert incmax_key == (0, 1, 2, 2, 2, 2, 2, 3, 4)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_gk_family_optimum_and_adversarial_gap():
    """Ladder family, k = 1..5: exact square-sum optimum 7k-2, the designed
    adversarial order is a greedy run of value 9k-4, and the value ratio
    climbs monotonically toward 9/7; < 30 s total."""
    t0 = time.perf_counter()
    ratios = []
    for k in range(1, 6):
        g = gen_gk(k)
        _, key = solve_acyclic_exact(g, SQUARE_SUM)
        assert key.penalty == 0 and key.base == 7 * k - 2, (k, key)
        adversarial = gk_adversarial_order(k)
        assert ref_is_greedy_run(g, adversarial), k
        val = evaluate(SQUARE_SUM, g, degrees_of_order(g, adversarial)).base
        assert val == 9 * k - 4, (k, val)
        ratios.append(Fraction(9 * k - 4, 7 * k - 2))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < Fraction(9, 7) for r in ratios)
    gaps = [Fraction(9, 7) - r for r in ratios]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"


def test_flow_solver_matches_brute_force_across_objectives():
    """Cyclic-regime flow solver vs. orientation enumeration on 200 seeded
    multigraphs, cycling through square / cube / binomial / imbalance /
    dec-min / inc-max / bounded-zero objectives; for the bounded ones the
    penalty is zero exactly when a degree-bounded orientation exists; < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(3405)
    plain = [
        PhiSum(shared=square()),
        PhiSum(shared=cube()),
        PhiSum(shared=binom2()),
        PhiSum(shared=abs_balance()),
        DecMin(),
        IncMax(),
    ]
    for i, g in enumerate(_flow_suite()):
        if i % 7 < 6:
            obj = plain[i % 7]
        else:
            f = tuple(rng.randint(0, 3) for _ in range(g.n))
            gg = tuple(fv + rng.randint(0, 2) for fv in f)
            obj = PhiSum(shared=zero(), f=f, g=gg)
        sol = solve_cyclic(g, obj)
        assert sol.key == brute_optimal(g, obj, "cyclic").key, (i, g.edges)
        if i % 7 == 6:
            exists = any(
                all(
                    obj.f[v] <= z <= obj.g[v]
                    for v, z in enumerate(degrees_of_orientation(g, o).indeg)
                )
                for o in enumerate_orientations(g)
            )
            assert sol.feasible == exists, (i, g.edges)
            assert sol.feasible == (sol.key.penalty == 0), (i, g.edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_decmin_orientation_is_simultaneously_optimal():
    """On the same 200-graph suite, the orientation returned by the cyclic
    dec-min solve attains the brute-force dec-min key, and also the
    brute-force inc-max key and square-sum optimum (Frank & Murota: the
    solver finds it as a square-sum optimum); < 2 min."""
    t0 = time.perf_counter()
    for g in _flow_suite():
        sol = solve_cyclic(g, DecMin())
        assert sol.key == brute_optimal(g, DecMin(), "cyclic").key, g.edges
        dv = degrees_of_orientation(g, sol.orientation)
        assert evaluate(IncMax(), g, dv) == brute_optimal(g, IncMax(), "cyclic").key, g.edges
        assert (
            evaluate(SQUARE_SUM, g, dv) == brute_optimal(g, SQUARE_SUM, "cyclic").key
        ), g.edges
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_smallest_last_minimizes_weighted_indegree_exactly():
    """Weighted smallest-last ordering on 200 seeded graphs with rational
    weights, n <= 8: its maximum weighted left degree equals the brute-force
    minimum over all n! orders; < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(520)
    for i in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(1, 12)
        g = random_multigraph(n, m, seed=52_000 + i, weighted=True)
        order = weighted_smallest_last(g)
        got = max(degrees_of_order(g, order, weighted=True).indeg, default=0)
        assert got == brute_optimal(g, MaxWeightedIndeg(), "acyclic").key, (i, g.edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_subset_dp_matches_permutation_brute_force():
    """Subset DP vs. permutation enumeration on 100 seeded graphs, n <= 8,
    with per-vertex random (generally non-convex) cost tables; < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(620)
    for i in range(100):
        n = rng.randint(2, 8)
        m = rng.randint(0, 10)
        g = random_multigraph(n, m, seed=62_000 + i, allow_loops=(i % 5 == 0))
        specs = tuple(
            table(tuple(rng.randint(-3, 9) for _ in range(g.degrees[v] + 1)))
            for v in range(n)
        )
        obj = PhiSum(per_vertex=specs)
        order, key = solve_acyclic_exact(g, obj)
        assert evaluate(obj, g, degrees_of_order(g, order)) == key, (i, g.edges)
        assert key == brute_optimal(g, obj, "acyclic").key, (i, g.edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_combined_st_orders_maximize_rho_delta_sum():
    """Block-combined s-t orders on 100 seeded connected graphs with maximum
    degree 3, n <= 9: the order attains the brute-force maximum of the
    left-right degree product sum, and its total shortfall against the ideal
    balanced split matches the end-component bound; < 2 min."""
    t0 = time.perf_counter()
    rng = random.Random(720)
    done = attempt = 0
    while done < 100:
        attempt += 1
        n = rng.randint(2, 9)
        m = rng.randint(max(1, n - 1), (3 * n) // 2)
        try:
            g = random_multigraph(n, m, seed=72_000 + attempt, max_degree=3, connected=True)
        except ValueError:
            continue
        done += 1
        order = combine_st_orders(g)
        dv = degrees_of_order(g, order)
        best = brute_optimal(g, RhoDeltaSum(), "acyclic").key
        assert evaluate(RhoDeltaSum(), g, dv) == best, g.edges
        assert imbalance_report(g, order).total == terminal_imbalance_bound(g), g.edges
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_conditional_expectation_matches_enumeration():
    """Expectation engine on 50 mixed simple/multigraphs, n <= 7: the empty
    prefix equals the exhaustive average of the product-sum objective as an
    exact rational; < 2 min."""
    t0 = time.perf_counter()
    for g, _simple in _expectation_suite():
        total, count, _best = order_value_stats(g)
        assert conditional_expectation(g, ()) == Fraction(total, count), g.edges
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_derandomized_chain_monotone_and_three_approximate():
    """On the same 50-graph suite, the conditional-expectation values along
    the derandomized prefix chain never decrease, the final value is the
    integral objective of the output order, and three times that value is at
    least the brute-force optimum."""
    for g, _simple in _expectation_suite():
        order = derandomized_order(g)
        chain = [conditional_expectation(g, order[:i]) for i in range(g.n + 1)]
        assert all(a <= b for a, b in zip(chain, chain[1:])), g.edges
        total, count, best = order_value_stats(g)
        assert chain[0] == Fraction(total, count), g.edges
        final = chain[-1]
        assert final.denominator == 1, g.edges
        assert final == evaluate(RhoDeltaSum(), g, degrees_of_order(g, order)), g.edges
        assert 3 * final >= best, (g.edges, final, best)


def test_orientation_dichotomy_certificates():
    """300 seeded connected graphs, n <= 5 and at most 7 edges: every acyclic
    orientation's indegree vector is certified as the unique minimizer of a
    linear weighting, and every cyclic orientation's vector is the exact
    average of the one-cycle-reversal vectors; < 5 min."""
    t0 = time.perf_counter()
    rng = random.Random(1020)
    done = attempt = 0
    while done < 300:
        attempt += 1
        n = rng.randint(1, 5)
        m = rng.randint(0, 7)
        try:
            g = random_multigraph(n, m, seed=102_000 + attempt, connected=True)
        except ValueError:
            continue
        done += 1
        for o in enumerate_orientations(g):
            if is_acyclic(g, o):
                _weights, verdict = vertex_certificate(g, o)
                assert verdict, (g.edges, o.heads)
            else:
                parts = cycle_reversal_decomposition(g, o)
                sums = [0] * g.n
                for p in parts:
                    for v, z in enumerate(degrees_of_orientation(g, p).indeg):
                        sums[v] += z
                scaled = [len(parts) * z for z in degrees_of_orientation(g, o).indeg]
                assert sums == scaled, (g.edges, o.heads)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"


def test_two_bounded_orders_fixed_source_sink_difference():
    """On 50 graphs of degeneracy at most 2, every order with all left
    degrees <= 2 has the same difference (#left-degree-0) - (#left-degree-2),
    namely n - |E|."""
    rng = random.Random(1120)
    done = attempt = 0
    while done < 50:
        attempt += 1
        n = rng.randint(2, 7)
        m = rng.randint(1, min(10, 2 * n))
        g = random_multigraph(n, m, seed=112_000 + attempt)
        if degeneracy(g) > 2:
            continue
        done += 1
        diffs = set()
        bounded = 0
        for order in enumerate_orders(g):
            left = degrees_of_order(g, order).indeg
            if max(left) > 2:
                continue
            bounded += 1
            n0 = sum(1 for z in left if z == 0)
            n2 = sum(1 for z in left if z == 2)
            diffs.add(n0 - n2)
        assert bounded > 0, g.edges
        assert diffs == {g.n - len(g.edges)}, (g.edges, diffs)


def test_greedy_square_sum_respects_approximation_bounds():
    """Square-sum suite (ladder family plus 45 random graphs): the worst
    greedy run and the lowest-id run are both within a degeneracy factor and
    within 4·H(n) of the exact optimum, by exact rational comparison."""
    for g, designed_worst in _square_sum_suite():
        worst = designed_worst
        if worst is None:
            worst = _greedy_worst(g)
        assert ref_is_greedy_run(g, worst), g.edges
        opt = solve_acyclic_exact(g, SQUARE_SUM)[1].base
        dmin = degeneracy(g)
        for order in (greedy_min_degree(g), worst):
            val = evaluate(SQUARE_SUM, g, degrees_of_order(g, order)).base
            assert val <= dmin * opt, (g.edges, order, val, dmin, opt)
            assert Fraction(val) <= 4 * harmonic(g.n) * opt, (g.edges, order, val)


def test_scheduling_reduction_exact():
    """50 random interval-free scheduling instances (at most 4 jobs, 3 slots,
    convex slot costs): the flow solve of the reduced orientation instance is
    feasible with penalty 0 and its base cost equals the brute-force
    assignment optimum."""
    for s in range(50):
        inst = random_scheduling_instance(seed=1300 + s)
        graph, objective = scheduling_to_orientation(inst)
        sol = solve_cyclic(graph, objective)
        assert sol.feasible and sol.key.penalty == 0, s
        assert sol.key.base == brute_schedule_cost(inst), s
