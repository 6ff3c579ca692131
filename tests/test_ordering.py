"""Vertex-order heuristics and exact DPs, checked against brute force."""

import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from orientopt.exhaustive import brute_optimal
from orientopt.formats import parse_objective
from orientopt import ordering
from orientopt.graph import block_forest, build_graph, degrees_of_order, subgraph
from orientopt.instances import (
    FIG4_DECMIN_ORDER,
    fig4_graph,
    named_instance,
    random_multigraph,
)
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
    cube,
    evaluate,
    exp_base,
    resolved,
    square,
    table,
    zero,
)
from orientopt.ordering import (
    DP_CAP,
    _dp_form,
    combine_st_orders,
    conditional_expectation,
    derandomized_order,
    exact_subset_dp,
    greedy_min_degree,
    linear_slope_order,
    _shuffled_orders,
    random_order_trials,
    relative_order_counts,
    solve_acyclic_exact,
    terminal_imbalance_bound,
    weighted_smallest_last,
)

from enumeration_reference import enumerate_orders
from paper_facts import _greedy_worst, harmonic, imbalance_report, linear_optimum_value
from peeling_reference import ref_is_greedy_run


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def degeneracy(g):
    """Largest left degree of the lowest-id smallest-last order."""
    return max(degrees_of_order(g, greedy_min_degree(g)).indeg, default=0)


def rho_delta(g, order):
    dv = degrees_of_order(g, order)
    return sum(i * o for i, o in zip(dv.indeg, dv.outdeg))


def small_random_graphs(seed, count, n_range=(2, 6), m_range=(0, 9), **kw):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        m = rng.randint(*m_range)
        try:
            out.append(random_multigraph(n, m, seed=rng.random(), **kw))
        except ValueError:
            continue
    return out


# Naive references: O(n^2) peeling scans and a from-scratch derandomized
# greedy.  They read only g.n and g.edges and share no code with
# orientopt.ordering (the expectation is summed pair by pair, without
# relative_order_counts), so the differential tests compare two
# independent implementations.


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def ref_smallest_last(g, weights, rng=None):
    """Remove a live vertex of minimum weighted degree, scanning them all;
    ties to the lowest id, or ``rng.choice`` over the id-sorted ties."""
    wdeg = [Fraction(0)] * g.n
    for (a, b), x in zip(g.edges, weights):
        wdeg[a] += x
        if b != a:
            wdeg[b] += x
    alive = [True] * g.n
    suffix = []
    for _ in range(g.n):
        lo = min(wdeg[v] for v in range(g.n) if alive[v])
        ties = [v for v in range(g.n) if alive[v] and wdeg[v] == lo]
        pick = ties[0] if rng is None else rng.choice(ties)
        alive[pick] = False
        suffix.append(pick)
        for (a, b), x in zip(g.edges, weights):
            if a != b and pick in (a, b):
                u = b if a == pick else a
                if alive[u]:
                    wdeg[u] -= x
    return tuple(reversed(suffix))


def ref_expectation(g, prefix):
    """E[sum_v leftdeg(v) * rightdeg(v)] over uniform completions of the
    prefix, by linearity over ordered pairs (e, f) of distinct edges at a
    common vertex v: the term is P(e's other end precedes v and f's
    other end follows v)."""
    pos = {v: i for i, v in enumerate(prefix)}
    total = Fraction(0)
    for v in range(g.n):
        ends = [b if a == v else a for a, b in g.edges if v in (a, b)]
        for i, x in enumerate(ends):
            for j, y in enumerate(ends):
                if i == j:
                    continue
                if v in pos:
                    x_first = x in pos and pos[x] < pos[v]
                    y_later = y not in pos or pos[y] > pos[v]
                    total += 1 if x_first and y_later else 0
                elif y in pos:
                    continue  # placed, so before the free v
                elif x in pos:
                    total += Fraction(1, 2)
                elif x != y:
                    total += Fraction(1, 6)
    return total


def table_term(d, mults):
    """A free vertex's expected left times right degree from the counts of
    relative_order_counts: sum cnt * (d - l) * l / (p + 1)!, where l is
    the multiplicity sum of the p free neighbours after it."""
    f = relative_order_counts(mults)
    num = sum(cnt * (d - l) * l for row in f for l, cnt in enumerate(row))
    return Fraction(num, factorial(len(mults) + 1))


def table_expectation(g, prefix):
    """conditional_expectation with every free vertex's term from table_term."""
    prefix = tuple(prefix)
    ends = [[b if a == v else a for a, b in g.edges if v in (a, b)] for v in range(g.n)]
    total = Fraction(0)
    for i, v in enumerate(prefix):
        left = sum(1 for x in ends[v] if x in prefix[:i])
        total += left * (len(ends[v]) - left)
    for v in range(g.n):
        if v not in prefix:
            mults = list(Counter(x for x in ends[v] if x not in prefix).values())
            total += table_term(len(ends[v]), mults)
    return total


def ref_derandomized(g):
    order = []
    free = set(range(g.n))
    for _ in range(g.n):
        best_u = None
        best_e = None
        for u in sorted(free):
            e = ref_expectation(g, order + [u])
            if best_e is None or e > best_e:
                best_u, best_e = u, e
        order.append(best_u)
        free.discard(best_u)
    return tuple(order)


def ref_subset_dp(g, cost_of, maximize=False):
    """The subset DP on the original values, reading only g.n and g.edges:
    f[mask] adds and compares ``cost_of`` values (negated to maximize),
    the last vertex of mask pays its degree inside mask, and a strict
    ``<`` over increasing ids keeps the lowest id on ties."""
    deg = [sum(1 for e in g.edges if v in e) for v in range(g.n)]
    tables = [[cost_of(v, z) for z in range(deg[v] + 1)] for v in range(g.n)]
    if maximize:
        tables = [[-x for x in row] for row in tables]
    f = [0] * (1 << g.n)
    last = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        inside = [0] * g.n
        for u, w in g.edges:
            if mask >> u & 1 and mask >> w & 1:
                inside[u] += 1
                inside[w] += u != w  # a loop counts once
        best = None
        for v in range(g.n):
            if mask >> v & 1:
                cand = f[mask ^ (1 << v)] + tables[v][inside[v]]
                if best is None or cand < best:
                    best, last[mask] = cand, v
        f[mask] = best
    order = []
    mask = (1 << g.n) - 1
    while mask:
        order.append(last[mask])
        mask ^= 1 << last[mask]
    return tuple(reversed(order)), -f[-1] if maximize else f[-1]


class TestSubsetDP:
    def test_path_square(self):
        order, value = exact_subset_dp(path(4), lambda v, z: z * z)
        assert value == 3
        assert degrees_of_order(path(4), order).indeg.count(2) == 0

    def test_tie_break_is_deterministic(self):
        # empty graph: every order costs the same; the DP settles ties by
        # always assigning the lowest free id to the latest open slot
        g = build_graph(4, [])
        order, value = exact_subset_dp(g, lambda v, z: 0)
        assert order == (3, 2, 1, 0)
        assert value == 0

    def test_cap(self):
        # refused before any vertex is priced
        def cost(v, z):
            raise AssertionError("priced a vertex")

        for n in (DP_CAP + 1, 30):
            for edges in ([], [(v, v + 1) for v in range(n - 1)]):
                with pytest.raises(ValueError, match=rf"over {n} vertices exceeds the cap \({DP_CAP}\)"):
                    exact_subset_dp(build_graph(n, edges), cost)

    def test_empty_graph(self):
        assert exact_subset_dp(build_graph(0, []), lambda v, z: z) == ((), 0)

    def test_matches_brute_minimum_with_loops_and_multiedges(self):
        rng = random.Random(4)
        graphs = small_random_graphs(13, 20, (2, 6), (0, 8), allow_loops=True)
        for g in graphs:
            tables = [
                [rng.randint(-4, 9) for _ in range(g.degrees[v] + 1)]
                for v in range(g.n)
            ]
            order, value = exact_subset_dp(g, lambda v, z: tables[v][z])
            want = min(
                sum(tables[v][z] for v, z in enumerate(degrees_of_order(g, o).indeg))
                for o in enumerate_orders(g)
            )
            assert value == want
            got = sum(
                tables[v][z] for v, z in enumerate(degrees_of_order(g, order).indeg)
            )
            assert got == value

    def test_maximize_flag(self):
        g = path(4)
        order, value = exact_subset_dp(g, lambda v, z: z * z, maximize=True)
        want = max(
            sum(z * z for z in degrees_of_order(g, o).indeg)
            for o in enumerate_orders(g)
        )
        assert value == want

    def test_lifted_cost_values_work(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        phi = LiftedPhi(zero(), 1, 1)
        order, value = exact_subset_dp(g, lambda v, z: phi.cost(z))
        # acyclic K3 always has a source (indeg 0) and a sink (indeg 2)
        assert value == LiftedCost(2, 0)

    @staticmethod
    def value_tables(g, rng):
        """Per-vertex cost tables of every accepted value type."""
        def rows(draw):
            return [[draw() for _ in range(g.degrees[v] + 1)] for v in range(g.n)]

        return {
            "int": rows(lambda: rng.randint(-9, 9)),
            "negative Fraction": rows(lambda: Fraction(-rng.randint(0, 30), rng.randint(1, 6))),
            "LiftedCost, Fraction base": rows(
                lambda: LiftedCost(rng.randint(0, 2), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            ),
            "tie-heavy int": rows(lambda: rng.randint(0, 2)),
            "tie-heavy LiftedCost": rows(lambda: LiftedCost(rng.randint(0, 1), rng.randint(0, 2))),
            "mixed int and Fraction": rows(lambda: rng.choice([0, 1, Fraction(1, 2), Fraction(2)])),
        }

    def assert_matches_reference(self, graphs, rng):
        for g in graphs:
            for name, t in self.value_tables(g, rng).items():
                for maximize in (False, True):
                    got = exact_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                    want = ref_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                    assert got == want, (g.edges, name, maximize)
                    assert type(got[1]) is type(want[1])
                    assert repr(got) == repr(want)

    def test_matches_naive_reference_on_every_value_type(self):
        rng = random.Random(8)
        graphs = small_random_graphs(17, 30, (1, 7), (0, 14), allow_loops=True)
        assert any(g.has_loops for g in graphs) and any(not g.is_simple for g in graphs)
        self.assert_matches_reference(graphs, rng)

    def test_matches_naive_reference_where_vertices_stand_apart(self):
        """Graphs where many masks hold a vertex with no neighbour in
        them: edgeless graphs, vertices with only loops, and disjoint
        unions, up to n = 12 so that both half-mask tables have entries.
        Vertex ids are shuffled so that each part meets both halves."""
        rng = random.Random(9)

        def shuffled(n, edges):
            ids = list(range(n))
            rng.shuffle(ids)
            return build_graph(n, [(ids[a], ids[b]) for a, b in edges], allow_loops=True)

        graphs = [build_graph(n, []) for n in (1, 5, 12)]
        for n, apart in ((6, 2), (9, 4), (12, 5)):
            core = random_multigraph(n - apart, 2 * (n - apart), rng.random())
            loops = [(v, v) for v in range(n - apart, n) for _ in range(rng.randint(1, 2))]
            graphs.append(shuffled(n, [*core.edges, *loops]))
        for n1, n2 in ((2, 3), (4, 5), (5, 7)):
            a = random_multigraph(n1, 2 * n1, rng.random(), allow_loops=True)
            b = random_multigraph(n2, 2 * n2, rng.random(), allow_loops=True)
            graphs.append(shuffled(n1 + n2, [*a.edges, *((u + n1, v + n1) for u, v in b.edges)]))
        assert max(g.n for g in graphs) == 12
        self.assert_matches_reference(graphs, rng)

    def test_minimum_starts_above_every_partial_sum(self):
        """Every cost negative, so that a mask's best sum lies above the
        sum over all vertices: a start value that is not above every
        partial sum leaves masks at that start.  Positive tables with
        ``maximize`` are negated into the same case.  Every graph has
        vertices in both halves of the vertex set (the low half holds
        n // 2 + 1, so n starts at 3) and edges within and across them."""
        rng = random.Random(10)
        graphs = []
        for n in range(3, 11):
            for _ in range(4):
                half = n // 2 + 1
                edges = [(rng.randrange(half, n), rng.randrange(n)) for _ in range(2 * n)]
                edges += [(0, half - 1), (half, n - 1), (0, n - 1)]
                graphs.append(build_graph(n, edges, allow_loops=True))
        for g in graphs:
            def rows(draw):
                return [[draw() for _ in range(g.degrees[v] + 1)] for v in range(g.n)]

            for t, maximize in (
                (rows(lambda: rng.randint(-9, -1)), False),
                (rows(lambda: Fraction(-rng.randint(1, 30), rng.randint(1, 6))), False),
                (rows(lambda: LiftedCost(-rng.randint(1, 2), -rng.randint(0, 9))), False),
                (rows(lambda: rng.randint(1, 9)), True),
                (rows(lambda: LiftedCost(rng.randint(1, 2), rng.randint(0, 9))), True),
            ):
                got = exact_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                want = ref_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                assert got == want, (g.edges, t, maximize)

    def test_a_constant_per_row_moves_only_the_value(self):
        """Adding a constant c_v to every entry of v's row (an int, a
        Fraction, or a LiftedCost's base) adds c_v to the sum of every
        order, since every order pays one entry per row.  So the order
        stays the same and the value moves by the sum of the constants,
        with and without ``maximize``.  The constants reach far below and
        above the rows, so a start value that assumes rows with no
        negative entry, but leaves them unshifted, fails."""
        rng = random.Random(13)
        graphs = small_random_graphs(14, 40, (1, 12), (0, 24), allow_loops=True)
        assert max(g.n for g in graphs) == 12 and any(g.has_loops for g in graphs)
        for g in graphs:
            def rows(draw):
                return [[draw() for _ in range(g.degrees[v] + 1)] for v in range(g.n)]

            ints = [rng.randint(-1000, 1000) for _ in range(g.n)]
            fracs = [Fraction(rng.randint(-900, 900), rng.randint(1, 5)) for _ in range(g.n)]
            for t, consts, moved in (
                (rows(lambda: rng.randint(-9, 9)), ints, lambda x, c: x + c),
                (rows(lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6))), fracs,
                 lambda x, c: x + c),
                (rows(lambda: LiftedCost(rng.randint(0, 2), rng.randint(-9, 9))), fracs,
                 lambda x, c: LiftedCost(x.penalty, x.base + c)),
            ):
                shifted = [[moved(x, c) for x in row] for row, c in zip(t, consts)]
                for maximize in (False, True):
                    order, value = exact_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                    got = exact_subset_dp(g, lambda v, z: shifted[v][z], maximize=maximize)
                    assert got[0] == order, (g.edges, t, consts, maximize)
                    assert got[1] == moved(value, sum(consts)), (g.edges, t, consts, maximize)

    def test_matches_naive_reference_at_the_smallest_sizes(self):
        """n = 0 to 3: up to n = 2 the low half holds every vertex, so the
        sweep is one block of masks that starts at mask 1; at n = 3 the
        high half holds one vertex, so its block starts at the empty low
        half-mask and reads its predecessors from the first block."""
        graphs = [
            build_graph(0, []),
            build_graph(1, []),
            build_graph(1, [(0, 0)], allow_loops=True),
            build_graph(1, [(0, 0)] * 2, allow_loops=True),
            build_graph(2, []),
            build_graph(2, [(0, 1)]),
            build_graph(2, [(0, 1), (1, 0)]),
            build_graph(2, [(0, 0)], allow_loops=True),
            build_graph(2, [(1, 1), (0, 1)], allow_loops=True),
            build_graph(2, [(0, 0), (1, 1), (0, 1)], allow_loops=True),
            build_graph(3, []),
            build_graph(3, [(0, 1), (1, 2)]),
            build_graph(3, [(0, 2)]),
            build_graph(3, [(0, 1), (1, 2), (0, 2), (0, 2)]),
            build_graph(3, [(2, 2), (0, 1)], allow_loops=True),
            build_graph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], allow_loops=True),
        ]
        self.assert_matches_reference(graphs, random.Random(11))

    def test_thousands_of_parallel_edges(self):
        """A few vertices of degree in the thousands, with different
        multiplicities within the low half (n = 2, which has no high half)
        and across both halves (n = 3 and 4, whose high half holds the
        last vertex): the DP matches the reference, and its peak memory
        stays linear in the degrees, where a cost row shifted to every
        offset would hold deg^2 / 2 entries."""
        graphs = [
            build_graph(2, [(0, 1)] * 3000),
            build_graph(3, [(0, 1)] * 900 + [(1, 2)] * 700 + [(0, 2)] * 400 + [(1, 1)] * 300, allow_loops=True),
            build_graph(4, [(0, 1)] * 500 + [(0, 2)] * 300 + [(1, 3)] * 700 + [(2, 3)] * 200 + [(0, 3)] * 400),
        ]
        self.assert_matches_reference(graphs, random.Random(12))
        for g in graphs:
            tracemalloc.start()
            try:
                exact_subset_dp(g, lambda v, z: z * z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000, (g.n, g.m, peak)

    def test_peak_memory_on_a_two_connected_block(self):
        """A 2-connected graph on 18 vertices (a Hamiltonian cycle and
        three chords), priced by ``square`` and by ``dec_min``'s 18**z.
        f's 2^18 masks take 8 bytes each, 2 MiB, as list slots or packed;
        only the two live layers of blocks also hold ``dec_min``'s large
        ints.  The tables of the 10-vertex low half take about 0.55 MB
        more than those of a 9-vertex one.  Measured peaks: 2,927,760
        bytes (``square``) and 2,968,736 (``dec_min``), so the bound
        leaves 20% and 18% headroom."""
        n = 18
        g = build_graph(n, [(v, (v + 1) % n) for v in range(n)] + [(0, 9), (3, 14), (6, 11)])
        assert len(block_forest(g).blocks) == 1
        for spec in (square(), exp_base(n)):
            phis = resolved(PhiSum(shared=spec), g)
            t = [[phi.cost(z) for z in range(d + 1)] for phi, d in zip(phis, g.degrees)]
            tracemalloc.start()
            try:
                exact_subset_dp(g, lambda v, z: t[v][z])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3_500_000, (spec, peak)

    @staticmethod
    def packed_blocks(monkeypatch):
        """Record the type code of every block the DP packs."""
        codes = []
        real = ordering.array

        def packing(code, block):
            codes.append(code)
            return real(code, block)

        monkeypatch.setattr(ordering, "array", packing)
        return codes

    def test_blocks_are_packed_only_while_top_fits_in_64_bits(self, monkeypatch):
        """On 8 vertices the high half has 3, so the sweep has four layers
        and the first two (1 + 3 blocks) are packed when ``top`` is below
        2^63.  Each low vertex pays W_v below its full degree and 0 at it,
        and has a high neighbour, so the full low half-mask (in the first,
        packed block) is worth the sum of the W_v, which is ``top`` - 1:
        2^63 - 2 just below the limit.  At ``top`` = 2^63 and above, no
        block is packed, and at 2^64 + 1 a packed first block would not
        hold its values.  Every case returns the reference's order and
        value."""
        n = 8
        edges = [(v, 5 + v % 3) for v in range(5)] + [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]
        g = build_graph(n, edges)
        codes = self.packed_blocks(monkeypatch)
        for total, packed in ((2**63 - 2, 4), (2**63 - 1, 0), (2**64, 0)):
            w = [total // 5 + (v < total % 5) for v in range(5)]
            assert sum(w) == total
            t = [[w[v]] * g.degrees[v] + [0] for v in range(5)]
            t += [[0] * (g.degrees[v] + 1) for v in range(5, n)]
            codes.clear()
            got = exact_subset_dp(g, lambda v, z: t[v][z])
            assert got == ref_subset_dp(g, lambda v, z: t[v][z]), total
            assert codes == ["q"] * packed, total

    def test_packed_layers_match_the_reference(self, monkeypatch):
        """n = 5 to 12, where the high half has at least two vertices, so
        at least one layer of blocks is packed before the backtrack reads
        it: int, Fraction and LiftedCost tables, with and without
        ``maximize``, on multigraphs with loops, return the reference's
        order and value."""
        rng = random.Random(15)
        codes = self.packed_blocks(monkeypatch)
        for n in range(5, 13):
            high = n - (n // 2 + 1)
            for _ in range(2):
                g = random_multigraph(n, rng.randint(n, 2 * n), rng.random(), allow_loops=True)

                def rows(draw):
                    return [[draw() for _ in range(g.degrees[v] + 1)] for v in range(n)]

                for t in (
                    rows(lambda: rng.randint(-50, 50)),
                    rows(lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 6))),
                    rows(lambda: LiftedCost(rng.randint(0, 2), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))),
                ):
                    for maximize in (False, True):
                        codes.clear()
                        got = exact_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                        want = ref_subset_dp(g, lambda v, z: t[v][z], maximize=maximize)
                        assert got == want, (g.edges, t, maximize)
                        assert len(codes) == 2**high - high - 1 > 0

    def test_peak_memory_on_a_sparse_multigraph(self):
        """``random_multigraph(16, 32, seed=1)`` priced by ``dec_min``'s
        16**z, whose sums leave the small-int cache, so a block kept as a
        list holds a 32-byte int per mask besides its 8-byte slot.
        Measured peak: 1,712,336 bytes, where a table of lists for every
        block peaked at 2,548,848; the bound leaves 17% headroom."""
        g = random_multigraph(16, 32, seed=1)
        phis = resolved(PhiSum(shared=exp_base(16)), g)
        t = [[phi.cost(z) for z in range(d + 1)] for phi, d in zip(phis, g.degrees)]
        tracemalloc.start()
        try:
            exact_subset_dp(g, lambda v, z: t[v][z])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    def test_one_penalty_unit_outweighs_a_huge_base_spread(self):
        # order (0, 1) costs LiftedCost(1, 0) and order (1, 0) costs
        # LiftedCost(0, 10**9): the smaller penalty wins despite its base
        g = build_graph(2, [(0, 1)])
        for unit in (1, Fraction(1, 7)):
            t = [
                [LiftedCost(0, 10**9 * unit)] * 2,
                [LiftedCost(0, 0), LiftedCost(1, -(10**9) * unit)],
            ]
            assert exact_subset_dp(g, lambda v, z: t[v][z]) == ((1, 0), LiftedCost(0, 10**9 * unit))
            assert exact_subset_dp(g, lambda v, z: t[v][z], maximize=True) == ((0, 1), LiftedCost(1, 0))

    def test_unsupported_values_raise_type_error(self):
        g = path(3)
        for cost in (
            lambda v, z: "z",
            lambda v, z: 0.5 * z,
            lambda v, z: LiftedCost(0, z) if v else z,
            lambda v, z: z if v else LiftedCost(0, z),
            lambda v, z: LiftedCost(Fraction(1, 2), z),
            lambda v, z: LiftedCost(0, 0.5),
        ):
            with pytest.raises(TypeError):
                exact_subset_dp(g, cost)


class TestSolveAcyclicExact:
    def test_fig4_decmin(self):
        order, key = solve_acyclic_exact(fig4_graph(), DecMin())
        assert key == (3, 3, 3, 3, 2, 2, 1, 1, 0)

    def test_fig4_incmax(self):
        order, key = solve_acyclic_exact(fig4_graph(), IncMax())
        assert key == (0, 1, 2, 2, 2, 2, 2, 3, 4)

    def test_all_encodable_objectives_match_brute(self):
        objectives = [
            PhiSum(shared=square()),
            PhiSum(shared=cube()),
            DecMin(),
            DecMax(),
            IncMax(),
            IncMin(),
            RhoDeltaSum(),
            ForbiddenSubpaths(),
        ]
        graphs = small_random_graphs(77, 24, (2, 6), (1, 9))
        for i, g in enumerate(graphs):
            obj = objectives[i % len(objectives)]
            order, key = solve_acyclic_exact(g, obj)
            assert key == brute_optimal(g, obj, "acyclic").key, (g.edges, obj.kind)

    def test_weighted_max_indegree_is_not_separable(self):
        with pytest.raises(ValueError):
            solve_acyclic_exact(path(3), MaxWeightedIndeg())

    def test_bounded_phi_sum(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        order, key = solve_acyclic_exact(g, PhiSum(shared=zero(), f=1, g=1))
        assert key == LiftedCost(2, 0)  # source and sink each break a bound


def _whole_graph_key(g, obj):
    """The key of the one subset-DP run over all of g, without the block split."""
    form, maximize = _dp_form(g, obj)
    phis = resolved(form, g)
    order, _ = exact_subset_dp(g, lambda v, z: phis[v].cost(z), maximize)
    return evaluate(obj, g, degrees_of_order(g, order))


def _graphs_with_blocks(seed, count, n_range, per_vertex=1.5):
    """Random multigraphs with loops, up to ``per_vertex`` * n edges: cut
    vertices, several components and isolated vertices are common."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*n_range)
        m = rng.randint(0, int(per_vertex * n))
        out.append(random_multigraph(n, m, seed=rng.random(), allow_loops=True))
    return out


# the seven DP objectives, an f/g-bounded cost and a non-convex table,
# shared and per vertex
NON_CONVEX = [5, 0, 7, 1, 9, 2, 8, 3, 6, 4] * 4
BLOCK_OBJECTIVES = [
    PhiSum(shared=square()),
    DecMin(),
    DecMax(),
    IncMax(),
    IncMin(),
    RhoDeltaSum(),
    ForbiddenSubpaths(),
    PhiSum(shared=cube(), f=1, g=3),
    PhiSum(shared=table(NON_CONVEX)),
]


def _bounded_tables(n):
    return PhiSum(per_vertex=[
        LiftedPhi(table(NON_CONVEX[v % 4:]), v % 3, 2 + v % 4) for v in range(n)
    ])


class TestBlockPath:
    """solve_acyclic_exact splits the graph into blocks; its keys must be
    those of one subset-DP run over the whole graph and of brute force."""

    def test_matches_the_whole_graph_dp(self):
        graphs = _graphs_with_blocks(36, 60, (2, 11)) + _graphs_with_blocks(37, 6, (14, 16))
        assert sum(len(block_forest(g).blocks) > 1 for g in graphs) >= 60
        assert any(g.has_loops for g in graphs)
        for g in graphs:
            for obj in BLOCK_OBJECTIVES + [_bounded_tables(g.n)]:
                order, key = solve_acyclic_exact(g, obj)
                assert key == evaluate(obj, g, degrees_of_order(g, order))
                assert key == _whole_graph_key(g, obj), (g.n, g.edges, obj)

    def test_matches_brute_force(self):
        for g in _graphs_with_blocks(38, 40, (2, 8), per_vertex=1.2):
            g = build_graph(g.n, [e for e in g.edges if e[0] != e[1]])
            for obj in BLOCK_OBJECTIVES + [_bounded_tables(g.n)]:
                key = solve_acyclic_exact(g, obj)[1]
                assert key == brute_optimal(g, obj, "acyclic").key, (g.edges, obj)

    def test_blocks_joined_at_cut_vertices(self):
        # a 4-cycle, a 5-cycle with a chord and a doubled edge share cut
        # vertex 0; a triangle hangs off 5 and an edge off 1; vertex 12,
        # with two loops, has no other edge, and a separate path 13-14-15
        # has a loop at its cut vertex 14
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7),
                 (7, 0), (4, 6), (0, 8), (0, 8), (5, 9), (9, 10), (10, 5),
                 (12, 12), (12, 12), (13, 14), (14, 15), (14, 14), (11, 1)]
        g = build_graph(16, edges, allow_loops=True)
        assert len(block_forest(g).blocks) == 8
        for obj in BLOCK_OBJECTIVES + [_bounded_tables(g.n)]:
            assert solve_acyclic_exact(g, obj)[1] == _whole_graph_key(g, obj), obj

    def test_a_hub_folds_children_of_every_reach(self):
        # hub 0 has a loop and lies on the root block, the 6-cycle
        # 0-1-2-3-12-13; four child blocks hang on it: a doubled edge, a
        # triangle, a 5-cycle with a chord, which needs one DP run per
        # indegree of 0, and a pendant edge
        edges = [(0, 1), (1, 2), (2, 3), (3, 12), (12, 13), (13, 0), (0, 0), (0, 4), (0, 4),
                 (0, 5), (5, 6), (6, 0), (0, 7), (7, 8), (8, 9), (9, 10), (10, 0), (0, 9),
                 (0, 11)]
        for g in [build_graph(14, edges, allow_loops=True),
                  build_graph(14, edges[::-1], allow_loops=True)]:
            forest = block_forest(g)
            parent, _ = forest.rooted()
            hub_children = [b for b, c in zip(forest.blocks, parent) if c == 0]
            assert sorted(len(b.vertices) for b in hub_children) == [2, 2, 3, 5]
            for obj in BLOCK_OBJECTIVES + [_bounded_tables(g.n)]:
                order, key = solve_acyclic_exact(g, obj)
                assert key == evaluate(obj, g, degrees_of_order(g, order))
                assert key == _whole_graph_key(g, obj), obj

    def test_a_star_stays_small_in_memory(self):
        # K_{1,500}: 500 bridges fold into the hub's row, one after another
        g = build_graph(501, [(0, v) for v in range(1, 501)])
        tracemalloc.start()
        try:
            key = solve_acyclic_exact(g, PhiSum(shared=square()))[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key == LiftedCost(0, 500)
        assert peak < 5 * 2**20, peak

    def test_one_block_is_one_dp_run(self, monkeypatch):
        calls = []
        real = ordering.exact_subset_dp

        def spy(graph, cost_of, maximize=False):
            calls.append(graph)
            return real(graph, cost_of, maximize)

        monkeypatch.setattr(ordering, "exact_subset_dp", spy)
        # the smallest graphs, whose blocks need no run, and graphs of a
        # cycle through every vertex, chords, parallel edges and loops
        graphs = [build_graph(0, []), build_graph(1, [(0, 0), (0, 0)], allow_loops=True),
                  build_graph(2, [(0, 1)]), named_instance("k3"),
                  build_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 0), (0, 0)],
                              allow_loops=True)]
        rng = random.Random(38)
        for _ in range(100):
            n = rng.randint(2, 9)
            edges = [(v, (v + 1) % n) for v in range(n if n > 2 else 1)]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
            edges += [(v, v) for v in rng.choices(range(n), k=rng.randint(0, 3))]
            rng.shuffle(edges)
            graphs.append(build_graph(n, edges, allow_loops=True))
        for g in graphs:
            blocks = block_forest(g).blocks
            assert len(blocks) <= 1
            # one run, over the block: g without its loops
            runs = [subgraph(g, b.vertices, b.edge_ids)[0] for b in blocks if g.n > 3]
            for obj in BLOCK_OBJECTIVES + [_bounded_tables(g.n)]:
                calls.clear()
                form, maximize = _dp_form(g, obj)
                phis = resolved(form, g)
                want = real(g, lambda v, z: phis[v].cost(z), maximize)[0]
                assert solve_acyclic_exact(g, obj)[0] == want, (g.n, g.edges, obj)
                assert calls == runs

    def test_small_blocks_are_what_the_dp_runs_give(self):
        # a block of one to three vertices: one vertex, a bundle of
        # parallel edges, or a triangle with parallel edges; then blocks of
        # four to six vertices, a cycle with chords and parallel edges,
        # which take the runs' own path, infeasible indegrees included
        rng = random.Random(39)
        for t in range(1700):
            n = rng.randint(1, 3) if t < 1500 else rng.randint(4, 6)
            if n == 1:
                edges = []
            elif n == 2:
                edges = [(0, 1)] * rng.randint(1, 4)
            elif n == 3:
                edges = [e for e in [(0, 1), (1, 2), (0, 2)] for _ in range(rng.randint(1, 3))]
            else:
                edges = [(v, (v + 1) % n) for v in range(n)]
                edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n - 2))]
                edges += rng.choices(edges, k=rng.randint(0, 3))
            sub = build_graph(n, edges)
            rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for d in sub.degrees]
            # above the spread of any two orders' sums
            big = sum(max(row) - min(row) for row in rows) + 1
            for k in range(-1, n):
                want = {}
                for i in range(sub.degrees[k] + 1) if k >= 0 else [0]:
                    # one run per i, with k free at indegree i only
                    cost = lambda v, z: (0 if z == i else big) if v == k else rows[v][z]
                    order, value = exact_subset_dp(sub, cost)
                    if k < 0 or degrees_of_order(sub, order).indeg[k] == i:
                        want[i] = (value, order)
                local = [None if x == k else row for x, row in enumerate(rows)]
                assert ordering._block_runs(sub, local, k) == want, (sub.edges, rows, k)

    def test_every_block_run_goes_through_the_module_name(self, monkeypatch):
        sizes = []
        real = ordering.exact_subset_dp

        def spy(graph, cost_of, maximize=False):
            sizes.append(graph.n)
            return real(graph, cost_of, maximize)

        monkeypatch.setattr(ordering, "exact_subset_dp", spy)
        # two 4-cycles joined at 0, and a triangle: the blocks of at most
        # three vertices need no run; the root 4-cycle runs once and the
        # other once per indegree 0, 1, 2 of 0 in it
        g = build_graph(10, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0),
                             (7, 8), (8, 9), (9, 7)])
        solve_acyclic_exact(g, PhiSum(shared=square()))
        assert sizes == [4, 4, 4, 4]

    def test_a_cut_vertex_with_unreachable_indegrees(self):
        # a 5-cycle is the root block; the child block at cut 0, doubled
        # edges 0-5 and 0-6 and the edges 5-7 and 6-7, gives 0 indegree 0,
        # 2 or 4 only, so the runs at 1 and 3 must come out infeasible
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                 (0, 5), (0, 5), (0, 6), (0, 6), (5, 7), (6, 7)]
        g = build_graph(8, edges)
        assert sorted(len(b.vertices) for b in block_forest(g).blocks) == [4, 5]
        odd = table([10 if z % 2 == 0 else 0 for z in range(g.degrees[0] + 1)])
        obj = PhiSum(per_vertex=[odd] + [zero()] * 7)
        key = solve_acyclic_exact(g, obj)[1]
        assert key == brute_optimal(g, obj, "acyclic").key == LiftedCost(0, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 50, 1000])
    def test_gk_square_is_7k_minus_2(self, k):
        g = named_instance(f"gk:{k}")
        assert solve_acyclic_exact(g, PhiSum(shared=square()))[1] == LiftedCost(0, 7 * k - 2)

    def test_the_cap_is_on_the_largest_block(self):
        n = DP_CAP + 1
        cycle = [(i, (i + 1) % n) for i in range(n)]
        with pytest.raises(ValueError, match=f"subset DP over a block of {n} vertices exceeds the cap"):
            solve_acyclic_exact(build_graph(n, cycle), DecMin())
        with pytest.raises(ValueError, match=f"a block of {n} vertices exceeds the cap"):
            solve_acyclic_exact(build_graph(n + 1, cycle + [(0, n)]), DecMin())
        # 2 * DP_CAP vertices in blocks of at most four
        g = build_graph(2 * DP_CAP, [(i, i + 1) for i in range(2 * DP_CAP - 1)] + [(0, 3)])
        assert solve_acyclic_exact(g, DecMin())[1] == (2,) + (1,) * (2 * DP_CAP - 2) + (0,)

    def test_the_cap_refuses_before_any_row_is_built(self, monkeypatch):
        def built(*args):
            raise AssertionError("built cost rows before refusing")

        monkeypatch.setattr(ordering, "_int_costs", built)
        monkeypatch.setattr(ordering, "resolved", built)
        n = DP_CAP + 1
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        message = f"subset DP over a block of {n} vertices exceeds the cap ({DP_CAP})"
        for obj in (PhiSum(shared=square()), DecMin(), RhoDeltaSum()):
            with pytest.raises(ValueError) as refused:
                solve_acyclic_exact(g, obj)
            assert str(refused.value) == message
        # an objective the DP cannot encode keeps its own message, over the cap too
        with pytest.raises(ValueError) as refused:
            solve_acyclic_exact(g, MaxWeightedIndeg())
        assert str(refused.value) == ("objective 'max_weighted_indeg'"
                                      " has no separable encoding for the DP")

    def test_the_cap_refuses_before_any_table_is_built(self, monkeypatch):
        # the rho_delta_sum form is one table of d + 1 entries per vertex
        def built(*args):
            raise AssertionError("built a table before refusing")

        monkeypatch.setattr(ordering, "table", built)
        n = DP_CAP + 1
        dense = build_graph(n, [(u, v) for v in range(n) for u in range(v)])
        small = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError) as refused:
            solve_acyclic_exact(dense, RhoDeltaSum())
        assert str(refused.value) == f"subset DP over a block of {n} vertices exceeds the cap ({DP_CAP})"
        # the kind is refused first, over the cap and under it
        for g in (dense, small):
            with pytest.raises(ValueError) as refused:
                solve_acyclic_exact(g, MaxWeightedIndeg())
            assert str(refused.value) == ("objective 'max_weighted_indeg'"
                                          " has no separable encoding for the DP")
        # under the cap the form is built, through the name patched above
        with pytest.raises(AssertionError, match="built a table"):
            solve_acyclic_exact(small, RhoDeltaSum())


# (n, seed, objective) -> (order, key) of solve_acyclic_exact on
# random_multigraph(n, 2n, seed), under the objectives of the benchmark's
# acyclic-exact workload.  The keys were recorded before the isolated-vertex
# rule.  These graphs have cut vertices, so the orders are those of the DP
# run per block, with the block orders spliced at their cut vertices; they
# are other optima of the same keys.
EXACT_PINS = {
    (14, 1, "square"): (
        (12, 3, 10, 8, 0, 13, 7, 6, 11, 1, 9, 5, 4, 2),
        LiftedCost(penalty=0, base=64),
    ),
    (14, 1, "cube_bounded"): (
        (12, 3, 10, 8, 0, 13, 7, 6, 11, 1, 9, 5, 4, 2),
        LiftedCost(penalty=1, base=155),
    ),
    (14, 1, "dec_min"): (
        (12, 3, 10, 8, 0, 13, 7, 6, 11, 1, 9, 5, 4, 2),
        (3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0),
    ),
    (14, 1, "inc_max"): (
        (12, 3, 10, 8, 0, 13, 7, 6, 11, 1, 9, 5, 4, 2),
        (0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3),
    ),
    (14, 1, "rho_delta_sum"): (
        (2, 9, 1, 7, 12, 3, 10, 8, 5, 0, 13, 6, 11, 4),
        63,
    ),
    (14, 1, "forbidden_subpaths"): (
        (12, 3, 10, 8, 0, 13, 7, 6, 11, 1, 9, 5, 4, 2),
        18,
    ),
    (15, 2, "square"): (
        (8, 5, 14, 2, 13, 6, 10, 0, 9, 7, 3, 1, 12, 4, 11),
        LiftedCost(penalty=0, base=70),
    ),
    (15, 2, "cube_bounded"): (
        (8, 5, 14, 2, 13, 6, 10, 0, 9, 7, 3, 1, 12, 4, 11),
        LiftedCost(penalty=1, base=175),
    ),
    (15, 2, "dec_min"): (
        (8, 5, 14, 2, 13, 6, 10, 0, 9, 7, 3, 1, 12, 4, 11),
        (3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 0),
    ),
    (15, 2, "inc_max"): (
        (8, 5, 14, 2, 13, 6, 10, 0, 9, 7, 3, 1, 12, 4, 11),
        (0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3),
    ),
    (15, 2, "rho_delta_sum"): (
        (9, 3, 0, 13, 10, 6, 2, 14, 8, 5, 7, 1, 12, 4, 11),
        63,
    ),
    (15, 2, "forbidden_subpaths"): (
        (8, 5, 14, 2, 13, 6, 10, 0, 9, 7, 3, 1, 12, 4, 11),
        20,
    ),
    (16, 3, "square"): (
        (15, 2, 11, 12, 0, 8, 13, 9, 3, 10, 4, 7, 6, 5, 1, 14),
        LiftedCost(penalty=0, base=72),
    ),
    (16, 3, "cube_bounded"): (
        (15, 2, 11, 12, 0, 8, 13, 9, 3, 10, 4, 7, 6, 5, 1, 14),
        LiftedCost(penalty=1, base=171),
    ),
    (16, 3, "dec_min"): (
        (15, 2, 11, 12, 0, 8, 13, 9, 3, 10, 4, 7, 6, 5, 1, 14),
        (3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0),
    ),
    (16, 3, "inc_max"): (
        (15, 2, 11, 12, 0, 8, 13, 9, 3, 10, 4, 7, 6, 5, 1, 14),
        (0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3),
    ),
    (16, 3, "rho_delta_sum"): (
        (14, 6, 7, 4, 13, 12, 8, 15, 11, 2, 0, 9, 1, 3, 10, 5),
        64,
    ),
    (16, 3, "forbidden_subpaths"): (
        (15, 2, 11, 12, 0, 8, 13, 9, 3, 10, 4, 7, 6, 5, 1, 14),
        20,
    ),
    # dec_max and inc_min are not benchmark slots; they pin the two
    # maximizing power-sum forms at the same sizes
    (14, 1, "dec_max"): (
        (13, 9, 8, 7, 6, 5, 4, 3, 1, 0, 12, 11, 10, 2),
        (9, 5, 4, 3, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0),
    ),
    (14, 1, "inc_min"): (
        (13, 9, 8, 7, 6, 5, 4, 3, 1, 0, 12, 11, 10, 2),
        (0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3, 4, 5, 9),
    ),
    (15, 2, "dec_max"): (
        (11, 4, 13, 9, 7, 6, 1, 5, 3, 2, 0, 14, 10, 8, 12),
        (7, 6, 4, 4, 3, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0),
    ),
    (15, 2, "inc_min"): (
        (11, 4, 13, 9, 7, 6, 1, 5, 3, 2, 0, 14, 10, 8, 12),
        (0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 4, 4, 6, 7),
    ),
    (16, 3, "dec_max"): (
        (14, 12, 2, 11, 8, 7, 6, 15, 9, 13, 10, 5, 1, 4, 3, 0),
        (6, 6, 5, 4, 4, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0),
    ),
    (16, 3, "inc_min"): (
        (14, 12, 2, 11, 8, 7, 6, 15, 9, 13, 10, 5, 1, 4, 3, 0),
        (0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 4, 4, 5, 6, 6),
    ),
}
BENCH_OBJECTIVES = {
    "square": "square",
    "cube_bounded": '{"kind": "phi_sum", "shared": {"kind": "cube"}, "f": 1, "g": 3}',
    "dec_min": "dec_min",
    "inc_max": "inc_max",
    "rho_delta_sum": "rho_delta_sum",
    "forbidden_subpaths": "forbidden_subpaths",
    "dec_max": "dec_max",
    "inc_min": "inc_min",
}


@pytest.mark.parametrize("n, seed, name", list(EXACT_PINS))
def test_exact_orders_and_keys_are_pinned_at_benchmark_size(n, seed, name):
    g = random_multigraph(n, 2 * n, seed)
    got = solve_acyclic_exact(g, parse_objective(BENCH_OBJECTIVES[name]))
    assert repr(got) == repr(EXACT_PINS[n, seed, name])


class TestSmallestLast:
    def test_path_unit_weights(self):
        order = weighted_smallest_last(path(5))
        dv = degrees_of_order(path(5), order)
        assert max(dv.indeg) == 1

    def test_minimizes_max_weighted_indegree(self):
        for g in small_random_graphs(21, 25, (2, 6), (1, 8), weighted=True):
            order = weighted_smallest_last(g)
            got = max(degrees_of_order(g, order, weighted=True).indeg, default=0)
            want = brute_optimal(g, MaxWeightedIndeg(), "acyclic").key
            assert got == want

    def test_degeneracy_known_values(self):
        assert degeneracy(path(6)) == 1
        cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert degeneracy(cycle) == 2
        k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
        assert degeneracy(k4) == 3
        assert degeneracy(build_graph(3, [])) == 0
        assert degeneracy(build_graph(0, [])) == 0

    def test_degeneracy_is_min_over_orders(self):
        for g in small_random_graphs(3, 15, (2, 6), (0, 8)):
            want = min(
                max(degrees_of_order(g, o).indeg, default=0)
                for o in enumerate_orders(g)
            )
            assert degeneracy(g) == want


class TestGreedy:
    def test_lowest_id_is_deterministic(self):
        g = fig4_graph()
        assert greedy_min_degree(g) == greedy_min_degree(g)
        assert ref_is_greedy_run(g, greedy_min_degree(g))

    def test_seeded_random_reproducible_and_greedy(self):
        g = fig4_graph()
        a = greedy_min_degree(g, seed=5)
        b = greedy_min_degree(g, seed=5)
        c = greedy_min_degree(g, seed=6)
        assert a == b
        assert ref_is_greedy_run(g, a) and ref_is_greedy_run(g, c)

    def test_exhaustive_worst_dominates_all_greedy_runs(self):
        def sq(g, order):
            return sum(z * z for z in degrees_of_order(g, order).indeg)

        for g in small_random_graphs(8, 10, (2, 6), (1, 8)):
            worst = sq(g, _greedy_worst(g))
            runs = [o for o in enumerate_orders(g) if ref_is_greedy_run(g, o)]
            assert runs
            assert worst == max(sq(g, o) for o in runs)

    def test_is_greedy_run_rejects_bad_orders(self):
        g = path(3)  # degrees 1,2,1
        assert ref_is_greedy_run(g, (2, 1, 0))
        assert not ref_is_greedy_run(g, (0, 2, 1))  # middle vertex placed last


class TestAgainstNaiveReference:
    """The peeling core and the incremental derandomization return
    exactly the orders of the naive scans above."""

    @staticmethod
    def graphs(seed):
        return small_random_graphs(seed, 30, (1, 24), (0, 60)) + small_random_graphs(
            seed + 1, 15, (1, 12), (0, 30), allow_loops=True
        )

    def test_smallest_last_unit_and_rational_weights(self):
        rng = random.Random(5)
        for g in self.graphs(90) + small_random_graphs(92, 15, (1, 20), (0, 50), weighted=True):
            ones = [Fraction(1)] * g.m
            carried = g.weights if g.weights is not None else ones
            assert weighted_smallest_last(g) == ref_smallest_last(g, carried)
            w = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(g.m)]
            # scaled by the product of 20 primes (about 5.6e26), the int
            # keys are huge and sparse: no list indexed by key could hold them
            sparse = [Fraction(1 + j % 3, PRIMES[j % 20]) for j in range(g.m)]
            for w in (ones, w, [Fraction(2, 3)] * g.m, [0] * g.m, sparse):
                reweighted = build_graph(g.n, g.edges, w, g.allow_loops)
                assert weighted_smallest_last(reweighted) == ref_smallest_last(g, w), (g.edges, w)

    def test_greedy_lowest_id_and_seeded_random(self):
        for g in self.graphs(94):
            ones = [1] * g.m
            assert greedy_min_degree(g) == ref_smallest_last(g, ones)
            for seed in range(5):
                got = greedy_min_degree(g, seed=seed)
                assert got == ref_smallest_last(g, ones, random.Random(seed))

    def test_is_greedy_run_on_runs_and_perturbed_orders(self):
        rng = random.Random(6)
        verdicts = []
        for g in self.graphs(96):
            for seed in range(3):
                run = greedy_min_degree(g, seed=seed)
                assert ref_is_greedy_run(g, run)
                bent = list(run)
                i, j = rng.randrange(g.n), rng.randrange(g.n)
                bent[i], bent[j] = bent[j], bent[i]
                verdicts.append(ref_is_greedy_run(g, bent))
        assert True in verdicts and False in verdicts

    def test_derandomized_matches_reference(self):
        graphs = small_random_graphs(98, 25, (1, 9), (0, 16)) + small_random_graphs(
            99, 10, (2, 9), (1, 16), simple=True
        )
        for g in graphs:
            want = ref_derandomized(g)
            assert derandomized_order(g) == want, g.edges
            prefix = want[: g.n // 2]
            assert conditional_expectation(g, prefix) == ref_expectation(g, prefix)


N_SCALE = 2 * 10**5
TIES_AT_SCALE = {
    "path": lambda: named_instance(f"path:{N_SCALE}"),
    "cycle": lambda: named_instance(f"cycle:{N_SCALE}"),
    "matching": lambda: build_graph(N_SCALE, [(2 * i, 2 * i + 1) for i in range(N_SCALE // 2)]),
    "triangles": lambda: build_graph(N_SCALE // 3 * 3, [
        (i + a, i + b) for i in range(0, N_SCALE - 2, 3) for a, b in ((0, 1), (1, 2), (0, 2))]),
}


@pytest.mark.parametrize("name", list(TIES_AT_SCALE))
@pytest.mark.parametrize("solver", [weighted_smallest_last, greedy_min_degree])
def test_lowest_id_peel_of_many_ties_is_linear_at_scale(name, solver):
    # each of these graphs peels as 0, 1, 2, ...: after vertex i goes, its
    # successor is a lowest id of minimum degree; a peel that shifts a
    # sorted bucket per move is quadratic here and takes seconds
    g = TIES_AT_SCALE[name]()
    start = time.process_time()
    order = solver(g)
    took = time.process_time() - start
    assert order == tuple(range(g.n))[::-1]
    assert took < 1.5, took


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_smallest_last_order_is_invariant_under_weight_scaling(data):
    n = data.draw(st.integers(1, 30), label="n")
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=60), label="edges")
    weights = data.draw(st.lists(st.fractions(0, 6, max_denominator=5),
                                 min_size=len(edges), max_size=len(edges)), label="weights")
    c = data.draw(st.fractions(Fraction(1, 7), 9, max_denominator=7), label="c")
    g = build_graph(n, edges, weights, allow_loops=True)
    scaled = build_graph(n, edges, [c * x for x in weights], allow_loops=True)
    assert weighted_smallest_last(scaled) == weighted_smallest_last(g)
    equal = build_graph(n, edges, [c] * len(edges), allow_loops=True)
    assert weighted_smallest_last(equal) == greedy_min_degree(g)


def test_smallest_last_certifies_degeneracy_at_scale():
    # the vertices still live at the first peeling step that reaches the
    # maximum left degree k induce a subgraph of minimum degree k, so no
    # order does better
    g = random_multigraph(10**5, 3 * 10**5, seed=1)
    order = weighted_smallest_last(g)
    left = degrees_of_order(g, order).indeg
    k = max(left)
    step = max(i for i, v in enumerate(order) if left[v] == k)
    live = [False] * g.n
    for v in order[: step + 1]:
        live[v] = True
    inner = [0] * g.n
    for a, b in g.edges:
        if live[a] and live[b]:
            inner[a] += 1
            inner[b] += 1
    assert k > 0
    assert min(inner[v] for v in order[: step + 1]) == k


class TestLinearSlope:
    def test_sorts_by_slope_desc_then_id(self):
        g = build_graph(4, [])
        assert linear_slope_order(g, [1, 3, 3, 0]) == (1, 2, 0, 3)

    def test_value_matches_brute(self):
        rng = random.Random(17)
        for g in small_random_graphs(55, 20, (2, 6), (0, 8)):
            slopes = [Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(g.n)]
            intercepts = [rng.randint(-2, 4) for _ in range(g.n)]
            order = linear_slope_order(g, slopes)

            def val(o):
                dv = degrees_of_order(g, o)
                return sum(
                    slopes[v] * z + intercepts[v] for v, z in enumerate(dv.indeg)
                )

            want = min(val(o) for o in enumerate_orders(g))
            assert val(order) == want
            assert linear_optimum_value(g, slopes, intercepts) == want

    def test_matches_a_sort_on_fractions(self):
        # ints, negative Fractions, dyadic floats (equal as Fractions to
        # their shortest repr) and "p/q" strings, from a small value pool
        # so that ties are many
        rng = random.Random(23)
        pool = [3, -1, 0, Fraction(-3, 2), Fraction(6, 4), 1.5, -0.25, "-1/4", "3/1", "0/5", 2]
        for n in (0, 1, 7, 40, 300):
            g = build_graph(n, [])
            a = [rng.choice(pool) for _ in range(n)]
            want = tuple(sorted(range(n), key=lambda v: (-Fraction(a[v]), v)))
            assert linear_slope_order(g, a) == want

    def test_closed_form_rejects_loops(self):
        g = build_graph(1, [(0, 0)], allow_loops=True)
        with pytest.raises(ValueError):
            linear_optimum_value(g, [1])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            linear_slope_order(path(3), [1, 2])
        with pytest.raises(ValueError):
            linear_optimum_value(path(3), [1, 2])
        with pytest.raises(ValueError):
            linear_optimum_value(path(3), [1, 2, 3], [0])


def subcubic_suite(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(3 * n // 2, 11))
        try:
            g = random_multigraph(
                n, m, seed=rng.random(), max_degree=3, connected=True
            )
        except ValueError:
            continue
        out.append(g)
    return out


class TestCombineStOrders:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert combine_st_orders(g) in ((0, 1), (1, 0))
        assert terminal_imbalance_bound(g) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            combine_st_orders(build_graph(1, []))
        with pytest.raises(ValueError):
            combine_st_orders(build_graph(4, [(0, 1), (2, 3)]))
        star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        with pytest.raises(ValueError):
            combine_st_orders(star)  # center has degree 4
        with pytest.raises(ValueError):
            combine_st_orders(build_graph(2, [(0, 0), (0, 1)], allow_loops=True))

    def test_long_path_within_budget(self):
        # every inner vertex of a path is a cut vertex: looking up the
        # blocks at each one by a scan over all blocks made this walk
        # quadratic, 0.2 s at 1000 vertices, 0.6 s at 2000 and 2.5 s at 4000
        g = named_instance("path:20000")
        start = time.perf_counter()
        order = combine_st_orders(g)
        assert time.perf_counter() - start < 5.0  # 0.3 s on a 2-core VM
        assert order == tuple(range(20000))

    def test_optimal_on_subcubic_suite(self):
        for g in subcubic_suite(101, 30):
            order = combine_st_orders(g)
            assert rho_delta(g, order) == brute_optimal(g, RhoDeltaSum(), "acyclic").key

    def test_imbalance_equals_terminal_bound(self):
        for g in subcubic_suite(313, 30):
            order = combine_st_orders(g)
            report = imbalance_report(g, order)
            assert report.total == terminal_imbalance_bound(g)
            assert all(x >= 0 for x in report.per_vertex)
            # ideal product minus realized value, summed
            ideal = sum((d // 2) * ((d + 1) // 2) for d in g.degrees)
            assert rho_delta(g, order) == ideal - report.total


def ref_random_order_trials(g, seed, trials):
    """The trials as ``rng.shuffle`` draws them, one list pass to invert
    each permutation; keeps the best degree-product sum and the mean."""
    rng = random.Random(seed)
    total, best_val, best_order = 0, None, ()
    for _ in range(trials):
        perm = list(range(g.n))
        rng.shuffle(perm)
        pos = [0] * g.n
        for i, v in enumerate(perm):
            pos[v] = i
        indeg = [0] * g.n
        for u, v in g.edges:
            indeg[v if pos[u] < pos[v] else u] += 1
        val = sum(i * (d - i) for i, d in zip(indeg, g.degrees))
        total += val
        if best_val is None or val > best_val:
            best_val, best_order = val, tuple(perm)
    return best_order, best_val, Fraction(total, trials)


class TestRandomTrials:
    # every n in 0..70 (so 1, 2 and 63-65 around the powers of two), then 127-129
    @pytest.mark.parametrize("n", [*range(71), 127, 128, 129])
    def test_matches_shuffle_reference(self, n):
        rng = random.Random(n)
        for _ in range(5):
            m = rng.randint(0, 3 * n) if n > 1 else 0
            g = random_multigraph(n, m, seed=rng.randrange(10**6))
            seed, trials = rng.randrange(-5, 10**9), rng.randint(1, 12)
            r = random_order_trials(g, seed, trials)
            assert (r.order, r.value, r.mean) == ref_random_order_trials(g, seed, trials)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 255, 256, 1024, 1500])
    def test_draws_are_those_of_shuffle(self, n):
        for seed in (0, 1, 2026):
            ours, theirs = random.Random(seed), random.Random(seed)
            for perm, pos in _shuffled_orders(ours, n, 3):
                want = list(range(n))
                theirs.shuffle(want)
                assert perm == want
                assert [pos[v] for v in perm] == list(range(n))
            assert ours.getstate() == theirs.getstate()

    def test_deterministic_per_seed(self):
        g = fig4_graph()
        a = random_order_trials(g, seed=0, trials=50)
        b = random_order_trials(g, seed=0, trials=50)
        assert a == b

    def test_value_is_best_sample(self):
        g = fig4_graph()
        r = random_order_trials(g, seed=3, trials=40)
        assert r.value == rho_delta(g, r.order)
        assert r.value >= r.mean

    @pytest.mark.parametrize(
        "graph_args, seed, trials, order, value, mean",
        [
            ((12, 30, 5), 7, 25, (4, 1, 2, 5, 0, 11, 3, 9, 6, 8, 10, 7), 57, Fraction(1051, 25)),
            ((20, 45, 11), 2026, 40,
             (3, 12, 4, 19, 1, 14, 11, 13, 8, 18, 0, 7, 2, 16, 10, 5, 6, 9, 15, 17),
             74, Fraction(1203, 20)),
        ],
    )
    def test_golden_draws(self, graph_args, seed, trials, order, value, mean):
        # recorded before the trials summed from positions: the same
        # rng.shuffle draws must keep giving these orders, values and means
        r = random_order_trials(random_multigraph(*graph_args), seed, trials)
        assert (r.order, r.value, r.mean) == (order, value, mean)

    @staticmethod
    def assert_matches_reference(g, seed, trials):
        r = random_order_trials(g, seed, trials)
        want = ref_random_order_trials(g, seed, trials)
        assert (r.order, r.value, r.mean) == want
        return r

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_trial_counts_around_the_chunk(self, offset):
        g = random_multigraph(40, 120, seed=5)
        self.assert_matches_reference(g, 9, ordering.TRIAL_CHUNK + offset)

    @pytest.mark.parametrize("trials", [1, 300])
    def test_one_trial_and_several_chunks(self, trials):
        self.assert_matches_reference(random_multigraph(40, 120, seed=6), 4, trials)

    # positions fill 16-bit lanes, guard bit left free, up to n = 2**15
    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 1])
    def test_position_lanes_switch_width(self, n):
        self.assert_matches_reference(random_multigraph(n, n, seed=n), 1, 2)

    # a-b-c with c parallel a-b and b-c edges: b in the middle scores c*c
    @pytest.mark.parametrize("c, passed", [(2**8 + 1, 2**16), (2**16 + 1, 2**32)])
    def test_value_lanes_switch_width(self, c, passed):
        g = build_graph(3, [(0, 1)] * c + [(1, 2)] * c)
        r = self.assert_matches_reference(g, 0, 5)
        assert r.value == c * c > passed

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (2, 0), (2, 3), (9, 0)])
    def test_tiny_and_edgeless(self, n, m):
        r = self.assert_matches_reference(random_multigraph(n, m, seed=3), 8, 300)
        assert sorted(r.order) == list(range(n))

    def test_memory_bound_sets_the_chunk(self):
        n = ordering.TRIAL_LANES // 64
        chunk = ordering.TRIAL_LANES // n
        assert ordering.TRIAL_FLOOR < chunk < ordering.TRIAL_CHUNK
        self.assert_matches_reference(random_multigraph(n, n, seed=2), 3, chunk + 1)

    def test_floor_sets_the_chunk(self):
        n = ordering.TRIAL_LANES // ordering.TRIAL_FLOOR + 1
        assert ordering.TRIAL_LANES // n < ordering.TRIAL_FLOOR
        trials = ordering.TRIAL_FLOOR + 1
        self.assert_matches_reference(random_multigraph(n, n, seed=4), 5, trials)

    def test_rejects_loops_and_zero_trials(self):
        g = build_graph(1, [(0, 0)], allow_loops=True)
        with pytest.raises(ValueError):
            random_order_trials(g, seed=0, trials=5)
        with pytest.raises(ValueError):
            random_order_trials(path(3), seed=0, trials=0)


class TestRelativeOrderCounts:
    def test_single_simple_neighbor(self):
        f = relative_order_counts([1])
        # two arrangements: w after v or before
        assert f[1][1] == 1 and f[0][0] == 1

    def test_multiplicity_two_plus_one(self):
        f = relative_order_counts([2, 1])
        assert f[1][1] == 1  # only the single edge neighbor after v... times 1 insertion path
        assert f[1][2] == 1
        assert sum(sum(row) for row in f) == factorial(3)

    @given(st.lists(st.integers(1, 3), min_size=0, max_size=5))
    def test_total_is_factorial(self, mults):
        f = relative_order_counts(mults)
        assert sum(sum(row) for row in f) == factorial(len(mults) + 1)

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    def test_matches_direct_enumeration(self, mults):
        p = len(mults)
        want = {}
        for perm in itertools.permutations(range(p + 1)):
            # v is element p; count neighbors placed after it
            pos = perm.index(p)
            after = [e for e in perm[pos + 1 :]]
            key = (len(after), sum(mults[e] for e in after))
            want[key] = want.get(key, 0) + 1
        f = relative_order_counts(mults)
        got = {
            (k, l): f[k][l]
            for k in range(len(f))
            for l in range(len(f[k]))
            if f[k][l]
        }
        assert got == want

    @given(st.lists(st.integers(1, 4), max_size=6), st.integers(0, 6))
    def test_closed_form_on_multigraphs(self, mults, extra):
        # a free vertex of degree d >= D = sum(mults), with the rest placed
        D = sum(mults)
        d = D + extra
        want = Fraction(3 * d * D - 2 * D * D - sum(c * c for c in mults), 6)
        assert table_term(d, mults) == want


class TestConditionalExpectation:
    def test_p3_from_scratch(self):
        # E over 6 orders of: indeg*outdeg summed; only the middle vertex
        # can score, and it scores 1 in 2 of 6 orders
        assert conditional_expectation(path(3)) == Fraction(1, 3)

    def test_matches_exhaustive_average(self):
        for g in small_random_graphs(41, 12, (2, 6), (1, 7)):
            orders = list(enumerate_orders(g))
            avg = Fraction(sum(rho_delta(g, o) for o in orders), len(orders))
            assert conditional_expectation(g) == avg
            assert table_expectation(g, ()) == avg

    @staticmethod
    def assert_closed_equals_table(graphs):
        for g in graphs:
            order = tuple(random.Random(g.m).sample(range(g.n), g.n))
            for k in range(g.n + 1):
                prefix = order[:k]
                assert conditional_expectation(g, prefix) == table_expectation(g, prefix), g.edges

    def test_closed_equals_table_on_simple(self):
        self.assert_closed_equals_table(small_random_graphs(43, 10, (3, 7), (1, 9), simple=True))

    def test_closed_equals_table_on_multigraphs(self):
        double = build_graph(2, [(0, 1), (0, 1)])
        assert conditional_expectation(double) == 0
        graphs = small_random_graphs(44, 10, (3, 7), (1, 12))
        assert not all(g.is_simple for g in graphs)
        self.assert_closed_equals_table([double] + graphs)

    def test_law_of_total_expectation(self):
        g = random_multigraph(5, 7, seed=9)
        prefix = (2,)
        free = [v for v in range(g.n) if v not in prefix]
        avg = Fraction(
            sum(conditional_expectation(g, prefix + (u,)) for u in free), len(free)
        )
        assert avg == conditional_expectation(g, prefix)

    def test_full_prefix_is_exact_value(self):
        g = fig4_graph()
        order = FIG4_DECMIN_ORDER
        assert conditional_expectation(g, order) == rho_delta(g, order)

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            conditional_expectation(path(3), (0, 0))
        with pytest.raises(ValueError):
            conditional_expectation(path(3), (7,))

    def test_loops_are_refused(self):
        looped = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
        with pytest.raises(ValueError, match="loops are not supported"):
            conditional_expectation(looped)
        with pytest.raises(ValueError, match="loops are not supported"):
            derandomized_order(looped)


class TestDerandomized:
    def test_chain_is_monotone_and_ends_integral(self):
        for g in small_random_graphs(61, 8, (2, 7), (1, 9)):
            order = derandomized_order(g)
            prev = conditional_expectation(g)
            for i in range(1, g.n + 1):
                cur = conditional_expectation(g, order[:i])
                assert cur >= prev
                prev = cur
            assert prev == rho_delta(g, order)

    def test_three_approximation(self):
        for g in small_random_graphs(67, 8, (2, 6), (1, 8)):
            val = rho_delta(g, derandomized_order(g))
            opt = brute_optimal(g, RhoDeltaSum(), "acyclic").key
            assert 3 * val >= opt


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
