import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orientopt.graph import (
    BlockTree,
    Multigraph,
    Orientation,
    as_fraction,
    block_forest,
    block_tree,
    build_graph,
    check_order,
    check_orientation,
    degrees_of_order,
    degrees_of_orientation,
    is_acyclic,
    is_connected,
    orientation_of_order,
    scaled_to_ints,
    st_order,
    subgraph,
    topological_order,
)
from orientopt.instances import random_multigraph

from paper_facts import blocks_at, weighted_degrees


def k3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_build_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(2, [(-1, 0)])


@pytest.mark.parametrize("n", [2.5, 2.0, True, False, -1, "2", None])
def test_build_rejects_a_vertex_count_that_is_no_natural_number(n):
    with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
        build_graph(n, [])
    with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
        build_graph(n, [(0, 0)], allow_loops=True)


@pytest.mark.parametrize("edge", [(0, 1.0), (1.0, 0), (True, 1), (0, False), (0, "1"), (None, 1)])
def test_build_rejects_endpoints_that_are_no_ints(edge):
    with pytest.raises(ValueError, match=r"^edge 1 endpoints must be integers"):
        build_graph(2, [(0, 1), edge])


def test_loops_need_opt_in():
    with pytest.raises(ValueError):
        build_graph(2, [(1, 1)])
    g = build_graph(2, [(1, 1), (0, 1)], allow_loops=True)
    # ordering-mode accounting: a loop contributes one to its vertex degree
    assert g.degrees == (1, 2)
    assert g.loop_counts == (0, 1)


def test_weight_validation():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1)], [Fraction(-1)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1)], [1, 2])
    with pytest.raises(ValueError, match="cannot interpret True"):
        build_graph(2, [(0, 1)], [True])
    g = build_graph(2, [(0, 1)], [0.5])
    assert g.weights == (Fraction(1, 2),)


def test_as_fraction_exact_decimal():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(7) == 7
    with pytest.raises(ValueError):
        as_fraction("x")
    with pytest.raises(ValueError):
        as_fraction(False)


def test_a_loop_makes_a_graph_not_simple():
    g = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    assert not g.is_simple
    assert build_graph(2, [(0, 1)]).is_simple


def test_parallel_edges_are_distinct():
    g = build_graph(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.degrees == (2, 2)
    assert g.neighbor_counts[0] == {1: 2}


def test_degrees_of_order_basics():
    g = k3()
    dv = degrees_of_order(g, (0, 1, 2))
    assert dv.indeg == (0, 1, 2)
    assert dv.outdeg == (2, 1, 0)
    with pytest.raises(ValueError):
        degrees_of_order(g, (0, 1))
    with pytest.raises(ValueError):
        degrees_of_order(g, (0, 1, 1))


@pytest.mark.parametrize(
    "order",
    [
        (0.0, 1.0, 2.0),  # floats equal to the ids
        (False, True, 2),  # bools are ints to Python, not vertex ids
        ("0", "1", "2"),
        (0, 1, 1),  # a duplicate
        (0, 1),  # too short
        (0, 1, 2, 0),  # too long
        (0, 1, 3),  # out of range
        (-1, 0, 1),
    ],
)
def test_check_order_rejects_non_permutations(order):
    g = k3()
    for check in (check_order, degrees_of_order, orientation_of_order):
        with pytest.raises(ValueError):
            check(g, order)


def test_check_order_returns_a_tuple():
    assert check_order(k3(), [2, 0, 1]) == (2, 0, 1)
    assert check_order(build_graph(0, []), []) == ()


def naive_weighted_degrees(g, head_of):
    """Per-edge Fraction sums: (indeg, outdeg), each edge counting in for
    ``head_of(j)`` and out for its other endpoint (a loop counts in only)."""
    indeg = [Fraction(0)] * g.n
    outdeg = [Fraction(0)] * g.n
    for j, (u, v) in enumerate(g.edges):
        h = head_of(j)
        indeg[h] += g.weights[j]
        if u != v:
            outdeg[v if h == u else u] += g.weights[j]
    return tuple(indeg), tuple(outdeg)


def test_int_weight_model_matches_naive_fraction_sums():
    rng = random.Random(2026)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 16))]
        weights = [Fraction(rng.randint(0, 30), rng.choice([1, 2, 3, 4, 6, 7, 10])) for _ in edges]
        g = build_graph(n, edges, weights, allow_loops=True)
        order = list(range(n))
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        by_order = naive_weighted_degrees(
            g, lambda j: max(g.edges[j], key=pos.__getitem__)
        )
        dv = degrees_of_order(g, order, weighted=True)
        assert (dv.indeg, dv.outdeg) == by_order
        assert weighted_degrees(g) == tuple(i + o for i, o in zip(*by_order))
        entries = dv.indeg + dv.outdeg + weighted_degrees(g)
        if g.has_loops:
            continue
        heads = tuple(rng.choice(e) for e in g.edges)
        dv = degrees_of_orientation(g, Orientation(heads), weighted=True)
        assert (dv.indeg, dv.outdeg) == naive_weighted_degrees(g, heads.__getitem__)
        entries += dv.indeg + dv.outdeg
        assert all(type(x) is Fraction for x in entries)


@pytest.mark.parametrize("weights", [
    [],
    [0, 3, 3, 7],
    [Fraction(1, 3), Fraction(5, 6), Fraction(0), Fraction(-7, 4)],
    [2, Fraction(1, 2), 0, Fraction(9, 10), 5, Fraction(1, 2)],
    [Fraction(1, 10**40 + 1), Fraction(3, 10**39 + 7), 4, Fraction(-2, 10**40 + 1)],
], ids=["empty", "ints", "fractions", "mixed", "huge-denominators"])
def test_scaled_to_ints_is_the_weights_times_the_lcm_of_their_denominators(weights):
    # reference: the direct expression, which reads each weight three times
    scale = math.lcm(*(x.denominator for x in weights))
    ints, got = scaled_to_ints(weights)
    assert got == scale
    assert ints == tuple(x.numerator * (scale // x.denominator) for x in weights)
    assert all(type(x) is int for x in ints)


def test_orientation_of_order_and_back():
    g = k3()
    o = orientation_of_order(g, (2, 0, 1))
    # edge (0,1) -> 1, (1,2) -> 1, (0,2) -> 0
    assert o.heads == (1, 1, 0)
    assert degrees_of_orientation(g, o).indeg == degrees_of_order(g, (2, 0, 1)).indeg
    assert is_acyclic(g, o)


def test_loop_left_degree_position_independent():
    g = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    for order in [(0, 1), (1, 0)]:
        dv = degrees_of_order(g, order)
        # the loop always lands on the left side
        assert dv.indeg[0] >= 1


def test_orientation_sum_is_edge_count():
    rng = random.Random(5)
    for _ in range(25):
        g = random_multigraph(rng.randint(2, 6), rng.randint(0, 8), seed=rng.random())
        for trial in range(5):
            heads = tuple(
                g.edges[j][rng.randint(0, 1)] for j in range(g.m)
            )
            dv = degrees_of_orientation(g, Orientation(heads))
            assert sum(dv.indeg) == g.m
            assert sum(dv.outdeg) == g.m


def test_orientations_must_cover_every_edge_and_no_loop():
    g = k3()
    for heads in [(1, 2), (1, 2, 2, 0), ()]:
        with pytest.raises(ValueError, match="does not cover every edge"):
            check_orientation(g, Orientation(heads))
        with pytest.raises(ValueError, match="does not cover every edge"):
            degrees_of_orientation(g, Orientation(heads))
    looped = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    with pytest.raises(ValueError, match="loops cannot be oriented"):
        check_orientation(looped, Orientation((0, 1)))
    with pytest.raises(ValueError, match="loops cannot be oriented"):
        orientation_of_order(looped, (0, 1))


def test_topological_order_detects_cycles():
    g = k3()
    cyc = Orientation((1, 2, 0))  # 0->1->2->0
    assert topological_order(g, cyc) is None
    assert not is_acyclic(g, cyc)
    top = topological_order(g, Orientation((1, 2, 2)))
    assert top == (0, 1, 2)


@given(st.permutations(list(range(6))))
def test_order_orientation_round_trip(order):
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    o = orientation_of_order(g, order)
    topo = topological_order(g, o)
    assert topo is not None
    # the induced orientation of any topological order is the same one
    assert orientation_of_order(g, topo) == o


def test_is_connected():
    assert is_connected(k3())
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(0, []))
    assert is_connected(build_graph(1, []))
    # loops and parallel edges
    g = build_graph(4, [(0, 0), (0, 1), (0, 1), (2, 2), (2, 3)], allow_loops=True)
    assert not is_connected(g)
    g = build_graph(4, [(0, 0), (0, 1), (0, 1), (3, 3), (1, 3), (3, 2)], allow_loops=True)
    assert is_connected(g)


def test_block_tree_triangle_plus_pendant():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    bt = block_tree(g)
    assert len(bt.blocks) == 2
    assert bt.cut_vertices == frozenset({2})
    ends = [i for i in range(2) if bt.is_end_component(i)]
    assert len(ends) == 2


def test_block_tree_parallel_edges_form_a_block():
    g = build_graph(3, [(0, 1), (0, 1), (1, 2)])
    bt = block_tree(g)
    sizes = sorted(len(b.edge_ids) for b in bt.blocks)
    assert sizes == [1, 2]


def test_block_tree_of_the_empty_graph_is_empty():
    assert block_tree(build_graph(0, [])) == BlockTree((), frozenset(), ())


def test_block_tree_rejects_disconnected_and_loops():
    with pytest.raises(ValueError):
        block_tree(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        block_tree(build_graph(2, [(0, 0), (0, 1)], allow_loops=True))


def _blocks_by_brute_force(g: Multigraph):
    # two edges are in one block iff some simple cycle contains both,
    # or they share both endpoints... easier: edge equivalence via
    # "removing any single vertex leaves them connected through edges"
    # For tiny graphs, group edges by the classic definition: same block
    # iff they lie on a common cycle or are equal/incident at a bridge.
    import itertools

    adj = [[] for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        adj[u].append((v, j))
        adj[v].append((u, j))

    def edge_path_avoiding(start_edge, goal_edge, banned_vertex):
        seen = {start_edge}
        stack = [start_edge]
        while stack:
            e = stack.pop()
            if e == goal_edge:
                return True
            for w in g.edges[e]:
                if w == banned_vertex:
                    continue
                for x, j in adj[w]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        return False

    def same_block(e1, e2):
        if e1 == e2:
            return True
        return all(
            edge_path_avoiding(e1, e2, v) for v in range(g.n)
        )

    groups = []
    for j in range(g.m):
        for grp in groups:
            if same_block(grp[0], j):
                grp.append(j)
                break
        else:
            groups.append([j])
    return sorted(tuple(sorted(grp)) for grp in groups)


def _cut_vertices_by_brute_force(g: Multigraph):
    """The vertices whose removal leaves the rest disconnected, each found
    by a breadth-first search over the graph without it."""
    cuts = set()
    for cut in range(g.n):
        rest = [v for v in range(g.n) if v != cut]
        queue = rest[:1]
        seen = set(queue)
        for u in queue:  # the queue grows behind the loop: breadth first
            for j in g.incident[u]:
                w = g.other_end(j, u)
                if w != cut and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) < len(rest):
            cuts.add(cut)
    return frozenset(cuts)


def test_block_tree_matches_brute_grouping():
    rng = random.Random(11)
    done = 0
    while done < 40:
        n = rng.randint(2, 7)
        m = rng.randint(1, 9)
        try:
            g = random_multigraph(n, m, seed=rng.random(), connected=True)
        except ValueError:
            continue
        done += 1
        bt = block_tree(g)
        got = sorted(tuple(sorted(b.edge_ids)) for b in bt.blocks)
        assert got == _blocks_by_brute_force(g)
        for b in bt.blocks:
            ends = {x for j in b.edge_ids for x in g.edges[j]}
            assert sorted(b.vertices) == sorted(ends)
        assert bt.cut_vertices == _cut_vertices_by_brute_force(g)


def test_block_tree_matches_brute_grouping_with_bridges_and_parallel_edges():
    # a random spanning tree is all bridges; extra edges, a third of
    # them parallel copies, merge some of its edges into larger blocks
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 12)
        m = rng.randint(n - 1, 20)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        while len(edges) < m:
            if rng.random() < 0.3:
                edges.append(rng.choice(edges))
            else:
                edges.append(tuple(rng.sample(range(n), 2)))
        rng.shuffle(edges)
        perm = rng.sample(range(n), n)
        g = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
        bt = block_tree(g)
        assert sorted(b.edge_ids for b in bt.blocks) == _blocks_by_brute_force(g), g.edges
        assert bt.cut_vertices == frozenset(v for v in range(n) if len(blocks_at(bt, v)) >= 2)


def test_block_forest_covers_every_component_without_loops():
    # bridges, parallel edges, loops, several components and isolated
    # vertices; each component's blocks are those of its own block_tree
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_multigraph(n, rng.randint(0, 2 * n), seed=rng.random(), allow_loops=True)
        forest = block_forest(g)
        keep = [j for j, (u, v) in enumerate(g.edges) if u != v]
        loopless = build_graph(n, [g.edges[j] for j in keep])
        groups = [tuple(keep[j] for j in grp) for grp in _blocks_by_brute_force(loopless)]
        assert sorted(b.edge_ids for b in forest.blocks if b.edge_ids) == groups
        alone = [v for v in range(n) if all(g.edges[j][0] == g.edges[j][1] for j in g.incident[v])]
        assert [b.vertices for b in forest.blocks if not b.edge_ids] == [(v,) for v in alone]
        # a cut vertex lies in two blocks
        assert forest.cut_vertices == frozenset(
            v for v in range(n) if sum(any(v in g.edges[j] for j in grp) for grp in groups) >= 2)
        assert [b.vertices for b in forest.blocks] == sorted(b.vertices for b in forest.blocks)
        if not g.has_loops and is_connected(g) and n >= 2:
            assert forest == block_tree(g)


def _check_rooted(forest, root=-1):
    """Each component has one root, its largest block unless it holds
    ``root``; each other block's parent cut lies in it and in a block
    listed after it, and every block is listed once."""
    parent_cut, post_order = forest.rooted(root)
    blocks = forest.blocks
    assert sorted(post_order) == list(range(len(blocks)))
    pos = {b: i for i, b in enumerate(post_order)}
    for bi, c in enumerate(parent_cut):
        if c < 0:
            continue
        assert c in forest.block_cuts[bi]
        holders = [bj for bj, cuts in enumerate(forest.block_cuts) if c in cuts and bj != bi]
        assert any(pos[bj] > pos[bi] and parent_cut[bj] != c for bj in holders)
    # the blocks below a root, by parent links, are its component
    roots = [bi for bi, c in enumerate(parent_cut) if c < 0]
    top = {}
    for bi in reversed(post_order):
        c = parent_cut[bi]
        if c < 0:
            top[bi] = bi
        else:
            up = [bj for bj in post_order[pos[bi] + 1:] if c in blocks[bj].vertices]
            top[bi] = top[up[0]]
    for r in roots:
        part = [bi for bi in top if top[bi] == r]
        if root not in part:
            size = len(blocks[r].vertices)
            assert all(len(blocks[bi].vertices) <= size for bi in part)
            assert r == min(bi for bi in part if len(blocks[bi].vertices) == size)
        else:
            assert r == root
    return parent_cut, post_order


def test_rooted_block_forest():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 14)
        g = random_multigraph(n, rng.randint(0, 2 * n), seed=rng.random(), allow_loops=True)
        forest = block_forest(g)
        _check_rooted(forest)
        if forest.blocks:
            _check_rooted(forest, rng.randrange(len(forest.blocks)))


def test_rooted_walks_a_long_chain_of_blocks_without_recursion():
    # gk:K is a chain of 3K - 2 blocks: K triangles and 2K - 2 bridges
    from orientopt.instances import gen_gk

    k = 5000
    parent_cut, post_order = block_tree(gen_gk(k)).rooted(0)
    assert len(post_order) == 3 * k - 2 and post_order[-1] == 0
    assert parent_cut.count(-1) == 1


def _check_st_postcondition(g, order, s, t):
    assert order[0] == s and order[-1] == t
    pos = {v: i for i, v in enumerate(order)}
    for v in order[1:-1]:
        nbr_pos = [pos[g.other_end(j, v)] for j in g.incident[v]]
        assert min(nbr_pos) < pos[v] < max(nbr_pos), (g.edges, order, v)


def test_st_order_single_edge_and_triangle():
    g = build_graph(2, [(0, 1)])
    assert st_order(g, 0, 1) == (0, 1)
    assert st_order(g, 1, 0) == (1, 0)
    g = k3()
    for s in range(3):
        for t in range(3):
            if s == t:
                continue
            _check_st_postcondition(g, st_order(g, s, t), s, t)


def test_st_order_refusals():
    g = k3()
    for s, t in [(1, 1), (0, 3), (-1, 0), (3, 0)]:
        with pytest.raises(ValueError, match="two distinct vertices"):
            st_order(g, s, t)
    looped = build_graph(3, [(0, 1), (1, 2), (0, 2), (2, 2)], allow_loops=True)
    with pytest.raises(ValueError, match="s-t orders are defined for loop-free graphs"):
        st_order(looped, 0, 1)
    # two triangles sharing vertex 2: connected, not biconnected, and no
    # order from 0 to 1 gives 3 and 4 both an earlier and a later neighbour
    bowtie = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(ValueError, match="not biconnected"):
        st_order(bowtie, 0, 1)


def test_st_order_non_adjacent_terminals():
    # 4-cycle: opposite corners are not adjacent
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    _check_st_postcondition(g, st_order(g, 0, 2), 0, 2)


def test_st_order_random_biconnected():
    rng = random.Random(23)
    done = 0
    while done < 60:
        n = rng.randint(2, 7)
        m = rng.randint(n, 11)
        try:
            g = random_multigraph(n, m, seed=rng.random(), connected=True)
        except ValueError:
            continue
        bt = block_tree(g)
        if len(bt.blocks) != 1:
            continue
        done += 1
        s = rng.randrange(n)
        t = (s + rng.randint(1, n - 1)) % n
        _check_st_postcondition(g, st_order(g, s, t), s, t)


def _cycle_with_chords(rng, n, chords):
    """A Hamiltonian cycle plus random chords, a third of them parallel copies."""
    perm = rng.sample(range(n), n)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    for _ in range(chords):
        if rng.random() < 0.3:
            edges.append(rng.choice(edges))
        else:
            edges.append(tuple(rng.sample(range(n), 2)))
    rng.shuffle(edges)
    return edges


def test_st_order_cycle_with_chords_up_to_300_vertices():
    rng = random.Random(29)
    for trial in range(150):
        n = rng.randint(3, 300) if trial % 2 else rng.randint(3, 12)
        g = build_graph(n, _cycle_with_chords(rng, n, rng.randint(0, n)))
        s = rng.randrange(n)
        near = {g.other_end(j, s) for j in g.incident[s]}
        far = [v for v in range(n) if v != s and v not in near]
        # terminals joined by an edge, and (when there are any) terminals not
        t = rng.choice(sorted(near)) if trial % 3 == 0 or not far else rng.choice(far)
        _check_st_postcondition(g, st_order(g, s, t), s, t)


def test_st_order_terminals_joined_by_parallel_edges():
    rng = random.Random(31)
    for copies in (2, 3, 4):
        for _ in range(20):
            n = rng.randint(3, 40)
            s, t = rng.sample(range(n), 2)
            edges = _cycle_with_chords(rng, n, rng.randint(0, n)) + [(s, t)] * copies
            g = build_graph(n, edges)
            _check_st_postcondition(g, st_order(g, s, t), s, t)
            _check_st_postcondition(g, st_order(g, t, s), t, s)


def test_subgraph_relabels():
    g = build_graph(5, [(0, 1), (1, 4), (4, 0), (1, 2)])
    sub, verts = subgraph(g, [0, 1, 4], [0, 1, 2])
    assert sub.n == 3 and sub.m == 3
    assert verts == (0, 1, 4)
    assert is_connected(sub)


def test_subgraph_of_every_vertex_and_edge_in_order_is_the_graph():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, Fraction(1, 2), 2, 3])
    g.degrees  # a cached property, kept on the graph returned
    sub, verts = subgraph(g, range(g.n), range(g.m))
    assert sub is g and verts == (0, 1, 2, 3)
    assert subgraph(g, [0, 1, 2, 3], (0, 1, 2, 3))[0] is g
    assert "degrees" in sub.__dict__


@pytest.mark.parametrize("vertices, edge_ids", [
    ([1, 0, 2, 3], [0, 1, 2, 3]),  # every vertex, relabelled
    ([0, 1, 2, 3], [3, 2, 1, 0]),  # every edge, in another order
    ([0, 1, 2, 3], [0, 1, 2]),
    ([0, 1, 2, 3], [0, 0, 1, 2]),  # as many ids as edges, one of them twice
])
def test_subgraph_of_another_selection_is_a_relabelled_copy(vertices, edge_ids):
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, Fraction(1, 2), 2, 3])
    sub, verts = subgraph(g, vertices, edge_ids)
    local = {v: i for i, v in enumerate(vertices)}
    edges = tuple((local[g.edges[j][0]], local[g.edges[j][1]]) for j in edge_ids)
    assert sub is not g and verts == tuple(vertices)
    assert sub == build_graph(4, edges, [g.weights[j] for j in edge_ids])
