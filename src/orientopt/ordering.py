"""Acyclic-regime solvers: optimizing over vertex orders.

Orders are built either exactly (subset DP over induced-subgraph
degrees, exponential in n) or by the structural algorithms: weighted
smallest-last for min-max weighted indegree, greedy minimum degree,
slope sorting for linear costs, block-by-block composition of s-t
orders for the degree-product sum on subcubic graphs, and randomized /
derandomized orders for the same objective.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left, insort
from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice, permutations
from operator import mul
from typing import Callable, Sequence

from .graph import (
    BlockTree,
    Frozen,
    Multigraph,
    _st_order,
    block_forest,
    block_tree,
    degrees_of_order,
    exact_number,
    scaled_to_ints,
    subgraph,
)
from .objectives import (
    LiftedCost,
    PhiSum,
    binom2,
    evaluate,
    exp_base,
    neg_exp_base,
    resolved,
    table,
)

DP_CAP = 26


def _peel(graph: Multigraph, weighted: bool = False, choose=None) -> list[int]:
    """Smallest-last peeling: n times, remove a live vertex of minimum
    (weighted) degree; returns the removal sequence, the reverse order
    (Matula & Beck 1983; Batagelj & Zaversnik 2003).

    The key of a vertex is its degree, or with ``weighted`` its
    :attr:`Multigraph.int_weighted_degrees`.  Without ``choose`` the lowest
    id among the minima goes first.  Each key with a live vertex has a
    min-heap of ids in a dict, beside a min-heap of those keys, and a
    moved vertex is pushed onto its new key's heap without leaving the old
    one.  A popped id is stale when its vertex is gone or its key has moved
    on; keys only fall, so a stale entry never becomes live again.  That is
    one heap push per key drop, O((n + m) log n).

    ``choose(ties)`` (unit weights only) gets the live vertices of minimum
    degree sorted by id and returns the one to remove.  It runs on a bucket
    queue of id-sorted lists, one per degree, so a move is a bisect and a
    list shift: quadratic in the worst case.
    """
    n = graph.n
    edges = graph.edges
    incident = graph.incident
    alive = [True] * n
    removed: list[int] = []
    if choose is not None:
        deg = list(graph.degrees)
        buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
        for v in range(n):
            buckets[deg[v]].append(v)
        lo = 0
        for _ in range(n):
            while not buckets[lo]:
                lo += 1
            ties = buckets[lo]
            v = choose(ties)
            del ties[bisect_left(ties, v)]
            alive[v] = False
            removed.append(v)
            for j in incident[v]:
                a, b = edges[j]
                u = b if a == v else a
                if u != v and alive[u]:
                    d = deg[u]
                    bucket = buckets[d]
                    del bucket[bisect_left(bucket, u)]
                    insort(buckets[d - 1], u)
                    deg[u] = d - 1
                    if d <= lo:
                        lo = d - 1
        return removed
    if weighted:
        w = graph.int_weights[0]
        key = list(graph.int_weighted_degrees)
    else:
        w = (1,) * len(edges)
        key = list(graph.degrees)
    ids: dict[int, list[int]] = {}
    for v, k in enumerate(key):
        ids.setdefault(k, []).append(v)  # ascending, so already a heap
    keys = list(ids)
    heapify(keys)
    for _ in range(n):
        # pop until an id is live: a stale one's key moved on, or its vertex
        # is gone (removed by its entry at its last key); the stale ids left
        # after the last removal are never popped
        while True:
            k = keys[0]
            heap = ids[k]
            v = heappop(heap)
            if not heap:
                del ids[k]
                heappop(keys)
            if key[v] == k:
                break
        alive[v] = False
        removed.append(v)
        for j in incident[v]:
            if w[j]:
                a, b = edges[j]
                u = b if a == v else a
                if u != v and alive[u]:
                    ku = key[u] - w[j]
                    key[u] = ku
                    if ku in ids:
                        heappush(ids[ku], u)
                    else:
                        ids[ku] = [u]
                        heappush(keys, ku)
    return removed


def weighted_smallest_last(graph: Multigraph) -> tuple[int, ...]:
    """Order minimizing the maximum weighted left degree.

    Repeatedly removes a vertex of minimum weighted degree in the
    remaining graph and places it last; ties go to the lowest id.  With
    unit weights the achieved maximum equals the degeneracy.

    Peels on :attr:`Multigraph.int_weighted_degrees` if the graph has
    weights (a positive scaling keeps every comparison and tie), on its
    degrees if not: a lazy min-heap of ids per int key, beside a min-heap
    of the keys, in O((n + m) log n) (see :func:`_peel`).
    """
    return tuple(reversed(_peel(graph, weighted=graph.weights is not None)))


def greedy_min_degree(graph: Multigraph, seed=None) -> tuple[int, ...]:
    """Unweighted smallest-last order.

    Without a seed, ties go to the lowest id, on the lazy per-degree id
    heaps of :func:`weighted_smallest_last`, in O((n + m) log n).  With
    one, the vertex is drawn uniformly among the minimum-degree vertices
    by ``random.Random(seed)``, which needs them sorted by id: that rule
    keeps one id-sorted list per degree and shifts one per move, so it is
    quadratic when many vertices share a degree.
    """
    # choice() over the id-sorted bucket draws exactly as it would
    # over the id-sorted list of all minimum-degree vertices
    choose = None if seed is None else random.Random(seed).choice
    return tuple(reversed(_peel(graph, choose=choose)))


# ---------------------------------------------------------------------------
# Linear costs: sort by slope.


def linear_slope_order(graph: Multigraph, slopes: Sequence) -> tuple[int, ...]:
    """Optimal order for per-vertex linear costs a_v * indeg + b_v:
    non-increasing slope, ties to the lowest id (the sort is stable)."""
    if len(slopes) != graph.n:
        raise ValueError("need one slope per vertex")
    neg = [-a for a in scaled_to_ints([exact_number(s) for s in slopes])[0]]
    return tuple(sorted(range(graph.n), key=neg.__getitem__))


# ---------------------------------------------------------------------------
# Exact optimization over all orders: DP on vertex subsets.


def _subset_sums(start: int, weights: Sequence[int]) -> list[int]:
    """``start`` plus the sum of ``weights[i]`` over the set bits i of s,
    for every s < 2**len(weights)."""
    sums = [start]
    for w in weights:
        sums += [x + w for x in sums]
    return sums


def _int_costs(rows: list[list], maximize: bool) -> list[list[int]]:
    """The cost rows as ints that the DP compares, adds and subtracts in
    place of the costs, ties included.

    Every value must be an int or a Fraction, or every value a LiftedCost
    with an int penalty and an int or Fraction base; anything else raises
    TypeError.  Values are scaled by the LCM of their denominators.  A
    LiftedCost becomes penalty * M + base over the scaled bases, with M
    one more than the sum of the rows' spreads (max - min).  Two sums the
    DP compares take one entry from each row of the same mask, so their
    bases differ by less than M and the encoding keeps their
    lexicographic order.  ``maximize`` negates the result.
    """
    entries = [x for row in rows for x in row]
    kinds = {isinstance(x, LiftedCost) for x in entries}
    if len(kinds) > 1:
        raise TypeError("cost table mixes LiftedCost with other values")
    lifted = True in kinds
    if lifted:
        if not all(isinstance(x.penalty, int) for x in entries):
            raise TypeError("LiftedCost penalties must be ints")
        bases = [x.base for x in entries]
    else:
        bases = entries
    for x in bases:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cost {x!r} is not an int, a Fraction or a LiftedCost")
    scaled = iter(scaled_to_ints(bases)[0])
    ints = [list(islice(scaled, len(row))) for row in rows]
    if lifted:
        big = sum(max(r) - min(r) for r in ints) + 1
        ints = [[x.penalty * big + b for x, b in zip(row, brow)] for row, brow in zip(rows, ints)]
    if maximize:
        ints = [[-x for x in row] for row in ints]
    return ints


def exact_subset_dp(
    graph: Multigraph, cost_of: Callable[[int, int], object], maximize: bool = False
):
    """Optimal order for any separable order cost.

    ``cost_of(v, z)`` prices vertex v at left degree z.  Every value must
    be an int or a Fraction, or every value a LiftedCost (int penalty,
    int or Fraction base); anything else raises TypeError.  Convexity is
    not required.  The recursion: the best order of an induced subgraph
    ends in some vertex v, which then pays for its full degree inside
    that subgraph.

    The DP runs on plain ints: the tables are scaled by the LCM of their
    denominators, and a LiftedCost becomes penalty * M + base with M one
    more than the total spread of the bases (:func:`_int_costs`), which
    keeps every comparison and tie.  Each int row is then shifted to
    start at 0, its least entry subtracted after any ``maximize``
    negation.  Every order pays exactly one entry per row, so every sum
    the DP compares moves by the same constant, and comparisons, ties
    and the backtrack are unchanged; the value is summed from the
    caller's tables.  No entry is negative, so one more than the sum of
    the row maxima starts each minimum above every partial sum, and the
    sums of small tables stay within CPython's cache of small ints.

    v's degree inside a mask (loops included) is
    ``lo[v][mask & low] + hi[v][mask >> half]``, its degrees into the
    low half (the first n // 2 + 1 vertices, whose half-masks carry the
    precomputed tables) and into the high half.  The masks are swept in
    blocks of one high half-mask ``mh`` each, over every low half-mask
    ``ml``.  Once per block, one flat list holds every vertex's cost row,
    shifted by ``hi[v][mh]`` and cut to the entries its degree into the
    low half can reach, at an offset fixed once, so v's cost in the mask
    is ``flat[off[v] + lo[v][ml]]``.  Each low half-mask keeps one
    (predecessor half-mask, flat index) pair per vertex, and the block's
    values are filled into a local list, so a low candidate last vertex
    costs two list reads, an add and a compare.  A high vertex v of
    ``mh`` reads its predecessor from the finished block ``mh - v``, at a
    flat index kept per low half-mask.  That is O(2^n * n + 2^(n/2) * m)
    time, the second term for the flat rows, and O(2^n + n * 2^(n/2) + m)
    memory: f, the half-mask tables (n * 2^(n/2+1) degrees, and fewer
    flat indices and pairs) and one block's rows, with no per-mask table
    of last vertices (2^26 bytes less at ``DP_CAP``).

    f holds one block per high half-mask, read as ``f[mh][ml]``, and the
    blocks are swept in layers, by the number of high vertices in
    ``mh``.  A block of layer k reads only itself and blocks of layer
    k - 1 (its high predecessors, and the isolated-vertex rule's), so
    when layer k starts, each block of layer k - 2 is packed into an
    ``array('q')``: 8 bytes per mask, where a list holds an 8-byte slot
    and, for a sum outside the small-int cache, a 32-byte int.  Only the
    two live layers stay lists, so every read in the sweep is a list
    read and none boxes an int; only the backtrack reads packed blocks.
    Every value is a non-negative int below ``top``, so it fits; when
    ``top`` is 2^63 or more every block stays a list.  Packing holds one
    extra block at a time.

    A mask S with a vertex v that has no neighbour in S but itself skips
    the minimum.  v's left degree is its loop count wherever it stands,
    so S's best value is f(S) = f(S - v) + c_v(loops_v); the argument
    needs no convexity, so it holds for every table and for
    ``maximize``.  The vertices of S with no neighbour in S come from
    tables of the vertices with no neighbour in each half-mask: the low
    ones are ``lone_lo[ml] & far_hi`` (the vertices of ``ml`` with no
    neighbour in ``ml``, kept per low half-mask, and the low vertices with
    no neighbour in ``mh``, found once per block), the high ones
    ``lone_hi & far_lo[ml]`` likewise, and the lowest of them is used.  The
    rule fires on every one-vertex mask, on every mask of an edgeless
    graph, and on 52–76% of the masks of ``random_multigraph(n, 2n)``
    at n = 14–16 (seeds 1–3).

    The order is read off f on the way down: the last vertex of S is the
    lowest v with f(S - v) + c_v(deg_S v) = f(S), which is the lowest
    optimal last vertex, the one a strict < over increasing ids keeps.

    Returns ``(order, value)``, with the value summed from the original
    costs; ties resolve to the lowest vertex id.  More than ``DP_CAP``
    vertices raise ValueError.
    """
    n = graph.n
    if n > DP_CAP:
        raise ValueError(f"subset DP over {n} vertices exceeds the cap ({DP_CAP})")
    degs = graph.degrees
    tables = [[cost_of(v, z) for z in range(degs[v] + 1)] for v in range(n)]
    costs = []
    for row in _int_costs(tables, maximize):
        least = min(row)
        costs.append([x - least for x in row])
    loops = graph.loop_counts
    counts = graph.neighbor_counts
    half = min(n, n // 2 + 1)
    size = 1 << half
    low = size - 1
    lo = [_subset_sums(loops[v], [counts[v].get(u, 0) for u in range(half)]) for v in range(n)]
    hi = [_subset_sums(0, [counts[v].get(u, 0) for u in range(half, n)]) for v in range(n)]
    # v's cost row, cut to the entries its degree into the low half can
    # reach, sits at off[v] in each block's flat list
    spans = [lo[v][-1] + 1 for v in range(n)]
    off = [sum(spans[:v]) for v in range(n)]
    cuts = list(zip(costs, hi, spans))
    # each low vertex of each low half-mask: the half-mask without it and
    # its flat index; and each high vertex's flat index per low half-mask
    pairs = [
        [(ml ^ 1 << v, off[v] + lo[v][ml]) for v in range(half) if ml >> v & 1]
        for ml in range(size)
    ]
    at_lo = [[off[v] + z for z in lo[v]] for v in range(half, n)]
    # the vertices with no neighbour in each half-mask, and the cost of
    # each vertex at its loop count: what it pays with no neighbour before
    full = 1 << n
    apart_lo = [full - 1]
    apart_hi = [full - 1]
    for u in range(n):
        far = ~sum(1 << x for x in counts[u])
        apart = apart_lo if u < half else apart_hi
        apart += [x & far for x in apart]
    # per low half-mask: its own vertices apart from it, and the high
    # vertices apart from it, as a high half-mask
    lone_lo = [ml & a for ml, a in enumerate(apart_lo)]
    far_lo = [a >> half for a in apart_lo]
    alone = [costs[v][loops[v]] for v in range(n)]
    # above every sum of one entry per vertex of a mask
    top = sum(map(max, costs)) + 1
    # f[mh] holds the block of masks mh << half | ml; the blocks are swept
    # by the popcount of mh, and a block reads only blocks one bit smaller
    layers = [[] for _ in range(n - half + 1)]
    for mh in range(1 << (n - half)):
        layers[mh.bit_count()].append(mh)
    f = [None] * (1 << (n - half))
    for j, layer in enumerate(layers):
        if j >= 2 and top < 1 << 63:
            for mh in layers[j - 2]:
                f[mh] = array("q", f[mh])
        for mh in layer:
            # the low vertices apart from mh, and mh's own vertices apart from it
            far_hi = apart_hi[mh] & low
            lone_hi = apart_hi[mh] >> half & mh
            flat = []
            for row, hv, k in cuts:
                flat += row[hv[mh]:hv[mh] + k]
            # each high vertex's predecessors: the finished block without it
            highs = [(f[mh ^ 1 << v], at_lo[v]) for v in range(n - half) if mh >> v & 1]
            block = [0] * size
            for ml in range(0 if mh else 1, size):
                iso = lone_lo[ml] & far_hi
                if iso:
                    b = iso & -iso
                    block[ml] = block[ml ^ b] + alone[b.bit_length() - 1]
                    continue
                iso = lone_hi & far_lo[ml]
                if iso:
                    b = iso & -iso
                    block[ml] = f[mh ^ b][ml] + alone[half + b.bit_length() - 1]
                    continue
                best = top
                for pm, i in pairs[ml]:
                    c = block[pm] + flat[i]
                    if c < best:
                        best = c
                for prev, ix in highs:
                    c = prev[ml] + flat[ix[ml]]
                    if c < best:
                        best = c
                block[ml] = best
            f[mh] = block
    suffix = []
    value = 0
    mask = full - 1
    while mask:
        ml = mask & low
        mh = mask >> half
        for v in range(n):
            if mask >> v & 1:
                z = lo[v][ml] + hi[v][mh]
                pm = mask ^ 1 << v
                if f[pm >> half][pm & low] + costs[v][z] == f[mh][ml]:
                    break
        else:
            raise RuntimeError(f"internal error: subset DP backtrack stopped at mask {mask:#x}")
        suffix.append(v)
        value += tables[v][z]
        mask ^= 1 << v
    return tuple(reversed(suffix)), value


# the objective kinds the DP encodes, and whether it maximizes each one's form
_DP_MAXIMIZES = {"phi_sum": False, "dec_min": False, "dec_max": True, "inc_max": False,
                 "inc_min": True, "rho_delta_sum": True, "forbidden_subpaths": False}


def _dp_form(graph: Multigraph, objective) -> tuple[PhiSum, bool]:
    """The ``phi_sum`` whose sum the DP optimizes for ``objective``, of a
    kind in ``_DP_MAXIMIZES``, and whether it maximizes that sum (see
    :func:`solve_acyclic_exact`)."""
    k = objective.kind
    maximize, base = _DP_MAXIMIZES[k], max(graph.n, 2)
    if k in ("dec_min", "dec_max"):
        return PhiSum(shared=exp_base(base)), maximize
    if k in ("inc_max", "inc_min"):
        return PhiSum(shared=neg_exp_base(base)), maximize
    if k == "rho_delta_sum":
        rows = (table([z * (d - z) for z in range(d + 1)]) for d in graph.degrees)
        return PhiSum(per_vertex=tuple(rows)), maximize
    if k == "forbidden_subpaths":
        return PhiSum(shared=binom2()), maximize
    return objective, maximize


def _block_runs(sub: Multigraph, rows: list, k: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The least sum of ``rows[v][indeg v]`` over the block ``sub`` but its
    parent cut, the local vertex k, and an order that attains it, for each
    feasible indegree i of k; a root (k = -1) has one entry, at i = 0.

    Per i, one :func:`exact_subset_dp` run pins k at i by a LiftedCost
    penalty, ``LiftedCost(int(z != i), 0)`` (``rows[k]`` is not read), and
    prices every other vertex at ``LiftedCost(0, rows[v][z])``.  The DP
    weighs the penalty by :func:`_int_costs`' M, so i is feasible iff the
    optimum's penalty is 0, and its base is then the least sum.  A block
    of at most three vertices needs no run: its orders are tried in the
    DP's tie order, first found first.
    """
    n = sub.n
    out: dict = {}
    if n <= 3:
        for rev in permutations(range(n)):
            order = rev[::-1]
            z = [0] * n
            for a, b in sub.edges:
                z[b if order.index(a) < order.index(b) else a] += 1
            value = sum(rows[x][z[x]] for x in range(n) if x != k)
            i = z[k] if k >= 0 else 0
            if i not in out or value < out[i][0]:
                out[i] = (value, order)
        return out
    for i in range(sub.degrees[k] + 1) if k >= 0 else [0]:
        order, value = exact_subset_dp(
            sub, lambda v, z: LiftedCost(int(z != i), 0) if v == k else LiftedCost(0, rows[v][z]))
        if value.penalty == 0:
            out[i] = (value.base, order)
    return out


def _block_order(graph: Multigraph, forest: BlockTree, rows: list[list[int]]):
    """An order minimizing the sum of ``rows[v][indeg v]``, and that sum,
    from the blocks of ``forest``, which :func:`solve_acyclic_exact` has
    checked against ``DP_CAP`` and checks the sum against.  Every vertex of
    a block, its parent cut too, gets a slice of its row; :func:`_block_runs`
    pins the cut.  ``split[B][z]`` is the i that block B's fold into its
    parent cut's row chose at z, so that the walk down can undo the fold."""
    blocks = forest.blocks
    loops = graph.loop_counts
    parent_cut, post_order = forest.rooted()
    folded = rows[:]  # each vertex's row, its child blocks folded in
    children: dict[int, list[int]] = {}  # cut vertex -> its child blocks, in fold order
    split: list = [None] * len(blocks)
    runs: list = [None] * len(blocks)  # per block: its graph, vertex map and runs
    for bi in post_order:
        c = parent_cut[bi]
        sub, verts = subgraph(graph, blocks[bi].vertices, blocks[bi].edge_ids)
        local = [folded[v][loops[v]:loops[v] + d + 1] for v, d in zip(verts, sub.degrees)]
        k = verts.index(c) if c >= 0 else -1
        out = _block_runs(sub, local, k)
        runs[bi] = sub, verts, out
        if c >= 0:
            row = folded[c]
            best = [min((row[z + i] + h, i) for i, (h, _) in out.items())
                    for z in range(len(row) - sub.degrees[k])]
            folded[c], split[bi] = zip(*best)
            children.setdefault(c, []).append(bi)
    # from the roots down, each block's order at its parent cut's i, spliced in
    pick: dict[int, int] = {}
    order: deque[int] = deque()
    total = 0
    for bi in reversed(post_order):
        c = parent_cut[bi]
        sub, verts, out = runs[bi]
        value, local_order = out[pick.get(bi, 0)]
        block = [verts[x] for x in local_order]
        if c < 0:
            total += value
            order += block
        else:
            at = block.index(c)
            order.extendleft(reversed(block[:at]))
            order += block[at + 1:]
        for v, z in zip(verts, degrees_of_order(sub, local_order).indeg):
            if v != c:
                # undo v's folds, the last first
                at = loops[v] + z
                for child in reversed(children.get(v, ())):
                    pick[child] = split[child][at]
                    at += pick[child]
    return tuple(order), total


def solve_acyclic_exact(graph: Multigraph, objective):
    """Exact optimal order for any separable-encodable objective.

    The DP optimizes the sum of a ``phi_sum`` form (:func:`_dp_form`):
    the objective itself; b**z (``exp_base``), minimized for dec-min and
    maximized for dec-max, and 1/b**z (``neg_exp_base``), minimized for
    inc-max and maximized for inc-min, with b = max(n, 2), so that a
    vector's top term outweighs its other n - 1; tables of z * (d_v - z),
    maximized, for the degree-product sum; ``binom2`` for forbidden
    subpaths.  The DP scales the costs by the LCM of their denominators,
    so 1/b**z runs as the exact int b**(max_degree - z).

    The DP runs per block of :func:`block_forest`, so ``DP_CAP`` limits the
    largest block, not n.  It is checked after the objective's kind and
    before any form, table or row is built.  A graph of one block is one
    :func:`exact_subset_dp` run over its loop-free block.  A cut vertex's
    indegree is the sum over its blocks.  The costs become int rows once,
    for the whole graph (:func:`_int_costs`), so b and
    the LiftedCost weight M stay global; a loop shifts its vertex's row, as
    it counts at every position.  Each component is rooted at its largest
    block.  Children first, a block B with parent cut c gets h_B(i), the
    least cost of all below c through B with c at indegree i in B, for each
    i, from one DP run per i that pins c at i by a LiftedCost penalty
    (:func:`_block_runs`).  h_B is folded into c's cost row, with no table
    kept per cut vertex: row_c(z) becomes min_i row_c(z + i) + h_B(i) for
    each z that c's other blocks and loops reach, and every vertex of a
    block is priced by a slice of its row.  A root's DP gives its
    component's optimum.  From the roots down, each block's order at its i
    is spliced in: a root's goes at the end, a child's vertices before its
    parent cut at the front and those after it at the end; undoing a cut
    vertex's folds, the last first, gives its child blocks their i.  Blocks
    share only cut vertices, so each keeps its own order; with cut vertices,
    the order may differ from the whole-graph DP's among optima of equal
    key.  The order's degree vector, computed once, must sum the rows to the
    blocks' total (else RuntimeError) and gives the key.
    Returns ``(order, natural key)``.
    """
    if objective.kind not in _DP_MAXIMIZES:  # refused ahead of the cap, with its own message
        raise ValueError(f"objective {objective.kind!r} has no separable encoding for the DP")
    forest = block_forest(graph)
    if (size := max((len(b.vertices) for b in forest.blocks), default=0)) > DP_CAP:
        raise ValueError(f"subset DP over a block of {size} vertices exceeds the cap ({DP_CAP})")
    form, maximize = _dp_form(graph, objective)
    phis = resolved(form, graph)
    tables = [[phi.cost(z) for z in range(d + 1)] for phi, d in zip(phis, graph.degrees)]
    rows = _int_costs(tables, maximize)
    order, total = _block_order(graph, forest, rows)
    degrees = degrees_of_order(graph, order)
    if sum(row[z] for row, z in zip(rows, degrees.indeg)) != total:
        raise RuntimeError("internal error: the blocks' orders do not join into an optimal order")
    return order, evaluate(objective, graph, degrees)


# ---------------------------------------------------------------------------
# Degree-product sum on subcubic graphs: compose s-t orders over blocks.


def _subcubic_blocks(graph: Multigraph) -> BlockTree:
    """The block tree of a connected subcubic graph, whose search checks connectivity."""
    if graph.n < 2:
        raise ValueError("need at least two vertices")
    if graph.has_loops:
        raise ValueError("loops are not supported here")
    try:
        bt = block_tree(graph)
    except ValueError:  # a loop-free graph fails only by being disconnected
        raise ValueError("graph must be connected") from None
    if graph.max_degree > 3:
        raise ValueError("maximum degree must be at most 3")
    return bt


def _terminals(graph: Multigraph, bt) -> tuple[int, int, int, dict[int, int]]:
    """Where the composed s-t orders start and end: the root block (the
    lowest-numbered end component), its terminals s and t, and the end
    terminal of every block whose end is no cut vertex (t itself when the
    graph is one block).  Ties go to the lower degree, then the lower id."""
    degs = graph.degrees
    blocks = bt.blocks

    def lowest(vertices) -> int:
        return min(vertices, key=lambda v: (degs[v], v))

    if len(blocks) == 1:
        s = lowest(range(graph.n))
        t = lowest(v for v in range(graph.n) if v != s)
        return 0, s, t, {0: t}
    ends = [i for i in range(len(blocks)) if bt.is_end_component(i)]
    root = ends[0]
    t = bt.block_cuts[root][0]
    s = lowest(v for v in blocks[root].vertices if v != t)
    free = {
        i: lowest(v for v in blocks[i].vertices if v != bt.block_cuts[i][0])
        for i in ends[1:]
    }
    return root, s, t, free


def combine_st_orders(graph: Multigraph) -> tuple[int, ...]:
    """Order maximizing the left-right degree product sum on a connected
    subcubic multigraph.

    Walks the block tree from an end component, lays down an s-t order
    of each block, and splices them at the shared cut vertices; only the
    very first vertex and the free terminals of the other end components
    can then have all their edges on one side.
    """
    n = graph.n
    bt = _subcubic_blocks(graph)
    blocks = bt.blocks

    def block_order(bi: int, s: int, t: int) -> list[int]:
        sub, verts = subgraph(graph, blocks[bi].vertices, blocks[bi].edge_ids)
        local = {v: i for i, v in enumerate(verts)}
        return [verts[x] for x in _st_order(sub, local[s], local[t])]

    root, s_root, t_root, free = _terminals(graph, bt)
    parent_cut, post_order = bt.rooted(root)
    order: list[int] = []
    for bi in reversed(post_order):  # the root, then each block after its parent
        c = parent_cut[bi]
        if c < 0:
            order += block_order(bi, s_root, t_root)
            continue
        t_j = free[bi] if bi in free else min(v for v in bt.block_cuts[bi] if v != c)
        order += block_order(bi, c, t_j)[1:]
    if len(order) != n:
        raise RuntimeError("internal error: block walk missed vertices")
    return tuple(order)


def terminal_imbalance_bound(graph: Multigraph) -> int:
    """Total imbalance the composed order achieves: (d-1) at the start
    vertex plus (d-1) at each free end-component terminal, computed from
    the block structure alone."""
    degs = graph.degrees
    _, s, _, free = _terminals(graph, _subcubic_blocks(graph))
    return degs[s] - 1 + sum(degs[t] - 1 for t in free.values())


# ---------------------------------------------------------------------------
# Random orders and the derandomized greedy for the degree-product sum.


class TrialsResult(Frozen):
    __slots__ = _fields = ("order", "value", "mean")

    def __init__(self, order: tuple[int, ...], value: int, mean: Fraction):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "mean", mean)


def _shuffled_orders(rng: random.Random, n: int, trials: int):
    """Yield ``trials`` pairs ``(perm, pos)``: ``perm`` is what
    ``rng.shuffle(list(range(n)))`` gives, from the same ``getrandbits(k)``
    draws with ``k = (i + 1).bit_length()``, and ``pos`` its inverse,
    written as each position is settled (the vertex left at 0 has 0).
    ``k`` changes only at powers of two, so its spans of ``i`` are built
    once, as reversed slices of one ``ids = list(range(n))``.  Every
    ``perm`` starts as a copy of ``ids`` and every ``pos`` entry comes from
    a span, so all of them share the int objects of ``ids``: the loop
    allocates no int per position, where a ``range`` makes one for each
    position above 256.
    """
    getrandbits = rng.getrandbits
    ids = list(range(n))
    spans = [(k, ids[min(n - 1, (1 << k) - 2):(1 << (k - 1)) - 2:-1])
             for k in range(n.bit_length(), 1, -1)]
    for _ in range(trials):
        perm = ids[:]
        pos = [0] * n
        for k, span in spans:
            for i in span:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                perm[i], perm[j] = perm[j], perm[i]
                pos[perm[i]] = i
        yield perm, pos


TRIAL_CHUNK = 128  # trials evaluated together at most, one lane each
TRIAL_LANES = 1 << 20  # lane entries (trials x vertices) a chunk may hold,
TRIAL_FLOOR = 16  # unless that leaves it fewer trials than this
_LANE_CODES = {8 * array(c).itemsize: c for c in "HILQ"}  # lane bits -> array typecode


def _trial_values(edges: Sequence[tuple[int, int]], degrees: Sequence[int], lanes: array,
                 t: int, b: int) -> list[int]:
    """The degree-product sums of ``t`` trials, one ``b``-bit lane per trial.

    ``lanes[v * t + k]`` is vertex v's position in trial k.  ``packed[v]``
    reads vertex v's ``t`` entries as one int, trial k in bits
    ``k*b .. k*b + b - 1``, and ``x`` has lane k set when u comes after v
    in trial k (see :func:`random_order_trials`).  One pass over the edges
    counts each edge at its later end, ``ind[u] += x`` and
    ``ind[v] += ones ^ x``, and adds to ``q`` that end's indegree so far:
    ``ind[u]`` in the lanes where ``x * (2**b - 1)`` is all ones, ``ind[v]``
    in the others.  A vertex entered i times adds 0 + 1 + ... + (i - 1),
    so sum(in**2) is 2q + m and the values are sum(d * in) - 2q - m.  The
    lanes of those sums may carry into each other, but sums of ints are
    exact, so the result's lanes are the values, each below 2**b.
    """
    width, order = t * b // 8, sys.byteorder
    data = memoryview(lanes).cast("B")
    packed = [int.from_bytes(data[i:i + width], order) for i in range(0, len(data), width)]
    ones = ((1 << (t * b)) - 1) // ((1 << b) - 1)  # 1 in every lane
    guard, shift, full = ones << (b - 1), b - 1, (1 << b) - 1
    ind = [0] * len(packed)
    q = 0
    for u, v in edges:
        x = (((packed[u] | guard) - packed[v]) >> shift) & ones
        a, c = ind[u], ind[v]
        q += c ^ ((a ^ c) & (x * full))
        ind[u] = a + x
        ind[v] = c + (ones ^ x)
    acc = sum(map(mul, degrees, ind)) - 2 * q - len(edges) * ones
    return array(_LANE_CODES[b], acc.to_bytes(width, order)).tolist()


def random_order_trials(graph: Multigraph, seed, trials: int) -> TrialsResult:
    """Sample uniform random orders; keep the best degree-product sum.

    A uniform order is a 3-approximation in expectation, since any two
    edges at a shared vertex point the same way with probability 2/3.
    A shuffle is a valid order, so no trial checks its own.

    The trials are evaluated a chunk at a time, bit-parallel: lane k of a
    Python int holds trial k of the chunk, b bits wide, and a few big-int
    operations per edge serve every trial of the chunk (Lamport's
    many-lanes-per-word idea).  A vertex's positions make one int P[v].  G
    holds the top bit of every lane, so lane k of ``(P[u] | G) - P[v]``
    keeps that bit exactly when u comes after v in trial k; no lane
    borrows from the next while positions stay below that guard bit,
    which is why b is the smallest of 16, 32 and 64 with n <= 2**(b-1).
    b also needs the sum of floor(d_v**2 / 4), which bounds every trial's
    value, below 2**b; it bounds every indegree above 3 too, so no
    indegree lane carries into the next.  A chunk holds at most
    ``TRIAL_CHUNK`` trials and at most ``TRIAL_LANES`` positions (trials
    times n), but never fewer than ``TRIAL_FLOOR`` trials: every chunk
    pays for a pass over the vertices and one over the edges, which fewer
    lanes do not repay.  So a chunk holds at most max(``TRIAL_LANES``,
    ``TRIAL_FLOOR`` * n) positions, linear in n.  Only the chunk's
    positions are kept, in one array, and the best order is rebuilt once,
    as the inverse of the best trial's positions; ties keep the earliest
    trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if graph.has_loops:
        raise ValueError("loops are not supported here")
    n, edges = graph.n, graph.edges
    bound = sum(d * d // 4 for d in graph.degrees)
    b = next(b for b in (16, 32, 64) if n <= 1 << (b - 1) and bound < 1 << b)
    code = _LANE_CODES[b]
    chunk = min(TRIAL_CHUNK, max(TRIAL_FLOOR, TRIAL_LANES // max(n, 1)))
    shuffles = _shuffled_orders(random.Random(seed), n, trials)
    total, best_val, best_pos = 0, -1, None
    for start in range(0, trials, chunk):
        t = min(chunk, trials - start)
        lanes = array(code, bytes(n * t * b // 8))
        for k, (_, pos) in zip(range(t), shuffles):
            lanes[k::t] = array(code, pos)
        values = _trial_values(edges, graph.degrees, lanes, t, b)
        total += sum(values)
        top = max(values)
        if top > best_val:
            best_val, best_pos = top, lanes[values.index(top)::t]
    best_order = [0] * n
    for v, p in enumerate(best_pos):
        best_order[p] = v
    return TrialsResult(tuple(best_order), best_val, Fraction(total, trials))


def relative_order_counts(mults: Sequence[int]):
    """Count relative orders of v and neighbors w_1..w_p by insertion.

    Returns ``f`` with ``f[k][l]`` = number of orderings of the p+1
    elements in which exactly k of the w_j come after v and their
    multiplicities sum to l.  Inserting w_j into an ordering of the
    previous elements lands after v in k ways and before in j-k ways;
    the total over all cells is (p+1)!.
    """
    D = sum(mults)
    f = [[0] * (D + 1)]
    f[0][0] = 1
    for j, c in enumerate(mults, start=1):
        nf = [[0] * (D + 1) for _ in range(j + 1)]
        for k in range(j):
            row = f[k]
            for l in range(D + 1):
                cnt = row[l]
                if not cnt:
                    continue
                nf[k + 1][l + c] += (k + 1) * cnt
                nf[k][l] += (j - k) * cnt
        f = nf
    return f


def conditional_expectation(graph: Multigraph, prefix: Sequence[int] = ()) -> Fraction:
    """Exact expected degree-product sum over uniform completions of a
    fixed prefix.

    A placed vertex contributes its left degree into the prefix times its
    degree to everything later.  A free vertex of degree d contributes
    T = (3dD - 2D^2 - S)/6, where its free neighbours have multiplicities
    c, D = sum c and S = sum c^2: each free neighbour follows it with
    probability 1/2 and each two with probability 1/3, and its placed
    neighbours precede it.  The tests check T against the counts of
    :func:`relative_order_counts`.  Six times each term is summed in ints.
    """
    if graph.has_loops:
        raise ValueError("loops are not supported here")
    prefix = tuple(prefix)
    if len(set(prefix)) != len(prefix):
        raise ValueError("prefix repeats a vertex")
    for v in prefix:
        if not 0 <= v < graph.n:
            raise ValueError(f"prefix vertex {v} out of range")
    counts = graph.neighbor_counts
    degs = graph.degrees
    placed = set()
    six = 0
    for v in prefix:
        dprev = sum(c for u, c in counts[v].items() if u in placed)
        six += 6 * dprev * (degs[v] - dprev)
        placed.add(v)
    for v in range(graph.n):
        if v not in placed:
            mults = [c for u, c in counts[v].items() if u not in placed]
            d = sum(mults)
            six += 3 * degs[v] * d - 2 * d * d - sum(c * c for c in mults)
    return Fraction(six, 6)


def derandomized_order(graph: Multigraph) -> tuple[int, ...]:
    """Greedy prefix extension by conditional expectations.

    At each step appends the vertex maximizing the expected final value
    given the prefix, ties to the lowest id; the expectation never
    decreases, so the result is at least the uniform-random expectation,
    a third of the optimum.

    Appending u changes only the terms T of u and of its free neighbours
    w in :func:`conditional_expectation`, so the expectation grows by
    gain(u) = (d(u) - D(u)) D(u) - T(u) + sum_w [T(w without u) - T(w)],
    with D(u) the multiplicity sum of u's free neighbours.  The gains are
    kept as exact ints, six times their value: a free vertex of degree d
    whose free neighbours have multiplicities c has 6T = 3dD - 2D^2 - S
    with D = sum c and S = sum c^2, on multigraphs too, and losing one
    neighbour of multiplicity c changes 6T by c(4D - 3d - c).  So
    6 gain(u) = D(u)(3d(u) - 4D(u)) + S(u) + sum_w c_uw (4D(w) - 3d(w) - c_uw).
    Only D and S of u's free neighbours change when u is placed, so only
    their gains and those of their free neighbours are recomputed; a lazy
    heap of gains picks the next vertex.  With maximum degree Δ that is
    O(n Δ² (Δ + log n)) in all.
    """
    if graph.has_loops:
        raise ValueError("loops are not supported here")
    n = graph.n
    degs = graph.degrees
    nbrs = [list(c.items()) for c in graph.neighbor_counts]
    free = [True] * n
    # free-neighbour multiplicity sums D and sums of squares S
    dsum = list(degs)
    sqsum = [sum(c * c for _, c in row) for row in nbrs]
    gain = [0] * n
    heap: list[tuple[int, int]] = []  # (-gain, id): max gain, then lowest id

    def regain(u):
        d = dsum[u]
        g = d * (3 * degs[u] - 4 * d) + sqsum[u]
        for x, c in nbrs[u]:
            if free[x]:
                g += c * (4 * dsum[x] - 3 * degs[x] - c)
        gain[u] = g
        heappush(heap, (-g, u))

    for u in range(n):
        regain(u)
    order: list[int] = []
    while len(order) < n:
        g, u = heappop(heap)
        if not free[u] or -g != gain[u]:
            continue
        order.append(u)
        free[u] = False
        near = set()
        for w, c in nbrs[u]:
            if free[w]:
                dsum[w] -= c
                sqsum[w] -= c * c
                near.add(w)
                near.update(x for x, _ in nbrs[w] if free[x])
        for x in near:
            regain(x)
    return tuple(order)
