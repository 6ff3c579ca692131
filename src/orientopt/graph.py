"""Core multigraph types and structural routines.

Vertices are integers ``0..n-1``.  Edges are endpoint pairs kept in input
order and addressed by their index (edge id).  Parallel edges are allowed
everywhere; loops only where a mode explicitly supports them (vertex
orders, not orientations).  Edge weights are exact rationals.

A vertex order is a plain tuple containing each vertex exactly once.  An
:class:`Orientation` stores, per edge id, which endpoint is the head.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import lcm
from operator import eq
from typing import Iterable, Sequence

EXPONENT_LIMIT = 4300  # int()'s default digit limit, which bounds the rest of a string


def exact_number(value):
    """An outside number, exactly: an int stays an int and a Fraction is
    kept; a float becomes the Fraction of its shortest decimal repr, so
    ``0.1`` is ``1/10``; a string is read as ``Fraction(value)`` reads it,
    with ``"p/q"`` read by int() on each side.  A bool, any other type, a
    string that Fraction refuses, a zero denominator included, or one with
    an exponent beyond ``EXPONENT_LIMIT`` in magnitude raises ValueError."""
    cls = value.__class__
    if cls is str:  # first: file tokens and spec values are strings
        # int() takes what Fraction takes around the "/", but for
        # whitespace before it
        num, _, den = value.partition("/")
        try:
            if den.isdecimal() and not num[-1:].isspace():
                return Fraction(int(num), int(den))
            e = max(value.rfind("e"), value.rfind("E"))
            exp = value[e + 1:].strip().lstrip("+-").replace("_", "")  # checked before 10**exp
            if e >= 0 and exp.isdecimal() and int(exp) > EXPONENT_LIMIT:
                raise ValueError(f"{value!r} has an exponent beyond {EXPONENT_LIMIT}")
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    if cls is int or cls is Fraction:
        return value
    if cls is float:
        return Fraction(repr(value))
    raise ValueError(f"cannot interpret {value!r} as an exact number")


def as_fraction(value) -> Fraction:
    """:func:`exact_number` as a Fraction."""
    return Fraction(x) if (x := exact_number(value)).__class__ is int else x


def scaled_to_ints(weights) -> tuple[tuple[int, ...], int]:
    """Exact rational weights times the LCM of their denominators, as ints,
    and that LCM: a positive scaling, which keeps every comparison and tie."""
    ratios = [x.as_integer_ratio() for x in weights]
    scale = lcm(*(dens := {d for _, d in ratios}))
    factor = {d: scale // d for d in dens}
    return tuple([p * factor[d] for p, d in ratios]), scale


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in constructor order in ``_fields`` and
    sets each one once in its ``__init__`` with ``object.__setattr__``.
    Equality (with the same class only), the hash, the
    ``Name(field=value, ...)`` repr and pickling all follow the fields;
    assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Multigraph(Frozen):
    """Undirected multigraph, immutable after construction.

    Build instances through :func:`build_graph`, which validates
    endpoints, weights and the loop policy.  Instances keep a
    ``__dict__``: the cached properties below and
    :func:`orientopt.objectives.resolved` store their results there.
    """

    _fields = ("n", "edges", "weights", "allow_loops")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 weights: tuple[Fraction, ...] | None = None, allow_loops: bool = False):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "allow_loops", allow_loops)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex; a loop appears once."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for j, (u, v) in enumerate(self.edges):
            inc[u].append(j)
            if v != u:
                inc[v].append(j)
        return tuple(tuple(ids) for ids in inc)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees; a loop adds exactly one."""
        return tuple(len(ids) for ids in self.incident)

    @cached_property
    def int_weights(self) -> tuple[tuple[int, ...], int]:
        """:func:`scaled_to_ints` of the weights; unit weights if there are none."""
        return ((1,) * self.m, 1) if self.weights is None else scaled_to_ints(self.weights)

    @cached_property
    def int_weighted_degrees(self) -> tuple[int, ...]:
        """Weighted degrees in units of 1/scale of :attr:`int_weights`."""
        w = self.int_weights[0]
        return tuple(sum(map(w.__getitem__, ids)) for ids in self.incident)

    @cached_property
    def loop_counts(self) -> tuple[int, ...]:
        cnt = [0] * self.n
        for u, v in self.edges:
            if u == v:
                cnt[u] += 1
        return tuple(cnt)

    @cached_property
    def neighbor_counts(self) -> tuple[dict[int, int], ...]:
        """Per vertex, multiplicity of each non-loop neighbor."""
        nbr: list[dict[int, int]] = [{} for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                nbr[u][v] = nbr[u].get(v, 0) + 1
                nbr[v][u] = nbr[v].get(u, 0) + 1
        return tuple(nbr)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @cached_property
    def has_loops(self) -> bool:
        return any(u == v for u, v in self.edges)

    @cached_property
    def is_simple(self) -> bool:
        if self.has_loops:
            return False
        return all(c == 1 for nbr in self.neighbor_counts for c in nbr.values())

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if v == u else u


def build_graph(n: int, edges: Iterable, weights=None, allow_loops: bool = False) -> Multigraph:
    """Validating constructor for :class:`Multigraph`.

    ``edges`` is an iterable of endpoint pairs.  ``weights``, if given,
    must supply one non-negative rational per edge (an int, Fraction,
    float or string, read by :func:`exact_number`).  Loops are rejected
    unless ``allow_loops`` is set.
    """
    if n.__class__ is not int or n < 0:
        raise ValueError(f"vertex count must be a non-negative integer, not {n!r}")
    edge_list: list[tuple[int, int]] = []
    for pos, e in enumerate(edges):
        u, v = e
        if u.__class__ is not int or v.__class__ is not int:
            raise ValueError(f"edge {pos} endpoints must be integers, not ({u!r}, {v!r})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {pos} endpoint out of range: ({u}, {v})")
        if u == v and not allow_loops:
            raise ValueError(f"edge {pos} is a loop at {u}, but loops are not enabled")
        edge_list.append((u, v))
    wt: tuple[Fraction, ...] | None = None
    if weights is not None:
        wlist = [as_fraction(w) for w in weights]
        if len(wlist) != len(edge_list):
            raise ValueError("weight count does not match edge count")
        for pos, w in enumerate(wlist):
            if w < 0:
                raise ValueError(f"edge {pos} has negative weight {w}")
        wt = tuple(wlist)
    return Multigraph(n, tuple(edge_list), wt, allow_loops)


class Orientation(Frozen):
    """Head endpoint per edge id."""

    __slots__ = _fields = ("heads",)

    def __init__(self, heads: tuple[int, ...]):
        object.__setattr__(self, "heads", heads)


class DegreeVector(Frozen):
    """Indegree/outdegree (or left/right degree) per vertex."""

    __slots__ = _fields = ("indeg", "outdeg")

    def __init__(self, indeg: tuple, outdeg: tuple):
        object.__setattr__(self, "indeg", indeg)
        object.__setattr__(self, "outdeg", outdeg)


def check_order(graph: Multigraph, order: Sequence[int]) -> tuple[int, ...]:
    """The order as a tuple, once checked in O(n) to hold every vertex id
    exactly once; an entry that is not an int (a bool, say) is rejected."""
    order = tuple(order)
    n = graph.n
    if len(order) != n or set(order) != set(range(n)) or not set(map(type, order)) <= {int}:
        raise ValueError("order is not a permutation of the vertices")
    return order


def check_orientation(graph: Multigraph, orientation: Orientation) -> None:
    heads = orientation.heads
    if len(heads) != graph.m:
        raise ValueError("orientation does not cover every edge")
    for j, (u, v) in enumerate(graph.edges):
        if u == v:
            raise ValueError("graphs with loops cannot be oriented")
        if heads[j] != u and heads[j] != v:
            raise ValueError(f"head of edge {j} is not one of its endpoints")


def _int_indegrees(graph: Multigraph, heads, weighted: bool) -> list[int]:
    """Per vertex, the number of edges whose head it is; with ``weighted``,
    the sum of their :attr:`Multigraph.int_weights` instead."""
    indeg = [0] * graph.n
    for h, x in zip(heads, graph.int_weights[0] if weighted else (1,) * graph.m):
        indeg[h] += x
    return indeg


def _degree_vector(graph: Multigraph, heads, weighted: bool) -> DegreeVector:
    """In/out degrees given the vertex each edge counts in for; weighted
    ones sum :attr:`Multigraph.int_weights` and divide once per vertex."""
    indeg = _int_indegrees(graph, heads, weighted)
    total = graph.int_weighted_degrees if weighted else graph.degrees
    outdeg = tuple(t - x for t, x in zip(total, indeg))
    if weighted:
        scale = graph.int_weights[1]
        return DegreeVector(*(tuple(Fraction(x, scale) for x in xs) for xs in (indeg, outdeg)))
    return DegreeVector(tuple(indeg), outdeg)


def degrees_of_order(graph: Multigraph, order: Sequence[int], weighted: bool = False) -> DegreeVector:
    """Left/right degrees of a vertex order.

    The left degree counts edges to earlier vertices; a loop contributes
    exactly one to the left degree of its vertex.  With ``weighted``,
    counts become weight sums.
    """
    return _degree_vector(graph, _order_heads(graph, check_order(graph, order)), weighted)


def _order_heads(graph: Multigraph, order: Sequence[int]) -> tuple[int, ...]:
    """The later endpoint of every edge in an order already known to be
    valid; a loop's endpoints share a position, so it counts for u."""
    pos = [0] * graph.n
    for i, v in enumerate(order):
        pos[v] = i
    return tuple([v if pos[u] < pos[v] else u for u, v in graph.edges])


def orientation_of_order(graph: Multigraph, order: Sequence[int]) -> Orientation:
    """Direct every edge from its earlier endpoint to its later one."""
    order = check_order(graph, order)
    if graph.has_loops:
        raise ValueError("graphs with loops cannot be oriented")
    return Orientation(_order_heads(graph, order))


def degrees_of_orientation(graph: Multigraph, orientation: Orientation, weighted: bool = False) -> DegreeVector:
    check_orientation(graph, orientation)
    return _degree_vector(graph, orientation.heads, weighted)


def is_acyclic(graph: Multigraph, orientation: Orientation) -> bool:
    return topological_order(graph, orientation) is not None


def topological_order(graph: Multigraph, orientation: Orientation):
    """Topological order of an oriented graph, or None if it has a
    directed cycle.  Ties go to the lowest vertex id."""
    check_orientation(graph, orientation)
    indeg = [0] * graph.n
    out: list[list[int]] = [[] for _ in range(graph.n)]
    for j, head in enumerate(orientation.heads):
        tail = graph.other_end(j, head)
        out[tail].append(head)
        indeg[head] += 1
    ready = [v for v in range(graph.n) if indeg[v] == 0]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(ready, w)
    if len(order) != graph.n:
        return None
    return tuple(order)


def is_connected(graph: Multigraph) -> bool:
    return graph.n == 0 or len(_lowpoints(graph, 0)[0]) == graph.n


def _lowpoints(graph: Multigraph, root: int, first: int = -1):
    """Iterative depth-first search from ``root``: the vertices it reaches
    in preorder, each vertex's parent (-1 for the root and for vertices
    not reached) and each reached vertex's lowpoint, the earliest vertex
    in preorder that its subtree reaches by at most one back edge.

    Only the tree edge into a vertex is skipped, by id, so a parallel
    copy of it is a back edge; a loop is never a tree or a back edge.
    With ``first`` set, the search leaves ``root`` first for that vertex,
    as if by an extra edge joining them; every real edge between the two
    is then a back edge.  With ``root`` -1 the search covers every
    component, each from its lowest vertex, and every component's first
    vertex has parent -1.
    """
    edges = graph.edges
    incident = graph.incident
    num = [-1] * graph.n  # preorder number, -1 until reached
    low = [0] * graph.n  # lowpoint as a preorder number
    parent = [-1] * graph.n
    order = []
    for r in range(graph.n) if root < 0 else (root,):
        if num[r] >= 0:
            continue
        num[r] = low[r] = len(order)
        order.append(r)
        stack = [(r, -1, iter(incident[r]))]
        if first >= 0:
            num[first] = low[first] = 1
            parent[first] = r
            order.append(first)
            stack.append((first, -1, iter(incident[first])))
        while stack:
            v, tree_edge, rest = stack[-1]
            lv = low[v]
            for j in rest:
                a, b = edges[j]
                u = b if a == v else a
                k = num[u]
                if k < 0:
                    num[u] = low[u] = len(order)
                    parent[u] = v
                    order.append(u)
                    stack.append((u, j, iter(incident[u])))
                    break
                if k < lv and j != tree_edge:
                    lv = k
            else:
                stack.pop()
                p = parent[v]
                if p >= 0 and lv < low[p]:
                    low[p] = lv
            low[v] = lv
    return order, parent, [order[k] for k in low]


# ---------------------------------------------------------------------------
# Blocks (biconnected components) and the block-cut tree.


class Block(Frozen):
    __slots__ = _fields = ("vertices", "edge_ids")

    def __init__(self, vertices: tuple[int, ...], edge_ids: tuple[int, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edge_ids", edge_ids)


class BlockTree(Frozen):
    """Biconnected components of a graph plus its cut vertices.

    ``block_cuts[i]`` lists the cut vertices lying in block ``i``; a block
    with exactly one cut vertex is an end component, and a biconnected
    graph yields a single block with none.
    """

    __slots__ = _fields = ("blocks", "cut_vertices", "block_cuts")

    def __init__(self, blocks: tuple[Block, ...], cut_vertices: frozenset[int],
                 block_cuts: tuple[tuple[int, ...], ...] = ()):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "cut_vertices", cut_vertices)
        object.__setattr__(self, "block_cuts", block_cuts)

    def is_end_component(self, i: int) -> bool:
        return len(self.block_cuts[i]) == 1

    def rooted(self, root: int = -1) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each block's parent cut vertex (-1 for a root) and the blocks
        in a post-order, each after every block below it.

        Block ``root`` roots its component; every other component is
        rooted at its largest block, the lowest index among equals.  From
        each root, a walk takes a block off a stack and lists, by cut
        vertex and then by index, the blocks that share a cut vertex with
        it and are not listed yet, pushing each.  The post-order is that
        listing reversed.  No recursion: a chain of blocks can be long.
        """
        blocks, block_cuts = self.blocks, self.block_cuts
        at: dict[int, list[int]] = {}  # cut vertex -> the blocks holding it
        for bi, cuts in enumerate(block_cuts):
            for c in cuts:
                at.setdefault(c, []).append(bi)
        parent = [-1] * len(blocks)
        listed = [False] * len(blocks)
        walk: list[int] = []
        by_size = sorted(range(len(blocks)), key=lambda bi: -len(blocks[bi].vertices))
        for r in [root] + by_size if root >= 0 else by_size:
            if listed[r]:
                continue
            listed[r] = True
            walk.append(r)
            stack = [r]
            while stack:
                bi = stack.pop()
                for c in block_cuts[bi]:
                    if c == parent[bi]:  # its blocks are listed
                        continue
                    for bj in at[c]:
                        if not listed[bj]:
                            listed[bj] = True
                            parent[bj] = c
                            walk.append(bj)
                            stack.append(bj)
        walk.reverse()
        return tuple(parent), tuple(walk)


def _split(graph: Multigraph, lone: bool) -> tuple[BlockTree, int]:
    """The blocks of every component, loops left out, and the number of
    components; with ``lone``, a vertex without a non-loop edge is a
    block of its own, without edges.

    One lowpoint search over all components labels the edges.  The tree
    edge into v starts a new block when v's subtree reaches nothing
    above v's parent; otherwise it joins the block of the parent's tree
    edge.  Every other non-loop edge joins the block of the tree edge
    into its later endpoint in preorder, so parallel edges share a block.
    """
    n = graph.n
    order, parent, low = _lowpoints(graph, -1)
    num = [0] * n
    for i, v in enumerate(order):
        num[v] = i
    label = [0] * n  # block of the tree edge into each vertex
    members: list[list[int]] = []  # per block: its top vertex, then the lower ends
    tops = [0] * n  # the number of blocks each vertex tops
    for v in order:
        p = parent[v]
        if p < 0:
            continue
        if num[low[v]] >= num[p]:
            label[v] = len(members)
            members.append([p, v])
            tops[p] += 1
        else:
            label[v] = label[p]
            members[label[p]].append(v)
    edge_ids: list[list[int]] = [[] for _ in members]
    for j, (u, v) in enumerate(graph.edges):
        if u != v:
            edge_ids[label[u if num[u] > num[v] else v]].append(j)
    roots = [v for v in order if parent[v] < 0]
    if lone:
        members += [[r] for r in roots if not tops[r]]
        edge_ids += [[] for r in roots if not tops[r]]
    blocks = sorted(
        (Block(tuple(sorted(vs)), tuple(ids)) for vs, ids in zip(members, edge_ids)),
        key=lambda b: b.vertices,
    )
    # a vertex other than a component's first is a cut vertex iff it tops
    # a block; the first vertex is one iff it tops two
    for r in roots:
        tops[r] -= 1
    cuts = frozenset(v for v in range(n) if tops[v] > 0)
    block_cuts = tuple(tuple(v for v in b.vertices if v in cuts) for b in blocks)
    return BlockTree(tuple(blocks), cuts, block_cuts), len(roots)


def block_tree(graph: Multigraph) -> BlockTree:
    """Decompose a connected loop-free graph into blocks (see :func:`_split`)."""
    if graph.has_loops:
        raise ValueError("block decomposition requires a loop-free graph")
    bt, components = _split(graph, lone=False)
    if components > 1:
        raise ValueError("block decomposition requires a connected graph")
    return bt


def block_forest(graph: Multigraph) -> BlockTree:
    """The blocks of every component of any graph, loops left out; a
    vertex without a non-loop edge is a block of its own, without edges.
    :meth:`BlockTree.rooted` roots it."""
    return _split(graph, lone=True)[0]


def subgraph(graph: Multigraph, vertices: Sequence[int], edge_ids: Sequence[int]):
    """Relabelled subgraph plus the local-to-global vertex map; the graph
    itself when the selection is every vertex and every edge, in id order."""
    if (len(vertices) == graph.n and len(edge_ids) == graph.m
            and all(map(eq, vertices, range(graph.n))) and all(map(eq, edge_ids, range(graph.m)))):
        return graph, tuple(vertices)  # keeps its cached properties
    vmap = {v: i for i, v in enumerate(vertices)}
    edges = [(vmap[graph.edges[j][0]], vmap[graph.edges[j][1]]) for j in edge_ids]
    wt = None if graph.weights is None else tuple(graph.weights[j] for j in edge_ids)
    return Multigraph(len(vertices), tuple(edges), wt, graph.allow_loops), tuple(vertices)


# ---------------------------------------------------------------------------
# s-t orders of biconnected graphs.


def st_order(graph: Multigraph, s: int, t: int) -> tuple[int, ...]:
    """Order starting at ``s`` and ending at ``t`` in which every other
    vertex has both an earlier and a later neighbor.

    Requires a biconnected graph (a single edge counts).  Any pair
    ``s != t`` works; when they are not adjacent the computation runs on
    the graph plus a virtual s-t edge, which changes nothing about the
    postcondition on real edges.
    """
    n = graph.n
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError("need two distinct vertices of the graph")
    if graph.has_loops:
        raise ValueError("s-t orders are defined for loop-free graphs")
    if len(block_tree(graph).blocks) != 1:
        raise ValueError("graph is not biconnected")
    return _st_order(graph, s, t)


def _st_order(graph: Multigraph, s: int, t: int) -> tuple[int, ...]:
    """:func:`st_order` on a graph already known to be loop-free and
    biconnected, with s != t among its vertices.

    Tarjan's list insertion (1986, after Ebert 1983): search from s with
    s-t as the first tree edge, start the list at s, t with s marked "-",
    and take every other vertex in preorder.  It goes just before its
    parent when its lowpoint is marked "-" and just after it otherwise;
    the parent then gets the opposite mark.
    """
    n = graph.n
    if n == 2:
        return (s, t)
    preorder, parent, low = _lowpoints(graph, s, t)
    nxt = [-1] * n  # the list, doubly linked
    prv = [-1] * n
    nxt[s], prv[t] = t, s
    minus = [False] * n
    minus[s] = True
    for v in preorder[2:]:
        p = parent[v]
        if minus[low[v]]:
            a = prv[p]
            nxt[a], prv[v], nxt[v], prv[p] = v, a, p, v
            minus[p] = False
        else:
            b = nxt[p]
            nxt[p], prv[v], nxt[v], prv[b] = v, p, b, v
            minus[p] = True
    order = [s]
    for _ in range(n - 1):
        order.append(nxt[order[-1]])
    order = tuple(order)

    dv = degrees_of_order(graph, order)
    ok = order[0] == s and order[-1] == t
    for v in range(n):
        if v != s and v != t and graph.degrees[v] >= 2:
            ok = ok and dv.indeg[v] >= 1 and dv.outdeg[v] >= 1
    if not ok:
        raise RuntimeError("internal error: produced order is not an s-t order")
    return order
