"""Objectives over indegree vectors.

Separable objectives sum a per-vertex cost ``phi(indeg(v))``; costs are
evaluated exactly (ints and Fractions, never floats).  Degree bounds
``f <= indeg <= g`` are folded into the cost through a symbolic
big-M lift: a :class:`LiftedCost` carries the number of violated bound
units separately from the finite cost, and compares lexicographically,
so any bound violation outweighs every finite cost difference.

Lexicographic objectives compare the sorted indegree sequence itself;
the acyclic subset DP reaches them through ``n**z`` power-sum encodings.
A request resolves a ``phi_sum`` objective once, see :func:`resolved`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import total_ordering
from itertools import repeat
from typing import Sequence

from .graph import DegreeVector, Frozen, Multigraph, exact_number


@total_ordering
class LiftedCost(Frozen):
    """Cost with a bound-violation part and a finite part.

    ``penalty`` counts units outside the degree bounds; ``base`` is the
    cost at the clamped argument.  Ordering is lexicographic, so these
    behave like ``penalty * M + base`` for an arbitrarily large M.
    """

    __slots__ = _fields = ("penalty", "base")

    def __init__(self, penalty: int, base):  # base: int | Fraction
        object.__setattr__(self, "penalty", penalty)
        object.__setattr__(self, "base", base)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.penalty, self.base) < (other.penalty, other.base)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, LiftedCost):
            return LiftedCost(self.penalty + other.penalty, self.base + other.base)
        return NotImplemented

    def __radd__(self, other):
        if other == 0:  # so sum() works
            return self
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, LiftedCost):
            return LiftedCost(self.penalty - other.penalty, self.base - other.base)
        return NotImplemented

    def __neg__(self):
        return LiftedCost(-self.penalty, -self.base)

    @property
    def feasible(self) -> bool:
        return self.penalty == 0


# each cost kind's parameters, by their names in a JSON spec; a table
# takes its values as its parameters, one or more
PHI_PARAMS = {"square": (), "cube": (), "binom2": (), "zero": (), "abs_balance": ("d",),
              "exp_base": ("base",), "neg_exp_base": ("base",), "linear": ("a", "b"),
              "table": ("values",)}
PHI_KINDS = frozenset(PHI_PARAMS)


class PhiSpec(Frozen):
    """A per-vertex cost function on indegrees, evaluated exactly.  Its
    parameters are ints, None or Fractions (see :func:`exact_number`), as
    many as :data:`PHI_PARAMS` names; their ranges are checked by the
    named constructors below."""

    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params=()):
        names = PHI_PARAMS.get(kind) if kind.__class__ is str else None
        if names is None:
            raise ValueError(f"unknown cost kind {kind!r}")
        params = tuple(params)
        if kind == "table":
            if not params:
                raise ValueError("`table` needs a non-empty `values` list")
        elif len(params) != len(names):
            raise ValueError(f"`{kind}` takes {len(names)} parameter(s), not {len(params)}")
        for x in params:
            if not (x is None or x.__class__ is int or x.__class__ is Fraction):
                params = tuple([y if y is None else exact_number(y) for y in params])
                break
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __call__(self, z: int):
        k = self.kind
        if k == "square":
            return z * z
        if k == "cube":
            return z ** 3
        if k == "binom2":
            return z * (z - 1) // 2
        if k == "abs_balance":
            d = self.params[0]
            if d is None:
                raise ValueError("abs_balance needs a degree; resolve against a graph first")
            return abs(2 * z - d)
        if k == "exp_base":
            return self.params[0] ** z
        if k == "neg_exp_base":
            return Fraction(1, self.params[0] ** z)
        if k == "linear":
            a, b = self.params
            return a * z + b
        if k == "zero":
            return 0
        values = self.params  # a table
        if not 0 <= z < len(values):
            raise ValueError(f"table cost has no entry for indegree {z}")
        return values[z]


def square() -> PhiSpec:
    return PhiSpec("square")


def cube() -> PhiSpec:
    return PhiSpec("cube")


def binom2() -> PhiSpec:
    return PhiSpec("binom2")


def abs_balance(d: int | None = None) -> PhiSpec:
    """|2z - d|; with d left None the vertex degree is filled in later,
    making the sum count total orientation imbalance."""
    if d is not None and (d.__class__ is not int or d < 0):
        raise ValueError("`d` must be a non-negative integer")
    return PhiSpec("abs_balance", (d,))


def _base_params(b) -> tuple[int]:
    if b.__class__ is not int or b < 2:
        raise ValueError("`base` must be an integer >= 2")
    return (b,)


def exp_base(b: int) -> PhiSpec:
    return PhiSpec("exp_base", _base_params(b))


def neg_exp_base(b: int) -> PhiSpec:
    return PhiSpec("neg_exp_base", _base_params(b))


def linear(a, b=0) -> PhiSpec:
    return PhiSpec("linear", (a, b))


def zero() -> PhiSpec:
    return PhiSpec("zero")


def table(values: Sequence) -> PhiSpec:
    return PhiSpec("table", values)


class LiftedPhi(Frozen):
    """Cost spec with optional degree bounds, producing LiftedCost values.

    Inside ``[f, g]`` the cost is the spec itself with zero penalty;
    outside, the argument is clamped and each unit of violation adds one
    penalty unit.
    """

    __slots__ = _fields = ("spec", "f", "g")

    def __init__(self, spec: PhiSpec, f: int | None = None, g: int | None = None):
        if spec.__class__ is not PhiSpec:
            raise ValueError(f"a lifted cost needs a PhiSpec, not {spec!r}")
        if not (f is None or f.__class__ is int) or not (g is None or g.__class__ is int):
            raise ValueError(f"a degree bound must be None or an integer, not f={f!r}, g={g!r}")
        if f is not None:
            if f < 0:
                raise ValueError("lower degree bound must be non-negative")
            if g is not None and f > g:
                raise ValueError(f"empty degree interval: f={f} > g={g}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def parts(self, z: int) -> tuple:
        """``(penalty, base)`` of :meth:`cost`, as plain numbers."""
        penalty = 0
        if self.f is not None and z < self.f:
            penalty += self.f - z
            z = self.f
        if self.g is not None and z > self.g:
            penalty += z - self.g
            z = self.g
        return penalty, self.spec(z)

    def cost(self, z: int) -> LiftedCost:
        return LiftedCost(*self.parts(z))


# ---------------------------------------------------------------------------
# Objectives.


class PhiSum(Frozen):
    """Minimize the sum of per-vertex (optionally bounded) costs: one
    ``shared`` cost or one per vertex, each a PhiSpec or a LiftedPhi."""

    __slots__ = _fields = ("shared", "per_vertex", "f", "g")
    kind = "phi_sum"

    def __init__(self, shared: PhiSpec | LiftedPhi | None = None,
                 per_vertex: Sequence[PhiSpec | LiftedPhi] | None = None,
                 f=None, g=None):
        if (shared is None) == (per_vertex is None):
            raise ValueError("need exactly one of a shared and a per-vertex cost")
        classes = {shared.__class__} if per_vertex is None else {e.__class__ for e in per_vertex}
        if not classes <= {PhiSpec, LiftedPhi}:
            raise ValueError("each cost must be a PhiSpec or a LiftedPhi")
        if not all(b is None or b.__class__ is int or isinstance(b, (tuple, list))
                   and all(x is None or x.__class__ is int for x in b) for b in (f, g)):
            raise ValueError("a degree bound must be None, an integer or one per vertex")
        if LiftedPhi in classes and (f is not None or g is not None):
            raise ValueError("shared degree bounds clash with lifted costs")
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "per_vertex", per_vertex)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def resolve(self, graph: Multigraph) -> tuple[LiftedPhi, ...]:
        """Each vertex's lifted cost, ``abs_balance()`` at the vertex's
        degree.  Vertices with the same spec object, bounds and, for
        ``abs_balance()``, degree share one LiftedPhi, which
        :func:`build_network` then prices once."""
        n = graph.n
        if self.per_vertex is not None and len(self.per_vertex) != n:
            raise ValueError("need one cost spec per vertex")
        columns = [repeat(self.shared, n) if self.per_vertex is None else self.per_vertex]
        for bound in (self.f, self.g):
            if bound is None or isinstance(bound, int):
                columns.append(repeat(bound, n))
            elif len(bound) != n:
                raise ValueError("need one degree bound per vertex")
            else:
                columns.append(bound)
        # with every column repeated, every vertex has the first one's key
        same = all(c.__class__ is repeat for c in columns) and self.shared != abs_balance()
        memo: dict = {}
        out = []
        for v, (entry, f, g) in enumerate(zip(*columns)):
            if entry.__class__ is LiftedPhi:  # no shared bounds, see __init__
                out.append(entry)
                continue
            d = graph.degrees[v] if entry.kind == "abs_balance" and entry.params[0] is None else None
            key = (id(entry), f, g, d)
            phi = memo.get(key)
            if phi is None:
                phi = memo[key] = LiftedPhi(entry if d is None else abs_balance(d), f, g)
            if same:
                return (phi,) * n
            out.append(phi)
        return tuple(out)


def resolved(objective: PhiSum, graph: Multigraph) -> tuple[LiftedPhi, ...]:
    """``objective.resolve(graph)``, kept on the graph like its cached
    properties: one slot, keyed by the objective's identity, so that
    every consumer of a request's objective shares one resolve."""
    memo = graph.__dict__.get("_resolved")
    if memo is None or memo[0] is not objective:
        memo = graph.__dict__["_resolved"] = (objective, objective.resolve(graph))
    return memo[1]


class DecMin(Frozen):
    """Lexicographically minimize the non-increasing sorted indegrees."""

    __slots__ = ()
    kind = "dec_min"


class IncMax(Frozen):
    """Lexicographically maximize the non-decreasing sorted indegrees."""

    __slots__ = ()
    kind = "inc_max"


class IncMin(Frozen):
    """Lexicographically minimize the non-decreasing sorted indegrees."""

    __slots__ = ()
    kind = "inc_min"


class DecMax(Frozen):
    """Lexicographically maximize the non-increasing sorted indegrees."""

    __slots__ = ()
    kind = "dec_max"


class RhoDeltaSum(Frozen):
    """Maximize the sum of indegree times outdegree."""

    __slots__ = ()
    kind = "rho_delta_sum"


class MaxWeightedIndeg(Frozen):
    """Minimize the maximum weighted indegree."""

    __slots__ = ()
    kind = "max_weighted_indeg"


class ForbiddenSubpaths(Frozen):
    """Minimize the number of two-arc directed paths, sum of C(indeg, 2).

    At fixed edge count this induces the same preorder as the square sum.
    """

    __slots__ = ()
    kind = "forbidden_subpaths"


def _sum_parts(phis: Sequence[LiftedPhi], indeg) -> LiftedCost:
    """Sum of ``phi.parts(z)`` over the vertices, exactly.  A cost shared by
    every vertex runs once per distinct indegree; an unbounded linear one
    adds a * z and b, not a * z + b.  Fraction terms
    add numerators per denominator, so the base is a Fraction iff a term is."""
    times = repeat(1)
    if len(indeg) == len(phis) > 0 and all(phi is phis[0] for phi in phis):
        counts = Counter(indeg)
        phis, indeg, times = repeat(phis[0]), counts.keys(), counts.values()
    penalty = whole = 0
    sums: dict[int, int] = {}  # numerators of the Fraction terms, per denominator

    def add(x, count):
        nonlocal whole
        if isinstance(x, int):
            whole += x * count
        else:
            num, den = x.as_integer_ratio()
            sums[den] = sums.get(den, 0) + num * count

    for phi, z, c in zip(phis, indeg, times):
        spec = phi.spec
        if spec.kind == "linear" and phi.f is None and phi.g is None:
            a, b = spec.params
            add(a, z * c)
            add(b, c)
            continue
        p, x = phi.parts(z)
        penalty += p * c
        add(x, c)
    base = whole + sum(Fraction(x, d) for d, x in sums.items()) if sums else whole
    return LiftedCost(penalty, base)


def evaluate(objective, graph: Multigraph, dv: DegreeVector):
    """Natural key of a degree vector under an objective.

    For ``max_weighted_indeg`` pass a weighted degree vector.  Smaller
    is better for some kinds and larger for others.
    """
    k = objective.kind
    indeg = dv.indeg
    if k == "phi_sum":
        return _sum_parts(resolved(objective, graph), indeg)
    if k in ("dec_min", "dec_max"):
        return tuple(sorted(indeg, reverse=True))
    if k in ("inc_max", "inc_min"):
        return tuple(sorted(indeg))
    if k == "rho_delta_sum":
        return sum(i * o for i, o in zip(indeg, dv.outdeg))
    if k == "max_weighted_indeg":
        return max(indeg, default=0)
    if k == "forbidden_subpaths":
        return sum(z * (z - 1) // 2 for z in indeg)
    raise ValueError(f"unknown objective kind {k!r}")
