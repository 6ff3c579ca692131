"""Parsing and serialization: graph files, objective specs, report values.

Graph text format: a header line ``n m [weighted] [loops]`` followed by
m lines ``u v [w]`` with 0-based endpoints; weights are decimals or
``p/q``.  ``#`` starts a comment.  A JSON document with fields ``n``,
``edges`` (``[u, v]`` or ``[u, v, w]`` triples) and optional
``allow_loops`` is accepted interchangeably.

Objective specs are JSON objects keyed by ``kind`` — cost shapes like
``{"kind": "square"}`` (shorthand for a shared cost sum), ``phi_sum``
with ``shared`` or ``per_vertex`` costs plus optional ``f``/``g`` degree
bounds, or the key objectives ``dec_min``, ``inc_max``, ``inc_min``,
``dec_max``, ``rho_delta_sum``, ``max_weighted_indeg``,
``forbidden_subpaths``.  A bare kind name is also accepted.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import eq

from .graph import Multigraph, build_graph, exact_number
from . import objectives as obj


class FormatError(ValueError):
    """Parse failure carrying a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_KEY_OBJECTIVES = {o.kind: o for o in (obj.DecMin, obj.IncMax, obj.IncMin, obj.DecMax,
                                        obj.RhoDeltaSum, obj.MaxWeightedIndeg,
                                        obj.ForbiddenSubpaths)}

# the fields each kind of JSON object may have
_GRAPH_FIELDS = frozenset(("n", "edges", "allow_loops"))
_KEY_FIELDS = frozenset(("kind",))
_PHI_SUM_FIELDS = frozenset(("kind", "shared", "per_vertex", "f", "g"))
_ENTRY_FIELDS = {kind: frozenset(("kind", "f", "g") + names)
                 for kind, names in obj.PHI_PARAMS.items()}


def _at(message: str, lines: list[str], lineno: int, k: int) -> FormatError:
    """A FormatError at the k-th token of a line; columns are found on errors only."""
    starts = [m.start() + 1 for m in re.finditer(r"\S+", lines[lineno - 1])]
    return FormatError(message, lineno, starts[k])


def _not_an_int(lines: list[str], lineno: int, toks: list[str]) -> FormatError:
    """The FormatError for the first of ``toks`` that is no integer."""
    for k, tok in enumerate(toks):
        try:
            int(tok)
        except ValueError:
            return _at(f"expected an integer, got {tok!r}", lines, lineno, k)


def parse_graph_text(text: str) -> Multigraph:
    """Check the header, then the edge lines a column at a time: one split,
    and one ``int`` or :func:`exact_number` per distinct token, so equal ids
    share one int object.  On a failed check :func:`_locate` finds the line."""
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if header := raw.split("#", 1)[0].split():
            break
    else:
        raise FormatError("empty graph file", len(lines) or 1, 1)
    if len(header) < 2:
        raise _at("header needs `n m`", lines, lineno, 0)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise _not_an_int(lines, lineno, header[:2]) from None
    if n < 0:
        raise _at("vertex count must be non-negative", lines, lineno, 0)
    if m < 0:
        raise _at("edge count must be non-negative", lines, lineno, 1)
    for k, tok in enumerate(header[2:], start=2):
        if tok not in ("weighted", "loops"):
            raise _at(f"unknown header flag {tok!r}", lines, lineno, k)
    weighted = "weighted" in header[2:]
    allow_loops = "loops" in header[2:]
    want = 3 if weighted else 2
    body = [raw.split("#", 1)[0] for raw in lines[lineno:]] if "#" in text else lines[lineno:]
    toks, fields = "\n".join(body).split(), set(map(len, map(str.split, body)))
    del lines, body  # the largest objects at the size budget; a failure splits text again
    try:
        if len(toks) != want * m or not fields <= {0, want}:
            raise ValueError("a line without the header's field count")
        keys = {*toks[0::want], *toks[1::want]}
        ids = dict(zip(keys, map(int, keys)))
        if ids and not (min(ids.values()) >= 0 and max(ids.values()) < n):
            raise ValueError("an endpoint out of range")
        us, vs = list(map(ids.__getitem__, toks[0::want])), list(map(ids.__getitem__, toks[1::want]))
        if not allow_loops and any(map(eq, us, vs)):
            raise ValueError("a loop")
        weights = None
        if weighted:
            keys = set(toks[2::3])
            values = dict(zip(keys, map(exact_number, keys)))
            if values and min(values.values()) < 0:
                raise ValueError("a negative weight")
            weights = tuple(map(values.__getitem__, toks[2::3]))
        del toks, keys
    except ValueError:
        raise _locate(text.splitlines(), lineno, n, m, want, allow_loops) from None
    return Multigraph(n, tuple(zip(us, vs)), weights, allow_loops)


def _locate(lines, lineno, n, m, want, allow_loops) -> FormatError:
    """The error of the first bad field below the header on line ``lineno``."""
    rows = [(i, toks) for i, raw in enumerate(lines[lineno:], start=lineno + 1)
            if (toks := raw.split("#", 1)[0].split())]
    if len(rows) != m:
        where = rows[m][0] if len(rows) > m else lineno
        return FormatError(f"header promises {m} edges but the file has {len(rows)}", where, 1)
    for lineno, toks in rows:
        if len(toks) != want:
            return _at(f"edge line needs {want} fields, got {len(toks)}",
                       lines, lineno, min(want, len(toks) - 1))
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            return _not_an_int(lines, lineno, toks[:2])
        if not (0 <= u < n and 0 <= v < n):
            return _at(f"endpoint out of range for n={n}", lines, lineno, 0 if not 0 <= u < n else 1)
        if u == v and not allow_loops:
            return _at("loop found but the header has no `loops` flag", lines, lineno, 0)
        try:
            if want == 3 and exact_number(toks[2]) < 0:
                return _at("negative edge weight", lines, lineno, 2)
        except ValueError:
            return _at(f"bad number {toks[2]!r}", lines, lineno, 2)
    raise AssertionError("edge lines that fail a column check pass every line check")


def parse_graph_json(text: str) -> Multigraph:
    """Check the document's JSON shape; :func:`build_graph` checks the graph."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object")
    for field in ("n", "edges"):
        if field not in doc:
            raise FormatError(f"missing field {field!r}")
    if not doc.keys() <= _GRAPH_FIELDS:
        field = next(name for name in doc if name not in _GRAPH_FIELDS)
        raise FormatError(f"a JSON graph has no field {field!r}")
    allow_loops = doc.get("allow_loops", False)
    if not isinstance(allow_loops, bool):
        raise FormatError("`allow_loops` must be a boolean")
    if not isinstance(doc["edges"], list):
        raise FormatError("`edges` must be a list")
    edges = []
    weights = []
    seen: dict = {}
    arity = None
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise FormatError(f"edge {i} must be [u, v] or [u, v, w]")
        if arity is None:
            arity = len(e)
        elif len(e) != arity:
            raise FormatError("either all edges carry weights or none do")
        edges.append(e[:2])
        if arity == 3:
            weights.append(_json_rational(e[2], seen, f"edge {i} weight"))
    try:
        return build_graph(doc["n"], edges, weights if arity == 3 else None, allow_loops)
    except ValueError as e:
        raise FormatError(str(e)) from None


def parse_graph(text: str) -> Multigraph:
    """Accept either the text or the JSON graph format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(e.msg, e.lineno, e.colno) from None


def _json_rational(value, seen: dict, what: str, field: str = ""):
    """A JSON number or ``"p/q"`` string, read by :func:`exact_number`: ints
    stay ints.  Strings are read once per document, through ``seen``;
    numbers are not kept, as JSON ``1`` and ``true`` are equal keys.
    ``what`` and ``field`` name the value, joined on failure only."""
    try:
        if value.__class__ is not str:
            return exact_number(value)
        x = seen.get(value)
        if x is None:
            x = seen[value] = exact_number(value)
        return x
    except ValueError:
        label = f"{what}: {field}" if field else what
        raise FormatError(f"{label} must be a number or 'p/q' string") from None


# ---------------------------------------------------------------------------
# Objective specs.


def _undefined_field(doc: dict, fields: frozenset, what: str) -> FormatError:
    """The FormatError naming the first field of ``doc`` not in ``fields``."""
    field = next(name for name in doc if name not in fields)
    return FormatError(f"{what}: `{doc['kind']}` has no field {field!r}")


def _parse_entry(doc, what: str, seen: dict):
    """A JSON cost entry, turned into numbers (through ``seen``, see
    :func:`_json_rational`) for its constructor, which checks it.  Inline
    ``f``/``g`` bounds lift it into a LiftedPhi, for its own vertex or,
    shared, for every vertex."""
    if isinstance(doc, str):
        doc = {"kind": doc}
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{what} must name a cost kind")
    kind = doc["kind"]
    fields = _ENTRY_FIELDS.get(kind) if kind.__class__ is str else None
    if fields is None:
        raise FormatError(f"{what}: unknown cost kind {kind!r}")
    if not doc.keys() <= fields:
        raise _undefined_field(doc, fields, what)
    try:
        if kind == "linear":
            a = _json_rational(doc.get("a", 0), seen, what, "`a`")
            b = _json_rational(doc.get("b", 0), seen, what, "`b`")
            spec = obj.linear(a, b)
        elif kind == "abs_balance":
            spec = obj.abs_balance(doc.get("d"))
        elif kind in ("exp_base", "neg_exp_base"):
            spec = (obj.exp_base if kind == "exp_base" else obj.neg_exp_base)(doc.get("base"))
        elif kind == "table":
            values = doc.get("values")
            if not isinstance(values, list):
                raise FormatError(f"{what}: `table` needs a non-empty `values` list")
            spec = obj.table([_json_rational(x, seen, what, f"values[{i}]") for i, x in enumerate(values)])
        else:
            spec = obj.PhiSpec(kind)  # square, cube, binom2, zero
        if "f" not in doc and "g" not in doc:
            return spec
        f = _parse_bound(doc.get("f"), f"{what}.f", entry=True)
        g = _parse_bound(doc.get("g"), f"{what}.g", entry=True)
        if isinstance(f, tuple) or isinstance(g, tuple):
            raise FormatError(f"{what} bounds must be plain integers")
        return obj.LiftedPhi(spec, f, g)
    except FormatError:
        raise
    except ValueError as e:
        raise FormatError(f"{what}: {e}") from None


def _parse_bound(value, what: str, entry: bool = False):
    """An f or g bound; a cost ``entry`` takes an int only, and says so."""
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, list):
        out = []
        for i, x in enumerate(value):
            if not isinstance(x, int) or isinstance(x, bool):
                raise FormatError(f"{what}[{i}] must be an integer")
            out.append(x)
        return tuple(out)
    raise FormatError(f"{what} must be an integer" + ("" if entry else " or a per-vertex list"))


def parse_objective(text: str):
    """Objective from a JSON spec or a bare kind name."""
    stripped = text.strip()
    doc = _load_json(stripped) if stripped.startswith("{") else {"kind": stripped}
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("objective spec must have a `kind`")
    kind = doc["kind"]
    if not isinstance(kind, str):
        raise FormatError(f"objective `kind` must be a string, not {kind!r}")
    if kind in _KEY_OBJECTIVES:
        if not doc.keys() <= _KEY_FIELDS:
            raise _undefined_field(doc, _KEY_FIELDS, "objective")
        return _KEY_OBJECTIVES[kind]()
    if kind in obj.PHI_KINDS:
        # a bare cost shape means: minimize its sum over all vertices
        return obj.PhiSum(shared=_parse_entry(doc, "objective", {}))
    if kind != "phi_sum":
        raise FormatError(f"unknown objective kind {kind!r}")
    if not doc.keys() <= _PHI_SUM_FIELDS:
        raise _undefined_field(doc, _PHI_SUM_FIELDS, "objective")
    shared = doc.get("shared")
    per_vertex = doc.get("per_vertex")
    if (shared is None) == (per_vertex is None):
        raise FormatError("phi_sum needs exactly one of `shared` / `per_vertex`")
    f = _parse_bound(doc.get("f"), "`f`")
    g = _parse_bound(doc.get("g"), "`g`")
    if per_vertex is None:
        return obj.PhiSum(shared=_parse_entry(shared, "`shared`", {}), f=f, g=g)
    if not isinstance(per_vertex, list):
        raise FormatError("`per_vertex` must be a list of cost specs")
    seen: dict = {}  # one document's, never shared across requests
    return obj.PhiSum(per_vertex=tuple([_parse_entry(p, f"per_vertex[{i}]", seen)
                                        for i, p in enumerate(per_vertex)]), f=f, g=g)


# ---------------------------------------------------------------------------
# Serialization.


def rational_to_json(x):
    """Exact value for a report: int when integral, else ``"p/q"``."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def key_to_json(key):
    if isinstance(key, obj.LiftedCost):
        return {"penalty": key.penalty, "base": rational_to_json(key.base)}
    if isinstance(key, tuple):
        return [int(z) for z in key]
    return rational_to_json(key)


def phi_to_json(spec) -> dict:
    if isinstance(spec, obj.LiftedPhi):
        raise ValueError("serialize the enclosing phi_sum instead")
    doc = {"kind": spec.kind}
    if spec.kind == "abs_balance" and spec.params[0] is not None:
        doc["d"] = spec.params[0]
    elif spec.kind in ("exp_base", "neg_exp_base"):
        doc["base"] = spec.params[0]
    elif spec.kind == "linear":
        doc["a"] = rational_to_json(spec.params[0])
        doc["b"] = rational_to_json(spec.params[1])
    elif spec.kind == "table":
        doc["values"] = [rational_to_json(x) for x in spec.params]
    return doc


def _entry_to_json(entry) -> dict:
    """A cost entry, with the inline bounds of a LiftedPhi."""
    if entry.__class__ is not obj.LiftedPhi:
        return phi_to_json(entry)
    doc = phi_to_json(entry.spec)
    if entry.f is not None:
        doc["f"] = entry.f
    if entry.g is not None:
        doc["g"] = entry.g
    return doc


def objective_to_json(objective) -> dict:
    if not isinstance(objective, obj.PhiSum):
        return {"kind": objective.kind}
    doc: dict = {"kind": "phi_sum"}
    if objective.per_vertex is not None:
        doc["per_vertex"] = [_entry_to_json(entry) for entry in objective.per_vertex]
    else:
        doc["shared"] = _entry_to_json(objective.shared)
    for name, bound in (("f", objective.f), ("g", objective.g)):
        if bound is not None:
            doc[name] = list(bound) if not isinstance(bound, int) else bound
    return doc


def graph_to_text(graph: Multigraph) -> str:
    head = [str(graph.n), str(graph.m)]
    if graph.weights is not None:
        head.append("weighted")
    if graph.allow_loops:
        head.append("loops")
    lines = [" ".join(head)]
    for j, (u, v) in enumerate(graph.edges):
        row = [str(u), str(v)]
        if graph.weights is not None:
            w = graph.weights[j]
            row.append(str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"
