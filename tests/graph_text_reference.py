"""Line-by-line reader of the graph text format, the reference that
``orientopt.formats.parse_graph_text`` is checked against.  It tokenizes
every line, then checks each edge line's fields in order as it reads
them, and shares no code with the reader but ``FormatError``,
``exact_number`` and ``Multigraph``."""

import re

from orientopt.formats import FormatError
from orientopt.graph import Multigraph, exact_number


def _at(message, lines, lineno, k):
    starts = [m.start() + 1 for m in re.finditer(r"\S+", lines[lineno - 1])]
    return FormatError(message, lineno, starts[k])


def _not_an_int(lines, lineno, toks):
    for k, tok in enumerate(toks):
        try:
            int(tok)
        except ValueError:
            return _at(f"expected an integer, got {tok!r}", lines, lineno, k)


def ref_parse_graph_text(text):
    lines = text.splitlines()
    rows = [(i, toks) for i, raw in enumerate(lines, start=1) if (toks := raw.split("#", 1)[0].split())]
    if not rows:
        raise FormatError("empty graph file", len(lines) or 1, 1)
    lineno, header = rows[0]
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
    if len(rows) - 1 != m:
        where = rows[m + 1][0] if len(rows) - 1 > m else lineno
        raise FormatError(
            f"header promises {m} edges but the file has {len(rows) - 1}", where, 1
        )
    want = 3 if weighted else 2
    edges = []
    weights = [] if weighted else None
    for lineno, toks in rows[1:]:
        if len(toks) != want:
            raise _at(f"edge line needs {want} fields, got {len(toks)}",
                      lines, lineno, min(want, len(toks) - 1))
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise _not_an_int(lines, lineno, toks[:2]) from None
        if not (0 <= u < n and 0 <= v < n):
            raise _at(f"endpoint out of range for n={n}", lines, lineno, 0 if not 0 <= u < n else 1)
        if u == v and not allow_loops:
            raise _at("loop found but the header has no `loops` flag", lines, lineno, 0)
        edges.append((u, v))
        if weighted:
            try:
                w = exact_number(toks[2])
            except ValueError:
                raise _at(f"bad number {toks[2]!r}", lines, lineno, 2) from None
            if w < 0:
                raise _at("negative edge weight", lines, lineno, 2)
            weights.append(w)
    return Multigraph(n, tuple(edges), None if weights is None else tuple(weights), allow_loops)
