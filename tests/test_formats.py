"""Graph/objective parsing, positional diagnostics, and serialization."""

import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from orientopt.formats import (
    FormatError,
    graph_to_text,
    key_to_json,
    objective_to_json,
    parse_graph,
    parse_graph_json,
    parse_graph_text,
    parse_objective,
    phi_to_json,
    rational_to_json,
)
from orientopt.graph import EXPONENT_LIMIT, exact_number
from orientopt.instances import (
    random_multigraph,
    random_scheduling_instance,
    scheduling_to_orientation,
)
from orientopt.objectives import (
    DecMin,
    LiftedCost,
    LiftedPhi,
    MaxWeightedIndeg,
    PhiSum,
    abs_balance,
    binom2,
    cube,
    exp_base,
    linear,
    neg_exp_base,
    square,
    table,
    zero,
)

from graph_text_reference import ref_parse_graph_text
from paper_facts import graph_to_json


RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
COSTS = st.one_of(  # every cost kind
    st.sampled_from([square(), cube(), binom2(), zero()]),
    st.builds(abs_balance, st.none() | st.integers(0, 6)),
    st.builds(exp_base, st.integers(2, 5)),
    st.builds(neg_exp_base, st.integers(2, 5)),
    st.builds(linear, RATIONALS, RATIONALS),
    st.builds(table, st.lists(RATIONALS, min_size=1, max_size=4)),
)


@st.composite
def cost_entries(draw):
    """A cost, or one lifted by at least one int bound."""
    phi = draw(COSTS)
    f = draw(st.none() | st.integers(0, 3))
    g = draw(st.none() | st.integers(f or 0, 5))
    lift = (f, g) != (None, None) and draw(st.booleans())
    return LiftedPhi(phi, f, g) if lift else phi


# line ends that str.splitlines ends a line at, and gaps that str.split
# splits a line at but splitlines does not; \v, \f, \x1c, \x85 and \u2028
# are both, so a line end in place of a gap splits a line in two
LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028")
GAPS = (" ", "\t", "  ", "\xa0", "\x1f")
BAD_INTS = ("x", "1.0", "2e0", "", "--1", "1__0", "\u00b2")
WEIGHTS = ("1", "0", "1/2", "+3/4", "007/010", "0.5", "1e1", "-0")
BAD_WEIGHTS = ("-1/2", "-3", "-1e-1", "1/0", "/3", "x")
MUTATIONS = ("loop", "id", "weight", "fields", "gap")
HITS = [set(c) for k in (1, 2, 3) for c in combinations(MUTATIONS, k)]


def graph_text(rng):
    """A text-format graph.  Mostly one edge line carries one to three
    mutations: a bad or out-of-range id, a loop, a bad or negative weight,
    a field too few or too many, a line end in place of a gap.  Rarely, too,
    a header field is bad or ends its line early, or there is one edge line
    too many or too few.  Lines end and fields are separated in mixed ways,
    among comments and blank lines."""
    def rare():
        return rng.random() < 1 / 12

    def spelled(k):
        # ways int() reads as k: equal ids need not be equal tokens
        return rng.choice((str(k), f"+{k}", f"0{k}", chr(0x660 + k)))

    n, m = rng.randint(0, 5), rng.randint(0, 5)
    flags = rng.choice(([], ["weighted"], ["loops"], ["weighted", "loops"], ["loops", "weighted"]))
    header = [str(n), str(m), *flags]
    if rare():
        header[rng.randrange(len(header))] = rng.choice(BAD_INTS + ("-1", "shiny"))
    rows = [(header, rare())]
    count = max(0, m + (rng.choice((-1, 1)) if rare() else 0))
    target = rng.randint(-1, count - 1)  # the edge line to mutate, if any
    for i in range(count):
        hit = rng.choice(HITS) if i == target else ()
        u = rng.randint(0, max(n - 1, 0))
        v = u if n < 2 or "loop" in hit else (u + rng.randint(1, n - 1)) % n
        row = [spelled(u), spelled(v)]
        if "id" in hit:
            row[rng.randrange(2)] = rng.choice(BAD_INTS + (str(n), f"0{n}", "-1"))
        if "weighted" in flags:
            row.append(rng.choice(BAD_WEIGHTS if "weight" in hit else WEIGHTS))
        if "fields" in hit:
            row = row[:-1] if rng.random() < 0.5 else row + ["7"]
        rows.append((row, "gap" in hit))
    out = []
    for row, broken in rows:
        while rare():
            out.append(rng.choice(("", "  ", "# a comment", " \t# x")) + rng.choice(LINE_ENDS))
        gap = rng.choice(LINE_ENDS if broken else GAPS)
        line = rng.choice(("", " ", "\t")) + gap.join(row)
        if rare():
            line += rng.choice(("#", " # a comment", "#7 8"))
        out.append(line + rng.choice(LINE_ENDS))
    return "".join(out)


def read_outcome(read, text):
    """The graph read, or the reader's error with its position."""
    try:
        g = read(text)
    except FormatError as e:
        return str(e), e.line, e.column
    return g.n, g.edges, g.weights, g.allow_loops


def fraction_within_bound(token: str) -> Fraction:
    """``Fraction(token)``, the oracle the reader follows, for a token
    whose decimal exponent is at most ``EXPONENT_LIMIT`` in magnitude; a
    larger exponent, which the reader refuses, raises ValueError before
    Fraction would expand it."""
    exp = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", token, re.I)
    if exp and abs(int(exp[1])) > EXPONENT_LIMIT:
        raise ValueError(f"exponent of {token!r} beyond the bound")
    return Fraction(token)


class TestParseGraphText:
    def test_minimal(self):
        g = parse_graph_text("2 1\n0 1\n")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n3 3  # header\n\n0 1\n1 2\n0 2  # last\n"
        assert parse_graph_text(text).m == 3

    def test_weighted(self):
        g = parse_graph_text("2 2 weighted\n0 1 1/3\n0 1 0.5\n")
        assert g.weights == (Fraction(1, 3), Fraction(1, 2))

    @pytest.mark.parametrize("token", [
        "3/7", "+3/4", "-3/4", "007/010", "1_0/3", "١/٢", "0.5", "1e3", "-.5", "5",
        "1/0", "3/-4", "3/+4", "+-3/4", "/3", "3/", "1__0/3", "²/3", "1/2/3", "3/4e2", "x",
        "1e4300", "1e-4300", "1e4301", "1E-4301", "0e10000000", "0e1_000_000_0",
    ])
    def test_weight_tokens_read_as_fraction_does(self, token):
        try:
            want = fraction_within_bound(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(FormatError, match="bad number"):
                parse_graph_text(f"2 1 weighted\n0 1 {token}\n")
        else:
            if want < 0:
                with pytest.raises(FormatError, match="negative edge weight"):
                    parse_graph_text(f"2 1 weighted\n0 1 {token}\n")
            else:
                assert parse_graph_text(f"2 1 weighted\n0 1 {token}\n").weights == (want,)

    @pytest.mark.parametrize("token", [
        "3/7", "+3/4", "-3/4", "007/010", "1_0/3", "١/٢", "0.5", "1e3", "-.5", "5",
        "1/0", "3/-4", "3/+4", "+-3/4", "/3", "3/", "1__0/3", "²/3", "1/2/3", "3/4e2", "x",
        " 3/4", "3 /4", "3/4 ", "3\t/4", "3/ 4", "1e4300", "1e4301", "0e10000000",
    ])
    def test_objective_rationals_read_as_fraction_does(self, token):
        docs = [
            {"kind": "linear", "a": token},
            {"kind": "table", "values": [0, token]},
        ]
        for doc in docs:
            try:
                want = fraction_within_bound(token)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(FormatError, match="must be a number"):
                    parse_objective(json.dumps(doc))
            else:
                spec = parse_objective(json.dumps(doc)).shared
                got = spec.params[0] if spec.kind == "linear" else spec.params[1]
                assert (got, type(got)) == (want, Fraction)

    @given(st.text(alphabet="0123456789\u0663+-/.e_ ", max_size=8))
    def test_the_reader_and_the_weight_column_read_as_fraction_does(self, token):
        text = f"2 1 weighted\n0 1 {token}\n"
        one_token = token.split() == [token]
        try:
            want = fraction_within_bound(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError):
                exact_number(token)
            if one_token:
                with pytest.raises(FormatError, match="bad number"):
                    parse_graph_text(text)
        else:
            got = exact_number(token)
            assert (got, type(got)) == (want, Fraction)
            if one_token and want >= 0:
                assert parse_graph_text(text).weights == (want,)
            elif one_token:
                with pytest.raises(FormatError, match="negative edge weight"):
                    parse_graph_text(text)

    @given(st.floats())
    def test_the_reader_takes_a_float_by_its_repr(self, x):
        try:
            want = Fraction(repr(x))
        except ValueError:
            with pytest.raises(ValueError):
                exact_number(x)
        else:
            got = exact_number(x)
            assert (got, type(got)) == (want, Fraction)

    @pytest.mark.parametrize("value", [True, False, None, [1], {"a": 1}, (1, 2), b"1", 1j])
    def test_the_reader_refuses_bools_and_other_types(self, value):
        with pytest.raises(ValueError, match="cannot interpret"):
            exact_number(value)

    def test_the_reader_keeps_ints_and_fractions(self):
        assert exact_number(7) == 7 and type(exact_number(7)) is int
        half = Fraction(1, 2)
        assert exact_number(half) is half

    def test_loops_flag(self):
        g = parse_graph_text("1 1 loops\n0 0\n")
        assert g.loop_counts == (1,)

    def test_positions_in_diagnostics(self):
        cases = [
            ("", "empty graph file", 1, 1),
            ("3\n", "header needs", 1, 1),
            ("x 1\n0 1\n", "expected an integer", 1, 1),
            ("2 x\n0 1\n", "expected an integer", 1, 3),
            # a negative vertex count is caught at the header, before any edge
            ("-1 0\n", "vertex count must be non-negative", 1, 1),
            ("  -3 1\n0 1\n", "vertex count must be non-negative", 1, 3),
            # and a negative edge count there too, not at an edge line
            ("3 -2\n0 1\n", "edge count must be non-negative", 1, 3),
            ("3 -1\n", "edge count must be non-negative", 1, 3),
            ("2 1 shiny\n0 1\n", "unknown header flag", 1, 5),
            ("2 2\n0 1\n", "promises 2 edges", 1, 1),
            ("2 1\n0 1\n1 0\n", "promises 1 edge", 3, 1),
            ("2 1\n0 3\n", "out of range", 2, 3),
            ("2 1\n5 1\n", "out of range", 2, 1),
            ("2 1\n1 1\n", "no `loops` flag", 2, 1),
            ("2 1\n0 1 9\n", "needs 2 fields", 2, 5),
            ("2 1 weighted\n0 1\n", "needs 3 fields", 2, 3),
            ("2 1 weighted\n0 1 x\n", "bad number", 2, 5),
            ("2 1 weighted\n0 1 -2\n", "negative edge weight", 2, 5),
            # columns count raw characters: leading blanks and tabs are one each
            ("  2 x\n0 1\n", "expected an integer, got 'x'", 1, 5),
            ("2\t1\n0\t9\n", "endpoint out of range for n=2", 2, 3),
            ("\t\t3  # only n\n", "header needs `n m`", 1, 3),
            ("  3 2\n 0 1\n\t1 1\n", "loop found but the header has no `loops` flag", 3, 2),
            ("2 1\n  \t0\t 1 x\n", "edge line needs 2 fields, got 3", 2, 9),
            ("2 1\n0 1 7 8\n", "edge line needs 2 fields, got 4", 2, 5),  # the first extra
            # a trailing comment is no field, even glued to the last token
            ("2 1 # header\n0 1 2 # extra field\n", "edge line needs 2 fields, got 3", 2, 5),
            ("2 1\n0 5# glued comment\n", "endpoint out of range for n=2", 2, 3),
            ("2 1 weighted\n 0\t1  1/0 # w\n", "bad number '1/0'", 2, 7),
            # CRLF line ends
            ("2 1\r\n0 1\r\n1 0\r\n", "header promises 1 edges but the file has 2", 3, 1),
            ("2 1\r\n0 x\r\n", "expected an integer, got 'x'", 2, 3),
            # comment-only and blank lines still count as lines
            ("# title\n2 1\n# only a comment\n0 q\n", "expected an integer, got 'q'", 4, 3),
            ("# c\n\n   # c\n", "empty graph file", 3, 1),
        ]
        for text, fragment, line, column in cases:
            with pytest.raises(FormatError) as e:
                parse_graph_text(text)
            assert fragment in str(e.value), text
            assert (e.value.line, e.value.column) == (line, column), text

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0))
    def test_reads_as_the_line_by_line_reference(self, seed):
        # the same graph, or the same error at the same line and column, on
        # 40 texts per example, drawn from a seeded Random: far cheaper
        # than drawing each choice from hypothesis
        rng = random.Random(seed)
        for _ in range(40):
            text = graph_text(rng)
            assert read_outcome(parse_graph_text, text) == read_outcome(ref_parse_graph_text, text), text

    def test_error_message_carries_position(self):
        with pytest.raises(FormatError, match=r"line 2, column 3"):
            parse_graph_text("2 1\n0 9\n")


class TestParseGraphJson:
    def test_minimal(self):
        g = parse_graph_json('{"n": 2, "edges": [[0, 1]]}')
        assert g.edges == ((0, 1),)

    def test_weighted_and_loops(self):
        g = parse_graph_json(
            '{"n": 2, "edges": [[0, 0, "1/2"], [0, 1, 2]], "allow_loops": true}'
        )
        assert g.weights == (Fraction(1, 2), Fraction(2))
        assert {type(w) for w in g.weights} == {Fraction}  # as the text format gives
        assert g.loop_counts == (1, 0)

    def test_rejections(self):
        bad = [
            "[1, 2]",
            '{"edges": []}',
            '{"n": 2}',
            '{"n": true, "edges": []}',
            '{"n": -1, "edges": []}',
            '{"n": 2, "edges": [[0]]}',
            '{"n": 2, "edges": [[0, 1], [0, 1, 2]]}',
            '{"n": 2, "edges": [[0, 2]]}',
            '{"n": 2, "edges": [[0, true]]}',
            '{"n": 2, "edges": [[0, 0]]}',
            '{"n": 2, "edges": [[0, 1]], "allow_loops": 1}',
            '{"n": 2, "edges": [[0, 1, true]]}',
            '{"n": 2, "edges": [[0, 1, "x"]]}',
        ]
        for text in bad:
            with pytest.raises(FormatError):
                parse_graph_json(text)

    def test_graph_errors_are_build_graphs(self):
        cases = [
            ('{"n": -1, "edges": []}', "vertex count must be a non-negative integer, not -1"),
            ('{"n": 2.0, "edges": []}', "vertex count must be a non-negative integer, not 2.0"),
            ('{"n": 2, "edges": [[0, 1], [0, true]]}', "edge 1 endpoints must be integers, not (0, True)"),
            ('{"n": 2, "edges": [[0, 2]]}', "edge 0 endpoint out of range: (0, 2)"),
            ('{"n": 2, "edges": [[1, 1]]}', "edge 0 is a loop at 1, but loops are not enabled"),
            ('{"n": 2, "edges": [[0, 1, "-1/2"]]}', "edge 0 has negative weight -1/2"),
            ('{"n": 2, "edges": [[0, 1, "1/0"]]}', "edge 0 weight must be a number or 'p/q' string"),
            ('{"n": 2, "edges": [[0, 1, [1]]]}', "edge 0 weight must be a number or 'p/q' string"),
        ]
        for text, message in cases:
            with pytest.raises(FormatError) as e:
                parse_graph_json(text)
            assert str(e.value) == f"line 1, column 1: {message}"

    def test_undefined_fields_are_named(self):
        with pytest.raises(FormatError, match="a JSON graph has no field 'weights'"):
            parse_graph_json('{"n": 2, "edges": [[0, 1]], "weights": [1]}')
        with pytest.raises(FormatError, match="a JSON graph has no field 'm'"):
            parse_graph_json('{"m": 1, "n": 2, "edges": [[0, 1]], "allow_loops": false}')

    def test_decode_error_position(self):
        with pytest.raises(FormatError) as e:
            parse_graph_json('{\n  "n": }')
        assert e.value.line == 2

    def test_autodetect(self):
        assert parse_graph('  {"n": 1, "edges": []}').n == 1
        assert parse_graph("1 0\n").n == 1


class TestParseObjective:
    def test_bare_key_kinds(self):
        assert parse_objective("dec_min") == DecMin()
        assert parse_objective('{"kind": "max_weighted_indeg"}') == MaxWeightedIndeg()

    def test_bare_cost_shape_means_shared_sum(self):
        assert parse_objective("square") == PhiSum(shared=square())
        assert parse_objective('{"kind": "abs_balance"}') == PhiSum(
            shared=abs_balance()
        )

    def test_phi_sum_shared_with_bounds(self):
        got = parse_objective(
            '{"kind": "phi_sum", "shared": "zero", "f": [0, 1], "g": 2}'
        )
        assert got == PhiSum(shared=zero(), f=(0, 1), g=2)

    def test_phi_sum_per_vertex(self):
        got = parse_objective(
            '{"kind": "phi_sum", "per_vertex": ["square", {"kind": "linear", "a": "1/2"}]}'
        )
        assert got == PhiSum(per_vertex=(square(), linear(Fraction(1, 2))))

    def test_per_vertex_inline_bounds_become_lifted(self):
        got = parse_objective(
            '{"kind": "phi_sum", "per_vertex": [{"kind": "zero", "f": 1, "g": 1}, "square"]}'
        )
        assert got == PhiSum(per_vertex=(LiftedPhi(zero(), 1, 1), square()))

    def test_table_and_parametrized_kinds(self):
        got = parse_objective('{"kind": "table", "values": [0, 1, "5/2"]}')
        assert got == PhiSum(shared=table([0, 1, Fraction(5, 2)]))
        got = parse_objective('{"kind": "exp_base", "base": 3}')
        assert got.shared.params == (3,)

    def test_json_ints_stay_ints(self):
        shared = parse_objective('{"kind": "table", "values": [0, 1, 5]}').shared
        assert [type(x) for x in shared.params] == [int, int, int]
        a, b = parse_objective('{"kind": "linear", "a": "3/2", "b": 4}').shared.params
        assert (type(a), type(b)) == (Fraction, int)

    def test_rejections(self):
        bad = [
            "mystery",
            "{}",
            "[]",
            '{"kind": "phi_sum"}',
            '{"kind": "phi_sum", "shared": "square", "per_vertex": ["square"]}',
            '{"kind": "phi_sum", "shared": "what"}',
            '{"kind": "phi_sum", "shared": "zero", "f": "low"}',
            '{"kind": "phi_sum", "shared": "zero", "f": [true]}',
            '{"kind": "phi_sum", "per_vertex": "square"}',
            '{"kind": "phi_sum", "per_vertex": [{"kind": "zero", "f": 2, "g": 1}]}',
            '{"kind": "phi_sum", "per_vertex": [{"kind": "zero", "f": [1]}]}',
            '{"kind": "table"}',
            '{"kind": "table", "values": []}',
            '{"kind": "exp_base"}',
            '{"kind": "exp_base", "base": 1}',
            '{"kind": "abs_balance", "d": -2}',
            '{"kind": "abs_balance", "d": true}',
            '{"kind": "abs_balance", "d": false}',
            '{"kind": "linear", "a": []}',
            '{"kind": ["a"]}',
            '{"kind": {"x": 1}}',
        ]
        for text in bad:
            with pytest.raises(FormatError):
                parse_objective(text)


class TestSerialization:
    def test_rational_to_json(self):
        assert rational_to_json(Fraction(4, 2)) == 2
        assert rational_to_json(Fraction(7, 2)) == "7/2"
        assert rational_to_json(3) == 3

    def test_key_to_json(self):
        assert key_to_json(LiftedCost(2, Fraction(1, 3))) == {
            "penalty": 2,
            "base": "1/3",
        }
        assert key_to_json((3, 2, 1)) == [3, 2, 1]
        assert key_to_json(Fraction(5)) == 5

    def test_phi_to_json_refuses_lifted(self):
        with pytest.raises(ValueError):
            phi_to_json(LiftedPhi(zero(), 1, 1))

    def test_graph_text_round_trip(self):
        for seed in range(5):
            g = random_multigraph(5, 7, seed=seed, weighted=(seed % 2 == 0))
            assert parse_graph_text(graph_to_text(g)) == g
        loopy = parse_graph_text("2 2 loops\n0 0\n0 1\n")
        assert parse_graph_text(graph_to_text(loopy)) == loopy

    def test_graph_json_round_trip(self):
        for seed in range(5):
            g = random_multigraph(4, 6, seed=seed, weighted=(seed % 2 == 1))
            assert parse_graph_json(json.dumps(graph_to_json(g))) == g

    def test_objective_round_trips(self):
        objectives = [
            DecMin(),
            MaxWeightedIndeg(),
            PhiSum(shared=square()),
            PhiSum(shared=table([0, 0, 2, 6])),
            PhiSum(shared=zero(), f=1, g=(2, 2, 3)),
            PhiSum(per_vertex=(square(), abs_balance(4), linear(2, 1))),
            PhiSum(per_vertex=(LiftedPhi(zero(), 1, 1), LiftedPhi(square(), 0, 2))),
        ]
        for objective in objectives:
            text = json.dumps(objective_to_json(objective))
            assert parse_objective(text) == objective, text

    @given(st.data())
    def test_phi_sums_round_trip(self, data):
        # shared or per-vertex entries, each a cost of any kind or one
        # lifted by int bounds; top-level bounds only beside unlifted ones
        n = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            shared, per_vertex = data.draw(cost_entries()), None
            lifted = isinstance(shared, LiftedPhi)
        else:
            shared, per_vertex = None, tuple(data.draw(st.lists(cost_entries(), min_size=n, max_size=n)))
            lifted = any(isinstance(e, LiftedPhi) for e in per_vertex)
        bound = st.just(None) if lifted else st.none() | st.integers(0, 3) | st.tuples(
            *[st.integers(0, 3)] * n)
        objective = PhiSum(shared, per_vertex, f=data.draw(bound), g=data.draw(bound))
        assert parse_objective(json.dumps(objective_to_json(objective))) == objective

    def test_scheduling_objective_round_trip(self):
        # the generated assignment objectives mix lifted zeros and plain
        # slot costs, including random tables; unbounded lifted wrappers
        # come back as bare specs, so compare after resolving
        for seed in range(8):
            inst = random_scheduling_instance(seed=seed)
            graph, objective = scheduling_to_orientation(inst)
            text = json.dumps(objective_to_json(objective))
            parsed = parse_objective(text)
            assert parsed.resolve(graph) == objective.resolve(graph)


class TestOneNumberPerString:
    """A document reads each distinct number string once: equal strings
    give one object, and a bad one still fails where it first appears."""

    def test_equal_strings_give_one_object(self):
        per = [{"kind": "linear", "a": f"{v % 3}/7", "b": "5/2"} for v in range(9)]
        per.append({"kind": "table", "values": ["1/7", "5/2", 4]})
        obj = parse_objective(json.dumps({"kind": "phi_sum", "per_vertex": per}))
        a = [spec.params[0] for spec in obj.per_vertex[:9]]
        assert a == [Fraction(v % 3, 7) for v in range(9)]
        assert a[1] is a[4] is a[7] is obj.per_vertex[9].params[0] and a[2] is a[5] is a[8]
        assert len({id(spec.params[1]) for spec in obj.per_vertex[:9]}) == 1
        assert obj.per_vertex[9].params[1] is obj.per_vertex[0].params[1]

    def test_numbers_are_not_shared_with_equal_booleans(self):
        per = [{"kind": "linear", "a": 1, "b": 1.0}, {"kind": "linear", "a": True}]
        with pytest.raises(FormatError, match=r"per_vertex\[1\]: `a` must be a number"):
            parse_objective(json.dumps({"kind": "phi_sum", "per_vertex": per}))

    @pytest.mark.parametrize("bad", ["1/0", "x"])
    def test_a_bad_string_fails_at_its_first_index(self, bad):
        per = [{"kind": "linear", "a": "1/2"}] * 3 + [{"kind": "linear", "a": bad}] * 2
        with pytest.raises(FormatError, match=r"per_vertex\[3\]: `a` must be a number"):
            parse_objective(json.dumps({"kind": "phi_sum", "per_vertex": per}))

    def test_json_edge_weights_share_objects(self):
        g = parse_graph_json(json.dumps({"n": 3, "edges": [[0, 1, "2/3"], [1, 2, "2/3"]]}))
        assert g.weights == (Fraction(2, 3),) * 2 and g.weights[0] is g.weights[1]
