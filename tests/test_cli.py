"""End-to-end CLI behavior: reports, exit codes, determinism."""

import gc
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import orientopt
from orientopt import cli
from orientopt.cli import MODES, _solve_report, build_parser, run
from orientopt.flow import CyclicSolution
from orientopt.formats import (
    graph_to_text, key_to_json, parse_graph, parse_objective, rational_to_json,
)
from orientopt.graph import Orientation, build_graph, degrees_of_order, degrees_of_orientation
from orientopt.instances import FIG4_EDGES, SIZE_BUDGET, random_multigraph
from orientopt.objectives import LiftedCost, PhiSum, evaluate


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 1  # single-line report
    return json.loads(lines[0])


class TestSolve:
    def test_k3_square_cyclic(self, capsys):
        rep = report_of(
            capsys, "solve", "--input", "k3", "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert rep["schema"] == 1
        assert rep["key"] == {"penalty": 0, "base": 3}
        assert rep["feasible"] is True
        assert sorted(rep["indeg"]) == [1, 1, 1]
        assert rep["order"] is None

    def test_fig4_decmin_acyclic_exact(self, capsys):
        rep = report_of(
            capsys, "solve", "--input", "fig4", "--objective", "dec_min",
            "--mode", "acyclic-exact",
        )
        assert rep["key"] == [3, 3, 3, 3, 2, 2, 1, 1, 0]
        assert sorted(rep["order"]) == list(range(9))

    def test_report_round_trips(self, capsys):
        from orientopt.instances import fig4_graph

        rep = report_of(
            capsys, "solve", "--input", "fig4", "--objective", "square",
            "--mode", "cyclic-flow",
        )
        g = fig4_graph()
        objective = parse_objective(json.dumps(rep["objective"]))
        dv = degrees_of_orientation(g, Orientation(tuple(rep["orientation"])))
        key = evaluate(objective, g, dv)
        assert key.penalty == rep["key"]["penalty"]
        assert key.base == rep["key"]["base"]
        assert list(dv.indeg) == rep["indeg"]
        assert list(dv.outdeg) == rep["outdeg"]

    def test_determinism_modulo_wall_time(self, capsys):
        argv = (
            "solve", "--input", "fig4", "--objective", "rho_delta_sum",
            "--mode", "random", "--seed", "11", "--trials", "7",
        )
        a = report_of(capsys, *argv)
        b = report_of(capsys, *argv)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b
        assert a["trials"] == {"count": 7, "mean": a["trials"]["mean"]}

    def test_every_mode_runs_on_a_suitable_instance(self, capsys):
        runs = [
            ("k3", "square", "cyclic-flow"),
            ("k3", "square", "acyclic-exact"),
            ("fig4", "square", "acyclic-greedy"),
            ("fig4", "max_weighted_indeg", "smallest-last"),
            ("gk:2", "rho_delta_sum", "combine-st"),
            ("fig4", "rho_delta_sum", "random"),
            ("fig4", "rho_delta_sum", "derandomized"),
        ]
        for inp, objective, mode in runs:
            rep = report_of(
                capsys, "solve", "--input", inp, "--objective", objective,
                "--mode", mode,
            )
            assert rep["mode"] == mode

    @pytest.mark.parametrize("mode, objective", [
        ("random", "rho_delta_sum"), ("acyclic-greedy", "square"),
    ])
    def test_seed_sign_is_dropped(self, capsys, mode, objective):
        # random.Random(s) seeds by |s|, so -3 and 3 give the same report
        reports = []
        for seed in ("3", "-3"):
            rep = report_of(
                capsys, "solve", "--input", "cycle:9", "--objective", objective,
                "--mode", mode, "--seed", seed,
            )
            rep.pop("wall_time")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_slope_mode_needs_linear_costs(self, capsys, tmp_path):
        spec = {
            "kind": "phi_sum",
            "per_vertex": [
                {"kind": "linear", "a": 3},
                {"kind": "linear", "a": 1},
                {"kind": "linear", "a": 2},
            ],
        }
        rep = report_of(
            capsys, "solve", "--input", "k3", "--objective", json.dumps(spec),
            "--mode", "slope",
        )
        assert rep["order"] == [0, 2, 1]  # slopes sorted high to low
        code, _, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", "square",
            "--mode", "slope",
        )
        assert code == 3 and "linear" in err

    @pytest.mark.parametrize("text", [
        "4 5 weighted\n0 1 3/2\n1 2 1\n2 3 5/4\n3 0 2\n0 2 1/3\n",
        "3 4 weighted loops\n0 0 2\n0 1 1/2\n1 2 3\n2 0 7/3\n",
        "4 5\n0 1\n1 2\n2 3\n3 0\n0 2\n",
    ])
    def test_weighted_key_with_plain_degrees(self, capsys, tmp_path, text):
        p = tmp_path / "g.graph"
        p.write_text(text)
        rep = report_of(
            capsys, "solve", "--input", str(p), "--objective", "max_weighted_indeg",
            "--mode", "smallest-last",
        )
        g = parse_graph(text)
        weighted = degrees_of_order(g, rep["order"], weighted=True)
        plain = degrees_of_order(g, rep["order"])
        assert rep["key"] == rational_to_json(max(weighted.indeg))
        assert (rep["indeg"], rep["outdeg"]) == (list(plain.indeg), list(plain.outdeg))

    def test_weighted_max_key_is_the_fraction_maximum(self):
        """The key taken from int weighted indegrees equals ``evaluate`` on
        the Fraction weighted degrees in value, type and repr, including
        integral maxima and graphs with loops or zero weights."""
        obj = parse_objective("max_weighted_indeg")
        for seed in range(8):
            g = random_multigraph(10, 24, seed, weighted=True, allow_loops=seed % 2 == 1)
            if seed == 4:
                g = build_graph(g.n, g.edges, [2] * g.m)
            if seed == 5:
                g = build_graph(g.n, g.edges, [j % 3 for j in range(g.m)], allow_loops=True)
            for mode in ("smallest-last", "acyclic-greedy") + ("random",) * (not g.has_loops):
                report, key = _solve_report(g, obj, mode, 1, 5)
                want = evaluate(obj, g, degrees_of_order(g, report["order"], weighted=True))
                assert repr(key) == repr(want), (seed, mode)
                assert report["key"] == key_to_json(want)

    def test_greedy_seed_switches_tie_rule(self, capsys):
        base = report_of(
            capsys, "solve", "--input", "fig4", "--objective", "square",
            "--mode", "acyclic-greedy",
        )
        seeded = report_of(
            capsys, "solve", "--input", "fig4", "--objective", "square",
            "--mode", "acyclic-greedy", "--seed", "4",
        )
        again = report_of(
            capsys, "solve", "--input", "fig4", "--objective", "square",
            "--mode", "acyclic-greedy", "--seed", "4",
        )
        assert seeded["order"] == again["order"]
        assert base["order"] is not None

    def test_file_input_with_loops_has_no_orientation(self, capsys, tmp_path):
        p = tmp_path / "loopy.graph"
        p.write_text("2 2 loops\n0 0\n0 1\n")
        rep = report_of(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "smallest-last",
        )
        assert rep["orientation"] is None
        assert sum(rep["indeg"]) == 2  # the loop counts one onto its vertex


class TestOneResolve:
    """Every consumer of a request's ``phi_sum`` objective (the solver, the
    key, the round-trip check, the oracle) shares one resolve."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--input", "fig4", "--objective", "square", "--mode", "cyclic-flow"),
        ("solve", "--input", "fig4", "--objective", "square", "--mode", "acyclic-exact"),
        ("solve", "--input", "fig4", "--objective", "square", "--mode", "acyclic-greedy"),
        ("solve", "--input", "fig4", "--objective", "slopes.json", "--mode", "slope"),
        ("compare", "--input", "k3", "--objective", "square", "--mode", "acyclic-exact"),
        ("oracle", "--input", "k3", "--objective", "square", "--mode", "acyclic"),
    ])
    def test_at_most_one_resolve_per_run(self, capsys, monkeypatch, tmp_path, argv):
        spec = {"kind": "phi_sum",
                "per_vertex": [{"kind": "linear", "a": f"{v % 4}/3", "b": v} for v in range(9)]}
        (tmp_path / "slopes.json").write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path)
        calls = []
        resolve = PhiSum.resolve

        def counted(objective, graph):
            calls.append(objective)
            return resolve(objective, graph)

        monkeypatch.setattr(PhiSum, "resolve", counted)
        report_of(capsys, *argv)
        assert len(calls) <= 1


class TestCollectorPause:
    """``run`` turns the cyclic collector off while a command runs, and
    leaves it on or off as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("code, objective, graph", [
        (0, "square", "k3"),
        (2, "{", "k3"),
        (3, "square", "no-such-file"),
        (4, "square", "k3"),
    ])
    def test_collector_state_is_kept(self, capsys, monkeypatch, enabled, code, objective, graph):
        def broken(*args):
            raise RuntimeError("internal error: solver broke")

        if code == 4:
            monkeypatch.setattr(cli, "solve_cyclic", broken)
        (gc.enable if enabled else gc.disable)()
        got, _, _ = invoke(capsys, "solve", "--input", graph, "--objective", objective,
                           "--mode", "cyclic-flow")
        assert got == code
        assert gc.isenabled() == enabled

    def test_the_solver_runs_with_the_collector_off(self, capsys, monkeypatch):
        flow, seen = cli.solve_cyclic, []

        def watched(graph, objective):
            seen.append(gc.isenabled())
            return flow(graph, objective)

        monkeypatch.setattr(cli, "solve_cyclic", watched)
        gc.enable()
        report_of(capsys, "solve", "--input", "k3", "--objective", "square", "--mode", "cyclic-flow")
        assert seen == [False] and gc.isenabled()


class TestOneKey:
    """A report's key is evaluated once, from the answer's heads."""

    @pytest.mark.parametrize("mode", MODES)
    def test_one_evaluate_per_report(self, capsys, monkeypatch, mode):
        spec = {"kind": "phi_sum",
                "per_vertex": [{"kind": "linear", "a": f"{v % 3}/2", "b": v} for v in range(6)]}
        calls = []

        def counting_evaluate(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate", counting_evaluate)
        rep = report_of(
            capsys, "solve", "--input", "cycle:6", "--objective", json.dumps(spec),
            "--mode", mode,
        )
        assert len(calls) == 1
        assert rep["key"]["penalty"] == 0


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        p = tmp_path / "broken.graph"
        p.write_text("2 1\n0 9\n")
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert "line 2" in err

    def test_negative_vertex_count_is_2(self, capsys, tmp_path):
        p = tmp_path / "negative.graph"
        p.write_text("-1 0\n")
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert err == "error: line 1, column 1: vertex count must be non-negative\n"

    @pytest.mark.parametrize("text", ["3 -2\n0 1\n", "3 -1\n"])
    def test_negative_edge_count_is_2(self, capsys, tmp_path, text):
        p = tmp_path / "negative.graph"
        p.write_text(text)
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert err == "error: line 1, column 3: edge count must be non-negative\n"

    def test_boolean_abs_balance_degree_is_2(self, capsys):
        code, _, err = invoke(
            capsys, "solve", "--input", "k3", "--mode", "cyclic-flow",
            "--objective", '{"kind": "abs_balance", "d": false}',
        )
        assert code == 2
        assert "`d` must be a non-negative integer" in err

    def test_negative_json_weight_is_2(self, capsys, tmp_path):
        p = tmp_path / "negative.json"
        p.write_text('{"n": 2, "edges": [[0, 1, -1]]}')
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert err == "error: line 1, column 1: edge 0 has negative weight -1\n"

    @pytest.mark.parametrize("edges", ["5", '{"0": [0, 1]}'])
    def test_json_edges_not_a_list_is_2(self, capsys, tmp_path, edges):
        p = tmp_path / "edges.json"
        p.write_text('{"n": 2, "edges": %s}' % edges)
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert err == "error: line 1, column 1: `edges` must be a list\n"

    def test_json_graph_undefined_field_is_2(self, capsys, tmp_path):
        p = tmp_path / "extra.json"
        p.write_text('{"n": 2, "edges": [[0, 1]], "directed": true}')
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert err == "error: line 1, column 1: a JSON graph has no field 'directed'\n"

    def test_json_graph_errors_are_build_graphs(self, capsys, tmp_path):
        p = tmp_path / "loop.json"
        p.write_text('{"n": 2, "edges": [[0, 0]]}')
        code, _, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert err == "error: line 1, column 1: edge 0 is a loop at 0, but loops are not enabled\n"

    @pytest.mark.parametrize("name, text", [
        ("big.graph", f"{SIZE_BUDGET + 1} 0\n"),
        ("big.json", f'{{"n": {SIZE_BUDGET + 1}, "edges": [[0, 1]]}}'),
    ])
    def test_graph_file_above_the_budget_is_3(self, capsys, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        code, out, err = invoke(
            capsys, "solve", "--input", str(p), "--objective", "max_weighted_indeg",
            "--mode", "smallest-last",
        )
        assert (code, out) == (3, "")
        assert err == (f"error: {p} declares {SIZE_BUDGET + 1} vertices, above the budget"
                       f" of {SIZE_BUDGET} vertices plus edges\n")

    def test_small_graph_file_is_within_the_budget(self, capsys, tmp_path):
        p = tmp_path / "small.graph"
        p.write_text("3 0\n")
        rep = report_of(
            capsys, "solve", "--input", str(p), "--objective", "max_weighted_indeg",
            "--mode", "smallest-last",
        )
        assert rep["n"] == 3

    def test_slope_needs_a_phi_sum_objective_is_3(self, capsys):
        code, out, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", "dec_min", "--mode", "slope",
        )
        assert (code, out) == (3, "")
        assert err == "error: slope mode needs a phi_sum objective with linear costs\n"

    def test_bad_objective_is_2(self, capsys):
        code, _, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", "mystery",
            "--mode", "cyclic-flow",
        )
        assert code == 2

    @pytest.mark.parametrize("cmd, mode", [
        ("solve", "cyclic-flow"), ("compare", "cyclic-flow"), ("bench", "cyclic-flow"),
        ("oracle", "cyclic"),
    ])
    @pytest.mark.parametrize("kind", ['["a"]', '{"x": 1}'])
    def test_objective_kind_that_is_no_string_is_2(self, capsys, cmd, mode, kind):
        code, out, err = invoke(
            capsys, cmd, "--input", "k3", "--objective", '{"kind": %s}' % kind, "--mode", mode,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1, column 1: objective `kind` must be a string")
        assert err.count("\n") == 1

    def test_precondition_violation_is_3(self, capsys):
        # combine-st needs max degree 3; fig4 has a degree-6 hub
        code, _, err = invoke(
            capsys, "solve", "--input", "fig4", "--objective", "rho_delta_sum",
            "--mode", "combine-st",
        )
        assert code == 3

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_3(self, capsys, trials):
        code, out, err = invoke(
            capsys, "solve", "--input", "fig4", "--objective", "rho_delta_sum",
            "--mode", "random", "--trials", trials,
        )
        assert (code, out, err) == (3, "", "error: need at least one trial\n")

    def test_missing_input_is_3(self, capsys):
        code, _, err = invoke(
            capsys, "solve", "--input", "/no/such/file", "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 3
        assert "neither" in err

    # {dir} is an existing directory, {missing} a file in a directory that is not there
    @pytest.mark.parametrize("argv", [
        ("solve", "--input", "{dir}", "--objective", "square", "--mode", "cyclic-flow"),
        ("solve", "--input", "k3", "--objective", "{dir}", "--mode", "cyclic-flow"),
        ("compare", "--input", "{dir}", "--objective", "square", "--mode", "cyclic-flow"),
        ("compare", "--input", "k3", "--objective", "{dir}", "--mode", "cyclic-flow"),
        ("generate", "--family", "gk", "--out", "{missing}"),
        ("generate", "--family", "scheduling", "--seed", "7", "--objective-out", "{missing}"),
    ], ids=["solve-input", "solve-objective", "compare-input", "compare-objective",
            "generate-out", "generate-objective-out"])
    def test_unusable_path_is_3(self, capsys, tmp_path, argv):
        paths = {"dir": str(tmp_path), "missing": str(tmp_path / "missing" / "x")}
        bad = next(a for a in argv if a.startswith("{")).format(**paths)
        code, out, err = invoke(capsys, *(a.format(**paths) for a in argv))
        assert code == 3 and out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_name_too_long_to_look_up(self, capsys):
        # no file can have this name, so it is neither a file nor a spec
        long = "x" * 5000
        code, _, err = invoke(
            capsys, "solve", "--input", long, "--objective", "square", "--mode", "cyclic-flow",
        )
        assert code == 3 and "neither" in err
        code, _, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", long, "--mode", "cyclic-flow",
        )
        assert code == 2 and "unknown objective kind" in err

    def test_bad_builtin_parameter_reports_the_real_error(self, capsys):
        code, _, err = invoke(
            capsys, "solve", "--input", "gk:0", "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 3
        assert "need at least one triangle" in err
        assert "neither" not in err

    @pytest.mark.parametrize("largest", ["complete:2000", "path:1000000", "cycle:1000000", "gk:222222"])
    def test_huge_complete_graph_is_3(self, capsys, largest):
        family = largest.partition(":")[0]
        code, _, err = invoke(
            capsys, "solve", "--input", f"{family}:{10**12}", "--objective", "square",
            "--mode", "smallest-last",
        )
        assert code == 3
        assert f"at most {largest}," in err

    def test_internal_error_is_4_without_traceback(self, capsys, monkeypatch):
        import orientopt.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("internal error: solver broke")

        monkeypatch.setattr(cli, "solve_cyclic", broken)
        code, out, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert code == 4
        assert out == ""
        assert err == "error: internal error: solver broke\n"

    @pytest.mark.parametrize("subcommand", ["solve", "compare", "bench"])
    @pytest.mark.parametrize("mode", ["acyclic-exact", "cyclic-flow"])
    def test_solver_key_that_does_not_re_evaluate_is_4(
        self, capsys, monkeypatch, subcommand, mode
    ):
        exact, flow = cli.solve_acyclic_exact, cli.solve_cyclic

        def off_by_one(key):
            return LiftedCost(key.penalty, key.base + 1)

        def exact_off_by_one(graph, objective):
            order, key = exact(graph, objective)
            return order, off_by_one(key)

        def flow_off_by_one(graph, objective):
            sol = flow(graph, objective)
            return CyclicSolution(sol.orientation, off_by_one(sol.key), sol.feasible)

        monkeypatch.setattr(cli, "solve_acyclic_exact", exact_off_by_one)
        monkeypatch.setattr(cli, "solve_cyclic", flow_off_by_one)
        code, out, err = invoke(
            capsys, subcommand, "--input", "k3", "--objective", "square", "--mode", mode,
        )
        assert (code, out) == (4, "")
        assert err == "error: internal error: reported key does not re-evaluate\n"

    def test_cyclic_orientation_is_checked(self, capsys, monkeypatch):
        flow = cli.solve_cyclic

        def off_the_edge(graph, objective):
            sol = flow(graph, objective)
            heads = (2,) + sol.orientation.heads[1:]
            return CyclicSolution(Orientation(heads), sol.key, sol.feasible)

        monkeypatch.setattr(cli, "solve_cyclic", off_the_edge)
        code, out, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", "square", "--mode", "cyclic-flow",
        )
        assert (code, out) == (4, "")
        assert err == "error: internal error: head of edge 0 is not one of its endpoints\n"

    def test_solver_order_is_checked(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "greedy_min_degree", lambda graph, seed: (0, 0, 1))
        code, out, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", "square",
            "--mode", "acyclic-greedy",
        )
        assert (code, out) == (4, "")
        assert err == "error: internal error: order is not a permutation of the vertices\n"

    def test_oracle_cap_is_3(self, capsys):
        # gk:3 has 11 vertices, beyond the 10! order cap
        code, _, _ = invoke(
            capsys, "compare", "--input", "gk:3", "--objective", "square",
            "--mode", "acyclic-exact",
        )
        assert code == 3

    def test_subset_dp_cap_is_3(self, capsys):
        # the cap is on the largest block: a cycle is one block
        from orientopt.ordering import DP_CAP

        code, out, err = invoke(
            capsys, "solve", "--input", f"cycle:{DP_CAP + 1}", "--objective", "square",
            "--mode", "acyclic-exact",
        )
        assert code == 3 and out == ""
        assert f"exceeds the cap ({DP_CAP})" in err

    # the key of a one-edge graph under a linear cost of slope 10**4300
    # is an int of 4,301 digits, one more than str() writes
    @pytest.mark.parametrize("argv", [
        ("solve", "--mode", "acyclic-exact"),
        ("solve", "--mode", "cyclic-flow"),
        ("oracle", "--mode", "acyclic"),
        ("compare", "--mode", "acyclic-exact"),
        ("bench", "--mode", "cyclic-flow"),
    ], ids=["solve-exact", "solve-flow", "oracle", "compare", "bench"])
    def test_an_int_too_long_to_write_is_3(self, capsys, tmp_path, argv):
        p = tmp_path / "edge.txt"
        p.write_text("2 1\n0 1\n")
        spec = {"kind": "phi_sum", "shared": {"kind": "linear", "a": "1e4300"}}
        code, out, err = invoke(capsys, *argv, "--input", str(p),
                                "--objective", json.dumps(spec))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 4300 digits" in err and "Traceback" not in err

    def test_gk7_solves_above_the_cap_in_small_blocks(self, capsys):
        # gk:7 has 27 vertices in blocks of at most three
        rep = report_of(
            capsys, "solve", "--input", "gk:7", "--mode", "acyclic-exact",
            "--objective", "square",
        )
        assert rep["key"] == {"penalty": 0, "base": 47}

    def test_edgeless_graph_above_the_cap_solves(self, capsys, tmp_path):
        from orientopt.ordering import DP_CAP

        p = tmp_path / "wide.graph"
        p.write_text(f"{DP_CAP + 1} 0\n")
        rep = report_of(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "acyclic-exact",
        )
        assert rep["key"] == {"penalty": 0, "base": 0}
        assert rep["order"] == list(range(DP_CAP + 1))

    def test_unknown_mode_is_argparse_2(self, capsys):
        code, _, _ = invoke(
            capsys, "solve", "--input", "k3", "--objective", "square",
            "--mode", "sideways",
        )
        assert code == 2


# help texts, usage errors and their exit codes, recorded with COLUMNS=80
# from the parser that built every subcommand's arguments on every call
PARSER_RECORDING = json.loads(Path(__file__).with_name("cli_parser_golden.json").read_text())
RECORDED_PYTHON = tuple(int(x) for x in PARSER_RECORDING["python"].split("."))


def parser_case_id(case):
    return " ".join(case["argv"]) or "<no arguments>"


class TestArgumentParsing:
    @pytest.mark.skipif(sys.version_info[:2] != RECORDED_PYTHON,
                        reason="argparse wording differs between Python versions")
    @pytest.mark.parametrize("case", PARSER_RECORDING["cases"], ids=parser_case_id)
    def test_output_matches_recording(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", str(PARSER_RECORDING["columns"]))
        got = invoke(capsys, *case["argv"])
        assert got == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("case", PARSER_RECORDING["cases"], ids=parser_case_id)
    def test_subcommand_parser_matches_full_parser(self, capsys, case):
        # run()'s cached parser answers as a freshly built one does
        got = invoke(capsys, *case["argv"])
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(case["argv"])
        captured = capsys.readouterr()
        assert got == (e.value.code, captured.out, captured.err)


# exit codes and messages of malformed objective specs, each run as
# `solve --input k3 --objective <spec> --mode cyclic-flow`
OBJECTIVE_ERRORS = json.loads(
    Path(__file__).with_name("cli_objective_errors_golden.json").read_text()
)["cases"]


@pytest.mark.parametrize("case", OBJECTIVE_ERRORS, ids=lambda case: case["objective"])
def test_objective_errors_match_recording(capsys, case):
    got = invoke(capsys, "solve", "--input", "k3", "--objective", case["objective"],
                 "--mode", "cyclic-flow")
    assert got == (case["code"], "", case["stderr"])


# one bounded square sum written three ways: bounds inline on a bare cost
# shape, inline on the shared cost, and beside the shared cost
BOUNDED_SQUARE_SPECS = [
    '{"kind": "square", "f": 2, "g": 2}',
    '{"kind": "phi_sum", "shared": {"kind": "square", "f": 2, "g": 2}}',
    '{"kind": "phi_sum", "shared": "square", "f": 2, "g": 2}',
]


@pytest.mark.parametrize("argv", [
    ("solve", "--mode", "cyclic-flow"), ("solve", "--mode", "acyclic-exact"),
    ("oracle", "--mode", "cyclic"), ("oracle", "--mode", "acyclic"),
], ids=" ".join)
@pytest.mark.parametrize("spec", BOUNDED_SQUARE_SPECS)
def test_bounds_hold_wherever_a_spec_writes_them(capsys, spec, argv):
    # on k3 every vertex has indegree 1 (cyclic) or 0, 1, 2 (acyclic):
    # three units below f = 2 either way, and base 3 * 2**2
    rep = report_of(capsys, argv[0], "--input", "k3", "--objective", spec, *argv[1:])
    assert rep["key"] == {"penalty": 3, "base": 12}
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    echoed = parse_objective(json.dumps(rep["objective"]))
    assert echoed.resolve(g) == parse_objective(spec).resolve(g)


@pytest.mark.parametrize("spec, field", [
    ('{"kind": "dec_min", "f": 1}', "objective: `dec_min` has no field 'f'"),
    ('{"kind": "linear", "A": 1}', "objective: `linear` has no field 'A'"),
    ('{"kind": "phi_sum", "shared": "square", "h": 1}', "objective: `phi_sum` has no field 'h'"),
    ('{"kind": "phi_sum", "shared": {"kind": "square", "base": 3}}',
     "`shared`: `square` has no field 'base'"),
    ('{"kind": "phi_sum", "per_vertex": ["zero", {"kind": "exp_base", "bse": 3}, "zero"]}',
     "per_vertex[1]: `exp_base` has no field 'bse'"),
])
def test_undefined_fields_are_refused_by_name(capsys, spec, field):
    got = invoke(capsys, "solve", "--input", "k3", "--objective", spec, "--mode", "cyclic-flow")
    assert got == (2, "", f"error: line 1, column 1: {field}\n")


class TestOracle:
    def test_cyclic_with_counting(self, capsys):
        rep = report_of(
            capsys, "oracle", "--input", "k3", "--objective", "square",
            "--mode", "cyclic", "--count",
        )
        assert rep["key"] == {"penalty": 0, "base": 3}
        assert rep["optima"] == 2
        assert len(rep["orientation"]) == 3

    def test_acyclic_witness_is_an_order(self, capsys):
        rep = report_of(
            capsys, "oracle", "--input", "k3", "--objective", "dec_min",
            "--mode", "acyclic",
        )
        assert rep["key"] == [2, 1, 0]
        assert sorted(rep["order"]) == [0, 1, 2]

    def test_optima_only_when_counted(self, capsys):
        argv = ("oracle", "--input", "k3", "--objective", "square", "--mode", "acyclic")
        assert "optima" not in report_of(capsys, *argv)
        assert report_of(capsys, *argv, "--count")["optima"] == 6


class TestCompare:
    def test_self_consistency(self, capsys):
        code, out, _ = invoke(
            capsys, "compare", "--input", "k3", "--objective", "square",
            "--mode", "acyclic-exact",
        )
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_flow_vs_cyclic_oracle(self, capsys):
        code, out, _ = invoke(
            capsys, "compare", "--input", "fig4", "--objective", "inc_max",
            "--mode", "cyclic-flow",
        )
        assert code == 0

    def test_flow_solves_forbidden_subpaths_as_the_square_sum(self, capsys):
        code, out, _ = invoke(
            capsys, "compare", "--input", "fig4", "--objective", "forbidden_subpaths",
            "--mode", "cyclic-flow",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["match"] is True
        assert rep["solver_key"] == rep["oracle_key"]

    def test_mismatch_exits_1(self, capsys):
        # one random order (seed 0) lands on 17; the exhaustive optimum is 28
        code, out, _ = invoke(
            capsys, "compare", "--input", "fig4", "--objective", "rho_delta_sum",
            "--mode", "random", "--trials", "1", "--seed", "0",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["match"] is False
        assert rep["solver_key"] == 17
        assert rep["oracle_key"] == 28

    @pytest.mark.parametrize("instance, mode, solver, message", [
        # gk:3 has 11 vertices, complete:7 has 21 edges: both beyond the caps
        ("gk:3", "smallest-last", "weighted_smallest_last", "11! orders"),
        ("complete:7", "cyclic-flow", "solve_cyclic", "2**21 orientations"),
    ])
    def test_oracle_refuses_before_the_solver_runs(
        self, capsys, monkeypatch, instance, mode, solver, message,
    ):
        calls = []
        solve = getattr(cli, solver)
        monkeypatch.setattr(cli, solver, lambda *args: calls.append(args) or solve(*args))
        code, out, err = invoke(
            capsys, "compare", "--input", instance, "--objective", "max_weighted_indeg",
            "--mode", mode,
        )
        assert (code, out, err) == (3, "", f"error: refusing to enumerate {message}\n")
        assert calls == []


class TestBench:
    def test_reports_every_repetition(self, capsys):
        rep = report_of(
            capsys, "bench", "--input", "k3", "--objective", "square",
            "--mode", "cyclic-flow", "--repeat", "4",
        )
        assert rep["repeat"] == 4
        assert len(rep["wall_times"]) == 4
        assert rep["key"] == {"penalty": 0, "base": 3}

    def test_wall_times_are_the_reports_wall_times(self, capsys, monkeypatch):
        times = []

        def solve_report(*args):
            report, key = _solve_report(*args)
            times.append(report["wall_time"])
            return report, key

        monkeypatch.setattr(cli, "_solve_report", solve_report)
        rep = report_of(
            capsys, "bench", "--input", "fig4", "--objective", "dec_min",
            "--mode", "acyclic-exact", "--repeat", "3",
        )
        assert rep["wall_times"] == times and len(times) == 3
        assert rep["key"] == [3, 3, 3, 3, 2, 2, 1, 1, 0]

    def test_zero_repetitions_rejected(self, capsys):
        code, _, _ = invoke(
            capsys, "bench", "--input", "k3", "--objective", "square",
            "--mode", "cyclic-flow", "--repeat", "0",
        )
        assert code == 3


class TestGenerate:
    def test_gk_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--family", "gk", "--k", "3")
        assert code == 0
        g = parse_graph(out)
        assert (g.n, g.m) == (11, 13)

    def test_fig4_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--family", "fig4")
        assert code == 0
        g = parse_graph(out)
        assert (g.n, g.edges) == (9, FIG4_EDGES)

    @pytest.mark.parametrize("n, m", [(SIZE_BUDGET, 1), (1, SIZE_BUDGET), (SIZE_BUDGET + 1, 0)])
    def test_random_above_the_budget_is_3(self, capsys, n, m):
        code, out, err = invoke(
            capsys, "generate", "--family", "random", "--n", str(n), "--m", str(m),
        )
        assert (code, out) == (3, "")
        assert err == (f"error: --n plus --m is {SIZE_BUDGET + 1}, above the budget"
                       f" of {SIZE_BUDGET} vertices plus edges\n")

    @pytest.mark.parametrize("jobs, slots", [(1, 10**6), (10**6, 1), (10**5, 10**5)])
    def test_scheduling_above_the_budget_is_3(self, capsys, jobs, slots):
        code, out, err = invoke(
            capsys, "generate", "--family", "scheduling",
            "--max-jobs", str(jobs), "--max-slots", str(slots),
        )
        size = jobs + slots + jobs * slots
        assert size > SIZE_BUDGET
        assert (code, out) == (3, "")
        assert err == (f"error: --max-jobs plus --max-slots plus their product is {size},"
                       f" above the budget of {SIZE_BUDGET} vertices plus edges\n")

    @pytest.mark.parametrize("jobs, slots", [(0, 3), (4, 0), (-1, -1)])
    def test_scheduling_without_jobs_or_slots_is_3(self, capsys, jobs, slots):
        code, out, err = invoke(
            capsys, "generate", "--family", "scheduling",
            "--max-jobs", str(jobs), "--max-slots", str(slots),
        )
        assert (code, out) == (3, "")
        assert err == (f"error: need max_jobs and max_slots of at least 1,"
                       f" not {jobs} and {slots}\n")

    def test_gk_above_the_instance_cap_is_3(self, capsys):
        code, out, err = invoke(capsys, "generate", "--family", "gk", "--k", "222223")
        assert (code, out) == (3, "")
        assert "at most gk:222222," in err

    def test_random_respects_flags(self, capsys, tmp_path):
        p = tmp_path / "g.graph"
        code, _, _ = invoke(
            capsys, "generate", "--family", "random", "--n", "6", "--m", "7",
            "--seed", "5", "--weighted", "--connected", "--out", str(p),
        )
        assert code == 0
        g = parse_graph(p.read_text())
        assert (g.n, g.m) == (6, 7)
        assert g.weights is not None

    def test_random_simple_with_a_degree_cap(self, capsys):
        for seed in range(6):
            code, out, _ = invoke(
                capsys, "generate", "--family", "random", "--n", "9", "--m", "8",
                "--seed", str(seed), "--simple", "--max-degree", "2",
            )
            assert code == 0
            g = parse_graph(out)
            assert (g.n, g.m) == (9, 8) and g.is_simple and g.max_degree <= 2

    def test_generate_then_solve(self, capsys, tmp_path):
        p = tmp_path / "g.graph"
        invoke(
            capsys, "generate", "--family", "random", "--n", "5", "--m", "6",
            "--seed", "8", "--out", str(p),
        )
        rep = report_of(
            capsys, "solve", "--input", str(p), "--objective", "square",
            "--mode", "cyclic-flow",
        )
        assert rep["m"] == 6

    def test_scheduling_bundle_solves_feasibly(self, capsys, tmp_path):
        gpath = tmp_path / "sched.graph"
        opath = tmp_path / "sched.objective"
        code, _, _ = invoke(
            capsys, "generate", "--family", "scheduling", "--seed", "6",
            "--out", str(gpath), "--objective-out", str(opath),
        )
        assert code == 0
        rep = report_of(
            capsys, "solve", "--input", str(gpath),
            "--objective", opath.read_text(), "--mode", "cyclic-flow",
        )
        assert rep["feasible"] is True
        assert rep["key"]["penalty"] == 0
        # the objective flag also accepts the spec file itself
        by_path = report_of(
            capsys, "solve", "--input", str(gpath),
            "--objective", str(opath), "--mode", "cyclic-flow",
        )
        assert by_path["key"] == rep["key"]

    def test_objective_file_with_bad_contents_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.objective"
        p.write_text('{"kind": "mystery"}\n')
        code, _, err = invoke(
            capsys, "solve", "--input", "k3", "--objective", str(p),
            "--mode", "cyclic-flow",
        )
        assert code == 2
        assert "mystery" in err

    def test_infeasible_generate_is_3(self, capsys):
        code, _, _ = invoke(
            capsys, "generate", "--family", "random", "--n", "1", "--m", "2",
        )
        assert code == 3


# The subprocess tests run the code of this checkout, whatever else is
# installed or on PATH: its ``src`` goes first on the child's PYTHONPATH.
SRC = Path(orientopt.__file__).resolve().parents[1]
K3_SOLVE = ("solve", "--input", "k3", "--objective", "square",
            "--mode", "cyclic-flow")
K3_ORACLE = ("oracle", "--input", "k3", "--objective", "square",
             "--mode", "cyclic")


def run_process(*cmd, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        list(cmd), capture_output=True, text=True, timeout=60, env=env, preexec_fn=preexec_fn,
    )


def run_declared_script(*argv):
    """Start ``orientopt`` as an installer's wrapper script would.

    The entry point is read from ``[project.scripts]`` in this checkout's
    ``pyproject.toml``, loaded in a fresh interpreter with
    ``sys.argv[0] = "orientopt"``, and its return value becomes the exit
    code, so no install step is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        value = tomllib.load(f)["project"]["scripts"]["orientopt"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name='orientopt', value={value!r},"
        " group='console_scripts')\n"
        "sys.argv[0] = 'orientopt'\n"
        "sys.exit(ep.load()())\n"
    )
    return run_process(sys.executable, "-c", wrapper, *argv)


def test_console_script_end_to_end():
    out = run_declared_script(*K3_SOLVE)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["key"] == {"penalty": 0, "base": 3}
    # run()'s exit code, not only its output, must reach the process
    out = run_declared_script(
        "generate", "--family", "random", "--n", "1", "--m", "2",
    )
    assert out.returncode == 3, out.stderr


@pytest.mark.skipif(shutil.which("orientopt") is None,
                    reason="no installed orientopt script on PATH")
def test_installed_console_script_end_to_end():
    out = run_process("orientopt", *K3_SOLVE)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["key"] == {"penalty": 0, "base": 3}


def test_module_invocation_matches_script():
    out = run_process(sys.executable, "-m", "orientopt.cli", *K3_ORACLE)
    assert out.returncode == 0, out.stderr
    by_module = json.loads(out.stdout)
    assert by_module["key"] == {"penalty": 0, "base": 3}
    out = run_declared_script(*K3_ORACLE)
    assert out.returncode == 0, out.stderr
    by_script = json.loads(out.stdout)
    by_module.pop("wall_time"), by_script.pop("wall_time")
    assert by_module == by_script


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak from procfs")
def test_running_out_of_memory_is_3_with_one_error_line(tmp_path):
    """A 24-vertex block under dec_min, in a child whose address space may
    grow 100 MB past an idle child's peak: the subset DP's sweep runs out of
    memory, and the CLI says so in one line.  The limit is set in the
    child only."""
    resource = pytest.importorskip("resource")
    rng = random.Random(1)
    n = 24
    chords = [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    edges = [(v, (v + 1) % n) for v in range(n)] + chords
    p = tmp_path / "block.txt"
    p.write_text(graph_to_text(build_graph(n, edges)))
    probe = run_process(sys.executable, "-c", "import orientopt.cli\n"
                        "print(*(s for s in open('/proc/self/status') if 'VmPeak' in s))")
    limit = int(probe.stdout.split()[1]) * 1024 + (100 << 20)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = run_process(sys.executable, "-m", "orientopt.cli", "solve", "--input", str(p),
                      "--objective", "dec_min", "--mode", "acyclic-exact", preexec_fn=cap_memory)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: solve --mode acyclic-exact ran out of memory\n"


class TestParserCache:
    """run() builds the parser once per process, on its first call."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_each_parser_is_built_at_most_once(self, capsys, monkeypatch, tmp_path):
        built = []

        def counting_build_parser():
            built.append(True)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        out = str(tmp_path / "g.txt")
        requests = [
            K3_SOLVE,
            K3_ORACLE,
            ("compare", "--input", "k3", "--objective", "square", "--mode", "acyclic-exact"),
            ("bench", "--input", "k3", "--objective", "square", "--mode", "cyclic-flow",
             "--repeat", "1"),
            ("generate", "--family", "gk", "--out", out),
        ]
        for i in range(20):
            code, _, err = invoke(capsys, *requests[(3 * i) % 5])
            assert code == 0, err
        assert built == [True]

    def test_usage_errors_leave_no_trace(self, capsys):
        for argv in [
            ("solve", "--input", "k3", "--objective", "square", "--mode", "sideways"),
            ("solve", "--input", "k3", "--objective", "square", "--mode", "acyclic-greedy",
             "--seed", "x"),
            ("solve", "--objective", "square", "--mode", "acyclic-greedy", "--seed", "3"),
            ("solve", "--input", "k3", "--objective", "square", "--mode", "cyclic-flow",
             "--unknown"),
        ]:
            assert invoke(capsys, *argv)[0] == 2
        argv = ("solve", "--input", "fig4", "--objective", "square", "--mode", "acyclic-greedy")
        here = report_of(capsys, *argv)
        fresh = run_process(sys.executable, "-m", "orientopt.cli", *argv)
        assert fresh.returncode == 0, fresh.stderr
        there = json.loads(fresh.stdout)
        here.pop("wall_time"), there.pop("wall_time")
        assert list(here.items()) == list(there.items())

    def test_help_wraps_to_the_width_when_printed(self, capsys, monkeypatch):
        helps = []
        for columns in (200, 40):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, out, _ = invoke(capsys, "solve", "--help")
            assert code == 0
            with pytest.raises(SystemExit):
                build_parser().parse_args(["solve", "--help"])
            assert out == capsys.readouterr().out
            helps.append(out)
        assert helps[0] != helps[1]
        assert cli._parser.cache_info().misses == 1

    def test_unknown_words_do_not_grow_the_cache(self, capsys):
        for i in range(50):
            code, out, err = invoke(capsys, f"nosuch{i}")
            assert code == 2 and out == "" and "invalid choice" in err
        assert cli._parser.cache_info().currsize == 1
        for argv in [(), ("--help",), K3_SOLVE, ("solve", "--help"), ("nosuch",)]:
            invoke(capsys, *argv)
        assert cli._parser.cache_info().currsize == 1

    def test_importing_the_cli_builds_no_parser(self):
        fresh = run_process(sys.executable, "-c", "import orientopt.cli as c; "
                            "print(c._parser.cache_info().currsize)")
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "0\n", "")
