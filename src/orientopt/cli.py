"""Command-line front end.

Subcommands: ``solve`` (run a solver mode), ``oracle`` (exhaustive
ground truth), ``compare`` (solver vs oracle, nonzero exit on key
mismatch), ``generate`` (builtin graph families), ``bench`` (``solve``,
repeated, with each run's wall time).  Reports are single-line JSON with
a ``schema`` field; all randomness comes from ``--seed``.

Exit codes: 0 success, 1 compare mismatch, 2 parse error (with a
line/column diagnostic on stderr), 3 precondition violation (a file that
cannot be read or written, or memory running out, among them), 4 internal
error (a solver result that failed its own check).

``run`` pauses CPython's cyclic garbage collector while a command runs,
and turns it back on after if it was on: a request builds tuples, lists
and dicts of ints with no reference cycles, so the collector's passes
would only cost time (about 5% of a list of 1000-vertex requests).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .graph import (
    Multigraph,
    _degree_vector,
    _int_indegrees,
    _order_heads,
    check_order,
    check_orientation,
)
from .objectives import PhiSum, LiftedCost, evaluate, resolved
from .flow import solve_cyclic
from .ordering import (
    combine_st_orders,
    derandomized_order,
    greedy_min_degree,
    linear_slope_order,
    random_order_trials,
    solve_acyclic_exact,
    weighted_smallest_last,
)
from .exhaustive import brute_optimal
from .formats import (
    FormatError,
    graph_to_text,
    key_to_json,
    objective_to_json,
    parse_graph,
    parse_objective,
    rational_to_json,
)
from .instances import (
    SIZE_BUDGET,
    _UnknownName,
    fig4_graph,
    named_instance,
    random_multigraph,
    random_scheduling_instance,
    scheduling_to_orientation,
)

MODES = (
    "cyclic-flow",
    "acyclic-exact",
    "acyclic-greedy",
    "smallest-last",
    "slope",
    "combine-st",
    "random",
    "derandomized",
)


def _load_graph(spec: str) -> Multigraph:
    try:
        return named_instance(spec)
    except _UnknownName:
        pass
    if os.path.exists(spec):  # also False for names the OS cannot look up
        graph = parse_graph(Path(spec).read_text())
        if graph.n > SIZE_BUDGET:  # every per-vertex table is that long
            raise ValueError(f"{spec} declares {graph.n} vertices, above the"
                             f" budget of {SIZE_BUDGET} vertices plus edges")
        return graph
    raise ValueError(
        f"input {spec!r} is neither a builtin instance name nor a readable file"
    )


def _load_objective(spec: str):
    try:
        return parse_objective(spec)
    except FormatError:
        if os.path.exists(spec):
            return parse_objective(Path(spec).read_text())
        raise


def _slopes_from_objective(graph, objective):
    if not isinstance(objective, PhiSum):
        raise ValueError("slope mode needs a phi_sum objective with linear costs")
    phis = resolved(objective, graph)
    if any(phi.spec.kind != "linear" or phi.f is not None or phi.g is not None for phi in phis):
        raise ValueError("slope mode needs unbounded linear per-vertex costs")
    return [phi.spec.params[0] for phi in phis]


def _heads_key(graph, objective, heads, dv):
    """The key of the orientation that ``heads`` give, whose plain
    degrees ``dv`` holds.  A weighted ``max_weighted_indeg`` key is one
    Fraction of the largest int weighted indegree (in units of
    :attr:`Multigraph.int_weights`), so it needs no Fraction per vertex."""
    if objective.kind == "max_weighted_indeg" and graph.weights is not None:
        indeg = _int_indegrees(graph, heads, weighted=True)
        return Fraction(max(indeg), graph.int_weights[1]) if indeg else 0
    # without weights, the plain degrees equal the weighted ones
    return evaluate(objective, graph, dv)


def _run_mode(graph, objective, mode, seed, trials):
    """Dispatch one solver mode; returns (order, None) or (None,
    orientation), then the solver's own key | None and extra report fields."""
    extra: dict = {}
    key = None
    if mode == "cyclic-flow":
        sol = solve_cyclic(graph, objective)
        return None, sol.orientation, sol.key, extra
    if mode == "acyclic-exact":
        order, key = solve_acyclic_exact(graph, objective)
    elif mode == "acyclic-greedy":
        order = greedy_min_degree(graph, seed)
    elif mode == "smallest-last":
        order = weighted_smallest_last(graph)
    elif mode == "slope":
        order = linear_slope_order(graph, _slopes_from_objective(graph, objective))
    elif mode == "combine-st":
        order = combine_st_orders(graph)
    elif mode == "random":
        res = random_order_trials(graph, 0 if seed is None else seed, trials)
        order = res.order
        extra["trials"] = {"count": trials, "mean": rational_to_json(res.mean)}
    elif mode == "derandomized":
        order = derandomized_order(graph)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return order, None, key, extra


def _solve_report(graph, objective, mode, seed, trials):
    """Run one mode, check its answer and return (report, key).  The key is
    evaluated once, from the answer's heads, and a solver's own key must
    equal it; loops leave the orientation undefined."""
    start = time.perf_counter()
    order, orientation, own_key, extra = _run_mode(graph, objective, mode, seed, trials)
    elapsed = time.perf_counter() - start
    try:  # only the solver's answer reaches these checks
        if order is None:
            check_orientation(graph, orientation)
            heads = orientation.heads
        else:
            order = check_order(graph, order)
            heads = _order_heads(graph, order)
    except ValueError as e:
        raise RuntimeError(f"internal error: {e}") from e
    plain = _degree_vector(graph, heads, False)
    key = _heads_key(graph, objective, heads, plain)
    if own_key is not None and own_key != key:
        raise RuntimeError("internal error: reported key does not re-evaluate")
    report = {
        "schema": 1,
        "subcommand": "solve",
        "mode": mode,
        "objective": objective_to_json(objective),
        "n": graph.n,
        "m": graph.m,
        "order": list(order) if order is not None else None,
        "orientation": None if graph.has_loops else list(heads),
        "indeg": list(plain.indeg),
        "outdeg": list(plain.outdeg),
        "key": key_to_json(key),
    }
    if isinstance(key, LiftedCost):
        report["feasible"] = key.penalty == 0
    report.update(extra)
    report["wall_time"] = round(elapsed, 6)
    return report, key


def _print_report(report: dict) -> None:
    """Write one report to stdout as a line of JSON, or, before writing
    anything, raise ValueError on an int of more digits than str() writes."""
    try:
        text = json.dumps(report)
    except ValueError as e:  # json.dumps meets no other ValueError in a report
        raise ValueError(f"the report holds an int of more than {sys.get_int_max_str_digits()}"
                         " digits, Python's limit for writing an int as text") from e
    print(text)


def _cmd_solve(args) -> int:
    graph = _load_graph(args.input)
    objective = _load_objective(args.objective)
    _print_report(_solve_report(graph, objective, args.mode, args.seed, args.trials)[0])
    return 0


def _cmd_oracle(args) -> int:
    graph = _load_graph(args.input)
    objective = _load_objective(args.objective)
    start = time.perf_counter()
    res = brute_optimal(graph, objective, args.mode, count_optima=args.count)
    elapsed = time.perf_counter() - start
    witness = res.witness
    report = {
        "schema": 1,
        "subcommand": "oracle",
        "mode": args.mode,
        "objective": objective_to_json(objective),
        "n": graph.n,
        "m": graph.m,
        "key": key_to_json(res.key),
    }
    if args.mode == "acyclic":
        report["order"] = list(witness)
    else:
        report["orientation"] = list(witness.heads)
    if res.count is not None:
        report["optima"] = res.count
    report["wall_time"] = round(elapsed, 6)
    _print_report(report)
    return 0


def _cmd_compare(args) -> int:
    graph = _load_graph(args.input)
    objective = _load_objective(args.objective)
    oracle_mode = "cyclic" if args.mode == "cyclic-flow" else "acyclic"
    oracle = brute_optimal(graph, objective, oracle_mode)  # its caps refuse before a solve
    _, solver_key = _solve_report(graph, objective, args.mode, args.seed, args.trials)
    match = solver_key == oracle.key
    report = {
        "schema": 1,
        "subcommand": "compare",
        "mode": args.mode,
        "objective": objective_to_json(objective),
        "solver_key": key_to_json(solver_key),
        "oracle_key": key_to_json(oracle.key),
        "match": match,
    }
    _print_report(report)
    return 0 if match else 1


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValueError("need at least one repetition")
    graph = _load_graph(args.input)
    objective = _load_objective(args.objective)
    runs = [_solve_report(graph, objective, args.mode, args.seed, args.trials)
            for _ in range(args.repeat)]
    report = {
        "schema": 1,
        "subcommand": "bench",
        "mode": args.mode,
        "repeat": args.repeat,
        "key": key_to_json(runs[-1][1]),
        "wall_times": [rep["wall_time"] for rep, _ in runs],
    }
    _print_report(report)
    return 0


def _cmd_generate(args) -> int:
    if args.family == "fig4":
        graph = fig4_graph()
    elif args.family == "gk":
        graph = named_instance(f"gk:{args.k}")
    elif args.family == "random":
        if args.n + args.m > SIZE_BUDGET:
            raise ValueError(f"--n plus --m is {args.n + args.m}, above the"
                             f" budget of {SIZE_BUDGET} vertices plus edges")
        graph = random_multigraph(
            args.n,
            args.m,
            0 if args.seed is None else args.seed,
            simple=args.simple,
            max_degree=args.max_degree,
            connected=args.connected,
            allow_loops=args.loops,
            weighted=args.weighted,
        )
    else:
        size = args.max_jobs + args.max_slots + args.max_jobs * args.max_slots
        if size > SIZE_BUDGET:
            raise ValueError(f"--max-jobs plus --max-slots plus their product is {size},"
                             f" above the budget of {SIZE_BUDGET} vertices plus edges")
        inst = random_scheduling_instance(
            0 if args.seed is None else args.seed,
            max_jobs=args.max_jobs,
            max_slots=args.max_slots,
        )
        graph, objective = scheduling_to_orientation(inst)
        if args.objective_out:
            Path(args.objective_out).write_text(
                json.dumps(objective_to_json(objective)) + "\n"
            )
    text = graph_to_text(graph)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _solver_args(p):
    p.add_argument("--input", required=True, help="graph file or builtin name")
    p.add_argument("--objective", required=True,
                   help="objective spec, kind name, or spec file")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)


def _oracle_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--mode", required=True, choices=("cyclic", "acyclic"))
    p.add_argument("--count", action="store_true", help="also count the optima")


def _bench_args(p):
    _solver_args(p)
    p.add_argument("--repeat", type=int, default=3)


def _generate_args(p):
    p.add_argument("--family", required=True, choices=("fig4", "gk", "random", "scheduling"))
    p.add_argument("--k", type=int, default=2, help="triangles for the gk family")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--loops", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--max-jobs", type=int, default=4)
    p.add_argument("--max-slots", type=int, default=3)
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.add_argument("--objective-out", default=None,
                   help="save the scheduling objective spec JSON here")


_SUBCOMMANDS = (
    ("solve", "run one solver mode", _cmd_solve, _solver_args),
    ("oracle", "exhaustive optimum on a small instance", _cmd_oracle, _oracle_args),
    ("compare", "solver vs oracle; exit 1 on mismatch", _cmd_compare, _solver_args),
    ("bench", "repeat a solve, report wall times", _cmd_bench, _bench_args),
    ("generate", "write a builtin graph family", _cmd_generate, _generate_args),
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, every subcommand with its arguments."""
    parser = argparse.ArgumentParser(
        prog="orientopt",
        description="Orient multigraph edges to optimize indegree objectives.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, func, add_arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on ``run``'s first call (never at import) and
    reused: parsing leaves it as it was, and help reads the width when printed."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)  # None: argparse reads sys.argv[1:]
    except SystemExit as e:
        return int(e.code or 0)
    command = f"{args.subcommand} --mode {args.mode}" if "mode" in args else args.subcommand
    out_of_memory = f"{command} ran out of memory"  # worded while memory is still free
    collecting = gc.isenabled()
    gc.disable()  # a request builds tuples, lists and dicts of ints, with no cycles
    try:
        return args.func(args)
    except FormatError as e:
        code, text = 2, str(e)
    except ValueError as e:
        code, text = 3, str(e)
    except OSError as e:  # a file that cannot be read or written
        where = f"{e.filename}: " if e.filename else ""
        code, text = 3, f"{where}{e.strerror or e}"
    except RuntimeError as e:
        code, text = 4, str(e)
    except MemoryError:
        code, text = 3, out_of_memory
    finally:
        if collecting:
            gc.enable()
    print(f"error: {text}", file=sys.stderr)  # past the handler, which frees the frames' memory
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
