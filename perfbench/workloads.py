"""Seeded request lists for the four benchmark workloads.

A workload is a list of slots; one round instantiates every slot once
with its own input file, so no argv repeats within a run.  Each slot of
round ``r`` draws from ``random.Random("<workload>/<seed>/<r>/<slot>")``,
so a request's inputs depend only on the workload, the seed, the round
and the slot, never on how many rounds a run has.  Sizes are fixed per
slot; only the random structure varies with the seed, which keeps the
work of a run nearly the same from seed to seed.

Multigraphs and scheduling instances come from ``orientopt.instances``
(their cost is part of the set-up time); simple and subcubic graphs come
from the generators below.  Files are written in the text graph format
by this module, so the program only ever sees the files and the argv.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Seconds one round takes at the seed commit, at the nominal speed of
#: ``run.REFERENCE_SECONDS``.  A run of ``--seconds S`` has ``round(S / ROUND_SECONDS)`` rounds (at
#: least one), so the request list is fixed by the arguments alone.
ROUND_SECONDS = {
    "cyclic": 2.9,
    "acyclic-exact": 1.7,
    "acyclic-heuristic": 3.5,
    "oracle": 3.6,
}


@dataclass
class Request:
    """One call into the program, plus what the checker needs to know."""

    name: str  # unique within a run: r<round>-<slot>
    kind: str  # solve | compare | oracle | mixed
    mode: str
    graph: Path
    objective: object  # a kind name or a JSON document, as given to the program
    argv: list[str] | None = None  # None for library calls (kind "mixed")
    fixed: dict[int, int] = field(default_factory=dict)  # mixed: edge id -> head


class Inputs:
    """Writes the input files of one run into its work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def graph(self, name: str, n: int, edges, weights=None) -> Path:
        head = f"{n} {len(edges)}" + (" weighted" if weights is not None else "")
        lines = [head]
        for j, (u, v) in enumerate(edges):
            if weights is None:
                lines.append(f"{u} {v}")
            else:
                w = weights[j]
                lines.append(f"{u} {v} {w.numerator}/{w.denominator}")
        path = self.workdir / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def objective(self, name: str, spec) -> str:
        """Bare kind names go on the command line; documents go to a file."""
        if isinstance(spec, str):
            return spec
        path = self.workdir / f"{name}.objective.json"
        path.write_text(json.dumps(spec))
        return str(path)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def simple_graph(rng: random.Random, n: int, m: int):
    """Uniform simple graph with m distinct edges, by rejection."""
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def subcubic_graph(rng: random.Random, n: int, chords: int):
    """Connected multigraph of maximum degree 3: a spine path through a
    random vertex permutation, plus chords between vertices of degree
    below 3.  ``random_multigraph(connected=True, max_degree=3)`` gives
    up at the sizes used here."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    open_ = [v for v in range(n) if deg[v] < 3]
    for _ in range(chords):
        u, v = rng.sample(open_, 2)
        edges.append((u, v))
        for x in (u, v):
            deg[x] += 1
            if deg[x] == 3:
                open_.remove(x)
        if len(open_) < 2:
            break
    return edges


# ---------------------------------------------------------------------------
# Slots.  Each slot function takes (lib, rng, out, name) and returns a Request.


def solve_request(name, mode, path, objective, out, extra=()):
    obj_arg = out.objective(name, objective)
    argv = ["solve", "--input", str(path), "--objective", obj_arg, "--mode", mode, *extra]
    return Request(name, "solve", mode, path, objective, argv)


def _multigraph(lib, rng, n, m, weighted=False):
    return lib.instances.random_multigraph(n, m, _seed(rng), weighted=weighted)


def _cyclic(objective, n):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 3 * n)
        return solve_request(name, "cyclic-flow", out.graph(name, g.n, g.edges), objective, out)
    return build


def _cyclic_bounded(n):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 3 * n)
        f = [rng.randint(0, d // 2) for d in g.degrees]
        upper = [lo + rng.randint(0, 2 + d // 3) for lo, d in zip(f, g.degrees)]
        spec = {"kind": "phi_sum", "shared": {"kind": "square"}, "f": f, "g": upper}
        return solve_request(name, "cyclic-flow", out.graph(name, g.n, g.edges), spec, out)
    return build


def _scheduling(max_jobs, max_slots):
    # random_scheduling_instance draws the job and slot counts uniformly
    # from 1..max; keeping only draws in the top quarter of both ranges
    # keeps the size of this slot nearly the same from seed to seed.
    def build(lib, rng, out, name):
        while True:
            inst = lib.instances.random_scheduling_instance(
                _seed(rng), max_jobs=max_jobs, max_slots=max_slots
            )
            if 4 * inst.num_jobs >= 3 * max_jobs and 4 * inst.num_slots >= 3 * max_slots:
                break
        g, objective = lib.instances.scheduling_to_orientation(inst)
        spec = lib.formats.objective_to_json(objective)
        return solve_request(name, "cyclic-flow", out.graph(name, g.n, g.edges), spec, out)
    return build


def _mixed(objective, n):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 3 * n)
        fixed = {j: rng.choice(g.edges[j]) for j in sorted(rng.sample(range(g.m), g.m // 2))}
        path = out.graph(name, g.n, g.edges)
        return Request(name, "mixed", "cyclic-flow", path, objective, fixed=fixed)
    return build


def _exact(objective, n):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 2 * n)
        return solve_request(name, "acyclic-exact", out.graph(name, g.n, g.edges), objective, out)
    return build


def _smallest_last(n, weighted):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 3 * n, weighted=weighted)
        path = out.graph(name, g.n, g.edges, g.weights)
        return solve_request(name, "smallest-last", path, "max_weighted_indeg", out)
    return build


def _seeded(mode, objective, n):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 3 * n)
        extra = ("--seed", str(rng.randrange(10**6)))
        return solve_request(name, mode, out.graph(name, g.n, g.edges), objective, out, extra)
    return build


def _slope(n):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, 3 * n)
        per = [
            {"kind": "linear", "a": f"{rng.randint(-20, 20)}/{rng.randint(1, 6)}",
             "b": rng.randint(0, 5)}
            for _ in range(n)
        ]
        spec = {"kind": "phi_sum", "per_vertex": per}
        return solve_request(name, "slope", out.graph(name, g.n, g.edges), spec, out)
    return build


def _combine_st(n):
    def build(lib, rng, out, name):
        edges = subcubic_graph(rng, n, n // 3)
        return solve_request(name, "combine-st", out.graph(name, n, edges), "rho_delta_sum", out)
    return build


def _derandomized(n, simple):
    def build(lib, rng, out, name):
        if simple:
            edges = simple_graph(rng, n, 3 * n)
        else:
            edges = _multigraph(lib, rng, n, 3 * n).edges
        path = out.graph(name, n, edges)
        return solve_request(name, "derandomized", path, "rho_delta_sum", out)
    return build


def _compare_slot(mode, objective, n, m, weighted=False):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, m, weighted=weighted)
        path = out.graph(name, g.n, g.edges, g.weights)
        argv = ["compare", "--input", str(path), "--objective", out.objective(name, objective),
                "--mode", mode]
        return Request(name, "compare", mode, path, objective, argv)
    return build


def _oracle_count(mode, objective, n, m):
    def build(lib, rng, out, name):
        g = _multigraph(lib, rng, n, m)
        path = out.graph(name, g.n, g.edges)
        argv = ["oracle", "--input", str(path), "--objective", objective,
                "--mode", mode, "--count"]
        return Request(name, "oracle", mode, path, objective, argv)
    return build


WORKLOADS = {
    # flow does nearly all the work: LiftedCost ints (square, abs_balance,
    # bounded), big ints (dec_min), Fractions (inc_max), per-vertex tables
    # (scheduling) and partial orientations (solve_mixed).
    # Sizes put dec_min alone in the middle of the latency order, so the
    # median request is a dec_min one rather than a boundary between slots.
    "cyclic": [
        ("square", _cyclic("square", 30)),
        ("dec_min", _cyclic("dec_min", 40)),
        ("inc_max", _cyclic("inc_max", 30)),
        ("abs_balance", _cyclic("abs_balance", 60)),
        ("bounded", _cyclic_bounded(50)),
        ("scheduling", _scheduling(24, 6)),
        ("mixed", _mixed("square", 70)),
    ],
    # exact_subset_dp dominates; LiftedCost tables (square, bounded cube)
    # and plain or big int tables (the rest) both run.
    "acyclic-exact": [
        ("square", _exact("square", 16)),
        ("cube_bounded", _exact({"kind": "phi_sum", "shared": {"kind": "cube"},
                                 "f": 1, "g": 3}, 14)),
        ("dec_min", _exact("dec_min", 16)),
        ("inc_max", _exact("inc_max", 16)),
        ("rho_delta_sum", _exact("rho_delta_sum", 16)),
        ("forbidden_subpaths", _exact("forbidden_subpaths", 15)),
    ],
    # O(n^2) peeling, the cubic expectation engine, parsing of large files
    # and large reports.
    "acyclic-heuristic": [
        ("smallest_last", _smallest_last(1000, weighted=False)),
        ("smallest_last_weighted", _smallest_last(1000, weighted=True)),
        ("greedy", _seeded("acyclic-greedy", "square", 1500)),
        ("random", _seeded("random", "rho_delta_sum", 1500)),
        ("slope", _slope(2000)),
        ("combine_st", _combine_st(2000)),
        # a ninth slot, so that the median request falls inside one slot's
        # latencies instead of between two
        ("combine_st_small", _combine_st(1000)),
        ("derandomized_multi", _derandomized(40, simple=False)),
        ("derandomized_simple", _derandomized(50, simple=True)),
    ],
    # exhaustive enumeration dominates; the solvers are negligible.
    "oracle": [
        ("exact_square", _compare_slot("acyclic-exact", "square", 8, 16)),
        ("exact_dec_min", _compare_slot("acyclic-exact", "dec_min", 8, 16)),
        ("exact_inc_max", _compare_slot("acyclic-exact", "inc_max", 8, 16)),
        ("exact_rho", _compare_slot("acyclic-exact", "rho_delta_sum", 8, 16)),
        ("flow_square", _compare_slot("cyclic-flow", "square", 8, 18)),
        ("flow_dec_min", _compare_slot("cyclic-flow", "dec_min", 8, 16)),
        ("smallest_last", _compare_slot("smallest-last", "max_weighted_indeg", 8, 16,
                                        weighted=True)),
        ("count_acyclic", _oracle_count("acyclic", "square", 9, 18)),
        ("count_cyclic", _oracle_count("cyclic", "inc_max", 8, 16)),
    ],
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(lib, workload: str, seed: int, rounds: int, workdir: Path) -> list[Request]:
    """Generate and write every input of a run; returns its request list."""
    out = Inputs(workdir)
    requests = []
    for r in range(rounds):
        for slot, make in WORKLOADS[workload]:
            rng = random.Random(f"{workload}/{seed}/{r}/{slot}")
            requests.append(make(lib, rng, out, f"r{r:03d}-{slot}"))
    return requests
