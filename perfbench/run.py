"""orientopt benchmark: one workload run, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run imports ``orientopt``
from ``src/`` of that checkout, generates its inputs from the seed into
``.bench_build/perfbench/``, then sends the request list through
``orientopt.cli.run(argv)`` in this process, one request after the
other (a closed loop with one client and no concurrency).  Every report
is checked after the timed loop; a failed check counts as a failed
request.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``solve_s``: total wall time of the request list, argv to report;
* ``req_p50_ms``: median latency of one request;
* ``setup_s``: median over several set-ups of a fresh interpreter's
  import of ``orientopt.cli`` plus generating and writing the inputs;
* ``peak_rss_mb``: peak resident set size of this process.

The three times are scaled to a nominal machine speed.  A fixed
reference loop, sharing no code with orientopt, is timed before and
after every request and set-up; each measured time is multiplied by
``REFERENCE_SECONDS`` over the mean of its two reference times.  On a
shared host whose speed drifts by 40% from minute to minute, this takes
the spread of ``solve_s`` over seeds from about 20% to about 3%.  The
raw wall time is printed on standard error.

With ``--trace 1`` the request list runs once untraced and once traced,
and the metrics are the per-layer self times (raw seconds) and counters
of the traced pass plus ``trace.overhead_frac`` (see ``tracing.py``).

``--record`` stores the exact-mode keys of this seed in ``expected/``;
it is how the shipped records were made at the seed commit.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5
#: Duration of ``reference()`` at nominal speed: about what it takes on
#: the 2-core x86 VM (Python 3.11) the bounds were set on, whose speed
#: drifted between 0.9 and 1.7 times this.
REFERENCE_SECONDS = 0.004
MODULES = ("cli", "exhaustive", "flow", "formats", "graph", "instances", "objectives",
           "ordering")


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    value: object  # library result of a "mixed" request
    error: str | None  # the exception a request raised, if any
    seconds: float  # wall time
    scaled: float = 0.0  # wall time at nominal speed, see timed()


def load_orientopt():
    """The orientopt modules of this checkout, or None if it has none."""
    if not (SRC / "orientopt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("orientopt")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        return None
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"orientopt.{m}") for m in MODULES})


def execute(req, lib, recorder=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code = value = error = None
    if recorder is not None:
        recorder.begin(tracing.REQUEST_LAYER, req.name)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if req.kind == "mixed":
                graph = lib.formats.parse_graph(req.graph.read_text())
                objective = lib.formats.parse_objective(req.objective)
                value = lib.flow.solve_mixed(graph, req.fixed, objective)
                code = 0
            else:
                code = lib.cli.run(req.argv)
    except Exception:  # a request that raises is a failed request, not a failed run
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    if recorder is not None:
        recorder.end(seconds)
    return Outcome(code, out.getvalue(), err.getvalue(), value, error, seconds)


def reference() -> int:
    """Fixed interpreter work (integer arithmetic, list indexing, dict
    updates) that gauges the machine's current speed."""
    acc = 0
    table: dict[int, int] = {}
    data = list(range(64))
    for i in range(800):
        for j in range(0, 64, 3):
            x = data[j] * i + j
            acc = (acc + x * x) % 1000003
            table[j] = table.get(j, 0) + (x & 7)
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """A wall time at nominal speed, given the reference times around it."""
    return seconds * 2 * REFERENCE_SECONDS / (before + after)


def run_pass(requests, lib, recorder=None) -> list[Outcome]:
    outcomes = []
    before = reference_seconds()
    for req in requests:
        outcome = execute(req, lib, recorder)
        after = reference_seconds()
        outcome.scaled = scale(outcome.seconds, before, after)
        outcomes.append(outcome)
        before = after
    return outcomes


def import_seconds() -> float:
    """Import time of orientopt.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import orientopt.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, cwd=ROOT, timeout=60)
    return float(done.stdout)


def setup(lib, workload, seed, rounds, workdir, recorder=None):
    """One set-up; returns (seconds at nominal speed, request list)."""
    before = reference_seconds()
    imported = import_seconds()
    if recorder is not None:
        recorder.begin(tracing.SETUP_LAYER, workload)
    t0 = time.perf_counter()
    requests = workloads.build(lib, workload, seed, rounds, workdir)
    generated = time.perf_counter() - t0
    if recorder is not None:
        recorder.end(generated)
    return scale(imported + generated, before, reference_seconds()), requests


def self_test(lib, workdir) -> list[str]:
    """The checker must count each tampered outcome as failed: one head
    flipped, the key off by one, and a request that raises."""
    out = workloads.Inputs(workdir)
    path = out.graph("selftest", 4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    req = workloads.solve_request("selftest", "cyclic-flow", path, "square", out)
    checker = checks.Checker(lib, {})
    good = execute(req, lib)
    if checker.check(req, good)[0]:
        return ["an untampered report fails the checker"]
    problems = []
    report = json.loads(good.stdout)
    flipped = dict(report, orientation=list(report["orientation"]))
    u, v = checks.read_graph(path).edges[0]
    flipped["orientation"][0] = u if flipped["orientation"][0] == v else v
    off = dict(report, key=dict(report["key"], base=report["key"]["base"] + 1))
    for label, rep in (("flipped head", flipped), ("key off by one", off)):
        tampered = Outcome(0, json.dumps(rep) + "\n", "", None, None, 0.0)
        if not checker.check(req, tampered)[0]:
            problems.append(f"a report with a {label} passes the checker")

    def broken(*args, **kwargs):
        raise RuntimeError("internal error: raised on purpose by the checker self-test")

    original, lib.cli.solve_cyclic = lib.cli.solve_cyclic, broken
    try:
        raised = execute(req, lib)
    finally:
        lib.cli.solve_cyclic = original
    if not checker.check(req, raised)[0]:
        problems.append("a request that raises RuntimeError passes the checker")
    return problems


def check_all(checker, requests, outcomes) -> tuple[int, dict]:
    failed = 0
    observed = {}
    for req, outcome in zip(requests, outcomes):
        problems, key = checker.check(req, outcome)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED {req.name}: {'; '.join(problems)}", file=sys.stderr)
        elif key is not None:
            observed[req.name] = key
    return failed, observed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's exact-mode keys in expected/")
    args = parser.parse_args(argv)

    lib = load_orientopt()
    if lib is None:
        print(f"error: no orientopt package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    rounds = workloads.rounds_for(args.workload, args.seconds)
    base = ROOT / ".bench_build" / "perfbench"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        self_problems = self_test(lib, workdir)
        for problem in self_problems:
            print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)

        # a traced run sets up once, with only the instance generators traced
        recorder = tracing.Recorder() if args.trace else None
        undo = tracing.install(recorder, lib, {"instances.generate"}) if recorder else None
        setups = []
        for _ in range(1 if recorder else SETUP_ROUNDS):
            seconds, requests = setup(lib, args.workload, args.seed, rounds,
                                      workdir, recorder)
            setups.append(seconds)
        if undo:
            undo()

        outcomes = run_pass(requests, lib)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced_s = sum(o.scaled for o in outcomes)
        if recorder is not None:
            undo = tracing.install(recorder, lib)
            try:
                traced = run_pass(requests, lib, recorder)
            finally:
                undo()
            recorder.dump(base / f"trace-{args.workload}-{args.seed}.json")

        records_path = HERE / "expected" / f"{args.workload}.json"
        records = json.loads(records_path.read_text()) if records_path.exists() else {}
        # a recording run replaces this seed's records instead of checking them
        checker = checks.Checker(lib, {} if args.record else records.get(str(args.seed), {}))
        failed, observed = check_all(checker, requests, outcomes)
        attempted = len(outcomes)
        if recorder is not None:
            more, _ = check_all(checker, requests, traced)
            failed += more
            attempted += len(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record and failed == 0 and not self_problems:
        records[str(args.seed)] = observed
        records_path.parent.mkdir(exist_ok=True)
        records_path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")

    if recorder is None:
        metrics = {
            "solve_s": (untraced_s, "s"),
            "req_p50_ms": (statistics.median(o.scaled for o in outcomes) * 1000, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_s = sum(o.seconds for o in traced)
        overhead = sum(o.scaled for o in traced) / untraced_s - 1
        metrics = tracing.layer_metrics(recorder, traced_s, overhead)
        attributed = sum(recorder.self_times(tracing.REQUEST_LAYER).values())
        print(f"layer self times add up to {attributed:.6f} s of {traced_s:.6f} s traced",
              file=sys.stderr)
    wall = sum(o.seconds for o in outcomes)
    print(f"{args.workload} seed {args.seed}: {len(requests)} requests in {rounds} rounds, "
          f"{failed} of {attempted} failed; {wall:.3f} s wall, machine at "
          f"{untraced_s / wall:.3f} of nominal speed", file=sys.stderr)
    result = {
        "correct": failed == 0 and not self_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
