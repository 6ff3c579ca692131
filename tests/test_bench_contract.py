"""The benchmark in perfbench/ drives orientopt through names it looks up
outside its per-request error handling, so a renamed or removed name
makes a run exit without its result line.  These tests keep that
contract visible in the test suite."""

import json
import re
import subprocess
import sys
from importlib import import_module, util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def referenced_names():
    """Every (module, name) the benchmark reads as ``lib.<module>.<name>``,
    directly or through a local alias ``x = lib.<module>`` (outside
    string literals such as layer names)."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text()
        found.update(re.findall(r"\blib\.(\w+)\.(\w+)", text))
        for alias, module in re.findall(r"^\s*(\w+) = lib\.(\w+)\s*$", text, re.M):
            found.update((module, name) for name in re.findall(rf"(?<![\w.\"']){alias}\.(\w+)", text))
    return found


def test_every_name_the_benchmark_reads_exists():
    names = referenced_names()
    assert ("cli", "run") in names and ("cli", "json") in names
    missing = [
        f"orientopt.{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(import_module(f"orientopt.{module}"), name)
    ]
    assert not missing


def test_every_traced_function_exists():
    """The tracer skips a traced function that is missing, and its
    declared per-layer metrics silently go with it."""
    spec = util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
    tracing = util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"orientopt.{module}.{attr}"
        for module, attr, _, _ in tracing.TRACED
        if not hasattr(import_module(f"orientopt.{module}"), attr)
    ]
    assert not missing


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


# a counter each workload's solver must drive above zero
WORK_COUNTER = {
    "acyclic-exact": "ordering.dp_subsets",
    "acyclic-heuristic": "ordering.smallest_last_vertices",
    "cyclic": "flow.edges",
    "oracle": "exhaustive.candidates",
}


@pytest.mark.parametrize("workload", sorted(WORK_COUNTER))
def test_traced_run_prints_a_correct_result_line(workload):
    result = run_bench(workload, 1)
    assert result["metrics"][WORK_COUNTER[workload]]["value"] > 0
    missing = [m["name"] for m in DECLARED["per_layer"] if m["name"] not in result["metrics"]]
    assert not missing


def test_untraced_run_prints_every_end_to_end_metric():
    metrics = run_bench("cyclic", 0)["metrics"]
    for m in DECLARED["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_every_perf_record_keeps_the_pair_format():
    """Each ``BENCH_*.json`` at the root is a perf record: alternating
    parent/change runs of workloads that BENCHMARK.json declares, each
    side with the result line's counts and the four end-to-end metrics,
    every run correct and without a failed request."""
    workloads = {w["name"] for w in DECLARED["workloads"]}
    metrics = [m["name"] for m in DECLARED["end_to_end"]]
    fields = {"benchmark", "machine", "parent_commit", "change_commit", "change_blobs", "claim",
              "runs"}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert fields <= set(record), (path.name, sorted(fields - set(record)))
        for run in record["runs"]:
            where = (path.name, run.get("workload"), run.get("seed"))
            assert run["workload"] in workloads, where
            assert isinstance(run["seed"], int), where
            assert run["pairs"], where
            for pair in run["pairs"]:
                assert pair["first"] in ("parent", "change"), (where, pair.get("pair"))
                for side in ("parent", "change"):
                    result = pair[side]
                    assert result["correct"] is True, (where, pair.get("pair"), side)
                    assert result["failed"] == 0, (where, pair.get("pair"), side)
                    assert result["attempted"] > 0, (where, pair.get("pair"), side)
                    for name in metrics:
                        assert result[name] > 0, (where, pair.get("pair"), side, name)
