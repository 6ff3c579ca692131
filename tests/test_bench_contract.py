"""The benchmark in perfbench/ drives orientopt through names it looks up
outside its per-request error handling, so a renamed or removed name
makes a run exit without its result line.  These tests keep that
contract visible in the test suite."""

import json
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


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


# a counter each workload's solver must drive above zero
WORK_COUNTER = {
    "acyclic-exact": "ordering.dp_subsets",
    "cyclic": "flow.edges",
    "oracle": "exhaustive.candidates",
}


@pytest.mark.parametrize("workload", sorted(WORK_COUNTER))
def test_traced_run_prints_a_correct_result_line(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"][WORK_COUNTER[workload]]["value"] > 0
