"""Every module-level import in the library is used, and the solvers
stay apart from the brute-force oracles.

No linter runs on this project, so this test is the check: it parses
each module of ``orientopt`` except ``__init__.py`` (which imports to
re-export) and fails on a name that a top-level import binds and the
module never reads, and on a module-level private name (a function,
class or constant whose name starts with one underscore) that no module
of the package reads by name, attribute or import.  It also fails when a solver module (``flow``,
``ordering``) imports from ``exhaustive`` or ``exhaustive`` imports a
solver, anywhere in the module: an oracle that shares code with the
solver it checks cannot catch that code's faults.  An exactness lint
fails on a float literal or a ``float(`` call anywhere in the package:
values stay ints and Fractions.  An import guard keeps ``dataclasses``
and ``inspect`` out of the CLI's start-up, which every run pays for.
A walker lint keeps one enumerator per regime: only ``brute_optimal``
reads the oracle walkers, and only ``_ranker`` makes the rankers they
take.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import orientopt

PACKAGE = Path(orientopt.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from heapq import heappop as pop, heappush\n"
        "import re\n"
        "pop(re.findall('', ''))\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: heappush"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of ``sources`` (file name -> source)
    that none of them reads, as a ``Name``, an attribute or an import."""
    bound = []
    read = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            bound += [(name, node.lineno, t) for t in targets
                      if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{name} line {line}: {t}" for name, line, t in bound if t not in read]


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "_CAP = 3\n"
            "_LIMIT: int = 4\n"
            "__all__ = []\n"
            "def _join(x):\n"
            "    _local = 1\n"
            "    return x\n"
            "class _Pick:\n"
            "    pass\n"
            "def _used():\n"
            "    return _CAP\n"
        ),
        "b.py": "from .a import _used\nimport a\nprint(a._Pick)\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _LIMIT", "a.py line 4: _join"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def package_imports(source: str) -> set[str]:
    """The ``orientopt`` modules a source imports from, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            names.update(p[1] for p in parts if p[0] == "orientopt" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "orientopt":
                continue
            if node.level == 0:
                module = module[1:]
            if module and module[0]:
                names.add(module[0])
            else:  # from . import x, from orientopt import x
                names.update(alias.name for alias in node.names)
    return names


def test_the_check_sees_every_package_import():
    source = (
        "import os\n"
        "from .graph import build_graph\n"
        "import orientopt.flow\n"
        "def f():\n"
        "    from . import exhaustive\n"
        "    from orientopt.objectives import square\n"
    )
    assert package_imports(source) == {"graph", "flow", "exhaustive", "objectives"}


@pytest.mark.parametrize("solver", ["flow.py", "ordering.py"])
def test_solvers_import_nothing_from_the_oracles(solver):
    assert "exhaustive" not in package_imports((PACKAGE / solver).read_text())


def test_the_oracles_import_no_solver():
    assert not package_imports((PACKAGE / "exhaustive.py").read_text()) & {"flow", "ordering"}


def inexact_numbers(source: str) -> list[str]:
    """Float literals and ``float(`` calls, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, node.col_offset, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, node.col_offset, "float("))
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


def test_the_check_sees_floats():
    source = (
        "import time\n"
        "x = 1 / 2 + 3\n"
        "t = time.perf_counter()\n"
        "if isinstance(x, float):\n"
        "    y = float(x) + 0.5\n"
        "z = -1e3\n"
    )
    assert inexact_numbers(source) == ["line 5: float(", "line 5: 0.5", "line 6: 1000.0"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_float_enters_the_package(path):
    assert inexact_numbers(path.read_text()) == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S skips site, so only what orientopt.cli imports is loaded
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import orientopt.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


WALKERS = {"_walk_orientations", "_walk_orders"}


def walker_misuse(sources: dict[str, str]) -> list[str]:
    """Reads of a walker of :data:`WALKERS` outside ``brute_optimal``, and
    walker calls there whose ranker (the second argument) is not a name
    bound only by ``_ranker(...)``.  A walker called through a local name
    (``walk = _walk_orders``, also inside a tuple assignment) counts."""
    found = []
    for name, source in sources.items():
        for top in ast.parse(source).body:
            reads = [n for n in ast.walk(top) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load) and n.id in WALKERS
                     or isinstance(n, ast.Attribute) and n.attr in WALKERS]
            if not reads:
                continue
            if not (isinstance(top, ast.FunctionDef) and top.name == "brute_optimal"):
                where = top.name if isinstance(top, ast.FunctionDef) else "module level"
                found += [f"{name} line {n.lineno}: walker read in {where}" for n in reads]
                continue
            walkers, bound = set(WALKERS), {}
            for node in ast.walk(top):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = list(zip(target.elts, node.value.elts))
                        for t, v in pairs:
                            if isinstance(t, ast.Name):
                                bound.setdefault(t.id, []).append(v)
                                if isinstance(v, ast.Name) and v.id in WALKERS:
                                    walkers.add(t.id)
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in walkers):
                    continue
                r = node.args[1] if len(node.args) > 1 else None
                made = isinstance(r, ast.Name) and r.id in bound and all(
                    isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                    and v.func.id == "_ranker" for v in bound[r.id])
                if not made:
                    found.append(f"{name} line {node.lineno}: ranker not made by _ranker")
    return found


def test_the_check_sees_a_walker_misused():
    sources = {
        "a.py": (
            "def brute_optimal(g, objective):\n"
            "    r = _ranker(g, objective)\n"
            "    walk, of = _walk_orientations, tuple\n"
            "    walk(g, r, print)\n"
            "    _walk_orders(g, ([1], [], [], None, 1, None), print)\n"
            "    q = _ranker(g, objective)\n"
            "    q = None\n"
            "    walk(g, q, print)\n"
            "def vertex_certificate(g):\n"
            "    return _walk_orientations(g, _ranker(g, None), print)\n"
        ),
        "b.py": "import a\nWALK = a._walk_orders\n",
    }
    assert walker_misuse(sources) == [
        "a.py line 5: ranker not made by _ranker",
        "a.py line 8: ranker not made by _ranker",
        "a.py line 10: walker read in vertex_certificate",
        "b.py line 2: walker read in module level",
    ]


def test_only_brute_optimal_walks_and_only_on_rankers_from_ranker():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert walker_misuse(sources) == []
