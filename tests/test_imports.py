"""Every module-level import in the library is used.

No linter runs on this project, so this test is the check: it parses
each module of ``orientopt`` except ``__init__.py`` (which imports to
re-export) and fails on a name that a top-level import binds and the
module never reads.
"""

import ast
from pathlib import Path

import pytest

import orientopt

MODULES = sorted(p for p in Path(orientopt.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
