"""Every name a module of the package imports is used in that module.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by an import statement must appear somewhere else in the
module as a name.  `__init__.py` is left out, because its imports are
the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icisres"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names the source imports and never refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from math import gcd, lcm as least\n"
              "from .errors import Used\n"
              "def f(x: Used) -> int:\n    return gcd(x, sys.maxsize)\n")
    assert unused_imports(source) == ["least", "os"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "polycore.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
