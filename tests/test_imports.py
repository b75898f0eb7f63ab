"""Every import of a package or test module, at top level or inside a
function, is read somewhere in that module.  Re-exports in ``__init__.py``
and ``from __future__`` imports are exempt."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = (os.path.join(ROOT, "src", "tet4d"), os.path.join(ROOT, "tests"))
MODULES = sorted(os.path.join(d, f) for d in DIRS for f in os.listdir(d)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's imports that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport sys\nfrom a import b, c as d\n"
           "def f():\n    from e import g, h\n    return h\n"
           "print(sys, d)\n")
    assert unused_imports(src) == ["b", "g", "os"]
