"""No module of the package catches a ``GeometryError``, apart from
``cli.py``, which turns one into an exit code, and ``scenes.py``, which
turns a degenerate scene object into a schema error.  Every exact pair
decision covers its own degenerate layouts, so none raises for a caller to
retry another way."""

import ast
import importlib
import os

import pytest

from tet4d.kernel4d import GeometryError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tet4d")
EXEMPT = ("cli.py", "scenes.py")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f not in EXEMPT)


def _geometry_errors():
    """Names of GeometryError and of every subclass the package defines."""
    names = set()
    for f in os.listdir(SRC):
        if f.endswith(".py"):
            mod = importlib.import_module("tet4d" if f == "__init__.py" else f"tet4d.{f[:-3]}")
            names |= {k for k, v in vars(mod).items()
                      if isinstance(v, type) and issubclass(v, GeometryError)}
    return names


GEOMETRY_ERRORS = _geometry_errors()


def caught_geometry_errors(source: str):
    """The GeometryError names that the source's except clauses name, bare
    or as a module attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for n in ast.walk(node.type):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name in GEOMETRY_ERRORS:
                    out.append(name)
    return sorted(out)


@pytest.mark.parametrize("name", MODULES)
def test_no_geometry_error_is_caught(name):
    with open(os.path.join(SRC, name)) as fh:
        assert caught_geometry_errors(fh.read()) == []


def test_finds_a_caught_geometry_error():
    assert {"GeometryError", "DegeneratePosition", "EmptyIntersection"} <= GEOMETRY_ERRORS
    src = ("try:\n    f()\nexcept (ValueError, k4.DegeneratePosition):\n    pass\n"
           "try:\n    g()\nexcept EmptyIntersection as ex:\n    raise ex\n"
           "except KeyError:\n    pass\n")
    assert caught_geometry_errors(src) == ["DegeneratePosition", "EmptyIntersection"]
