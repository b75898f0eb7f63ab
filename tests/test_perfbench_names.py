"""Every tet4d name that the benchmark harness in ``perfbench/`` binds must
exist, so that deleting one fails here and not only in a traced benchmark
run."""

import ast
import importlib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _perfbench(module):
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    return importlib.import_module(f"perfbench.{module}")


def _tet4d(module):
    return importlib.import_module(f"tet4d.{module}")


def test_traced_names_exist():
    tracing = _perfbench("tracing")
    k4 = _tet4d("kernel4d")
    for name in tracing.KERNEL_FUNCTIONS + tracing.KERNEL_CLASSES:
        assert callable(getattr(k4, name, None)), f"kernel4d.{name}"
    for mod, names in tracing.LAYER_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(_tet4d(mod), name, None)), f"{mod}.{name}"


def test_workload_names_exist():
    workloads = _perfbench("workloads")
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    # module aliases from "from tet4d import ..." and names from
    # "from tet4d.<module> import ..."
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tet4d":
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tet4d."):
            for a in node.names:
                assert hasattr(_tet4d(node.module[6:]), a.name), f"{node.module}.{a.name}"
    seen = 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            assert hasattr(_tet4d(aliases[node.value.id]), node.attr), \
                f"{aliases[node.value.id]}.{node.attr}"
            seen += 1
        # probe names such as "rangetree._batched"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            m = re.fullmatch(r"(kernel4d|rangetree|oracle|ccd|arrangement|scenes)\.(\w+)",
                             node.value)
            if m:
                assert hasattr(_tet4d(m.group(1)), m.group(2)), node.value
                seen += 1
    assert seen > 10
    # the oracle each query part names
    oracle = _tet4d("oracle")
    parts = 0
    for name in workloads.NAMES:
        stack = [workloads.make(name, tiny=True)]
        while stack:
            w = stack.pop()
            stack.extend(getattr(w, "parts", ()))
            if isinstance(w, workloads.QueryPart):
                assert callable(getattr(oracle, w.oracle, None)), w.oracle
                parts += 1
    assert parts == 4
