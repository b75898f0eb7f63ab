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


def test_ccd_latency_probe_sees_every_pair(monkeypatch):
    # ccd-dense keys its latencies by lift(mt).mt and times each pair test
    # through the module attribute ccd.prism_pair_intersect
    from fractions import Fraction

    ccd = _tet4d("ccd")
    oracle = _tet4d("oracle")
    scenes = _tet4d("scenes")
    scene = scenes.decode_objects(scenes.generate("MOVING_TETRAHEDRA", 9, 4, 3, spread=3))
    assert all(ccd.lift(mt).mt is mt for mt in scene)
    seen = []
    leaf = ccd.prism_pair_intersect

    def probe(pa, pb):
        seen.append(frozenset((id(pa.mt), id(pb.mt))))
        return leaf(pa, pb)

    monkeypatch.setattr(ccd, "prism_pair_intersect", probe)
    rep = ccd.detect_collisions(scene, oracle.QueryMode.REPORT)
    assert rep.count > 0 and all(isinstance(w.w, Fraction) for (_i, _j, w) in rep.pairs)
    ids = [id(mt) for mt in scene]
    assert len(seen) == 9 * 8 // 2
    assert set(seen) == {frozenset((ids[i], ids[j])) for i in range(9) for j in range(i + 1, 9)}


def test_kernel_pair_tests_are_looked_up_by_name(monkeypatch):
    # the tracer wraps oracle.seg_tetra_hit and oracle.tri_tri_hit; the
    # problem table must reach them through those names, from the oracle's
    # pair loop and from the structure's leaf fallback alike
    import random

    from conftest import rnd_segment, rnd_tetra, rnd_triangle
    from test_rangetree import _degenerate_scene

    oracle = _tet4d("oracle")
    rt = _tet4d("rangetree")
    calls = {"seg_tetra_hit": 0, "tri_tri_hit": 0}
    for name in calls:
        def counting(*args, _fn=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, name, counting)
    rng = random.Random(5)
    segs = [rnd_segment(rng, 5, 6) for _ in range(7)]
    tets = [rnd_tetra(rng, 5, 6) for _ in range(5)]
    red = [rnd_triangle(rng, 5, 6) for _ in range(6)]
    blue = [rnd_triangle(rng, 5, 6) for _ in range(4)]
    oracle.seg_tetra_query(segs, tets, oracle.QueryMode.COUNT)
    oracle.tri_tri_query(red, blue, oracle.QueryMode.COUNT)
    assert calls == {"seg_tetra_hit": 7 * 5, "tri_tri_hit": 6 * 4}

    tets, segs = _degenerate_scene(random.Random(0))
    st = rt.build(tets, rt.SETUP_SEG_TETRA, rt.StorageBudget.from_sigma(len(tets), 2))
    calls["seg_tetra_hit"] = 0
    _rep, total, _per = rt.query_batch(st, segs, oracle.QueryMode.COUNT)
    fallbacks = total.exact_predicate_calls - total.leaf_items_scanned
    assert fallbacks > 0
    assert calls["seg_tetra_hit"] == fallbacks
