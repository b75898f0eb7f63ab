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
    # the tracer wraps oracle.seg_tetra_hit and oracle.tri_tri_hit, which the
    # oracle's pair loop calls, and oracle.segment_tetra_direct and
    # oracle.tri_tri_any, which the structure's zero-sign fallback calls; the
    # problem table must reach all four through those names
    import random

    from conftest import rnd_point, rnd_segment, rnd_tetra, rnd_triangle
    from test_rangetree import _degenerate_scene

    from tet4d.kernel4d import Triangle4

    oracle = _tet4d("oracle")
    rt = _tet4d("rangetree")
    names = ("seg_tetra_hit", "tri_tri_hit", "segment_tetra_direct", "tri_tri_any")
    calls = dict.fromkeys(names, 0)
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
    assert (calls["seg_tetra_hit"], calls["tri_tri_hit"]) == (7 * 5, 6 * 4)

    # COUNT mode builds no witnesses, so every direct-solver call is a
    # fallback; triangles on a small point pool share vertices and edges
    pool = [rnd_point(rng, 3) for _ in range(7)]
    tris = []
    while len(tris) < 24:
        try:
            tris.append(Triangle4(*rng.sample(pool, 3)))
        except ValueError:
            continue
    tets, segs = _degenerate_scene(random.Random(0))
    for setup, inputs, queries, direct in (
            (rt.SETUP_SEG_TETRA, tets, segs, "segment_tetra_direct"),
            (rt.SETUP_TRI_TRI, tris[:12], tris[12:], "tri_tri_any")):
        st = rt.build(inputs, setup, rt.StorageBudget.from_sigma(len(inputs), 2))
        calls[direct] = 0
        _rep, total, _per = rt.query_batch(st, queries, oracle.QueryMode.COUNT)
        fallbacks = total.exact_predicate_calls - total.leaf_items_scanned
        assert fallbacks > 0, setup
        assert calls[direct] == fallbacks, setup
