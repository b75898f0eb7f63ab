"""Command-line surface: scene generation, queries, CCD, arrangement counts,
benchmarks and analytic tradeoff prediction.

Exit codes: 0 success, 2 usage error, 3 scene/schema error, 4 internal
mismatch (the two engines disagreed, which is a test failure surfaced at
runtime).  `arrange` exits 3 when the oracle rejects a degenerate scene
(its counts are undefined there) and 4 when only the pipeline does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import rangetree as rt
from .ccd import detect_collisions, lift
from .kernel4d import GeometryError
from .oracle import (
    IntersectionReport,
    QueryMode,
    arrangement_k_counts,
    line_2flat_query,
    seg_tetra_query,
    tetra_seg_query,
    tri_tri_query,
)
from .rangetree import StorageBudget
from .scenes import SceneFile, SchemaError, atomic_write, decode_objects, generate, load_scene

SETUPS = {
    "seg-tetra": rt.SETUP_SEG_TETRA,
    "tri-tri": rt.SETUP_TRI_TRI,
    "tetra-seg": rt.SETUP_TETRA_SEG,
    "line-flat": rt.SETUP_LINE_2FLAT,
}

_SCENE_KIND = {
    "seg-tetra": ("TETRAHEDRA", "SEGMENTS"),
    "tri-tri": ("TRIANGLES", "TRIANGLES"),
    "tetra-seg": ("SEGMENTS", "TETRAHEDRA"),
    "line-flat": ("FLATS_AND_LINES", None),
}


def _fail(code: int, msg: str):
    print(f"tet4d: {msg}", file=sys.stderr)
    sys.exit(code)


def _mode(arg: str) -> QueryMode:
    return QueryMode(arg)


def _emit(args, payload: dict, default_stream=True):
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.out:
        atomic_write(args.out, text)
    elif default_stream:
        sys.stdout.write(text)


def _report_json(rep: IntersectionReport) -> dict:
    return {
        "detected": rep.detected,
        "count": rep.count,
        "pairs": [[i, j, [str(c) for c in w]] for (i, j, w) in rep.pairs],
    }


def _stats_json(st: rt.QueryStats) -> dict:
    return {
        "nodesVisited": st.nodes_visited,
        "canonicalSetsTouched": st.canonical_sets_touched,
        "leafItemsScanned": st.leaf_items_scanned,
        "exactPredicateCalls": st.exact_predicate_calls,
    }


# ---------------------------------------------------------------------------
# the query pipeline (shared by query / flats / bench)


def _load_setup_inputs(args, setup_key: str):
    scene = load_scene(args.scene)
    want_scene, want_query = _SCENE_KIND[setup_key]
    if scene.kind != want_scene:
        raise SchemaError(f"setup {setup_key} needs a {want_scene} scene, got {scene.kind}")
    if setup_key == "line-flat":
        lines, flats = decode_objects(scene)
        if getattr(args, "queries", None):
            qscene = load_scene(args.queries)
            if qscene.kind == "SEGMENTS":
                lines = decode_objects(qscene)
            elif qscene.kind == "FLATS_AND_LINES":
                lines, _ = decode_objects(qscene)
            else:
                raise SchemaError("line-flat queries must be SEGMENTS or FLATS_AND_LINES")
        return flats, lines
    if not getattr(args, "queries", None):
        raise SchemaError(f"setup {setup_key} needs --queries ({want_query})")
    qscene = load_scene(args.queries)
    if qscene.kind != want_query:
        raise SchemaError(f"setup {setup_key} needs {want_query} queries, got {qscene.kind}")
    return decode_objects(scene), decode_objects(qscene)


def _oracle_report(setup_key: str, inputs, queries, mode: QueryMode) -> IntersectionReport:
    if setup_key == "seg-tetra":
        return seg_tetra_query(queries, inputs, mode)
    if setup_key == "tetra-seg":
        return tetra_seg_query(queries, inputs, mode)
    if setup_key == "tri-tri":
        return tri_tri_query(queries, inputs, mode)
    return line_2flat_query(queries, inputs, mode)


def run_query(setup_key: str, inputs, queries, mode: QueryMode, sigma, engine: str):
    """Returns (payload dict, mismatch flag)."""
    setup = SETUPS[setup_key]
    n = len(inputs)
    payload = {"setup": setup_key, "mode": mode.value, "engine": engine,
               "n": n, "m": len(queries), "sigma": str(sigma)}
    mismatch = False

    oracle_rep = None
    if engine in ("oracle", "both"):
        oracle_rep = _oracle_report(setup_key, inputs, queries, mode)
        payload["oracle"] = _report_json(oracle_rep)

    if engine in ("structure", "both"):
        budget = StorageBudget.from_sigma(n, sigma) if n else StorageBudget(0, 1)
        payload["s"] = budget.s
        payload["leafCutoff"] = budget.leaf_cutoff if n else 0
        structure = rt.build(inputs, setup, budget)
        t0 = time.perf_counter()
        rep, stats, per_query = rt.query_batch(structure, queries, mode)
        payload["wallMillis"] = round((time.perf_counter() - t0) * 1000.0, 3)
        payload["structure"] = _report_json(rep)
        payload["stats"] = _stats_json(stats)
        payload["buildNodes"] = structure.built_nodes
        payload["perQueryLeafItems"] = [q.leaf_items_scanned for q in per_query]
        if engine == "both":
            mismatch = rep != oracle_rep
        payload["report"] = payload["structure"]
    else:
        payload["report"] = payload["oracle"]
    payload["mismatch"] = mismatch
    return payload, mismatch


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    try:
        scene = generate(args.kind, args.n, args.range, args.seed,
                         spread=args.spread, m=args.m, style=args.style)
    except (SchemaError, ValueError, RuntimeError) as ex:
        _fail(3, str(ex))
    text = scene.to_json() + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_query(args):
    try:
        inputs, queries = _load_setup_inputs(args, args.setup)
    except SchemaError as ex:
        _fail(3, str(ex))
    sigma = Fraction(args.sigma)
    if not (1 <= sigma <= 6):
        _fail(2, f"sigma {args.sigma} outside [1, 6]")
    payload, mismatch = run_query(args.setup, inputs, queries, _mode(args.mode),
                                  sigma, args.engine)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["indexA", "indexB", "x", "y", "z", "w"])
        for row in payload["report"]["pairs"]:
            w.writerow([row[0], row[1]] + row[2])
        out = buf.getvalue()
        if args.out:
            atomic_write(args.out, out)
        else:
            sys.stdout.write(out)
    else:
        _emit(args, payload)
    if mismatch:
        _fail(4, "engine mismatch: structure report differs from oracle report")
    return 0


def cmd_flats(args):
    args.setup = "line-flat"
    return cmd_query(args)


def cmd_ccd(args):
    try:
        scene = load_scene(args.scene)
        if scene.kind != "MOVING_TETRAHEDRA":
            raise SchemaError(f"ccd needs MOVING_TETRAHEDRA, got {scene.kind}")
        moving = decode_objects(scene)
    except SchemaError as ex:
        _fail(3, str(ex))
    rep = detect_collisions(moving, _mode(args.mode))
    payload = {
        "mode": args.mode,
        "n": len(moving),
        "detected": rep.detected,
        "count": rep.count,
        "collisions": [
            {"pair": [i, j], "witnessTime": str(w.w),
             "witnessPoint": [str(c) for c in w]}
            for (i, j, w) in rep.pairs
        ],
    }
    _emit(args, payload)
    return 0


def cmd_arrange(args):
    from .arrangement import k_counts

    try:
        scene = load_scene(args.scene)
        if scene.kind != "TETRAHEDRA":
            raise SchemaError(f"arrange needs TETRAHEDRA, got {scene.kind}")
        tets = decode_objects(scene)
    except SchemaError as ex:
        _fail(3, str(ex))
    try:
        oracle = arrangement_k_counts(tets)
    except GeometryError as ex:
        _fail(3, f"arrangement counts undefined on this scene: {ex}")
    try:
        got, error = k_counts(tets), None
    except GeometryError as ex:
        got, error = None, ex
    mismatch = got != oracle.counts()
    payload = {
        "n": len(tets),
        "k2": oracle.k2, "k3": oracle.k3, "k4": oracle.k4,
        "chain": oracle.k4 >= oracle.k3 >= oracle.k2,
        "mismatch": mismatch,
    }
    _emit(args, payload)
    if args.witness_out:
        wit = {
            "pairs": [[list(p), [str(c) for c in w]]
                      for p, w in zip(oracle.pair_set,
                                      oracle.vertices[: len(oracle.pair_set)])],
            "tripleWitnesses": [[str(c) for c in w]
                                for w in oracle.vertices[len(oracle.pair_set):
                                                         len(oracle.pair_set) + len(oracle.triple_set)]],
            "vertices": [[str(c) for c in w]
                         for w in oracle.vertices[len(oracle.pair_set) + len(oracle.triple_set):]],
        }
        atomic_write(args.witness_out, json.dumps(wit, sort_keys=True, indent=1) + "\n")
    if error is not None:
        _fail(4, f"arrangement pipeline failed where the oracle did not: {error}")
    if mismatch:
        _fail(4, "arrangement pipeline disagrees with the oracle")
    return 0


BENCH_COLUMNS = ["setup", "n", "m", "sigma", "s", "buildNodes",
                 "canonicalSetsTouched", "leafItemsScanned",
                 "exactPredicateCalls", "wallMillis", "seed", "leafCutoff",
                 "mismatch", "leafMedianNonIncreasing"]


def cmd_bench(args):
    try:
        inputs, queries = _load_setup_inputs(args, args.setup)
    except SchemaError as ex:
        _fail(3, str(ex))
    grid = [Fraction(s) for s in args.sigma_grid.split(",")]
    for sg in grid:
        if not (1 <= sg <= 6):
            _fail(2, f"sigma {sg} outside [1, 6]")
    rows = []
    any_mismatch = False
    for rep_i in range(args.repetitions):
        medians = []
        block = []
        for sg in grid:
            payload, mismatch = run_query(args.setup, inputs, queries,
                                          QueryMode.COUNT, sg, "both")
            any_mismatch = any_mismatch or mismatch
            med = statistics.median(payload["perQueryLeafItems"]) if payload["perQueryLeafItems"] else 0
            medians.append(med)
            st = payload["stats"]
            block.append({
                "setup": args.setup, "n": payload["n"], "m": payload["m"],
                "sigma": str(sg), "s": payload["s"],
                "buildNodes": payload["buildNodes"],
                "canonicalSetsTouched": st["canonicalSetsTouched"],
                "leafItemsScanned": st["leafItemsScanned"],
                "exactPredicateCalls": st["exactPredicateCalls"],
                "wallMillis": payload["wallMillis"], "seed": args.seed,
                "leafCutoff": payload["leafCutoff"], "mismatch": mismatch,
            })
        non_increasing = all(medians[i] >= medians[i + 1] for i in range(len(medians) - 1))
        for row in block:
            row["leafMedianNonIncreasing"] = non_increasing
            rows.append(row)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
    w.writeheader()
    for row in rows:
        w.writerow(row)
    out = buf.getvalue()
    if args.out:
        atomic_write(args.out, out)
    else:
        sys.stdout.write(out)
    if any_mismatch:
        _fail(4, "bench observed an oracle mismatch")
    return 0


def cmd_predict(args):
    from .complexity import batched_samples, tradeoff_samples

    buf = io.StringIO()
    w = csv.writer(buf)
    if args.mu_grid:
        w.writerow(["mu", "batchedExponent"])
        for mu, e in batched_samples(args.mu_grid.split(",")):
            w.writerow([str(mu), f"{float(e):.6f}"])
    else:
        w.writerow(["sigma", "queryExponent", "prematureExponent"])
        for sig, e, p in tradeoff_samples(args.sigma_grid.split(",")):
            w.writerow([str(sig), f"{float(e):.6f}", f"{float(p):.6f}"])
    out = buf.getvalue()
    if args.out:
        atomic_write(args.out, out)
    else:
        sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------------------


_SEED_HELP = "ignored; only gen uses the seed"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tet4d",
                                 description="Exact intersection queries in R^4")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic random scene")
    g.add_argument("--kind", required=True,
                   choices=["SEGMENTS", "TRIANGLES", "TETRAHEDRA",
                            "MOVING_TETRAHEDRA", "FLATS_AND_LINES"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=None, help="line count for FLATS_AND_LINES")
    g.add_argument("--range", type=int, default=10)
    g.add_argument("--spread", type=int, default=None)
    g.add_argument("--style", choices=["uniform", "cluster"], default="uniform")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    q = sub.add_parser("query", help="run one query batch")
    q.add_argument("--scene", required=True)
    q.add_argument("--queries", default=None)
    q.add_argument("--setup", required=True, choices=list(SETUPS))
    q.add_argument("--mode", choices=["detect", "count", "report"], default="count")
    q.add_argument("--sigma", default="2")
    q.add_argument("--engine", choices=["oracle", "structure", "both"], default="both")
    q.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    q.add_argument("--format", choices=["json", "csv"], default="json")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_query)

    f = sub.add_parser("flats", help="lines vs 2-flats batch")
    f.add_argument("--scene", required=True)
    f.add_argument("--queries", default=None)
    f.add_argument("--mode", choices=["detect", "count", "report"], default="count")
    f.add_argument("--sigma", default="2")
    f.add_argument("--engine", choices=["oracle", "structure", "both"], default="both")
    f.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    f.add_argument("--format", choices=["json", "csv"], default="json")
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_flats)

    c = sub.add_parser("ccd", help="continuous collision detection")
    c.add_argument("--scene", required=True)
    c.add_argument("--mode", choices=["detect", "count", "report"], default="report")
    c.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_ccd)

    a = sub.add_parser("arrange", help="arrangement entity counts k2/k3/k4")
    a.add_argument("--scene", required=True)
    a.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    a.add_argument("--witness-out", default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_arrange)

    b = sub.add_parser("bench", help="benchmark a scene over a sigma grid")
    b.add_argument("--scene", required=True)
    b.add_argument("--queries", default=None)
    b.add_argument("--setup", required=True, choices=list(SETUPS))
    b.add_argument("--sigma-grid", default="1,1.5,2,3,6")
    b.add_argument("--repetitions", type=int, default=1)
    b.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bench)

    p = sub.add_parser("predict", help="analytic tradeoff exponents")
    p.add_argument("--sigma-grid", default="1,1.5,2,3,6")
    p.add_argument("--mu-grid", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_predict)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
