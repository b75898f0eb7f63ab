"""Command-line surface: scene generation, queries, CCD, arrangement counts,
benchmarks and analytic tradeoff prediction.

`ccd` reports, per colliding pair, the time of first contact as
``witnessTime`` and a point both tetrahedra hold at that time as
``witnessPoint`` (x, y, z, t).

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
from .ccd import detect_collisions
from .kernel4d import GeometryError
from .oracle import (
    SETUP_LINE_2FLAT,
    SETUP_SEG_TETRA,
    SETUP_TETRA_SEG,
    SETUP_TRI_TRI,
    IntersectionReport,
    QueryMode,
    arrangement_k_counts,
    brute_query,
)
from .rangetree import StorageBudget
from .scenes import SchemaError, atomic_write, decode_objects, generate, load_scene

# per setup: the query problem, the input scene kind, the query scene kind
SETUPS = {
    "seg-tetra": (SETUP_SEG_TETRA, "TETRAHEDRA", "SEGMENTS"),
    "tri-tri": (SETUP_TRI_TRI, "TRIANGLES", "TRIANGLES"),
    "tetra-seg": (SETUP_TETRA_SEG, "SEGMENTS", "TETRAHEDRA"),
    "line-flat": (SETUP_LINE_2FLAT, "FLATS_AND_LINES", None),
}


def _fail(code: int, msg: str):
    print(f"tet4d: {msg}", file=sys.stderr)
    sys.exit(code)


def _write(args, text: str):
    """The text to --out, atomically, or else to stdout."""
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict):
    _write(args, json.dumps(payload, sort_keys=True, indent=1) + "\n")


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
    _problem, want_scene, want_query = SETUPS[setup_key]
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


def run_query(setup_key: str, inputs, queries, mode: QueryMode, sigma, engine: str):
    """Returns (payload dict, mismatch flag)."""
    problem = SETUPS[setup_key][0]
    n = len(inputs)
    payload = {"setup": setup_key, "mode": mode.value, "engine": engine,
               "n": n, "m": len(queries), "sigma": str(sigma)}
    mismatch = False

    oracle_rep = None
    if engine in ("oracle", "both"):
        oracle_rep = brute_query(problem, queries, inputs, mode)
        payload["oracle"] = _report_json(oracle_rep)

    if engine in ("structure", "both"):
        budget = StorageBudget.from_sigma(n, sigma) if n else StorageBudget(0, 1)
        payload["s"] = budget.s
        # the paper's cutoff; the trees' leaves hold up to max(it, rt.LEAF_MIN)
        payload["leafCutoff"] = budget.leaf_cutoff if n else 0
        structure = rt.build(inputs, problem, budget)
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
    _write(args, scene.to_json() + "\n")
    return 0


def cmd_query(args):
    try:
        inputs, queries = _load_setup_inputs(args, args.setup)
    except SchemaError as ex:
        _fail(3, str(ex))
    payload, mismatch = run_query(args.setup, inputs, queries, QueryMode(args.mode),
                                  args.sigma, args.engine)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["indexA", "indexB", "x", "y", "z", "w"])
        for row in payload["report"]["pairs"]:
            w.writerow([row[0], row[1]] + row[2])
        _write(args, buf.getvalue())
    else:
        _emit(args, payload)
    if mismatch:
        _fail(4, "engine mismatch: structure report differs from oracle report")
    return 0


def cmd_ccd(args):
    try:
        scene = load_scene(args.scene)
        if scene.kind != "MOVING_TETRAHEDRA":
            raise SchemaError(f"ccd needs MOVING_TETRAHEDRA, got {scene.kind}")
        moving = decode_objects(scene)
    except SchemaError as ex:
        _fail(3, str(ex))
    rep = detect_collisions(moving, QueryMode(args.mode))
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
    rows = []
    any_mismatch = False
    for _rep in range(args.repetitions):
        medians = []
        block = []
        for sg in args.sigma_grid:
            payload, mismatch = run_query(args.setup, inputs, queries,
                                          QueryMode.COUNT, sg, "both")
            any_mismatch = any_mismatch or mismatch
            medians.append(statistics.median(payload["perQueryLeafItems"] or [0]))
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
    w.writerows(rows)
    _write(args, buf.getvalue())
    if any_mismatch:
        _fail(4, "bench observed an oracle mismatch")
    return 0


def cmd_predict(args):
    from .complexity import batched_samples, tradeoff_samples

    buf = io.StringIO()
    w = csv.writer(buf)
    if args.mu_grid:
        w.writerow(["mu", "batchedExponent"])
        for mu, e in batched_samples(args.mu_grid):
            w.writerow([str(mu), f"{float(e):.6f}"])
    else:
        w.writerow(["sigma", "queryExponent", "prematureExponent"])
        for sig, e, p in tradeoff_samples(args.sigma_grid):
            w.writerow([str(sig), f"{float(e):.6f}", f"{float(p):.6f}"])
    _write(args, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------


_SEED_HELP = "ignored; only gen uses the seed"


def _fraction(lo, hi=None, grid=False):
    """An argparse type: a Fraction in [lo, hi], with no upper bound when hi
    is None; with grid, a comma-separated list of them."""
    def one(text: str) -> Fraction:
        try:
            v = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None
        if v < lo or (hi is not None and v > hi):
            raise argparse.ArgumentTypeError(f"{text} outside [{lo}, {hi or 'inf'}]")
        return v
    return (lambda text: [one(s) for s in text.split(",")]) if grid else one


def _query_parser(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """A subcommand with the arguments that `query` and `flats` share."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--scene", required=True)
    p.add_argument("--queries", default=None)
    p.add_argument("--mode", choices=["detect", "count", "report"], default="count")
    p.add_argument("--sigma", type=_fraction(1, 6), default="2")
    p.add_argument("--engine", choices=["oracle", "structure", "both"], default="both")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    return p


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

    q = _query_parser(sub, "query", "run one query batch")
    q.add_argument("--setup", required=True, choices=list(SETUPS))
    q.set_defaults(fn=cmd_query)

    f = _query_parser(sub, "flats", "lines vs 2-flats batch")
    f.set_defaults(fn=cmd_query, setup="line-flat")

    c = sub.add_parser("ccd", help="continuous collision detection, with first contact times")
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
    b.add_argument("--sigma-grid", type=_fraction(1, 6, grid=True), default="1,1.5,2,3,6")
    b.add_argument("--repetitions", type=int, default=1)
    b.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bench)

    p = sub.add_parser("predict", help="analytic tradeoff exponents")
    p.add_argument("--sigma-grid", type=_fraction(1, 6, grid=True), default="1,1.5,2,3,6")
    p.add_argument("--mu-grid", type=_fraction(0, grid=True), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_predict)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
