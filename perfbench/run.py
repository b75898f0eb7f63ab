"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload segtet-count --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/tet4d``.  With --trace 0 the
result carries the end-to-end metrics of untraced rounds; with --trace 1 it
carries the per-layer metrics of one traced round.  Scene files, details and
span files go to ``.perfbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# set-up is repeated until it has this many samples and this much time
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 200

clock = time.perf_counter


@dataclass
class Round:
    state: object
    answer: object
    setup_s: float
    answer_s: float
    oracle_s: float
    probe_calls: Dict[str, list] = field(default_factory=dict)


def run_round(wl, checks, rng) -> Round:
    from perfbench.tracing import Recorder
    from perfbench.workloads import probe_target

    t = clock()
    state = wl.setup()
    setup_s = clock() - t
    recorders = {name: Recorder(*probe_target(name)) for name in wl.probes}
    with ExitStack() as stack:
        for r in recorders.values():
            stack.enter_context(r)
        t = clock()
        answer = wl.answer(state)
        answer_s = clock() - t
    t = clock()
    oracle_out = wl.oracle(state)
    oracle_s = clock() - t
    calls = {name: r.calls for name, r in recorders.items()}
    wl.check(state, answer, oracle_out, calls, checks, rng)
    return Round(state, answer, setup_s, answer_s, oracle_s, calls)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(1, -(-len(s) * q // 100))
    return s[int(k) - 1]


def end_to_end(wl, seconds: float, checks, rng):
    """Untraced rounds until `seconds` have passed; medians over rounds."""
    start = clock()
    setups = []  # extra set-ups first, so that a run of one round has several
    while (len(setups) < MIN_SETUPS - 1
           or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS)):
        t = clock()
        wl.setup()
        setups.append(clock() - t)
    answers, oracles, latencies = [], [], []
    rounds = 0
    rounds_start = clock()
    while True:
        r = run_round(wl, checks, rng)
        rounds += 1
        setups.append(r.setup_s)
        answers.append(r.answer_s)
        oracles.append(r.oracle_s)
        latencies += [ns / 1e6 for ns in wl.latencies_ns(r.state, r.probe_calls)]
        # a further round starts only if it should end within half a round
        # of the deadline
        mean_round = (clock() - rounds_start) / rounds
        if clock() - start + mean_round / 2 >= seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "answer_s": (statistics.median(answers), "s"),
        "oracle_s": (statistics.median(oracles), "s"),
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_p95_ms": (percentile(latencies, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"rounds": rounds, "setup_samples": setups, "answer_samples": answers,
              "oracle_samples": oracles, "latency_samples": len(latencies)}
    return metrics, detail


def per_layer(wl, checks, rng, spans_path: str):
    """One untraced round, then one traced round; per-layer metrics from the
    traced round's spans and public return values."""
    from perfbench.tracing import KERNEL_CLASSES, KERNEL_FUNCTIONS, Tracer

    plain = run_round(wl, checks, rng)
    tracer = Tracer()
    tracer.install()
    try:
        r = run_round(wl, checks, rng)
    finally:
        tracer.uninstall()
    s = tracer.summary()

    def total_s(*names):
        return sum(s[n]["total_ns"] for n in names if n in s) / 1e9

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def us(name):
        c = calls(name)
        return s[name]["self_ns"] / c / 1e3 if c else 0.0

    c = wl.counts(r.state, r.answer, r.probe_calls)
    leaf_items = c.get("leaf_items", 0)
    structure_pairs = c.get("structure_pairs", 0)
    m = {
        "scenes.decode_s": (total_s("scenes.load_scene", "scenes.decode_objects"), "s"),
        "rangetree.prepare_s": (total_s("rangetree.prepare_scene"), "s"),
        "rangetree.build_s": (total_s("rangetree.build"), "s"),
        "rangetree.salt": (c.get("salt", 0), "count"),
        "rangetree.built_nodes": (c.get("built_nodes", 0), "count"),
        "rangetree.nodes_visited": (c.get("nodes_visited", 0), "count"),
        "rangetree.canonical_sets": (c.get("canonical_sets", 0), "count"),
        "rangetree.leaf_items": (leaf_items, "count"),
        "rangetree.leaf_fraction": (leaf_items / structure_pairs if structure_pairs else 0.0,
                                    "fraction"),
        "rangetree.fallbacks": (c.get("fallbacks", 0), "count"),
        "oracle.pairs": (c["oracle_pairs"], "count"),
        "oracle.us_per_pair": (r.oracle_s * 1e6 / c["oracle_pairs"], "us"),
    }
    for fn in KERNEL_FUNCTIONS + KERNEL_CLASSES:
        m[f"kernel4d.{fn}.calls"] = (calls(f"kernel4d.{fn}"), "count")
        m[f"kernel4d.{fn}.us"] = (us(f"kernel4d.{fn}"), "us")
    for fn in ("ccd.lift", "ccd.prism_pair_intersect", "arrangement.intersection_polygon"):
        m[f"{fn}.calls"] = (calls(fn), "count")
        m[f"{fn}.us"] = (us(fn), "us")
    m["ccd.rangetree_builds"] = (tracer.count_under("rangetree.build", "ccd."), "count")
    m["arrangement.pairwise_s"] = (total_s("arrangement.pairwise"), "s")
    m["arrangement.per_tetra_reduction_s"] = (total_s("arrangement.per_tetra_reduction"), "s")
    m["arrangement.rangetree_builds"] = (
        tracer.count_under("rangetree.build", "arrangement."), "count")
    m["trace.answer_overhead"] = (r.answer_s / plain.answer_s, "ratio")
    m["trace.spans"] = (len(tracer.starts), "count")
    tracer.write(spans_path)
    detail = {"untraced_answer_s": plain.answer_s, "traced_answer_s": r.answer_s,
              "spans_file": os.path.relpath(spans_path, ROOT),
              "span_summary": s}
    return m, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tet4d", "__init__.py")):
        print(f"perfbench: no tet4d sources in {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.workloads import NAMES, make

    if args.workload not in NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(NAMES)}",
              file=sys.stderr)
        return 2
    result, detail = measure(make(args.workload), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(wl, seed: int, seconds: float, trace: bool, out_dir: str = OUT_DIR):
    """Write the scenes for `seed`, run the workload, return (result, detail)."""
    from perfbench.workloads import Checks

    os.makedirs(out_dir, exist_ok=True)
    scene_dir = os.path.join(out_dir, f"scenes-{wl.name}-{os.getpid()}")
    os.makedirs(scene_dir)
    checks = Checks()
    rng = random.Random(seed)
    try:
        wl.write_scenes(scene_dir, seed)
        if trace:
            spans = os.path.join(out_dir, f"spans-{wl.name}.npz")
            metrics, detail = per_layer(wl, checks, rng, spans)
        else:
            metrics, detail = end_to_end(wl, seconds, checks, rng)
    finally:
        shutil.rmtree(scene_dir, ignore_errors=True)
    result = {
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(workload=wl.name, seed=seed, seconds=seconds, trace=int(trace),
                  checks_executed=checks.executed, python=sys.version.split()[0],
                  cpus=os.cpu_count())
    path = os.path.join(out_dir, f"{wl.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, default=str)
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
