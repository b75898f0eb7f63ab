"""The benchmark's workloads and the parts they are made of.

Each workload writes its seeded scene files once, then runs rounds.  A round
is set-up (load and decode the scene files, then prepare them for the first
answer), the answer of the paper's engine, and the brute-force oracle on the
same prepared input; ``check`` then verifies the round's outputs apart from
the engine, and ``counts`` reads the round's public return values.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from tet4d import arrangement, ccd, oracle, rangetree as rt, scenes
from tet4d.oracle import QueryMode

from . import exact

# unreported pairs re-solved per part and round; queries recounted per
# COUNT part and round
FEASIBILITY_SAMPLE = 24
RECOUNT_SAMPLE = 3


def scene_seed(seed: int, k: int) -> int:
    """Seed of the k-th scene file of a run with benchmark seed `seed`."""
    return 1000 * seed + k


def probe_target(name: str):
    mod, attr = name.split(".")
    return sys.modules[f"tet4d.{mod}"], attr


@dataclass
class Checks:
    """Operations attempted and failed, and how often each check ran."""

    attempted: int = 0
    failed: int = 0
    executed: Dict[str, int] = field(default_factory=dict)

    def ran(self, kind: str):
        self.executed[kind] = self.executed.get(kind, 0) + 1

    def ops(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += min(failed, attempted)


# ---------------------------------------------------------------------------
# geometry of the query setups, read only through coordinates


def _points(obj):
    if hasattr(obj, "vertices"):
        return tuple(obj.vertices)
    if hasattr(obj, "a"):
        return (obj.a, obj.b)
    return tuple(obj)  # a 2-flat: three points


def _meets(label, q, x) -> bool:
    if label == "line-flat":
        return exact.line_meets_flat(q.a, q.b, _points(x))
    return exact.simplices_meet(_points(q), _points(x))


def _unreported_sample(pairs, reported, close, rng):
    """Up to FEASIBILITY_SAMPLE unreported pairs to re-solve: drawn from those
    whose boxes meet (the only ones that can intersect) when there are enough
    of them, else from all unreported pairs."""
    rest = [p for p in pairs if p not in reported]
    near = [p for p in rest if close(p)]
    pool = near if len(near) >= FEASIBILITY_SAMPLE else rest
    return rng.sample(pool, min(FEASIBILITY_SAMPLE, len(pool)))


def _holds_witness(label, q, x, w) -> bool:
    if label == "line-flat":
        return exact.in_affine_hull(w, _points(q)) and exact.in_affine_hull(w, _points(x))
    return exact.in_simplex(w, _points(q)) and exact.in_simplex(w, _points(x))


# ---------------------------------------------------------------------------
# rangetree query workloads


@dataclass(frozen=True)
class QueryPart:
    label: str                          # seg-tetra, tri-tri, tetra-seg, line-flat
    setup: str                          # rangetree setup name
    inputs: Tuple[str, int]             # scene kind and size the structure is built on
    queries: Optional[Tuple[str, int]]  # None: lines of the FLATS_AND_LINES scene
    crange: int
    spread: int
    sigma: int
    mode: QueryMode
    oracle: str                         # oracle function, called (queries, inputs, mode)


@dataclass
class Prepared:
    part: QueryPart
    inputs: list
    queries: list
    salt: int
    structure: object


class QueryWorkload:
    probes = ("rangetree.query",)

    def __init__(self, name: str, parts: List[QueryPart]):
        self.name, self.parts = name, parts
        self.files: List[Tuple[str, ...]] = []

    def write_scenes(self, directory: str, seed: int):
        self.files = []
        for k, p in enumerate(self.parts):
            if p.queries is None:
                path = os.path.join(directory, f"{k}-{p.label}.json")
                scenes.write_scene(path, scenes.generate(
                    "FLATS_AND_LINES", p.inputs[1], p.crange, scene_seed(seed, 2 * k),
                    spread=p.spread, m=p.inputs[1]))
                self.files.append((path,))
                continue
            paths = []
            for role, (kind, size), off in (("inputs", p.inputs, 0), ("queries", p.queries, 1)):
                path = os.path.join(directory, f"{k}-{p.label}-{role}.json")
                scenes.write_scene(path, scenes.generate(
                    kind, size, p.crange, scene_seed(seed, 2 * k + off), spread=p.spread))
                paths.append(path)
            self.files.append(tuple(paths))

    def setup(self):
        out = []
        for p, files in zip(self.parts, self.files):
            decoded = [scenes.decode_objects(scenes.load_scene(f)) for f in files]
            if p.queries is None:
                queries, inputs = decoded[0]
            else:
                inputs, queries = decoded
            si, sq, salt = rt.prepare_scene(p.setup, inputs, queries)
            structure = rt.build(si, p.setup, rt.StorageBudget.from_sigma(len(si), p.sigma))
            out.append(Prepared(p, si, sq, salt, structure))
        return out

    def answer(self, state):
        return [rt.query_batch(s.structure, s.queries, s.part.mode) for s in state]

    def latencies_ns(self, state, probe_calls):
        mine = {id(s.structure) for s in state}
        return [ns for (ns, args, _out) in probe_calls["rangetree.query"] if id(args[0]) in mine]

    def oracle(self, state):
        return [getattr(oracle, s.part.oracle)(s.queries, s.inputs, s.part.mode) for s in state]

    def check(self, state, answers, oracle_reports, probe_calls, checks: Checks, rng):
        for s, (rep, _total, _per), orep in zip(state, answers, oracle_reports):
            calls = [out for (_ns, args, out) in probe_calls["rangetree.query"]
                     if args[0] is s.structure]
            if s.part.mode == QueryMode.COUNT:
                bad = self._check_counts(s, rep, orep, [r.count for (r, _st) in calls], checks, rng)
            else:
                bad = self._check_report(s, rep, orep, checks, rng)
            checks.ops(len(s.queries), len(bad))

    @staticmethod
    def _check_counts(s, rep, orep, per_query, checks, rng):
        """COUNT mode: totals against the oracle, and sampled queries recounted
        over every input object by the independent solve."""
        bad = set()
        checks.ran("oracle agreement")
        if (rep.count != orep.count or sum(per_query) != rep.count
                or len(per_query) != len(s.queries)):
            bad.add(-1)
        boxes = [exact.box(_points(x)) for x in s.inputs]
        for qi in rng.sample(range(len(s.queries)), min(RECOUNT_SAMPLE, len(s.queries))):
            checks.ran("independent recount")
            q = s.queries[qi]
            qb = exact.box(_points(q))
            got = sum(1 for j, x in enumerate(s.inputs)
                      if exact.boxes_meet(qb, boxes[j]) and _meets(s.part.label, q, x))
            if qi >= len(per_query) or got != per_query[qi]:
                bad.add(qi)
        return bad

    @staticmethod
    def _check_report(s, rep, orep, checks, rng):
        """REPORT mode: pairs against the oracle, every witness inside both
        objects, and sampled unreported pairs re-solved."""
        label = s.part.label
        bad = set()
        checks.ran("oracle agreement")
        if rep != orep:
            mine, theirs = {}, {}
            for (i, j, w) in rep.pairs:
                mine.setdefault(i, []).append((j, w))
            for (i, j, w) in orep.pairs:
                theirs.setdefault(i, []).append((j, w))
            bad |= {i for i in set(mine) | set(theirs) if mine.get(i) != theirs.get(i)}
            if rep.count != len(rep.pairs) or not bad:
                bad.add(-1)
        for (i, j, w) in rep.pairs:
            checks.ran("witness")
            if not _holds_witness(label, s.queries[i], s.inputs[j], w):
                bad.add(i)
        reported = {(i, j) for (i, j, _w) in rep.pairs}
        pairs = [(i, j) for i in range(len(s.queries)) for j in range(len(s.inputs))]
        if label == "line-flat":  # unbounded objects
            close = lambda p: True  # noqa: E731
        else:
            qb = [exact.box(_points(q)) for q in s.queries]
            xb = [exact.box(_points(x)) for x in s.inputs]
            close = lambda p: exact.boxes_meet(qb[p[0]], xb[p[1]])  # noqa: E731
        for (i, j) in _unreported_sample(pairs, reported, close, rng):
            checks.ran("independent feasibility")
            if _meets(label, s.queries[i], s.inputs[j]):
                bad.add(i)
        return bad

    def counts(self, state, answers, probe_calls):
        totals = [total for (_rep, total, _per) in answers]
        pairs = sum(len(s.inputs) * len(s.queries) for s in state)
        return {
            "salt": max(s.salt for s in state),
            "built_nodes": sum(s.structure.built_nodes for s in state),
            "nodes_visited": sum(t.nodes_visited for t in totals),
            "canonical_sets": sum(t.canonical_sets_touched for t in totals),
            "leaf_items": sum(t.leaf_items_scanned for t in totals),
            "fallbacks": sum(t.exact_predicate_calls - t.leaf_items_scanned for t in totals),
            "structure_pairs": pairs,
            "oracle_pairs": pairs,
        }


# ---------------------------------------------------------------------------
# continuous collision detection


@dataclass
class Moving:
    moving: list
    prisms: list


class CcdWorkload:
    """`scenes` independent scenes of n moving tetrahedra per round: the cost
    of one dense scene depends on how many of its pairs need the full feature
    scan, and summing over scenes evens that out.

    One tetrahedron's collision query is the set of prism-pair tests that
    involve it, so its latency is the sum of their times; single pair tests
    are no steady unit, since about half of them end at the box filter."""

    probes = ("ccd.prism_pair_intersect",)

    def __init__(self, name: str, scenes: int, n: int, crange: int, spread: int):
        self.name, self.scenes, self.n, self.crange, self.spread = name, scenes, n, crange, spread
        self.files: List[str] = []

    def write_scenes(self, directory: str, seed: int):
        self.files = []
        for k in range(self.scenes):
            path = os.path.join(directory, f"{k}-moving.json")
            scenes.write_scene(path, scenes.generate(
                "MOVING_TETRAHEDRA", self.n, self.crange, scene_seed(seed, k), spread=self.spread))
            self.files.append(path)

    def setup(self):
        out = []
        for path in self.files:
            moving = scenes.decode_objects(scenes.load_scene(path))
            out.append(Moving(moving, [ccd.lift(mt) for mt in moving]))
        return out

    def answer(self, state):
        return [ccd.detect_collisions(s.moving, QueryMode.REPORT) for s in state]

    def latencies_ns(self, state, probe_calls):
        total = {id(mt): 0 for s in state for mt in s.moving}
        for ns, (pa, pb), _out in probe_calls["ccd.prism_pair_intersect"]:
            total[id(pa.mt)] += ns
            total[id(pb.mt)] += ns
        return list(total.values())

    def oracle(self, state):
        return [ccd.ccd_oracle_pairs(s.prisms) for s in state]

    def check(self, state, reports, oracle_pairs, probe_calls, checks: Checks, rng):
        for s, rep, opairs in zip(state, reports, oracle_pairs):
            self._check_scene(s.moving, rep, opairs, checks, rng)

    @staticmethod
    def _check_scene(mv, rep, oracle_pairs, checks: Checks, rng):
        n = len(mv)
        got = [(i, j) for (i, j, _w) in rep.pairs]
        checks.ran("oracle agreement")
        bad = set(got) ^ set(oracle_pairs)
        if got != oracle_pairs and not bad:
            bad.add((-1, -1))
        for (i, j, w) in rep.pairs:
            checks.ran("witness")
            if not (exact.moving_contains(mv[i], w) and exact.moving_contains(mv[j], w)):
                bad.add((i, j))
        boxes = [exact.moving_box(mt) for mt in mv]
        reported = set(got)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        close = lambda p: exact.boxes_meet(boxes[p[0]], boxes[p[1]])  # noqa: E731
        for (i, j) in _unreported_sample(pairs, reported, close, rng):
            checks.ran("independent feasibility")
            if exact.moving_pair_meets(mv[i], mv[j]):
                bad.add((i, j))
        checks.ops(n * (n - 1) // 2, len(bad))

    def counts(self, state, reports, probe_calls):
        return {"oracle_pairs": sum(len(s.moving) * (len(s.moving) - 1) // 2 for s in state)}


# ---------------------------------------------------------------------------
# arrangement counts


class ArrangeWorkload:
    """Clusters of GROUP tetrahedra that share an interior point (one
    ``generate(..., style="cluster")`` call each), moved GAP apart along x
    into one scene file.  Every pair inside a cluster meets in a proper
    polygon, so the combinatorics (k2, k3, k4) are the same on every seed and
    no two clusters touch."""

    GROUP = 5
    GAP = 100
    FIRST_SCENE = 10  # scene seeds after those of the query parts it runs beside
    probes = ("arrangement.pairwise", "rangetree._batched", "rangetree.build")

    def __init__(self, clusters: int, crange: int, spread: int):
        self.clusters, self.crange, self.spread = clusters, crange, spread
        self.file = None

    def write_scenes(self, directory: str, seed: int):
        objects = []
        for k in range(self.clusters):
            group = scenes.generate("TETRAHEDRA", self.GROUP, self.crange,
                                    scene_seed(seed, self.FIRST_SCENE + k),
                                    spread=self.spread, style="cluster")
            objects += [[[str(int(c) + (self.GAP * k if i == 0 else 0)) for i, c in enumerate(p)]
                         for p in tet] for tet in group.objects]
        self.file = os.path.join(directory, "0-clusters.json")
        scenes.write_scene(self.file, scenes.SceneFile(1, "TETRAHEDRA", objects, seed))

    def setup(self):
        return scenes.decode_objects(scenes.load_scene(self.file))

    def answer(self, tets):
        return arrangement.k_counts(tets)

    def latencies_ns(self, tets, probe_calls):
        # the rangetree queries inside pairwise are no user's queries, and
        # pooling their ~2 ms with the query parts' ~10-30 ms would put the
        # median on the edge between the two
        return []

    def oracle(self, tets):
        return oracle.arrangement_k_counts(tets)

    def check(self, tets, got, kc, probe_calls, checks: Checks, rng):
        n = len(tets)
        pts = [_points(t) for t in tets]
        bad = set()
        checks.ran("oracle agreement")
        if tuple(got) != kc.counts():
            bad.add("counts")
        (_ns, _args, witnesses), = probe_calls["arrangement.pairwise"]
        pairs = [w.pair for w in witnesses]
        checks.ran("oracle agreement")
        bad |= set(pairs) ^ set(kc.pair_set)
        for w in witnesses:
            checks.ran("witness")
            i, j = w.pair
            if not (exact.in_simplex(w.vertex, pts[i]) and exact.in_simplex(w.vertex, pts[j])):
                bad.add(w.pair)
        boxes = [exact.box(p) for p in pts]
        reported = set(pairs)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        close = lambda p: exact.boxes_meet(boxes[p[0]], boxes[p[1]])  # noqa: E731
        for (i, j) in _unreported_sample(pairs, reported, close, rng):
            checks.ran("independent feasibility")
            if exact.simplices_meet(pts[i], pts[j]):
                bad.add((i, j))
        checks.ops(n * (n - 1) // 2 + 1, len(bad))

    def counts(self, tets, got, probe_calls):
        n = len(tets)
        batched = probe_calls["rangetree._batched"]
        totals = [total for (_ns, _args, (_rep, total)) in batched]
        return {
            "built_nodes": sum(st.built_nodes for (_ns, _a, st) in probe_calls["rangetree.build"]),
            "nodes_visited": sum(t.nodes_visited for t in totals),
            "canonical_sets": sum(t.canonical_sets_touched for t in totals),
            "leaf_items": sum(t.leaf_items_scanned for t in totals),
            "fallbacks": sum(t.exact_predicate_calls - t.leaf_items_scanned for t in totals),
            "structure_pairs": sum(len(args[1]) * len(args[2]) for (_ns, args, _o) in batched),
            "oracle_pairs": n * (n - 1) // 2,
        }


# ---------------------------------------------------------------------------
# several workloads measured as one


class Composite:
    """Runs its parts as one workload: a round is every part's set-up, then
    every part's answer, then every part's oracle."""

    def __init__(self, name: str, parts):
        self.name, self.parts = name, parts
        self.probes = tuple(dict.fromkeys(p for w in parts for p in w.probes))

    def write_scenes(self, directory: str, seed: int):
        for w in self.parts:
            w.write_scenes(directory, seed)

    def setup(self):
        return [w.setup() for w in self.parts]

    def answer(self, state):
        return [w.answer(s) for w, s in zip(self.parts, state)]

    def latencies_ns(self, state, probe_calls):
        return [ns for w, s in zip(self.parts, state) for ns in w.latencies_ns(s, probe_calls)]

    def oracle(self, state):
        return [w.oracle(s) for w, s in zip(self.parts, state)]

    def check(self, state, answers, oracle_out, probe_calls, checks: Checks, rng):
        for w, s, a, o in zip(self.parts, state, answers, oracle_out):
            w.check(s, a, o, probe_calls, checks, rng)

    def counts(self, state, answers, probe_calls):
        out = {}
        for w, s, a in zip(self.parts, state, answers):
            for k, v in w.counts(s, a, probe_calls).items():
                out[k] = max(out.get(k, 0), v) if k == "salt" else out.get(k, 0) + v
        return out


# ---------------------------------------------------------------------------
# sizes


def make(name: str, tiny: bool = False):
    """The workload called `name`, at full size or at the self-check's tiny
    size."""
    C, R = QueryMode.COUNT, QueryMode.REPORT
    if name == "segtet-count":
        n = 30 if tiny else 250
        return QueryWorkload(name, [QueryPart(
            "seg-tetra", rt.SETUP_SEG_TETRA, ("TETRAHEDRA", n), ("SEGMENTS", n), 10, 9, 2, C,
            "seg_tetra_query")])
    if name == "deep-report":
        tri, seg, flat = (12, 15, 12) if tiny else (100, 120, 80)
        queries = QueryWorkload(name, [
            QueryPart("tri-tri", rt.SETUP_TRI_TRI, ("TRIANGLES", tri), ("TRIANGLES", tri),
                      10, 9, 6, R, "tri_tri_query"),
            QueryPart("tetra-seg", rt.SETUP_TETRA_SEG, ("SEGMENTS", seg), ("TETRAHEDRA", seg),
                      10, 9, 6, R, "tetra_seg_query"),
            # at range 10, 20-35 % of line-flat scenes hold a flat that is
            # degenerate against the anchor planes, and the shear salt 1 that
            # this forces triples the part's cost; at range 1000 no seed needs it
            QueryPart("line-flat", rt.SETUP_LINE_2FLAT, ("FLATS_AND_LINES", flat), None,
                      1000, 400, 6, R, "line_2flat_query"),
        ])
        return Composite(name, [queries, ArrangeWorkload(2 if tiny else 4, 4, 12)])
    if name == "ccd-dense":
        return CcdWorkload(name, 3, 8 if tiny else 64, 6, 4)
    raise KeyError(name)


NAMES = ("segtet-count", "deep-report", "ccd-dense")
