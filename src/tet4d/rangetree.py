"""Multi-level canonical-set search structure for the four query setups.

The structure realizes the six-level decomposition of the intersection
conditions: two linear levels for the endpoint/hyperplane side conditions
and four orientation levels for the 5x5 determinant conditions (six
orientation levels for triangle-triangle; one zero-set level for lines vs
2-flats).  Every level is linear (Agarwal-Matousek linearization): each
object is one integer vector at that level, each query one integer form,
and the level's sign is the sign of their dot product.  The side levels
pair a hyperplane (n, c) with a point (p, 1); an orientation determinant
orient5(a, b, f0, f1, f2) is the dot product of the line's Plücker vector
``plucker10(a, b)`` with the 2-flat's dual vector ``dual10(f0, f1, f2)``,
with a per-object calibration sign folded into whichever side carries it.
Rational coordinates are scaled to integers by a positive factor, which
keeps every sign.

Each level is a median-split partition tree over its integer vectors.
Descent classifies a node by the exact range of the query's form over the
node's integer bounding box: per coordinate, the coefficient times the
box's low or high end, by the coefficient's sign.  INSIDE nodes forward
their entire item set to the next level as a canonical set, OUTSIDE nodes
are pruned, CROSSING nodes recurse.  A leaf takes the same dot products,
group by group, and stops after a group whose signs are all nonzero and
match no pass; for the segment-tetrahedron setups that is the endpoint
pair.  Zero signs go to a direct-solver fallback.  No parametrization is
involved, so no input direction is special and no shear is needed.
Results are exactly equal to the brute-force oracle on every input; the
storage parameter s only controls the leaf cutoff ceil(n^{6/5} / s^{1/5}).

A query runs one shared descent for the four sign-pattern passes (two
choices for the endpoint side pattern x two for the orientation pattern);
an object in degenerate position relative to the query is counted exactly
once, in its canonical pass, after an exact closed-set test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .kernel4d import (
    BudgetOutOfRange,
    Contained,
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    TrianglePre,
    _integral,
    dual10,
    line_2flat_meet,
    plucker10,
    segment_tetra_direct,
    tri_tri_any,
)
from .oracle import IntersectionReport, QueryMode, _flat_witness

SETUP_SEG_TETRA = "SEG_QUERY_TETRA_INPUT"
SETUP_TRI_TRI = "TRI_TRI"
SETUP_TETRA_SEG = "TETRA_QUERY_SEG_INPUT"
SETUP_LINE_2FLAT = "LINE_2FLAT"

INSIDE = "INSIDE"
OUTSIDE = "OUTSIDE"
CROSSING = "CROSSING"


# ---------------------------------------------------------------------------
# storage budget


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for non-negative integers, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2:
        return x
    # integer Newton from an over-estimate decreases until it reaches the root
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


@dataclass(frozen=True)
class StorageBudget:
    """n objects, storage parameter s with n <= s <= n^6."""

    n: int
    s: int

    def __post_init__(self):
        if self.n >= 1 and not (self.n <= self.s <= self.n ** 6):
            raise BudgetOutOfRange(f"s={self.s} outside [n, n^6] for n={self.n}")

    @staticmethod
    def from_sigma(n: int, sigma) -> "StorageBudget":
        sig = Fraction(sigma)
        if sig < 1 or sig > 6:
            raise BudgetOutOfRange(f"sigma={sigma} outside [1, 6]")
        if n <= 1:
            return StorageBudget(n, max(n, 1))
        p, q = sig.numerator, sig.denominator
        s = _iroot(n ** p, q)
        s = max(n, min(n ** 6, s))
        return StorageBudget(n, s)

    @property
    def leaf_cutoff(self) -> int:
        """ceil(n^{6/5} / s^{1/5}), clamped to [1, n]: smallest k with
        k^5 * s >= n^6."""
        if self.n <= 1:
            return 1
        target = self.n ** 6
        k = max(1, _iroot(-(-target // self.s), 5))
        while k ** 5 * self.s < target:
            k += 1
        while k > 1 and (k - 1) ** 5 * self.s >= target:
            k -= 1
        return max(1, min(self.n, k))


@dataclass
class QueryStats:
    nodes_visited: int = 0
    canonical_sets_touched: int = 0
    leaf_items_scanned: int = 0
    exact_predicate_calls: int = 0

    def add(self, other: "QueryStats"):
        self.nodes_visited += other.nodes_visited
        self.canonical_sets_touched += other.canonical_sets_touched
        self.leaf_items_scanned += other.leaf_items_scanned
        self.exact_predicate_calls += other.exact_predicate_calls


# ---------------------------------------------------------------------------
# level specification and exact box classification


@dataclass(frozen=True)
class LevelSpec:
    kind: str           # e.g. ENDPOINT_SIDE_A, FACET_ORIENT_2, EDGE_ORIENT_1
    dim: int            # length of the level's integer vectors
    group: int          # pattern group index
    role: int           # +1 / -1: semantic target = pass[group] * role;
                        # 0: a zero-set level (the sign must vanish)


def _form_range(form, lo, hi):
    """Exact (min, max) of the linear form over the integer box [lo, hi]."""
    a = b = 0
    for c, l, h in zip(form, lo, hi):
        if c > 0:
            a += c * l
            b += c * h
        elif c < 0:
            a += c * h
            b += c * l
    return a, b


def _classify(lo, hi, target: int) -> str:
    """INSIDE if every value in [lo, hi] has the sign `target`, OUTSIDE if
    none can (for target 0: the range misses zero), CROSSING otherwise."""
    if target > 0:
        if lo > 0:
            return INSIDE
        if hi < 0:
            return OUTSIDE
    elif target < 0:
        if hi < 0:
            return INSIDE
        if lo > 0:
            return OUTSIDE
    elif lo > 0 or hi < 0:
        return OUTSIDE
    return CROSSING


# ---------------------------------------------------------------------------
# partition tree


class CanonicalNode:
    """One node of a level tree: a bounding box, the canonical item set of
    its subtree, children for CROSSING descent, and (lazily) the next-level
    structure built on exactly its item set."""

    __slots__ = ("items", "box_lo", "box_hi", "children", "is_leaf", "_next")

    def __init__(self, items, box_lo, box_hi, children, is_leaf):
        self.items = items
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.children = children
        self.is_leaf = is_leaf
        self._next = None


class _Tree:
    __slots__ = ("level", "dim", "root", "owner")

    def __init__(self, owner: "MultiLevelStructure", level: int, items: Tuple[int, ...]):
        self.owner = owner
        self.level = level
        self.dim = owner.levels[level].dim
        self.root = self._build(items, 0)

    def _build(self, items: Tuple[int, ...], depth: int) -> CanonicalNode:
        owner = self.owner
        pts = owner.points[self.level]
        dim = self.dim
        cols = list(zip(*(pts[i] for i in items)))
        lo = tuple(map(min, cols))
        hi = tuple(map(max, cols))
        owner.built_nodes += 1
        if len(items) <= owner.budget.leaf_cutoff:
            return CanonicalNode(items, lo, hi, None, True)
        axis = None
        for probe in range(dim):
            d = (depth + probe) % dim
            if lo[d] != hi[d]:
                axis = d
                break
        if axis is None:
            # all points identical: cannot split further
            return CanonicalNode(items, lo, hi, None, True)
        order = sorted(items, key=lambda i: (pts[i][axis], i))
        mid = len(order) // 2
        left = self._build(tuple(order[:mid]), depth + 1)
        right = self._build(tuple(order[mid:]), depth + 1)
        return CanonicalNode(items, lo, hi, (left, right), False)


# ---------------------------------------------------------------------------
# per-setup ingest
#
# Every setup provides:
#   levels            list[LevelSpec]
#   points[level][j]  integer vector of object j at that level
#   make_ctx(qobj)    per-query context holding one integer form per level
#   closed_hit(ctx,j) exact closed-set intersection test (direct solver)
#   witness(ctx, j)   exact witness point
# and shares sigma(ctx, j), the per-level signs form . point.


class _QueryCtx:
    __slots__ = ("forms", "qobj", "pre", "sigma_cache")

    def __init__(self, forms, qobj, pre=None):
        self.forms = forms        # level -> integer form
        self.qobj = qobj
        self.pre = pre            # the query's TetraPre, for setup (iii)
        self.sigma_cache = {}


class _Setup:
    passes = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def __init__(self, objects, levels):
        self.objects = list(objects)
        self.levels = levels
        # per pass, the sign each level must have; per group, its levels and
        # the sign patterns some pass accepts there
        self.targets = {p: tuple(p[l.group] * l.role for l in levels) for p in self.passes}
        self.groups = []
        for g in range(max(l.group for l in levels) + 1):
            idx = tuple(i for i, l in enumerate(levels) if l.group == g)
            self.groups.append((idx, {tuple(t[i] for i in idx) for t in self.targets.values()}))

    def sigma(self, ctx: _QueryCtx, j: int):
        """Per-level signs of object j against the query, group by group.
        It stops after a group whose signs are all nonzero and match no
        pass, so a tuple shorter than the level list is a miss."""
        sig = ctx.sigma_cache.get(j)
        if sig is None:
            forms, points = ctx.forms, self.points
            sig = ()
            for idx, accepted in self.groups:
                part = tuple([_level_sign(forms[l], points[l][j]) for l in idx])
                sig += part
                if part not in accepted and 0 not in part:
                    break
            ctx.sigma_cache[j] = sig
        return sig


class _SetupSegTetra(_Setup):
    """Setup (i): input tetrahedra, query segments."""

    name = SETUP_SEG_TETRA

    def __init__(self, tetrahedra: Sequence[Tetrahedron4]):
        super().__init__(tetrahedra, [
            LevelSpec("ENDPOINT_SIDE_A", 5, 0, 1),
            LevelSpec("ENDPOINT_SIDE_B", 5, 0, -1),
        ] + [LevelSpec(f"FACET_ORIENT_{i+1}", 10, 1, 1) for i in range(4)])
        self.pres = [TetraPre(t) for t in self.objects]
        planes = [_oriented_plane(pre) for pre in self.pres]
        duals = [_calibrated_duals(pre) for pre in self.pres]
        self.points = [planes, planes] + [[d[i] for d in duals] for i in range(4)]

    def make_ctx(self, e: Segment4) -> _QueryCtx:
        a, b = e.a, e.b
        forms = [_integral((*a, -1)), _integral((*b, -1))] + [_integral(plucker10(a, b))] * 4
        return _QueryCtx(forms, e)

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        return segment_tetra_direct(ctx.qobj, self.objects[j], self.pres[j]) is not None

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return segment_tetra_direct(ctx.qobj, self.objects[j], self.pres[j])


class _SetupTetraSeg(_Setup):
    """Setup (iii): input segments, query tetrahedra."""

    name = SETUP_TETRA_SEG

    def __init__(self, segments: Sequence[Segment4]):
        super().__init__(segments, [
            LevelSpec("SEG_ENDPOINT_A", 5, 0, 1),
            LevelSpec("SEG_ENDPOINT_B", 5, 0, -1),
        ] + [LevelSpec(f"LINE_ORIENT_{i+1}", 10, 1, 1) for i in range(4)])
        pa = [_integral((*s.a, 1)) for s in self.objects]
        pb = [_integral((*s.b, 1)) for s in self.objects]
        pl = [_integral(plucker10(s.a, s.b)) for s in self.objects]
        self.points = [pa, pb, pl, pl, pl, pl]

    def make_ctx(self, t: Tetrahedron4) -> _QueryCtx:
        pre = TetraPre(t)
        plane = _oriented_plane(pre)
        side = plane[:4] + (-plane[4],)
        return _QueryCtx([side, side] + list(_calibrated_duals(pre)), t, pre)

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        return segment_tetra_direct(self.objects[j], ctx.qobj, ctx.pre) is not None

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return segment_tetra_direct(self.objects[j], ctx.qobj, ctx.pre)


class _SetupTriTri(_Setup):
    """Setup (ii): input (blue) triangles, query (red) triangles."""

    name = SETUP_TRI_TRI

    def __init__(self, triangles: Sequence[Triangle4]):
        super().__init__(triangles, [
            LevelSpec(f"EDGE_ORIENT_{k+1}", 10, 0, 1) for k in range(3)
        ] + [LevelSpec(f"PLANE_ORIENT_{k+1}", 10, 1, 1) for k in range(3)])
        edges = [_calibrated_edges(tri) for tri in self.objects]
        plane = [_integral(dual10(*tri.vertices)) for tri in self.objects]
        self.points = [[e[k] for e in edges] for k in range(3)] + [plane, plane, plane]

    def make_ctx(self, tq: Triangle4) -> _QueryCtx:
        d = _integral(dual10(*tq.vertices))
        return _QueryCtx([d, d, d] + list(_calibrated_edges(tq)), tq)

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        return tri_tri_any(ctx.qobj, self.objects[j]) is not None

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return tri_tri_any(ctx.qobj, self.objects[j])


class _SetupLineFlat(_Setup):
    """Lines vs 2-flats: a line can meet a flat only where its Plücker
    vector is orthogonal to the flat's dual vector."""

    name = SETUP_LINE_2FLAT
    passes = ((1,),)

    def __init__(self, flats):
        super().__init__([tuple(Point4(*p) for p in f) for f in flats],
                         [LevelSpec("FLAT_MEET", 10, 0, 0)])
        self.points = [[_integral(dual10(*f)) for f in self.objects]]

    def make_ctx(self, line: Segment4) -> _QueryCtx:
        return _QueryCtx([_integral(plucker10(line.a, line.b))], line)

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        try:
            return line_2flat_meet(ctx.qobj, self.objects[j]) is not None
        except Contained:
            return True

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return _flat_witness(ctx.qobj, self.objects[j])


def _oriented_plane(pre: TetraPre):
    """The integer (n, c) of the tetrahedron's hyperplane times the sign of
    n's first nonzero entry, so that a hyperplane gets the same vector
    however its tetrahedron's vertices are ordered."""
    lead = next(v for v in pre.n if v != 0)
    sg = 1 if lead > 0 else -1
    return _integral(tuple(sg * v for v in pre.n) + (sg * pre.c,))


def _calibrated_duals(pre: TetraPre):
    """Facet i's ``dual10`` times its calibration sign eps[i], the boundary
    orientation (-1)^i times one sign per tetrahedron, so that
    _facet_sign(plucker10(a, b), duals[i]) == eps[i] * orient5(a, b, *facet_i)
    and a line pierces the tetrahedron iff the four signs agree."""
    return tuple(_integral(tuple(e * v for v in dual10(*f))) for e, f in zip(pre.eps, pre.facets))


def _calibrated_edges(tri: Triangle4):
    """Edge k's ``plucker10`` times the triangle's edge calibration sign
    eps[k], the boundary orientation (1, -1, 1) times one sign per
    triangle, so that its dot product with dual10 of a 2-flat is
    eps[k] * orient5(edge k, flat) and a 2-flat pierces the triangle iff the
    three signs agree."""
    eps = TrianglePre(tri).eps
    return tuple(_integral(tuple(e * v for v in plucker10(u, w)))
                 for e, (u, w) in zip(eps, tri.edges()))


def _facet_sign(p, d):
    """Sign of the 10-term dot product of a Plücker vector and a dual vector."""
    v = (p[0] * d[0] + p[1] * d[1] + p[2] * d[2] + p[3] * d[3] + p[4] * d[4]
         + p[5] * d[5] + p[6] * d[6] + p[7] * d[7] + p[8] * d[8] + p[9] * d[9])
    return (v > 0) - (v < 0)


def _level_sign(form, x):
    """Sign of a level's form at an object's vector; the 10-term
    orientation products go through ``_facet_sign``."""
    if len(form) == 10:
        return _facet_sign(form, x)
    v = form[0] * x[0] + form[1] * x[1] + form[2] * x[2] + form[3] * x[3] + form[4] * x[4]
    return (v > 0) - (v < 0)


_SETUPS = {
    SETUP_SEG_TETRA: _SetupSegTetra,
    SETUP_TRI_TRI: _SetupTriTri,
    SETUP_TETRA_SEG: _SetupTetraSeg,
    SETUP_LINE_2FLAT: _SetupLineFlat,
}


# ---------------------------------------------------------------------------
# the structure


class MultiLevelStructure:
    def __init__(self, setup_name: str, objects, budget: StorageBudget):
        if setup_name not in _SETUPS:
            raise ValueError(f"unknown setup {setup_name}")
        n = len(objects)
        if budget.n != n:
            raise ValueError("budget.n must equal the number of objects")
        self.setup_name = setup_name
        self.budget = budget
        self.built_nodes = 0
        self.setup = _SETUPS[setup_name](objects) if n else None
        self.levels = self.setup.levels if self.setup else []
        self.points = self.setup.points if self.setup else []
        self.n = n
        self.root_tree = _Tree(self, 0, tuple(range(n))) if n else None

    # -- lazy next-level structures

    def next_tree(self, node: CanonicalNode, level: int) -> _Tree:
        if node._next is None:
            node._next = _Tree(self, level + 1, node.items)
        return node._next

    def fingerprint(self):
        """Shape of all materialized trees, for determinism checks."""

        def nd(node):
            kids = None if node.children is None else tuple(nd(c) for c in node.children)
            nxt = nd(node._next.root) if node._next is not None else None
            return (node.box_lo, node.box_hi, node.items, kids, nxt)

        return nd(self.root_tree.root) if self.root_tree else None


def build(objects, setup: str, budget: StorageBudget) -> MultiLevelStructure:
    return MultiLevelStructure(setup, objects, budget)


# ---------------------------------------------------------------------------
# queries


class _DetectHit(Exception):
    pass


class _Run:
    """Mutable state of one query evaluation."""

    __slots__ = ("struct", "ctx", "mode", "stats", "hits", "audit", "detect")

    def __init__(self, struct, ctx, mode, audit=None):
        self.struct = struct
        self.ctx = ctx
        self.mode = mode
        self.stats = QueryStats()
        self.hits = []
        self.audit = audit
        self.detect = mode == QueryMode.DETECT


def _leaf_match(run: _Run, items, passes):
    """Resolve leaf items exactly for the given passes.  A sign tuple shorter
    than the level list is a miss: sigma stopped early because no pass can
    match."""
    setup = run.struct.setup
    ctx = run.ctx
    stats = run.stats
    stats.leaf_items_scanned += len(items)
    nlevels = len(setup.levels)
    targets = [setup.targets[p] for p in passes]
    for j in items:
        sig = setup.sigma(ctx, j)
        stats.exact_predicate_calls += 1
        if len(sig) < nlevels:
            continue
        if 0 not in sig:
            if sig in targets:
                _record(run, j)
        elif _canonical_pass(setup, sig) in passes:
            stats.exact_predicate_calls += 1
            if setup.closed_hit(ctx, j):
                _record(run, j)


def _canonical_pass(setup, sig):
    levels = setup.levels
    out = []
    for idx, _accepted in setup.groups:
        vals = [sig[l] * levels[l].role for l in idx]
        if all(v >= 0 for v in vals):
            out.append(1)
        elif all(v <= 0 for v in vals):
            out.append(-1)
        else:
            out.append(1)
    return tuple(out)


def _record(run: _Run, j: int):
    run.hits.append(j)
    if run.audit is not None:
        run.audit.setdefault("resolved", []).append(j)
    if run.detect:
        raise _DetectHit()


def _absorb(run: _Run, items):
    if run.audit is not None:
        run.audit.setdefault("canonical", []).append(tuple(items))
    for j in items:
        run.hits.append(j)
    if run.detect and items:
        raise _DetectHit()


def _visit(run: _Run, tree: _Tree, node: CanonicalNode, passes):
    struct = run.struct
    level = tree.level
    last = level == len(struct.levels) - 1
    run.stats.nodes_visited += 1

    lo, hi = _form_range(run.ctx.forms[level], node.box_lo, node.box_hi)
    spec = struct.levels[level]
    inside_by_target = {}
    crossing = []
    for p in passes:
        tt = p[spec.group] * spec.role
        cls = _classify(lo, hi, tt)
        if cls == INSIDE:
            inside_by_target.setdefault(tt, []).append(p)
        elif cls == CROSSING:
            crossing.append(p)
    for plist in inside_by_target.values():
        run.stats.canonical_sets_touched += len(plist)
        if last:
            _absorb(run, node.items)
        else:
            nxt = struct.next_tree(node, level)
            _visit(run, nxt, nxt.root, tuple(plist))
    if crossing:
        if node.is_leaf:
            _leaf_match(run, node.items, tuple(crossing))
        else:
            for ch in node.children:
                _visit(run, tree, ch, tuple(crossing))


def query(structure: MultiLevelStructure, query_object, mode: QueryMode,
          audit=None) -> Tuple[IntersectionReport, QueryStats]:
    """Exact query; the report is identical to the oracle's for this single
    query object (indexA is 0)."""
    if structure.n == 0:
        return IntersectionReport(False, 0, []), QueryStats()
    setup = structure.setup
    ctx = setup.make_ctx(query_object)
    run = _Run(structure, ctx, mode, audit)
    try:
        _visit(run, structure.root_tree, structure.root_tree.root, setup.passes)
    except _DetectHit:
        pass
    hits = sorted(run.hits)
    if mode == QueryMode.DETECT:
        rep = IntersectionReport(bool(hits), 1 if hits else 0, [])
    elif mode == QueryMode.COUNT:
        rep = IntersectionReport(bool(hits), len(hits), [])
    else:
        pairs = [(0, j, setup.witness(ctx, j)) for j in hits]
        rep = IntersectionReport(bool(pairs), len(pairs), pairs)
    return rep, run.stats


def query_batch(structure: MultiLevelStructure, query_objects, mode: QueryMode):
    """Run one query per object and merge reports with indexA = query index.

    Returns (IntersectionReport, aggregated QueryStats, per-query stats)."""
    total = QueryStats()
    per_query = []
    hits = []
    pairs = []
    detected = False
    for qi, q in enumerate(query_objects):
        rep, st = query(structure, q, mode)
        total.add(st)
        per_query.append(st)
        if rep.detected:
            detected = True
        if mode == QueryMode.DETECT and detected:
            return IntersectionReport(True, 1, []), total, per_query
        if mode == QueryMode.COUNT:
            hits.extend([(qi, None)] * rep.count)
        elif mode == QueryMode.REPORT:
            pairs.extend((qi, j, w) for (_z, j, w) in rep.pairs)
    if mode == QueryMode.DETECT:
        return IntersectionReport(False, 0, []), total, per_query
    if mode == QueryMode.COUNT:
        return IntersectionReport(bool(hits), len(hits), []), total, per_query
    return IntersectionReport(bool(pairs), len(pairs), pairs), total, per_query


# ---------------------------------------------------------------------------
# scene preparation and batched queries


def prepare_scene(setup: str, objects, queries):
    """The objects and queries as lists, and shear salt 0.

    Every level is exact on every input direction, so nothing needs a
    shear.  The function stays because ``perfbench`` calls it and unpacks
    these three values."""
    return list(objects), list(queries), 0


def batched_storage_parameter(m: int, n: int) -> int:
    """s = m^{6/7} n^{6/7}, clamped to [n, n^6] (floor of the real value)."""
    if n == 0:
        return 0
    raw = _iroot((m ** 6) * (n ** 6), 7)
    return max(n, min(n ** 6, raw))


def _batched(setup, inputs, queries, mode):
    """One structure on the inputs with s = batched_storage_parameter(m, n),
    queried by every query; returns (report, aggregated QueryStats)."""
    m, n = len(queries), len(inputs)
    if n == 0 or m == 0:
        return IntersectionReport(False, 0, []), QueryStats()
    st = build(inputs, setup, StorageBudget(n, batched_storage_parameter(m, n)))
    rep, total, _per = query_batch(st, queries, mode)
    return rep, total
