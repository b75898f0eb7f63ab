"""Multi-level canonical-set search structure for the four query setups.

The structure realizes the six-level decomposition of the intersection
conditions: two linear levels for the endpoint/hyperplane side conditions
and four orientation levels for the 5x5 determinant conditions (six
orientation levels for triangle-triangle; one zero-set level for lines vs
2-flats).  Each level is a median-split partition tree over the parameter
points of the input objects (hyperplane coefficient vectors in R^5, line
points in R^6, 2-plane anchor points in R^6; orientation levels that need a
per-object calibration sign carry it as an extra +/-1 coordinate).

Descent classifies each node's bounding box against the query's
semi-algebraic range by conservative interval arithmetic: INSIDE nodes
forward their entire item set to the next level as a canonical set, OUTSIDE
nodes are pruned, CROSSING nodes recurse.  Leaves are resolved by exact
integer signs with a direct-solver fallback for boundary contacts.  For the
segment-tetrahedron setups a leaf first takes the two endpoint signs against
the integer hyperplane (n, c) and stops when both are nonzero and equal (no
pass can match); otherwise each facet sign is one 10-term dot product of
the segment's Plücker vector with the facet's calibrated dual vector.
Results are exactly equal to the brute-force oracle on every input; the
storage parameter s only controls the leaf cutoff ceil(n^{6/5} / s^{1/5}).

A query runs one shared descent for the four sign-pattern passes (two
choices for the endpoint side pattern x two for the orientation pattern);
an object in degenerate position relative to the query is counted exactly
once, in its canonical pass, after an exact closed-set test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .kernel4d import (
    BudgetOutOfRange,
    Contained,
    DegenerateDirection,
    DegeneratePosition,
    DegenerateTetrahedron,
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    TrianglePre,
    _scaled_row,
    _sign,
    det4,
    det5h,
    dual10,
    generic_shear,
    hyperplane_of,
    line_2flat_meet,
    line_param,
    orient5,
    plucker10,
    segment_tetra_direct,
    tri_tri_any,
    twoplane_param,
)
from .oracle import IntersectionReport, QueryMode, _flat_witness, _tri_witness

SETUP_SEG_TETRA = "SEG_QUERY_TETRA_INPUT"
SETUP_TRI_TRI = "TRI_TRI"
SETUP_TETRA_SEG = "TETRA_QUERY_SEG_INPUT"
SETUP_LINE_2FLAT = "LINE_2FLAT"

INSIDE = "INSIDE"
OUTSIDE = "OUTSIDE"
CROSSING = "CROSSING"

_INF = math.inf


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
# interval arithmetic (outward-rounded float, and exact rational)


class FInterval:
    """Conservative float interval: ops widen by one ulp outward, so the
    enclosure always contains the exact value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    @staticmethod
    def from_exact(x) -> "FInterval":
        f = float(x)
        if f == x:
            return FInterval(f, f)
        if f < x:
            return FInterval(f, math.nextafter(f, _INF))
        return FInterval(math.nextafter(f, -_INF), f)

    def __add__(self, o):
        return FInterval(math.nextafter(self.lo + o.lo, -_INF), math.nextafter(self.hi + o.hi, _INF))

    def __sub__(self, o):
        return FInterval(math.nextafter(self.lo - o.hi, -_INF), math.nextafter(self.hi - o.lo, _INF))

    def __mul__(self, o):
        a, b, c, d = self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi
        lo = min(a, b, c, d)
        hi = max(a, b, c, d)
        return FInterval(math.nextafter(lo, -_INF), math.nextafter(hi, _INF))

    def __neg__(self):
        return FInterval(-self.hi, -self.lo)


class XInterval:
    """Exact rational interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    @staticmethod
    def from_exact(x) -> "XInterval":
        return XInterval(x, x)

    def __add__(self, o):
        return XInterval(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o):
        return XInterval(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, o):
        a, b, c, d = self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi
        return XInterval(min(a, b, c, d), max(a, b, c, d))

    def __neg__(self):
        return XInterval(-self.hi, -self.lo)


# ---------------------------------------------------------------------------
# level specification


@dataclass(frozen=True)
class LevelSpec:
    kind: str           # e.g. ENDPOINT_SIDE_A, FACET_ORIENT_2, EDGE_ORIENT_1
    dim: int            # parameter-space dimension incl. the sign coordinate
    group: int          # pattern group index
    role: int           # +1 / -1: semantic target = pass[group] * role
    signed: bool        # stored calibration sign as coordinate 0


# ---------------------------------------------------------------------------
# partition tree


class CanonicalNode:
    """One node of a level tree: a bounding box, the canonical item set of
    its subtree, children for CROSSING descent, and (lazily) the next-level
    structure built on exactly its item set."""

    __slots__ = ("items", "box_lo", "box_hi", "fbox", "children", "is_leaf", "_next")

    def __init__(self, items, box_lo, box_hi, fbox, children, is_leaf):
        self.items = items
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.fbox = fbox
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
        lo = [min(pts[i][d] for i in items) for d in range(dim)]
        hi = [max(pts[i][d] for i in items) for d in range(dim)]
        fbox = tuple(
            (FInterval.from_exact(lo[d]).lo, FInterval.from_exact(hi[d]).hi)
            for d in range(dim)
        )
        owner.built_nodes += 1
        if len(items) <= owner.budget.leaf_cutoff:
            return CanonicalNode(items, tuple(lo), tuple(hi), fbox, None, True)
        axis = None
        for probe in range(dim):
            d = (depth + probe) % dim
            if lo[d] != hi[d]:
                axis = d
                break
        if axis is None:
            # all points identical: cannot split further
            return CanonicalNode(items, tuple(lo), tuple(hi), fbox, None, True)
        order = sorted(items, key=lambda i: (pts[i][axis], i))
        mid = len(order) // 2
        left = self._build(tuple(order[:mid]), depth + 1)
        right = self._build(tuple(order[mid:]), depth + 1)
        return CanonicalNode(items, tuple(lo), tuple(hi), fbox, (left, right), False)


# ---------------------------------------------------------------------------
# per-setup ingest
#
# Every setup provides:
#   levels            list[LevelSpec]
#   points[level][j]  exact parameter tuple of object j at that level
#   sigma(ctx, j)     the semantic per-level signs of object j vs the query
#   closed_hit(ctx,j) exact closed-set intersection test (direct solver)
#   witness(ctx, j)   exact witness point
#   make_ctx(qobj)    per-query context: promoted constants and evaluators


class _QueryCtx:
    __slots__ = ("fevals", "xevals", "svals", "adjust", "sigma_cache", "qobj", "pre",
                 "plucker", "plane", "duals")

    def __init__(self, fevals, xevals, svals, adjust, qobj):
        self.fevals = fevals      # level -> fn(list[FInterval]) -> FInterval
        self.xevals = xevals      # level -> fn(list[XInterval]) -> XInterval
        self.svals = svals        # level -> fn(exact coords) -> exact value
        self.adjust = adjust      # level -> +1/-1 target adjustment
        self.sigma_cache = {}
        self.qobj = qobj


def _mk_affine(coeffs, const, conv):
    C = [conv(c) for c in coeffs]
    K = conv(const)

    def ev(co):
        acc = K
        for c, x in zip(C, co):
            acc = acc + c * x
        return acc

    return ev


def _mk_cubic_anchor(a, b, conv, signed: bool):
    """Determinant of rows (a,1),(b,1),A00,A01,A11 as a function of the
    anchor coordinates (z00,w00,z01,w01,z11,w11); times the sign coordinate
    when signed."""
    A = [conv(v) for v in a]
    negax, negay = -A[0], -A[1]
    one = conv(1)
    r1 = tuple(conv(b[i] - a[i]) for i in range(4))
    onay = one - A[1]
    onax = one - A[0]

    def ev(co):
        off = 1 if signed else 0
        r2 = (negax, negay, co[off + 0] - A[2], co[off + 1] - A[3])
        r3 = (negax, onay, co[off + 2] - A[2], co[off + 3] - A[3])
        r4 = (onax, onay, co[off + 4] - A[2], co[off + 5] - A[3])
        d = det4(r1, r2, r3, r4)
        return d * co[0] if signed else d

    return ev


def _mk_quad_line(f1, f2, f3, conv, signed: bool):
    """Determinant of rows (u0,1),(u1,1),(f1,1),(f2,1),(f3,1) as a function
    of the line coordinates (x0,y0,z0,x1,y1,z1); times the sign coordinate
    when signed."""
    F = [tuple(conv(v) for v in f) for f in (f1, f2, f3)]
    one = conv(1)
    zero = conv(0)

    def ev(co):
        off = 1 if signed else 0
        u0 = (co[off + 0], co[off + 1], co[off + 2])
        r1 = (co[off + 3] - u0[0], co[off + 4] - u0[1], co[off + 5] - u0[2], one)
        rows = [r1]
        for f in F:
            rows.append((f[0] - u0[0], f[1] - u0[1], f[2] - u0[2], f[3] - zero))
        d = det4(*rows)
        return d * co[0] if signed else d

    return ev


_CONVS = (FInterval.from_exact, XInterval.from_exact, lambda x: x)


def _three_paths(maker):
    """Instantiate an evaluator for the float, exact-interval and scalar
    paths."""
    return tuple(maker(conv) for conv in _CONVS)


class _SetupSegTetra:
    """Setup (i): input tetrahedra, query segments."""

    name = SETUP_SEG_TETRA
    passes = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def __init__(self, tetrahedra: Sequence[Tetrahedron4]):
        self.objects = list(tetrahedra)
        self.pres = [TetraPre(t) for t in self.objects]
        self.planes = [_oriented_plane(pre) for pre in self.pres]
        # calibrated facet duals, built on a tetrahedron's first leaf test
        self.duals = [None] * len(self.objects)
        self.levels = [
            LevelSpec("ENDPOINT_SIDE_A", 5, 0, 1, False),
            LevelSpec("ENDPOINT_SIDE_B", 5, 0, -1, False),
        ] + [LevelSpec(f"FACET_ORIENT_{i+1}", 7, 1, 1, True) for i in range(4)]
        hpoints = []
        for t in self.objects:
            h = hyperplane_of(t)
            hpoints.append(tuple(h.coeffs) + (h.offset,))
        self.points = [hpoints, hpoints]
        probes = [_tetra_probe_points(t, pre) for t, pre in zip(self.objects, self.pres)]
        for i in range(4):
            lvl = []
            for pre, (pa, pb) in zip(self.pres, probes):
                q = twoplane_param(*pre.facets[i])
                # calibration: probe sign in the anchor-row representation
                anchors = q.lifted()
                eps_anchor = _orient5_frac(pa, pb, anchors[0], anchors[1], anchors[2])
                if eps_anchor == 0:
                    raise DegenerateDirection("anchor calibration degenerate")
                lvl.append((eps_anchor,) + q.point6)
            self.points.append(lvl)

    def make_ctx(self, e: Segment4) -> _QueryCtx:
        a, b = e.a, e.b
        fe, xe, se = [], [], []
        coeffs_a = (a.x, a.y, a.z, a.w, -1)
        coeffs_b = (b.x, b.y, b.z, b.w, -1)
        for coeffs in (coeffs_a, coeffs_b):
            f, x, s = _three_paths(lambda conv, c=coeffs: _mk_affine(c, 0, conv))
            fe.append(f)
            xe.append(x)
            se.append(s)
        for _ in range(4):
            f, x, s = _three_paths(lambda conv: _mk_cubic_anchor(a, b, conv, True))
            fe.append(f)
            xe.append(x)
            se.append(s)
        ctx = _QueryCtx(fe, xe, se, [1] * 6, e)
        ctx.plucker = plucker10(a, b)
        return ctx

    def sigma(self, ctx: _QueryCtx, j: int):
        """Per-level signs of tetrahedron j against the query segment; just
        the two endpoint signs when both are nonzero and equal."""
        sig = ctx.sigma_cache.get(j)
        if sig is not None:
            return sig
        a, b = ctx.qobj.a, ctx.qobj.b
        n0, n1, n2, n3, c = self.planes[j]
        s0 = _sign(n0 * a[0] + n1 * a[1] + n2 * a[2] + n3 * a[3] - c)
        s1 = _sign(n0 * b[0] + n1 * b[1] + n2 * b[2] + n3 * b[3] - c)
        if s0 == s1 != 0:
            sig = (s0, s1)
        else:
            d = self.duals[j]
            if d is None:
                d = self.duals[j] = _calibrated_duals(self.pres[j])
            p = ctx.plucker
            sig = (s0, s1, _facet_sign(p, d[0]), _facet_sign(p, d[1]),
                   _facet_sign(p, d[2]), _facet_sign(p, d[3]))
        ctx.sigma_cache[j] = sig
        return sig

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        return segment_tetra_direct(ctx.qobj, self.objects[j], self.pres[j]) is not None

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return segment_tetra_direct(ctx.qobj, self.objects[j], self.pres[j])


class _SetupTetraSeg:
    """Setup (iii): input segments, query tetrahedra."""

    name = SETUP_TETRA_SEG
    passes = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def __init__(self, segments: Sequence[Segment4]):
        self.objects = list(segments)
        self.levels = [
            LevelSpec("SEG_ENDPOINT_A", 4, 0, 1, False),
            LevelSpec("SEG_ENDPOINT_B", 4, 0, -1, False),
        ] + [LevelSpec(f"LINE_ORIENT_{i+1}", 6, 1, 1, False) for i in range(4)]
        pa = [tuple(s.a) for s in self.objects]
        pb = [tuple(s.b) for s in self.objects]
        p6 = []
        self.dsign = []
        for s in self.objects:
            lp = line_param(s)
            p6.append(lp.point6)
            self.dsign.append(_sign(s.b.w - s.a.w))
        self.points = [pa, pb, p6, p6, p6, p6]
        self.pluckers = [plucker10(s.a, s.b) for s in self.objects]

    def make_ctx(self, t: Tetrahedron4) -> _QueryCtx:
        pre = TetraPre(t)
        h = hyperplane_of(t)
        coeffs = tuple(h.coeffs) + (h.offset,)
        facets = pre.facets
        fe, xe, se = [], [], []
        for _ in range(2):
            f, x, s = _three_paths(
                lambda conv: _mk_affine(coeffs[:4], -coeffs[4], conv)
            )
            fe.append(f)
            xe.append(x)
            se.append(s)
        for i in range(4):
            f, x, s = _three_paths(lambda conv, fc=facets[i]: _mk_quad_line(fc[0], fc[1], fc[2], conv, False))
            fe.append(f)
            xe.append(x)
            se.append(s)
        ctx = _QueryCtx(fe, xe, se, [1, 1] + [pre.eps[i] for i in range(4)], t)
        ctx.pre = pre
        ctx.plane = _oriented_plane(pre)
        ctx.duals = _calibrated_duals(pre)
        return ctx

    def sigma(self, ctx: _QueryCtx, j: int):
        """Per-level signs of segment j against the query tetrahedron; just
        the two endpoint signs when both are nonzero and equal."""
        sig = ctx.sigma_cache.get(j)
        if sig is not None:
            return sig
        seg = self.objects[j]
        a, b = seg.a, seg.b
        n0, n1, n2, n3, c = ctx.plane
        s0 = _sign(n0 * a[0] + n1 * a[1] + n2 * a[2] + n3 * a[3] - c)
        s1 = _sign(n0 * b[0] + n1 * b[1] + n2 * b[2] + n3 * b[3] - c)
        if s0 == s1 != 0:
            sig = (s0, s1)
        else:
            p, d, ds = self.pluckers[j], ctx.duals, self.dsign[j]
            sig = (s0, s1, ds * _facet_sign(p, d[0]), ds * _facet_sign(p, d[1]),
                   ds * _facet_sign(p, d[2]), ds * _facet_sign(p, d[3]))
        ctx.sigma_cache[j] = sig
        return sig

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        return segment_tetra_direct(self.objects[j], ctx.qobj, ctx.pre) is not None

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return segment_tetra_direct(self.objects[j], ctx.qobj, ctx.pre)


class _SetupTriTri:
    """Setup (ii): input (blue) triangles, query (red) triangles."""

    name = SETUP_TRI_TRI
    passes = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def __init__(self, triangles: Sequence[Triangle4]):
        self.objects = list(triangles)
        self.pres = [TrianglePre(t) for t in self.objects]
        self.levels = [
            LevelSpec(f"EDGE_ORIENT_{k+1}", 7, 0, 1, True) for k in range(3)
        ] + [LevelSpec(f"PLANE_ORIENT_{k+1}", 6, 1, 1, False) for k in range(3)]
        self.points = []
        self.aov = []
        edge_levels = [[], [], []]
        for j, tri in enumerate(self.objects):
            for k, (u, v) in enumerate(tri.edges()):
                lp = line_param(Segment4(u, v))
                ds = _sign(v.w - u.w)
                eps_tree = ds * self.pres[j].eps[k]
                edge_levels[k].append((eps_tree,) + lp.point6)
        self.points.extend(edge_levels)
        qlevel = []
        for j, tri in enumerate(self.objects):
            q = twoplane_param(*tri.vertices)
            anchors = q.lifted()
            x1, x2 = _triangle_ref_line(tri)
            da = _orient5_frac(x1, x2, *anchors)
            dv = _orient5_frac(x1, x2, *tri.vertices)
            if da == 0 or dv == 0:
                raise DegenerateDirection("plane calibration degenerate")
            self.aov.append(da * dv)
            qlevel.append(q.point6)
        self.points.extend([qlevel, qlevel, qlevel])

    def make_ctx(self, tq: Triangle4) -> _QueryCtx:
        pre = TrianglePre(tq)
        verts = tq.vertices
        edges = tq.edges()
        fe, xe, se = [], [], []
        for _ in range(3):
            f, x, s = _three_paths(
                lambda conv: _mk_quad_line(verts[0], verts[1], verts[2], conv, True)
            )
            fe.append(f)
            xe.append(x)
            se.append(s)
        for k in range(3):
            u, v = edges[k]
            f, x, s = _three_paths(lambda conv, uu=u, vv=v: _mk_cubic_anchor(uu, vv, conv, False))
            fe.append(f)
            xe.append(x)
            se.append(s)
        ctx = _QueryCtx(fe, xe, se, [1, 1, 1] + [pre.eps[k] for k in range(3)], tq)
        ctx.pre = pre
        return ctx

    def sigma(self, ctx: _QueryCtx, j: int):
        cached = ctx.sigma_cache.get(j)
        if cached is not None:
            return cached
        tq = ctx.qobj
        blue = self.objects[j]
        bpre = self.pres[j]
        siga = tuple(
            bpre.eps[k] * orient5(u, v, *tq.vertices)
            for k, (u, v) in enumerate(blue.edges())
        )
        aov = self.aov[j]
        sigb = tuple(
            ctx.pre.eps[k] * aov * orient5(u, v, *blue.vertices)
            for k, (u, v) in enumerate(tq.edges())
        )
        sig = siga + sigb
        ctx.sigma_cache[j] = sig
        return sig

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        return tri_tri_any(ctx.qobj, self.objects[j]) is not None

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return _tri_witness(ctx.qobj, self.objects[j])


class _SetupLineFlat:
    """Lines vs 2-flats: flats stored as anchor points; the meet condition is
    the zero set of the cubic determinant."""

    name = SETUP_LINE_2FLAT
    passes = ((),)

    def __init__(self, flats):
        self.objects = [tuple(Point4(*p) for p in f) for f in flats]
        self.levels = [LevelSpec("FLAT_MEET", 6, 0, 1, False)]
        pts = []
        for f in self.objects:
            q = twoplane_param(*f)
            pts.append(q.point6)
        self.points = [pts]

    def make_ctx(self, line: Segment4) -> _QueryCtx:
        f, x, s = _three_paths(lambda conv: _mk_cubic_anchor(line.a, line.b, conv, False))
        return _QueryCtx([f], [x], [s], [1], line)

    def sigma(self, ctx: _QueryCtx, j: int):
        return ()

    def closed_hit(self, ctx: _QueryCtx, j: int) -> bool:
        try:
            return line_2flat_meet(ctx.qobj, self.objects[j]) is not None
        except Contained:
            return True

    def witness(self, ctx: _QueryCtx, j: int) -> Point4:
        return _flat_witness(ctx.qobj, self.objects[j])


def _oriented_plane(pre: TetraPre):
    """The integer (n, c) of the tetrahedron's hyperplane times the sign of
    n's first nonzero entry: the same side signs as ``hyperplane_of``."""
    lead = next(v for v in pre.n if v != 0)
    sg = 1 if lead > 0 else -1
    return tuple(sg * v for v in pre.n) + (sg * pre.c,)


def _calibrated_duals(pre: TetraPre):
    """Facet i's ``dual10`` times its calibration sign eps[i], so that
    _facet_sign(plucker10(a, b), duals[i]) == eps[i] * orient5(a, b, *facet_i)."""
    return tuple(tuple(e * v for v in dual10(*f)) for e, f in zip(pre.eps, pre.facets))


def _facet_sign(p, d):
    """Sign of the 10-term dot product of a Plücker vector and a dual vector."""
    v = (p[0] * d[0] + p[1] * d[1] + p[2] * d[2] + p[3] * d[3] + p[4] * d[4]
         + p[5] * d[5] + p[6] * d[6] + p[7] * d[7] + p[8] * d[8] + p[9] * d[9])
    return (v > 0) - (v < 0)


def _orient5_frac(p0, p1, p2, p3, p4):
    """orient5 of rational points: each homogeneous row (p, 1) is scaled to
    integers by a positive factor, which keeps the determinant's sign."""
    return _sign(det5h(*(_scaled_row(p) for p in (p0, p1, p2, p3, p4))))


def _tetra_probe_points(t: Tetrahedron4, pre: TetraPre):
    """Interior probe line endpoints (rational) used for calibration."""
    n = pre.n
    j = max(range(4), key=lambda k: (abs(n[k]), -k))
    g = tuple(Fraction(t.vertices[0][i] + t.vertices[1][i] + t.vertices[2][i] + t.vertices[3][i], 4) for i in range(4))
    e = tuple(1 if i == j else 0 for i in range(4))
    return (
        Point4(*(g[i] - e[i] for i in range(4))),
        Point4(*(g[i] + e[i] for i in range(4))),
    )


def _triangle_ref_line(tri: Triangle4):
    """A line guaranteed transverse to the triangle's plane (through the two
    off-plane completion points of the centroid reference plane)."""
    from .kernel4d import _sub, complete_plane_basis

    p, q, r = tri.vertices
    d1, d2 = _sub(q, p), _sub(r, p)
    f1, f2 = complete_plane_basis(d1, d2)
    g = tuple(Fraction(p[i] + q[i] + r[i], 3) for i in range(4))
    return (
        Point4(*(g[i] + f1[i] for i in range(4))),
        Point4(*(g[i] + f2[i] for i in range(4))),
    )


_SETUPS = {
    SETUP_SEG_TETRA: _SetupSegTetra,
    SETUP_TRI_TRI: _SetupTriTri,
    SETUP_TETRA_SEG: _SetupTetraSeg,
    SETUP_LINE_2FLAT: _SetupLineFlat,
}


# ---------------------------------------------------------------------------
# the structure


class MultiLevelStructure:
    def __init__(self, setup_name: str, objects, budget: StorageBudget, seed: int = 0):
        if setup_name not in _SETUPS:
            raise ValueError(f"unknown setup {setup_name}")
        n = len(objects)
        if budget.n != n:
            raise ValueError("budget.n must equal the number of objects")
        self.setup_name = setup_name
        self.budget = budget
        self.seed = seed
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


def build(objects, setup: str, budget: StorageBudget, seed: int = 0) -> MultiLevelStructure:
    return MultiLevelStructure(setup, objects, budget, seed)


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


def _classify_f(iv: FInterval, target: int):
    if target > 0:
        if iv.lo > 0.0:
            return INSIDE
        if iv.hi < 0.0:
            return OUTSIDE
    else:
        if iv.hi < 0.0:
            return INSIDE
        if iv.lo > 0.0:
            return OUTSIDE
    return CROSSING


def _leaf_match(run: _Run, setup, level: int, items, passes):
    """Resolve leaf items exactly for the given passes.  A sign tuple shorter
    than the level list is a miss: sigma stopped early because no pass can
    match."""
    run.stats.leaf_items_scanned += len(items)
    levels = setup.levels
    ctx = run.ctx
    if setup.name == SETUP_LINE_2FLAT:
        for j in items:
            run.stats.exact_predicate_calls += 1
            if setup.closed_hit(ctx, j):
                _record(run, j)
        return
    nlevels = len(levels)
    for j in items:
        sig = setup.sigma(ctx, j)
        run.stats.exact_predicate_calls += 1
        if len(sig) < nlevels:
            continue
        if 0 not in sig:
            for p in passes:
                if all(s == p[levels[l].group] * levels[l].role for l, s in enumerate(sig)):
                    _record(run, j)
                    break
        else:
            canon = _canonical_pass(setup, sig)
            if canon in passes:
                run.stats.exact_predicate_calls += 1
                if setup.closed_hit(ctx, j):
                    _record(run, j)


def _canonical_pass(setup, sig):
    levels = setup.levels
    ngroups = max(l.group for l in levels) + 1
    out = []
    for g in range(ngroups):
        vals = [sig[l] * levels[l].role for l in range(len(levels)) if levels[l].group == g]
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


def _absorb(run: _Run, items, via):
    if run.audit is not None:
        run.audit.setdefault("canonical", []).append(tuple(items))
    for j in items:
        run.hits.append(j)
    if run.detect and items:
        raise _DetectHit()


def _visit(run: _Run, tree: _Tree, node: CanonicalNode, passes):
    struct = run.struct
    setup = struct.setup
    level = tree.level
    last = level == len(struct.levels) - 1
    run.stats.nodes_visited += 1

    if setup.name == SETUP_LINE_2FLAT:
        fiv = run.ctx.fevals[level]([FInterval(lo, hi) for lo, hi in node.fbox])
        if fiv.lo > 0.0 or fiv.hi < 0.0:
            return
        if node.is_leaf:
            _leaf_match(run, setup, level, node.items, passes)
        else:
            for ch in node.children:
                _visit(run, tree, ch, passes)
        return

    fiv = run.ctx.fevals[level]([FInterval(lo, hi) for lo, hi in node.fbox])
    spec = struct.levels[level]
    inside_by_target = {}
    crossing = []
    for p in passes:
        tt = p[spec.group] * spec.role * run.ctx.adjust[level]
        cls = _classify_f(fiv, tt)
        if cls == INSIDE:
            inside_by_target.setdefault(tt, []).append(p)
        elif cls == CROSSING:
            crossing.append(p)
    for tt, plist in inside_by_target.items():
        if last:
            run.stats.canonical_sets_touched += len(plist)
            _absorb(run, node.items, plist)
        else:
            run.stats.canonical_sets_touched += len(plist)
            nxt = struct.next_tree(node, level)
            _visit(run, nxt, nxt.root, tuple(plist))
    if crossing:
        if node.is_leaf:
            _leaf_match(run, setup, level, node.items, tuple(crossing))
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
# exact conservative box classification (reference implementation)


@dataclass
class ExactRange:
    """Exact-interval view of one level's query range."""

    xeval: Callable
    target: int
    zero_set: bool = False

    def eval_interval(self, box):
        co = [XInterval(lo, hi) for lo, hi in box]
        iv = self.xeval(co)
        return iv.lo, iv.hi


def classify_box(box, query_range: ExactRange) -> str:
    """Conservative exact classification of an axis-aligned box against a
    range: INSIDE only if every box point satisfies the range, OUTSIDE only
    if none does, CROSSING otherwise."""
    lo, hi = query_range.eval_interval(box)
    if query_range.zero_set:
        return OUTSIDE if (lo > 0 or hi < 0) else CROSSING
    if query_range.target > 0:
        if lo > 0:
            return INSIDE
        if hi < 0:
            return OUTSIDE
    else:
        if hi < 0:
            return INSIDE
        if lo > 0:
            return OUTSIDE
    return CROSSING


def exact_ranges(structure: MultiLevelStructure, query_object, pass_tuple):
    """Per-level ExactRange objects for a query and sign-pattern pass."""
    setup = structure.setup
    ctx = setup.make_ctx(query_object)
    out = []
    for l, spec in enumerate(structure.levels):
        if structure.setup_name == SETUP_LINE_2FLAT:
            out.append(ExactRange(ctx.xevals[l], 1, True))
        else:
            tt = pass_tuple[spec.group] * spec.role * ctx.adjust[l]
            out.append(ExactRange(ctx.xevals[l], tt))
    return out


# ---------------------------------------------------------------------------
# shear preparation and batched drivers


def _shear_obj(obj, salt):
    if isinstance(obj, Segment4):
        a, b = generic_shear([obj.a, obj.b], salt)
        return Segment4(a, b)
    if isinstance(obj, Triangle4):
        p, q, r = generic_shear(list(obj.vertices), salt)
        return Triangle4(p, q, r)
    if isinstance(obj, Tetrahedron4):
        vs = generic_shear(list(obj.vertices), salt)
        return Tetrahedron4(*vs)
    # 2-flat: tuple of three points
    return tuple(generic_shear(list(obj), salt))


def prepare_scene(setup: str, objects, queries, max_salt: int = 64):
    """Find the smallest shear salt making every object and query
    parametrizable for the setup; salt 0 is the identity."""
    cls = _SETUPS[setup]
    for salt in range(max_salt):
        objs = objects if salt == 0 else [_shear_obj(o, salt) for o in objects]
        qs = queries if salt == 0 else [_shear_obj(q, salt) for q in queries]
        try:
            st = cls(objs)
            for q in qs:
                st.make_ctx(q)
            return objs, qs, salt
        except (DegenerateDirection, DegenerateTetrahedron, ValueError):
            continue
    raise DegenerateDirection("no shear salt found")


def batched_storage_parameter(m: int, n: int) -> int:
    """s = m^{6/7} n^{6/7}, clamped to [n, n^6] (floor of the real value)."""
    if n == 0:
        return 0
    raw = _iroot((m ** 6) * (n ** 6), 7)
    return max(n, min(n ** 6, raw))


def _batched(setup, inputs, queries, mode, seed=0):
    m, n = len(queries), len(inputs)
    if n == 0 or m == 0:
        return IntersectionReport(False, 0, []), QueryStats()
    s = batched_storage_parameter(m, n)
    st = qs = salt = None
    for cand in range(64):
        objs = inputs if cand == 0 else [_shear_obj(o, cand) for o in inputs]
        qcand = queries if cand == 0 else [_shear_obj(q, cand) for q in queries]
        try:
            st = build(objs, setup, StorageBudget(n, s), seed)
            for q in qcand:
                st.setup.make_ctx(q)
            qs, salt = qcand, cand
            break
        except (DegenerateDirection, DegenerateTetrahedron, ValueError):
            st = None
            continue
    if st is None:
        raise DegenerateDirection("no shear salt found")
    rep, total, _per = query_batch(st, qs, mode)
    if mode == QueryMode.REPORT and salt != 0:
        # witnesses were computed on the sheared copies; map them back
        from .kernel4d import generic_shear_inverse

        pairs = []
        for (i, j, w) in rep.pairs:
            (w0,) = generic_shear_inverse([w], salt)
            pairs.append((i, j, w0))
        rep = IntersectionReport(rep.detected, rep.count, pairs)
    return rep, total


def batched_tri_tri(red: Sequence[Triangle4], blue: Sequence[Triangle4],
                    mode: QueryMode, seed: int = 0) -> IntersectionReport:
    """Bichromatic batched triangle intersection: builds on blue with
    s = clamp(m^{6/7} n^{6/7}) and queries every red triangle; falls back to
    the plain oracle outside the regime n^{1/6} <= m <= n^6."""
    from .oracle import tri_tri_query

    m, n = len(red), len(blue)
    if m == 0 or n == 0:
        return IntersectionReport(False, 0, [])
    if m ** 6 < n or m > n ** 6:
        return tri_tri_query(red, blue, mode)
    rep, _stats = _batched(SETUP_TRI_TRI, blue, red, mode, seed)
    return rep


def batched_seg_tetra(segments: Sequence[Segment4], tetrahedra: Sequence[Tetrahedron4],
                      mode: QueryMode, seed: int = 0) -> IntersectionReport:
    """Batched segment queries over input tetrahedra with the same storage
    balancing rule as the bichromatic triangle case."""
    from .oracle import seg_tetra_query

    m, n = len(segments), len(tetrahedra)
    if m == 0 or n == 0:
        return IntersectionReport(False, 0, [])
    if m ** 6 < n or m > n ** 6:
        return seg_tetra_query(segments, tetrahedra, mode)
    rep, _stats = _batched(SETUP_SEG_TETRA, tetrahedra, segments, mode, seed)
    return rep


def build_flats(flats, budget: StorageBudget, seed: int = 0) -> MultiLevelStructure:
    return build(flats, SETUP_LINE_2FLAT, budget, seed)


def query_line(structure: MultiLevelStructure, line: Segment4, mode: QueryMode):
    return query(structure, line, mode)
