"""Continuous collision detection for linearly moving tetrahedra in 3-space.

The paper lifts a moving tetrahedron to a prism in R^4, with time as the
fourth coordinate: two tetrahedra collide inside their common time window
iff their prisms meet.  This module decides that, and finds the time of
first contact, by a swept separating-axis test on the 3D tetrahedra
(Gottschalk, Lin and Manocha, "OBBTree", 1996; Redon et al., "Fast
continuous collision detection between rigid bodies", 2002).

At every time t both tetrahedra are translates of their start shapes, so
one fixed set of candidate axes serves every t: the 4 + 4 face normals and
the 36 edge x edge cross products.  Two closed convex polytopes are disjoint
iff one of these axes separates them.  Along an axis L, with projections
taken at time 0, the two overlap at time t iff

    d * t in [minB - maxA, maxB - minA],   d = (uA - uB) . L.

So each axis cuts the window to a closed interval, or empties it (d = 0 is
a static test).  The collision times are the intersection of those
intervals, and its left end is the exact first contact time t*.  The
arithmetic is integer dot products plus one rational comparison per axis.
The cross product of parallel edges is zero; it projects everything to 0
and cuts nothing.

The contact point at t* comes from clipping each edge of one tetrahedron by
the other's four outward halfspaces, then the reverse.  Every vertex of the
intersection of two tetrahedra lies on an edge of one of them, so the first
nonempty clip gives a point.

The lifted 4D prism and its feature scan live on in ``tests/_oracles.py``,
as the independent reference that the tests compare this module against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .kernel4d import Point4, Tetrahedron4, _clip, as_exact, det3, tetra_tetra_intersect
from .oracle import IntersectionReport, QueryMode


@dataclass(frozen=True)
class MovingTetrahedron:
    """Four 3D vertices, a constant 3D velocity, and a time window."""

    vertices: tuple      # 4 x (x, y, z)
    velocity: tuple      # (ux, uy, uz)
    t0: Fraction
    t1: Fraction

    def __post_init__(self):
        v = self.vertices
        d = [tuple(v[i][k] - v[0][k] for k in range(3)) for i in (1, 2, 3)]
        if det3(*d) == 0:
            raise ValueError("degenerate moving tetrahedron")
        if not self.t0 < self.t1:
            raise ValueError("empty time window")

    def at_time(self, t):
        """Vertices of the instantaneous tetrahedron at time t."""
        return tuple(
            tuple(self.vertices[i][k] + t * self.velocity[k] for k in range(3))
            for i in range(4)
        )

    def contains_at(self, p3, t) -> bool:
        """Exact 3D membership of p3 in the tetrahedron at time t."""
        if not (self.t0 <= t <= self.t1):
            return False
        q = tuple(p3[k] - t * self.velocity[k] for k in range(3))
        v = self.vertices
        d = [tuple(v[i][k] - v[0][k] for k in range(3)) for i in (1, 2, 3)]
        D = det3(*d)
        r = tuple(q[k] - v[0][k] for k in range(3))
        tot = Fraction(0)
        for i in range(3):
            rows = [list(x) for x in d]
            rows[i] = list(r)
            bi = Fraction(det3(*rows), D)
            if bi < 0:
                return False
            tot += bi
        return tot <= 1


# face m is the one opposite vertex m; edge (i, j) with the other two vertices
_FACES = ((1, 2, 3, 0), (0, 2, 3, 1), (0, 1, 3, 2), (0, 1, 2, 3))
_EDGES = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


class Prism4:
    """A moving tetrahedron as the swept separating-axis test reads it.

    ``bbox`` is the closed box (lo x, y, z, t, hi x, y, z, t) of the swept
    prism and ``window`` its time window as (num0, den0, num1, den1).
    ``faces`` holds, per face, (n0, n1, n2, lo, hi, n.u): the outward normal
    n and the tetrahedron's projection [lo, hi] onto it at time 0.
    ``edges`` holds, per edge e, the four vectors (v x e for one end v and
    the two vertices off the edge, then u x e): the projection of this
    tetrahedron onto e x f, for an edge f of another one, is then three dot
    products with f."""

    __slots__ = ("mt", "bbox", "window", "verts", "vel", "faces", "edges")

    def __init__(self, mt: MovingTetrahedron):
        self.mt = mt
        vs = tuple(tuple(as_exact(c) for c in v) for v in mt.vertices)
        u = tuple(as_exact(c) for c in mt.velocity)
        t0, t1 = Fraction(mt.t0), Fraction(mt.t1)
        self.verts, self.vel = vs, u
        self.window = (t0.numerator, t0.denominator, t1.numerator, t1.denominator)
        ends = [tuple(as_exact(v[k] + t * u[k]) for k in range(3)) + (as_exact(t),)
                for t in (t0, t1) for v in vs]
        self.bbox = (tuple(min(p[d] for p in ends) for d in range(4))
                     + tuple(max(p[d] for p in ends) for d in range(4)))
        faces = []
        for i, j, k, m in _FACES:
            a = vs[i]
            n = _cross(_sub3(vs[j], a), _sub3(vs[k], a))
            if _dot3(n, _sub3(vs[m], a)) > 0:
                n = (-n[0], -n[1], -n[2])
            faces.append(n + (_dot3(n, vs[m]), _dot3(n, a), _dot3(n, u)))
        self.faces = tuple(faces)
        self.edges = tuple(
            (e, _cross(vs[i], e), _cross(vs[k], e), _cross(vs[m], e), _cross(u, e))
            for i, j, k, m in _EDGES for e in (_sub3(vs[j], vs[i]),))


def lift(mt: MovingTetrahedron) -> Prism4:
    return Prism4(mt)


def _axis_gaps(pa: Prism4, pb: Prism4):
    """(minB - maxA, maxB - minA, (uA - uB) . L) for every candidate axis L,
    with the projections taken at time 0: face normals first, then the
    edge x edge products."""
    (a0, a1, a2), (b0, b1, b2) = pa.vel, pb.vel
    qs = pb.verts
    for n0, n1, n2, lo, hi, nu in pa.faces:
        x = [n0 * q[0] + n1 * q[1] + n2 * q[2] for q in qs]
        yield min(x) - hi, max(x) - lo, nu - (n0 * b0 + n1 * b1 + n2 * b2)
    ps = pa.verts
    for n0, n1, n2, lo, hi, nu in pb.faces:
        x = [n0 * p[0] + n1 * p[1] + n2 * p[2] for p in ps]
        yield lo - max(x), hi - min(x), n0 * a0 + n1 * a1 + n2 * a2 - nu
    # L = e x f: L.p = f.(p x e) for p in A, and L.q = -e.(q x f) for q in B
    for (e0, e1, e2), ca, ck, cm, cu in pa.edges:
        for (f0, f1, f2), da, dk, dm, du in pb.edges:
            x = f0 * ca[0] + f1 * ca[1] + f2 * ca[2]
            y = f0 * ck[0] + f1 * ck[1] + f2 * ck[2]
            z = f0 * cm[0] + f1 * cm[1] + f2 * cm[2]
            lo_a, hi_a = (x, y) if x < y else (y, x)
            lo_a, hi_a = (z if z < lo_a else lo_a), (z if z > hi_a else hi_a)
            x = e0 * da[0] + e1 * da[1] + e2 * da[2]
            y = e0 * dk[0] + e1 * dk[1] + e2 * dk[2]
            z = e0 * dm[0] + e1 * dm[1] + e2 * dm[2]
            lo_nb, hi_nb = (x, y) if x < y else (y, x)
            lo_nb, hi_nb = (z if z < lo_nb else lo_nb), (z if z > hi_nb else hi_nb)
            yield (-hi_nb - hi_a, -lo_nb - lo_a,
                   f0 * cu[0] + f1 * cu[1] + f2 * cu[2] + e0 * du[0] + e1 * du[1] + e2 * du[2])


def prism_pair_intersect(pa: Prism4, pb: Prism4) -> Optional[Point4]:
    """The point (x, y, z, t*) of first contact of two moving tetrahedra,
    with t* the earliest time of their common window at which they meet,
    or None if they never do.  The point is deterministic."""
    a, b = pa.bbox, pb.bbox
    if (a[4] < b[0] or b[4] < a[0] or a[5] < b[1] or b[5] < a[1]
            or a[6] < b[2] or b[6] < a[2] or a[7] < b[3] or b[7] < a[3]):
        return None
    # the common window [ln/ld, hn/hd], denominators positive; the boxes
    # meet in t, so it is not empty
    an0, ad0, an1, ad1 = pa.window
    bn0, bd0, bn1, bd1 = pb.window
    ln, ld = (an0, ad0) if an0 * bd0 >= bn0 * ad0 else (bn0, bd0)
    hn, hd = (an1, ad1) if an1 * bd1 <= bn1 * ad1 else (bn1, bd1)
    for glo, ghi, d in _axis_gaps(pa, pb):
        if d > 0:      # glo/d <= t <= ghi/d
            if glo * ld > ln * d:
                ln, ld = glo, d
            if ghi * hd < hn * d:
                hn, hd = ghi, d
        elif d < 0:    # -ghi/-d <= t <= -glo/-d
            d = -d
            if -ghi * ld > ln * d:
                ln, ld = -ghi, d
            if -glo * hd < hn * d:
                hn, hd = -glo, d
        elif glo > 0 or ghi < 0:
            return None
        else:
            continue
        if ln * hd > hn * ld:
            return None
    return _contact_point(pa, pb, ln, ld)


def _contact_point(pa: Prism4, pb: Prism4, tn, td) -> Point4:
    """A point shared by both tetrahedra at time t = tn/td, where they are
    known to meet.  Coordinates are scaled by td so that they stay integers
    for integer input."""
    scaled = [[tuple(td * v[k] + tn * p.vel[k] for k in range(3)) for v in p.verts]
              for p in (pa, pb)]
    for (src, dst) in ((0, 1), (1, 0)):
        vs, other = scaled[src], (pa, pb)[dst]
        planes = [(f[:3], td * f[4] + tn * f[5]) for f in other.faces]
        for i, j, _k, _m in _EDGES:
            p, q = vs[i], vs[j]
            # the least s in [0, 1] with p + s (q - p) in every halfspace
            # n.x <= c: one that holds neither end rules the edge out, and
            # one that holds both ends cuts nothing
            ends = [(c - _dot3(n, p), c - _dot3(n, q)) for n, c in planes]
            if any(fp < 0 and fq < 0 for fp, fq in ends):
                continue
            clip = _clip([(fp, fq - fp) for fp, fq in ends if fp < 0 or fq < 0],
                         Fraction(0), Fraction(1))
            if clip is not None:
                s = clip[0]
                return Point4(*((p[k] + s * (q[k] - p[k])) / td for k in range(3)),
                              Fraction(tn, td))
    raise AssertionError("no contact point at the first contact time")


def _hits(prisms: Sequence[Prism4]):
    out = []
    for i in range(len(prisms)):
        for j in range(i + 1, len(prisms)):
            w = prism_pair_intersect(prisms[i], prisms[j])
            if w is not None:
                out.append((i, j, w))
    return out


def ccd_oracle_pairs(prisms: Sequence[Prism4]) -> List[Tuple[int, int]]:
    """Exhaustive pair test over all pairs of lifted tetrahedra."""
    return [(i, j) for (i, j, _w) in _hits(prisms)]


def detect_collisions(scene: Sequence[MovingTetrahedron], mode: QueryMode) -> IntersectionReport:
    """Pairs of moving tetrahedra that meet inside their common time window,
    by the pair test over all pairs.  A REPORT witness is the point of first
    contact (x, y, z, t*), t* the earliest time at which the pair meets."""
    hits = _hits([lift(mt) for mt in scene])
    if mode == QueryMode.DETECT:
        return IntersectionReport(bool(hits), 1 if hits else 0, [])
    if mode == QueryMode.COUNT:
        return IntersectionReport(bool(hits), len(hits), [])
    return IntersectionReport(bool(hits), len(hits), hits)


def collision_verified_at(scene, i: int, j: int, t) -> bool:
    """Instantaneous check: do tetrahedra i and j intersect at time t?
    Embeds both instantaneous tetrahedra in the hyperplane w = 0 and runs
    the exact 4D tetra-tetra test."""
    va = scene[i].at_time(t)
    vb = scene[j].at_time(t)
    ta = Tetrahedron4(*(Point4(*v, 0) for v in va))
    tb = Tetrahedron4(*(Point4(*v, 0) for v in vb))
    return tetra_tetra_intersect(ta, tb) is not None
