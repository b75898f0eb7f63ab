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
arithmetic is integer dot products, and each cut keeps its bound as a pair
(num, den), den > 0, compared by cross-multiplication.  The cross product
of parallel edges is zero; it projects everything to 0 and cuts nothing.

The contact point at t* comes from clipping each edge of one tetrahedron by
the other's four outward halfspaces, then the reverse.  Every vertex of the
intersection of two tetrahedra lies on an edge of one of them, so the first
nonempty clip gives a point.  The clip is homogeneous as well: the edge
parameter is an integer pair, and a Fraction is built only for the point.

The lifted 4D prism and its feature scan live on in ``tests/_oracles.py``,
as the independent reference that the tests compare this module against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .kernel4d import Point4, as_exact, det3
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
    prism and ``window`` its time window as (num0, den0, num1, den1).  At
    time t the tetrahedron is its time-0 shape moved by t u, so per axis k
    lo_k = min_v v_k + min(t0 u_k, t1 u_k), and hi_k the same with max.
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
        s0, s1 = as_exact(t0), as_exact(t1)
        sweep = [(s0 * c, s1 * c) for c in u]
        self.bbox = (tuple(as_exact(min(v[k] for v in vs) + min(sweep[k])) for k in range(3))
                     + (s0,)
                     + tuple(as_exact(max(v[k] for v in vs) + max(sweep[k])) for k in range(3))
                     + (s1,))
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
    # the face normals of A, then of B.  Along a normal n of P, with Q the
    # other tetrahedron, d t lies in [min n.Q - hi, max n.Q - lo] with
    # d = n.uP - n.uQ; for P = B that is A's gap interval negated with d,
    # which cuts the window to the same bound, with the same (num, den)
    for faces, (u0, u1, u2), (q0, q1, q2, q3) in ((pa.faces, pb.vel, pb.verts),
                                                  (pb.faces, pa.vel, pa.verts)):
        for n0, n1, n2, lo, hi, nu in faces:
            x0 = n0 * q0[0] + n1 * q0[1] + n2 * q0[2]
            x1 = n0 * q1[0] + n1 * q1[1] + n2 * q1[2]
            x2 = n0 * q2[0] + n1 * q2[1] + n2 * q2[2]
            x3 = n0 * q3[0] + n1 * q3[1] + n2 * q3[2]
            lq, hq = (x0, x1) if x0 < x1 else (x1, x0)
            lq, hq = (x2 if x2 < lq else lq), (x2 if x2 > hq else hq)
            glo, ghi = (x3 if x3 < lq else lq) - hi, (x3 if x3 > hq else hq) - lo
            d = nu - n0 * u0 - n1 * u1 - n2 * u2
            if d > 0:      # glo/d <= t <= ghi/d
                if glo * ld > ln * d:
                    ln, ld = glo, d
                if ghi * hd < hn * d:
                    hn, hd = ghi, d
            elif d < 0:    # -ghi/-d <= t <= -glo/-d
                if ghi * ld < ln * d:
                    ln, ld = -ghi, -d
                if glo * hd > hn * d:
                    hn, hd = -glo, -d
            elif glo > 0 or ghi < 0:
                return None
            else:
                continue
            if ln * hd > hn * ld:
                return None
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
            lo_b, hi_b = (x, y) if x < y else (y, x)
            glo = -(z if z > hi_b else hi_b) - hi_a
            ghi = -(z if z < lo_b else lo_b) - lo_a
            d = f0 * cu[0] + f1 * cu[1] + f2 * cu[2] + e0 * du[0] + e1 * du[1] + e2 * du[2]
            if d > 0:
                if glo * ld > ln * d:
                    ln, ld = glo, d
                if ghi * hd < hn * d:
                    hn, hd = ghi, d
            elif d < 0:
                if ghi * ld < ln * d:
                    ln, ld = -ghi, -d
                if glo * hd > hn * d:
                    hn, hd = -glo, -d
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
    for integer input, and each edge parameter s is kept as sn/sd, sd > 0."""
    for this, other in ((pa, pb), (pb, pa)):
        u0, u1, u2 = this.vel
        vs = [(td * x + tn * u0, td * y + tn * u1, td * z + tn * u2) for x, y, z in this.verts]
        planes = [(n0, n1, n2, td * hi + tn * nu) for n0, n1, n2, _lo, hi, nu in other.faces]
        # c - n.v for every vertex v and halfspace n.x <= c of the other
        slack = [[c - n0 * x - n1 * y - n2 * z for n0, n1, n2, c in planes] for x, y, z in vs]
        for i, j, _k, _m in _EDGES:
            # the least s in [sn/sd, hn/hd] = [0, 1] with p + s (q - p) in
            # every halfspace: one that holds neither end rules the edge
            # out, and one that holds both ends cuts nothing
            sn, sd, hn, hd = 0, 1, 1, 1
            for fp, fq in zip(slack[i], slack[j]):
                if fp < 0:
                    if fq < 0:
                        break
                    if -fp * sd > sn * (fq - fp):      # s >= -fp / (fq - fp)
                        sn, sd = -fp, fq - fp
                elif fq < 0 and fp * hd < hn * (fp - fq):  # s <= fp / (fp - fq)
                    hn, hd = fp, fp - fq
            else:
                if sn * hd <= hn * sd:
                    p, q = vs[i], vs[j]
                    return Point4(*(Fraction(p[k] * sd + sn * (q[k] - p[k]), sd * td)
                                    for k in range(3)), Fraction(tn, td))
    raise AssertionError("no contact point at the first contact time")


def _hits(prisms: Sequence[Prism4]):
    """The hits (i, j, first contact point) over all pairs i < j, in (i, j)
    order, each pair tested when the hit before it has been taken."""
    for i in range(len(prisms)):
        for j in range(i + 1, len(prisms)):
            w = prism_pair_intersect(prisms[i], prisms[j])
            if w is not None:
                yield i, j, w


def ccd_oracle_pairs(prisms: Sequence[Prism4]) -> List[Tuple[int, int]]:
    """Exhaustive pair test over all pairs of lifted tetrahedra."""
    return [(i, j) for (i, j, _w) in _hits(prisms)]


def detect_collisions(scene: Sequence[MovingTetrahedron], mode: QueryMode) -> IntersectionReport:
    """Pairs of moving tetrahedra that meet inside their common time window,
    by the pair test over all pairs; DETECT stops at the first hit.  A REPORT
    witness is the point of first contact (x, y, z, t*), t* the earliest
    time at which the pair meets."""
    hits = _hits([lift(mt) for mt in scene])
    if mode == QueryMode.DETECT:
        hit = next(hits, None) is not None
        return IntersectionReport(hit, int(hit), [])
    hits = list(hits)
    if mode == QueryMode.COUNT:
        return IntersectionReport(bool(hits), len(hits), [])
    return IntersectionReport(bool(hits), len(hits), hits)

