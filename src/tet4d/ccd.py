"""Continuous collision detection for linearly moving tetrahedra in 3-space.

Each moving tetrahedron is lifted to a convex 4-polytope (a tetrahedral
prism) by using time as the fourth coordinate; two tetrahedra collide inside
the time window iff their prisms intersect.  Prism-prism intersection is
decided exactly by vertex containment plus boundary-feature tests (edges vs
facet tetrahedra, triangles vs triangles), which is complete for closed
convex polytopes.

The all-pairs problem is split by recursive halving into bichromatic
subproblems; large ones are answered by batched multi-level structure
queries, small ones (and the reference oracle) by the exhaustive pair test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .kernel4d import (
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    _dot,
    _sign,
    det3,
    segment_tetra_direct,
    tetra_plane,
    tetra_tetra_intersect,
)
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
        sD = _sign(D)
        tot = Fraction(0)
        for i in range(3):
            rows = [list(x) for x in d]
            rows[i] = list(r)
            bi = Fraction(det3(*rows), D)
            if bi < 0:
                return False
            tot += bi
        return tot <= 1


_SIDE_ORDER = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class Prism4:
    """Lifted prism of a moving tetrahedron: 8 vertices, 14 facet
    tetrahedra (2 caps + 3 per triangulated side prism), the unique 2-faces
    and edges of those facet tetrahedra, and 6 outward facet hyperplanes."""

    __slots__ = ("mt", "vertices", "facet_tets", "facet_pres", "triangles",
                 "tri_pres", "edges", "hyperplanes", "bbox", "tet_boxes",
                 "tri_boxes", "edge_boxes")

    def __init__(self, mt: MovingTetrahedron):
        self.mt = mt
        from .kernel4d import as_exact

        lo = [Point4(*(as_exact(mt.vertices[i][k] + mt.t0 * mt.velocity[k]) for k in range(3)),
                     as_exact(mt.t0)) for i in range(4)]
        hi = [Point4(*(as_exact(mt.vertices[i][k] + mt.t1 * mt.velocity[k]) for k in range(3)),
                     as_exact(mt.t1)) for i in range(4)]
        self.vertices = tuple(lo + hi)
        tets = [Tetrahedron4(*lo), Tetrahedron4(*hi)]
        for side in _SIDE_ORDER:
            i, j, k = sorted(side)
            a = (lo[i], lo[j], lo[k])
            b = (hi[i], hi[j], hi[k])
            tets.append(Tetrahedron4(a[0], a[1], a[2], b[0]))
            tets.append(Tetrahedron4(a[1], a[2], b[0], b[1]))
            tets.append(Tetrahedron4(a[2], b[0], b[1], b[2]))
        self.facet_tets = tuple(tets)
        self.facet_pres = tuple(TetraPre(t) for t in tets)

        tris = {}
        edges = {}
        for t in tets:
            vs = t.vertices
            for f in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
                key = tuple(sorted(tuple(vs[i]) for i in f))
                tris.setdefault(key, Triangle4(vs[f[0]], vs[f[1]], vs[f[2]]))
            for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                key = tuple(sorted((tuple(vs[i]), tuple(vs[j]))))
                edges.setdefault(key, Segment4(vs[i], vs[j]))
        self.triangles = tuple(tris[k] for k in sorted(tris))
        self.edges = tuple(edges[k] for k in sorted(edges))
        from .kernel4d import TrianglePre

        self.tri_pres = tuple(TrianglePre(t) for t in self.triangles)

        def box_of(pts):
            # flat (lo0, lo1, lo2, lo3, hi0, hi1, hi2, hi3): one tuple per box
            return (tuple(min(p[d] for p in pts) for d in range(4))
                    + tuple(max(p[d] for p in pts) for d in range(4)))

        self.tet_boxes = tuple(box_of(t.vertices) for t in self.facet_tets)
        self.tri_boxes = tuple(box_of(t.vertices) for t in self.triangles)
        self.edge_boxes = tuple(box_of((e.a, e.b)) for e in self.edges)

        planes = [((0, 0, 0, -1), -mt.t0), ((0, 0, 0, 1), mt.t1)]
        for m, side in enumerate(_SIDE_ORDER):
            i, j, k = side
            t = Tetrahedron4(lo[i], lo[j], lo[k], hi[i])
            n, c = tetra_plane(t)
            s = _sign(_dot(n, lo[m]) - c)
            assert s != 0
            if s > 0:
                n, c = tuple(-x for x in n), -c
            planes.append((n, c))
        self.hyperplanes = tuple(planes)
        self.bbox = box_of(self.vertices)

    def contains(self, p: Sequence) -> bool:
        return all(_dot(n, p) - c <= 0 for n, c in self.hyperplanes)


def lift(mt: MovingTetrahedron) -> Prism4:
    return Prism4(mt)


def _bbox_disjoint(b1, b2) -> bool:
    return (b1[4] < b2[0] or b2[4] < b1[0] or b1[5] < b2[1] or b2[5] < b1[1]
            or b1[6] < b2[2] or b2[6] < b1[2] or b1[7] < b2[3] or b2[7] < b1[3])


def _plane_separates(prism_planes, other_vertices) -> bool:
    for n, c in prism_planes:
        if all(_dot(n, v) - c > 0 for v in other_vertices):
            return True
    return False


def prism_pair_intersect(pa: Prism4, pb: Prism4) -> Optional[Point4]:
    """Exact closed intersection witness of two prisms, or None.  Features
    are scanned in a fixed order, so the witness is deterministic."""
    if _bbox_disjoint(pa.bbox, pb.bbox):
        return None
    if _plane_separates(pa.hyperplanes, pb.vertices):
        return None
    if _plane_separates(pb.hyperplanes, pa.vertices):
        return None
    for v in pa.vertices:
        if pb.contains(v):
            return Point4(*v)
    for v in pb.vertices:
        if pa.contains(v):
            return Point4(*v)
    from .kernel4d import seg_tetra_hit, tri_tri_hit

    for (p1, p2) in ((pa, pb), (pb, pa)):
        for e, eb in zip(p1.edges, p1.edge_boxes):
            for t, pre, tb in zip(p2.facet_tets, p2.facet_pres, p2.tet_boxes):
                if _bbox_disjoint(eb, tb):
                    continue
                if seg_tetra_hit(e, t, pre):
                    return segment_tetra_direct(e, t, pre)
    for ta, pra, ba in zip(pa.triangles, pa.tri_pres, pa.tri_boxes):
        for tb, prb, bb in zip(pb.triangles, pb.tri_pres, pb.tri_boxes):
            if _bbox_disjoint(ba, bb):
                continue
            if tri_tri_hit(ta, tb, pra, prb):
                from .oracle import _tri_witness

                return _tri_witness(ta, tb)
    return None


def ccd_oracle_pairs(prisms: Sequence[Prism4]) -> List[Tuple[int, int]]:
    """Exhaustive prism-pair intersection test over all pairs."""
    out = []
    for i in range(len(prisms)):
        for j in range(i + 1, len(prisms)):
            if prism_pair_intersect(prisms[i], prisms[j]) is not None:
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# divide and conquer with batched structure queries


def _bichromatic_pairs(prisms, left, right, threshold: int):
    if len(left) <= threshold and len(right) <= threshold:
        out = []
        for i in left:
            for j in right:
                if prism_pair_intersect(prisms[i], prisms[j]) is not None:
                    out.append((min(i, j), max(i, j)))
        return out

    from . import rangetree as rt
    from .oracle import QueryMode

    pairs = set()
    # vertex containment, brute force (cheap exact sign tests)
    for i in left:
        for j in right:
            if _bbox_disjoint(prisms[i].bbox, prisms[j].bbox):
                continue
            if any(prisms[j].contains(v) for v in prisms[i].vertices) or any(
                prisms[i].contains(v) for v in prisms[j].vertices
            ):
                pairs.add((min(i, j), max(i, j)))

    def feature_pairs(owner_a, feats_a, owner_b, tets_b, setup):
        rep, _stats = rt._batched(setup, tets_b, feats_a, QueryMode.REPORT)
        return [(owner_a[qi], owner_b[oj]) for (qi, oj, _w) in rep.pairs]

    # edges of one side vs facet tetrahedra of the other
    for (A, B) in ((left, right), (right, left)):
        feats, owner_f = [], []
        for i in A:
            for e in prisms[i].edges:
                feats.append(e)
                owner_f.append(i)
        tets, owner_t = [], []
        for j in B:
            for t in prisms[j].facet_tets:
                tets.append(t)
                owner_t.append(j)
        for (oi, oj) in feature_pairs(owner_f, feats, owner_t, tets, rt.SETUP_SEG_TETRA):
            if oi != oj:
                pairs.add((min(oi, oj), max(oi, oj)))

    # triangles vs triangles
    tris_a, owner_a = [], []
    for i in left:
        for t in prisms[i].triangles:
            tris_a.append(t)
            owner_a.append(i)
    tris_b, owner_b = [], []
    for j in right:
        for t in prisms[j].triangles:
            tris_b.append(t)
            owner_b.append(j)
    rep, _stats = rt._batched(rt.SETUP_TRI_TRI, tris_b, tris_a, QueryMode.REPORT)
    for (qi, oj, _w) in rep.pairs:
        oi, ojj = owner_a[qi], owner_b[oj]
        if oi != ojj:
            pairs.add((min(oi, ojj), max(oi, ojj)))
    return sorted(pairs)


def _dc_pairs(prisms, indices, threshold: int):
    n = len(indices)
    if n < 2:
        return []
    if n <= threshold:
        out = []
        for a in range(n):
            for b in range(a + 1, n):
                i, j = indices[a], indices[b]
                if prism_pair_intersect(prisms[i], prisms[j]) is not None:
                    out.append((min(i, j), max(i, j)))
        return out
    mid = n // 2
    left, right = indices[:mid], indices[mid:]
    out = _dc_pairs(prisms, left, threshold)
    out += _dc_pairs(prisms, right, threshold)
    out += _bichromatic_pairs(prisms, left, right, threshold)
    return sorted(set(out))


def detect_collisions(scene: Sequence[MovingTetrahedron], mode: QueryMode,
                      threshold: int = 32) -> IntersectionReport:
    """Pairs of moving tetrahedra whose lifted prisms intersect; witnesses
    are intersection points of the prisms, whose w-coordinate is a collision
    time."""
    prisms = [lift(mt) for mt in scene]
    pairs = _dc_pairs(prisms, list(range(len(scene))), threshold)
    if mode == QueryMode.DETECT:
        det = bool(pairs)
        return IntersectionReport(det, 1 if det else 0, [])
    if mode == QueryMode.COUNT:
        return IntersectionReport(bool(pairs), len(pairs), [])
    out = []
    for (i, j) in pairs:
        w = prism_pair_intersect(prisms[i], prisms[j])
        assert w is not None
        out.append((i, j, Point4(*(Fraction(c) for c in w))))
    return IntersectionReport(bool(out), len(out), out)


def collision_verified_at(scene, i: int, j: int, t) -> bool:
    """Instantaneous check: do tetrahedra i and j intersect at time t?
    Embeds both instantaneous tetrahedra in the hyperplane w = 0 and runs
    the exact 4D tetra-tetra test."""
    va = scene[i].at_time(t)
    vb = scene[j].at_time(t)
    ta = Tetrahedron4(*(Point4(*v, 0) for v in va))
    tb = Tetrahedron4(*(Point4(*v, 0) for v in vb))
    return tetra_tetra_intersect(ta, tb) is not None
