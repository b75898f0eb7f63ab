"""Output-sensitive enumeration of intersection entities among tetrahedra.

For n tetrahedra in R^4 the module reports:

* one witness vertex per intersecting pair (found by batched edge-vs-body
  and 2-face-vs-2-face structure queries),
* the full convex intersection polygon of a pair,
* triples with a common point and 4-wise intersection points, obtained by
  reducing the neighbourhood of each tetrahedron to a 3D triangle scene in
  a rational chart of its supporting hyperplane.

Counts agree exactly with oracle.arrangement_k_counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel4d import (
    DegeneratePosition,
    EmptyIntersection,
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    _sign,
    _sub,
    det3,
    linsolve,
    segment_tetra_direct,
    tetra_edges,
    tetra_facets,
    tetra_plane,
    tri_tri_direct,
)
from .oracle import QueryMode


@dataclass(frozen=True)
class PairWitness:
    pair: Tuple[int, int]
    vertex: Point4
    kind: str  # EDGE_TETRA or FACE_FACE


@dataclass
class IntersectionPolygon:
    pair: Tuple[int, int]
    ordered_vertices: List[Point4]


def _canon(p) -> Point4:
    return Point4(*(Fraction(c) for c in p))


# ---------------------------------------------------------------------------
# pairwise witnesses via batched structure queries


def pairwise(tetrahedra: Sequence[Tetrahedron4], seed: int = 0) -> List[PairWitness]:
    """One witness vertex per intersecting pair; the pair set equals the
    oracle's k2 pair set."""
    from . import rangetree as rt

    n = len(tetrahedra)
    if n < 2:
        return []
    edges = []
    owner = []
    for i, t in enumerate(tetrahedra):
        for (u, v) in tetra_edges(t):
            edges.append(Segment4(u, v))
            owner.append(i)
    rep, _ = rt._batched(rt.SETUP_SEG_TETRA, tetrahedra, edges, QueryMode.REPORT, seed)
    found: Dict[Tuple[int, int], PairWitness] = {}
    for (qi, j, w) in rep.pairs:
        i = owner[qi]
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key not in found:
            found[key] = PairWitness(key, _canon(w), "EDGE_TETRA")

    faces = []
    fowner = []
    for i, t in enumerate(tetrahedra):
        for f in tetra_facets(t):
            faces.append(Triangle4(*f))
            fowner.append(i)
    rep, _ = rt._batched(rt.SETUP_TRI_TRI, faces, faces, QueryMode.REPORT, seed)
    for (qi, oj, w) in rep.pairs:
        i, j = fowner[qi], fowner[oj]
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key not in found:
            found[key] = PairWitness(key, _canon(w), "FACE_FACE")
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# the intersection polygon of one pair


def _edge_cross_point(u, v, pre: TetraPre):
    """Where segment (u, v) crosses pre's supporting hyperplane, if it does
    so transversally and inside the tetrahedron."""
    from .kernel4d import _dot

    va = _dot(pre.n, u) - pre.c
    vb = _dot(pre.n, v) - pre.c
    sa, sb = _sign(va), _sign(vb)
    if sa == sb and sa != 0:
        return None
    if sa == 0 and sb == 0:
        raise DegeneratePosition("edge inside the other hyperplane")
    t = Fraction(va) / (va - vb)
    p = tuple(u[i] + t * (v[i] - u[i]) for i in range(4))
    return p if pre.contains(p) else None


def intersection_polygon(ti: Tetrahedron4, tj: Tetrahedron4,
                         pair: Tuple[int, int] = (0, 1)) -> IntersectionPolygon:
    """All vertices of the convex polygon ti  ^ tj, cyclically ordered in the
    common 2-plane of the two supporting hyperplanes."""
    pre_i, pre_j = TetraPre(ti), TetraPre(tj)
    pts = {}

    for (u, v) in tetra_edges(ti):
        p = _edge_cross_point(u, v, pre_j)
        if p is not None and pre_i.contains(p):
            pts[tuple(_canon(p))] = _canon(p)
    for (u, v) in tetra_edges(tj):
        p = _edge_cross_point(u, v, pre_i)
        if p is not None and pre_j.contains(p):
            pts[tuple(_canon(p))] = _canon(p)
    for fi in tetra_facets(ti):
        for fj in tetra_facets(tj):
            try:
                w = tri_tri_direct(Triangle4(*fi), Triangle4(*fj))
            except DegeneratePosition:
                # parallel face planes are harmless unless the faces overlap
                from .kernel4d import tri_tri_any

                if tri_tri_any(Triangle4(*fi), Triangle4(*fj)) is not None:
                    raise
                w = None
            if w is not None:
                pts[tuple(_canon(w))] = _canon(w)

    verts = list(pts.values())
    if not verts:
        raise EmptyIntersection(f"pair {pair} does not intersect")
    if len(verts) < 3:
        raise DegeneratePosition("intersection is a point or a segment")

    # 2D rational chart of the common 2-plane
    o = verts[0]
    d1 = _sub(verts[1], o)
    d2 = None
    for cand in verts[2:]:
        d = _sub(cand, o)
        for i in range(4):
            for j in range(i + 1, 4):
                if d1[i] * d[j] - d1[j] * d[i] != 0:
                    d2 = d
                    break
            if d2 is not None:
                break
        if d2 is not None:
            break
    if d2 is None:
        raise DegeneratePosition("polygon vertices are collinear")
    ci, cj = None, None
    for i in range(4):
        for j in range(i + 1, 4):
            if d1[i] * d2[j] - d1[j] * d2[i] != 0:
                ci, cj = i, j
                break
        if ci is not None:
            break
    chart = [(v[ci] - o[ci], v[cj] - o[cj]) for v in verts]
    gx = sum(c[0] for c in chart) / len(chart)
    gy = sum(c[1] for c in chart) / len(chart)

    def half(c):
        # 0 for the upper half plane (y > 0, or y == 0 and x > 0)
        x, y = c[0] - gx, c[1] - gy
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    import functools

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        ax, ay = a[0] - gx, a[1] - gy
        bx, by = b[0] - gx, b[1] - gy
        cr = ax * by - ay * bx
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    order = sorted(range(len(verts)), key=functools.cmp_to_key(lambda a, b: cmp(chart[a], chart[b])))
    return IntersectionPolygon((min(pair), max(pair)), [verts[k] for k in order])


# ---------------------------------------------------------------------------
# per-tetrahedron reduction to a 3D triangle scene


def _chart3(t0: Tetrahedron4):
    """Rational affine chart of the supporting hyperplane: the 3 coordinate
    axes with the largest spanning determinant."""
    v = t0.vertices
    d = [_sub(v[i], v[0]) for i in (1, 2, 3)]
    best = None
    for cols in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        m = det3(
            tuple(d[0][k] for k in cols),
            tuple(d[1][k] for k in cols),
            tuple(d[2][k] for k in cols),
        )
        if best is None or abs(m) > abs(best[1]):
            best = (cols, m)
    cols, m = best
    if m == 0:
        raise DegeneratePosition("degenerate chart")
    n, c = tetra_plane(t0)
    missing = next(k for k in range(4) if k not in cols)

    def project(p):
        return tuple(p[k] for k in cols)

    def lift(q3):
        # recover the missing coordinate from n . x = c
        out = [None] * 4
        for k, val in zip(cols, q3):
            out[k] = val
        s = c - sum(n[k] * out[k] for k in cols)
        out[missing] = Fraction(s) / n[missing]
        return Point4(*(Fraction(x) for x in out))

    return project, lift


def _fan_triangles(poly: IntersectionPolygon):
    v = poly.ordered_vertices
    return [(v[0], v[k], v[k + 1]) for k in range(1, len(v) - 1)]


def _tri3_plane(tri3):
    a, b, c = tri3
    d1 = tuple(b[k] - a[k] for k in range(3))
    d2 = tuple(c[k] - a[k] for k in range(3))
    n = (
        d1[1] * d2[2] - d1[2] * d2[1],
        d1[2] * d2[0] - d1[0] * d2[2],
        d1[0] * d2[1] - d1[1] * d2[0],
    )
    if n == (0, 0, 0):
        raise DegeneratePosition("flat 3D triangle")
    return n, sum(n[k] * a[k] for k in range(3))


def _bary2_3d(d1, d2, r):
    """(s, t) with r = s*d1 + t*d2 for 3-vectors, or None if r is off the
    span; direct 2x2 solve on the largest nonzero minor."""
    for i in range(3):
        for j in range(i + 1, 3):
            det = d1[i] * d2[j] - d1[j] * d2[i]
            if det != 0:
                s = Fraction(r[i] * d2[j] - r[j] * d2[i]) / det
                t = Fraction(d1[i] * r[j] - d1[j] * r[i]) / det
                k = 3 - i - j
                if d1[k] * s + d2[k] * t != r[k]:
                    return None
                return s, t
    return None


def _point_in_tri3(p, tri3) -> bool:
    a, b, c = tri3
    d1 = tuple(b[k] - a[k] for k in range(3))
    d2 = tuple(c[k] - a[k] for k in range(3))
    r = tuple(p[k] - a[k] for k in range(3))
    st = _bary2_3d(d1, d2, r)
    if st is None:
        return False
    s, t = st
    return s >= 0 and t >= 0 and s + t <= 1


def _plane_pair_line(na, ca, nb, cb):
    """Line of intersection of two 3D planes as (o, d), or None (parallel) or
    DegeneratePosition (coincident)."""
    d = (
        na[1] * nb[2] - na[2] * nb[1],
        na[2] * nb[0] - na[0] * nb[2],
        na[0] * nb[1] - na[1] * nb[0],
    )
    if d == (0, 0, 0):
        # parallel planes; coincident iff the equations are proportional
        for k in range(3):
            if na[k] != 0:
                if all(na[k] * nb[j] == nb[k] * na[j] for j in range(3)) and na[k] * cb == nb[k] * ca:
                    raise DegeneratePosition("coplanar polygon pieces")
                break
        return None
    k = max(range(3), key=lambda i: abs(d[i]))
    i, j = [x for x in range(3) if x != k]
    det = na[i] * nb[j] - na[j] * nb[i]
    o = [None, None, None]
    o[k] = Fraction(0)
    o[i] = Fraction(ca * nb[j] - cb * na[j]) / det
    o[j] = Fraction(na[i] * cb - nb[i] * ca) / det
    return tuple(o), d


def _clip_line_tri3(o, d, tri3):
    a, b, c = tri3
    d1 = tuple(b[k] - a[k] for k in range(3))
    d2 = tuple(c[k] - a[k] for k in range(3))
    p0 = _bary2_3d(d1, d2, tuple(o[k] - a[k] for k in range(3)))
    pd = _bary2_3d(d1, d2, d)
    if p0 is None or pd is None:
        return None
    s0, t0 = p0
    ds, dt = pd
    lo, hi = None, None
    for c0, c1 in ((s0, ds), (t0, dt), (1 - s0 - t0, -ds - dt)):
        if c1 == 0:
            if c0 < 0:
                return None
        else:
            bnd = Fraction(-c0) / c1
            if c1 > 0:
                lo = bnd if lo is None else max(lo, bnd)
            else:
                hi = bnd if hi is None else min(hi, bnd)
    if lo is None or hi is None or lo > hi:
        return None
    return lo, hi


def per_tetra_reduction(t0: Tetrahedron4, neighbours: Sequence[Tuple[int, Tetrahedron4]],
                        self_index: int = 0):
    """Triples and quadruples through t0.

    Returns (triples, quads): triples maps (i, j, k) index triples containing
    self_index to (witness, endpoints); quads maps 4-index tuples to the
    common point.
    """
    project, lift_fn = _chart3(t0)
    polys = []
    for (idx, t) in neighbours:
        poly = intersection_polygon(t0, t, (self_index, idx))
        tris3 = [tuple(project(p) for p in tri) for tri in _fan_triangles(poly)]
        plane = _tri3_plane(tris3[0])
        box = tuple(
            (min(p[k] for tri in tris3 for p in tri), max(p[k] for tri in tris3 for p in tri))
            for k in range(3)
        )
        polys.append((idx, tris3, plane, box))

    triples = {}
    seg_by_pair = {}
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            ia, tris_a, plane_a, box_a = polys[a]
            ib, tris_b, plane_b, box_b = polys[b]
            if any(box_a[k][1] < box_b[k][0] or box_b[k][1] < box_a[k][0] for k in range(3)):
                continue
            # every fan triangle of a polygon lies in the polygon's plane, so
            # all triangle pairs share one line: clip each triangle once
            line = _plane_pair_line(*plane_a, *plane_b)
            if line is None:
                continue
            o, d = line
            clips_a = [c for c in (_clip_line_tri3(o, d, ta) for ta in tris_a) if c is not None]
            clips_b = [c for c in (_clip_line_tri3(o, d, tb) for tb in tris_b) if c is not None]
            lo = hi = None
            for (la, ha) in clips_a:
                for (lb, hb) in clips_b:
                    l2, h2 = max(la, lb), min(ha, hb)
                    if l2 > h2:
                        continue
                    lo = l2 if lo is None else min(lo, l2)
                    hi = h2 if hi is None else max(hi, h2)
            if lo is None:
                continue
            key = tuple(sorted((self_index, ia, ib)))
            mid = (lo + hi) / 2
            wit = lift_fn(tuple(o[k] + mid * d[k] for k in range(3)))
            ends = [
                lift_fn(tuple(o[k] + lo * d[k] for k in range(3))),
                lift_fn(tuple(o[k] + hi * d[k] for k in range(3))),
            ]
            triples[key] = (wit, ends)
            seg_by_pair[(a, b)] = (line, lo, hi)

    quads = {}
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if (a, b) not in seg_by_pair:
                continue
            for c in range(b + 1, len(polys)):
                if (a, c) not in seg_by_pair or (b, c) not in seg_by_pair:
                    continue
                ia, tris_a, plane_a, _bx = polys[a]
                ib, tris_b, plane_b, _bx = polys[b]
                ic, tris_c, plane_c, _bx = polys[c]
                pt = _triple_plane_point(tris_a, tris_b, tris_c,
                                         plane_a, plane_b, plane_c)
                if pt is None:
                    continue
                key = tuple(sorted((self_index, ia, ib, ic)))
                quads[key] = lift_fn(pt)
    return triples, quads


def _triple_plane_point(tris_a, tris_b, tris_c, plane_a, plane_b, plane_c):
    na, ca = plane_a
    nb, cb = plane_b
    nc, cc = plane_c
    sol = linsolve([list(na), list(nb), list(nc)], [ca, cb, cc])
    if sol is None:
        return None
    part, basis = sol
    if basis:
        raise DegeneratePosition("three polygon planes do not meet in a point")
    p = tuple(part)
    for tris in (tris_a, tris_b, tris_c):
        if not any(_point_in_tri3(p, t) for t in tris):
            return None
    return p


def k_counts(tetrahedra: Sequence[Tetrahedron4], seed: int = 0):
    """(k2, k3, k4) by the reduction pipeline; equals the oracle counts."""
    witnesses = pairwise(tetrahedra, seed)
    adj: Dict[int, List[int]] = {}
    for w in witnesses:
        i, j = w.pair
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    triples = {}
    endpoints = {}
    quads = {}
    for i in sorted(adj):
        nbrs = [(j, tetrahedra[j]) for j in sorted(adj[i])]
        tr, qu = per_tetra_reduction(tetrahedra[i], nbrs, i)
        for key, (wit, ends) in tr.items():
            if key not in triples:
                triples[key] = wit
                endpoints[key] = ends
        for key, pt in qu.items():
            quads.setdefault(key, pt)
    vert_keys = set()
    for pt in quads.values():
        vert_keys.add(tuple(pt))
    for ends in endpoints.values():
        for p in ends:
            vert_keys.add(tuple(p))
    return len(witnesses), len(triples), len(vert_keys)
