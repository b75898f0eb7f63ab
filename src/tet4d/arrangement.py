"""Output-sensitive enumeration of intersection entities among tetrahedra.

For n tetrahedra in R^4 the module reports:

* one witness vertex per intersecting pair, found by two joins of owned
  objects in the structure (edges against tetrahedra, 2-faces against
  2-faces).  No edge or face is tested against its own tetrahedron, and
  only a pair's first hit solves for its witness,
* the full convex intersection polygon of a pair,
* triples with a common point and 4-wise intersection points, obtained by
  reducing each tetrahedron's larger-index neighbours to a 3D triangle
  scene in a rational chart of its supporting hyperplane.  So each pair's
  contact, each triple and each quadruple is computed once, in the chart
  of its smallest member.

An edge that lies in the other tetrahedron's hyperplane is clipped to that
tetrahedron, and both clip ends are candidate polygon vertices.  A pair that
meets only in a segment or a point is clipped directly against each other
neighbour, and each triple's segment is crossed with a fourth tetrahedron
for the quadruples.

Counts agree exactly with oracle.arrangement_k_counts wherever that is
defined (it raises when the hyperplanes of a triple or a quadruple through
an intersecting pair are dependent).
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
    _chart2,
    _clip,
    _dot,
    _segment_clip_in_plane,
    _sign,
    _sub,
    det3,
    tetra_edges,
    tetra_facets,
    tetra_plane,
    tri_tri_any,
    tri_tri_direct,
)
from .oracle import _canon_point


@dataclass(frozen=True)
class PairWitness:
    pair: Tuple[int, int]
    vertex: Point4
    kind: str  # EDGE_TETRA or FACE_FACE


@dataclass
class IntersectionPolygon:
    pair: Tuple[int, int]
    ordered_vertices: List[Point4]


# ---------------------------------------------------------------------------
# pairwise witnesses via batched structure queries


def pairwise(tetrahedra: Sequence[Tetrahedron4]) -> List[PairWitness]:
    """One witness vertex per intersecting pair, in pair order; the pair set
    equals the oracle's k2 pair set.

    Two joins of owned objects (``rangetree._batched``): every edge against
    the tetrahedra, then every 2-face against the 2-faces.  No object is
    tested against its own tetrahedron, nor against one already paired with
    it, by the edge join or by an earlier query; a pair keeps the witness of
    its first hit, edges before faces, which is the only one solved for."""
    from . import rangetree as rt

    tets = list(enumerate(tetrahedra))
    edges = [(i, Segment4(u, v)) for i, t in tets for (u, v) in tetra_edges(t)]
    faces = [(i, Triangle4(*f)) for i, t in tets for f in tetra_facets(t)]
    found: Dict[Tuple[int, int], PairWitness] = {}
    for setup, inputs, queries, kind in ((rt.SETUP_SEG_TETRA, tets, edges, "EDGE_TETRA"),
                                         (rt.SETUP_TRI_TRI, faces, faces, "FACE_FACE")):
        witnesses, _ = rt._batched(setup, inputs, queries, paired=tuple(found))
        for key, w in witnesses.items():
            found[key] = PairWitness(key, _canon_point(w), kind)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# the intersection polygon of one pair


def _lerp(u, v, t) -> Point4:
    return _canon_point(tuple(u[i] + t * (v[i] - u[i]) for i in range(4)))


def _segment_piece(u, v, pre: TetraPre) -> List[Point4]:
    """The ends of segment (u, v) clipped to pre's closed tetrahedron: none
    when they miss, the crossing point when the segment crosses the
    supporting hyperplane, and both ends of the clipped piece when it lies
    in that hyperplane."""
    va = _dot(pre.n, u) - pre.c
    vb = _dot(pre.n, v) - pre.c
    if va == 0 and vb == 0:
        clip = _segment_clip_in_plane(u, v, pre)
        return [] if clip is None else [_lerp(u, v, t) for t in clip]
    if _sign(va) == _sign(vb):
        return []
    p = _lerp(u, v, Fraction(va) / (va - vb))
    return [p] if pre.contains(p) else []


def _hull2(pts, chart):
    """Extreme points of pts (distinct, in one 2-plane) in cyclic order, by
    the monotone chain in the chart coordinates; the two ends when the
    points are collinear."""
    i, j = chart
    pts = sorted(pts, key=lambda p: (p[i], p[j]))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[i] - o[i]) * (p[j] - o[j]) - (a[j] - o[j]) * (p[i] - o[i]) > 0:
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _contact(ti: Tetrahedron4, tj: Tetrahedron4, pre_i: TetraPre, pre_j: TetraPre):
    """The vertices of the convex set ti ^ tj in cyclic order: three or more
    for a polygon, two for a segment, one for a point, none when the pair is
    disjoint.  None when both lie in one hyperplane."""
    # the complement of a nonzero 2x2 minor of the normals charts the common
    # 2-plane one to one
    minor = _chart2(pre_i.n, pre_j.n)
    if minor is None:
        return None if _dot(pre_i.n, tj.v0) == pre_i.c else []
    chart = tuple(k for k in range(4) if k not in minor)
    pts = {}
    # each vertex of ti ^ tj is an edge of one tetrahedron clipped to the
    # other, or the one point where two 2-faces in general position meet
    for t, pre_other in ((ti, pre_j), (tj, pre_i)):
        for (u, v) in tetra_edges(t):
            for p in _segment_piece(u, v, pre_other):
                pts[tuple(p)] = p
    faces_j = [Triangle4(*f) for f in tetra_facets(tj)]
    for f in tetra_facets(ti):
        fi = Triangle4(*f)
        for fj in faces_j:
            try:
                w = tri_tri_direct(fi, fj)
            except DegeneratePosition:
                # the two face planes meet at most in a line of the common
                # 2-plane, and the ends of the faces' common part there are
                # ends of clipped edges
                continue
            if w is not None:
                w = _canon_point(w)
                pts[tuple(w)] = w
    return _hull2(list(pts.values()), chart)


def intersection_polygon(ti: Tetrahedron4, tj: Tetrahedron4,
                         pair: Tuple[int, int] = (0, 1)) -> IntersectionPolygon:
    """All vertices of the convex polygon ti ^ tj, cyclically ordered in the
    common 2-plane of the two supporting hyperplanes.  Raises
    DegeneratePosition when the intersection is only a segment or a point."""
    verts = _contact(ti, tj, TetraPre(ti), TetraPre(tj))
    if verts is None:
        raise DegeneratePosition("tetrahedra in one hyperplane")
    if not verts:
        raise EmptyIntersection(f"pair {pair} does not intersect")
    if len(verts) < 3:
        raise DegeneratePosition("intersection is a point or a segment")
    return IntersectionPolygon((min(pair), max(pair)), verts)


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


def _fan_triangles(v: Sequence[Point4]):
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
    clip = _clip(((s0, ds), (t0, dt), (1 - s0 - t0, -ds - dt)), None, None)
    return None if clip is None or None in clip else clip


@dataclass
class _Piece:
    """t0 ^ t for one neighbour t.  A polygon also carries its fan triangles
    in t0's 3D chart, their common plane and their bounding box."""

    idx: int
    pre: TetraPre
    verts: List[Point4]
    tris3: Optional[list] = None
    plane: Optional[tuple] = None
    box: Optional[tuple] = None


def _polygon_pair_span(pa: _Piece, pb: _Piece):
    """The segment pa ^ pb of two polygon pieces as (line, lo, hi) in the 3D
    chart, or None when they miss."""
    if any(pa.box[k][1] < pb.box[k][0] or pb.box[k][1] < pa.box[k][0] for k in range(3)):
        return None
    try:
        line = _plane_pair_line(*pa.plane, *pb.plane)
    except DegeneratePosition:
        # the three hyperplanes share a 2-plane: the triple is empty unless
        # the pieces meet, and then the oracle is undefined too
        fans = [[Triangle4(*f) for f in _fan_triangles(p.verts)] for p in (pa, pb)]
        if any(tri_tri_any(fa, fb) is not None for fa in fans[0] for fb in fans[1]):
            raise
        return None
    if line is None:
        return None
    # every fan triangle of a polygon lies in the polygon's plane, so all
    # of them meet the one line; the fan tiles the convex polygon, so the
    # union of its triangles' clips is the polygon's one interval there
    o, d = line
    spans = []
    for piece in (pa, pb):
        clips = [c for c in (_clip_line_tri3(o, d, t) for t in piece.tris3) if c is not None]
        if not clips:
            return None
        spans.append((min(c[0] for c in clips), max(c[1] for c in clips)))
    lo, hi = max(spans[0][0], spans[1][0]), min(spans[0][1], spans[1][1])
    if lo > hi:
        return None
    return line, lo, hi


def per_tetra_reduction(t0: Tetrahedron4, neighbours: Sequence[Tuple[int, Tetrahedron4]],
                        self_index: int = 0):
    """Triples and quadruples through t0.

    Returns (triples, quads): triples maps (i, j, k) index triples containing
    self_index to (witness, endpoints); quads maps 4-index tuples to the
    common point.  Each triple's common segment (or point) is crossed with
    the fourth tetrahedron to find the quadruples.
    """
    project, lift_fn = _chart3(t0)
    pre0 = TetraPre(t0)
    pieces = []
    for (idx, t) in neighbours:
        pre = TetraPre(t)
        verts = _contact(t0, t, pre0, pre)
        if verts is None:
            # t lies in t0's hyperplane: a triple through both is empty, or
            # its hyperplanes are dependent and the oracle is undefined
            continue
        if not verts:
            raise EmptyIntersection(f"pair {(self_index, idx)} does not intersect")
        piece = _Piece(idx, pre, verts)
        if len(verts) >= 3:
            piece.tris3 = [tuple(project(p) for p in tri) for tri in _fan_triangles(verts)]
            piece.plane = _tri3_plane(piece.tris3[0])
            piece.box = tuple(
                (min(p[k] for tri in piece.tris3 for p in tri),
                 max(p[k] for tri in piece.tris3 for p in tri))
                for k in range(3)
            )
        pieces.append(piece)

    triples = {}
    ends_by_pair = {}
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            pa, pb = pieces[a], pieces[b]
            if pa.tris3 is not None and pb.tris3 is not None:
                span = _polygon_pair_span(pa, pb)
                if span is None:
                    continue
                (o, d), lo, hi = span
                wit = lift_fn(tuple(o[k] + (lo + hi) / 2 * d[k] for k in range(3)))
                ends = [lift_fn(tuple(o[k] + t * d[k] for k in range(3))) for t in (lo, hi)]
            else:
                # a contact in a segment or a point: clip it to the other tetrahedron
                seg, other = (pa, pb) if pa.tris3 is None else (pb, pa)
                ends = _segment_piece(seg.verts[0], seg.verts[-1], other.pre)
                if not ends:
                    continue
                ends = [ends[0], ends[-1]]
                wit = _lerp(ends[0], ends[1], Fraction(1, 2))
            triples[tuple(sorted((self_index, pa.idx, pb.idx)))] = (wit, ends)
            ends_by_pair[(a, b)] = ends

    quads = {}
    for (a, b), ends in ends_by_pair.items():
        for c in range(b + 1, len(pieces)):
            if (a, c) not in ends_by_pair or (b, c) not in ends_by_pair:
                continue
            hit = _segment_piece(ends[0], ends[1], pieces[c].pre)
            if not hit:
                continue
            if hit[0] != hit[-1]:
                raise DegeneratePosition("four hyperplanes do not meet in a point")
            key = tuple(sorted((self_index, pieces[a].idx, pieces[b].idx, pieces[c].idx)))
            quads[key] = hit[0]
    return triples, quads


def k_counts(tetrahedra: Sequence[Tetrahedron4]):
    """(k2, k3, k4) by the reduction pipeline; equals the oracle counts."""
    witnesses = pairwise(tetrahedra)
    # each tetrahedron is reduced against its larger neighbours only, so
    # every contact, triple and quadruple is computed once, in the chart of
    # its smallest member
    later: Dict[int, List[int]] = {}
    for w in witnesses:
        i, j = w.pair
        later.setdefault(i, []).append(j)
    k3 = 0
    vert_keys = set()
    for i, nbrs in later.items():
        triples, quads = per_tetra_reduction(tetrahedra[i], [(j, tetrahedra[j]) for j in nbrs], i)
        k3 += len(triples)
        for _wit, ends in triples.values():
            vert_keys.update(map(tuple, ends))
        vert_keys.update(map(tuple, quads.values()))
    return len(witnesses), k3, len(vert_keys)
