"""Output-sensitive enumeration of intersection entities among tetrahedra.

For n tetrahedra in R^4 the module reports:

* one witness vertex per intersecting pair, found by two joins of owned
  objects in the structure (edges against tetrahedra, 2-faces against
  2-faces).  No edge or face is tested against its own tetrahedron, and
  only a pair's first hit solves for its witness,
* the full convex intersection polygon of a pair,
* triples with a common point and 4-wise intersection points, found from
  each tetrahedron t0's contact pieces with its larger-index neighbours.
  Each piece t0 ^ t is a polygon, a segment or a point, and t0 ^ ta ^ tb is
  the chord of piece a on tb's hyperplane clipped to tb.  So each pair's
  contact, each triple and each quadruple is computed once, from its
  smallest member, and all of it in R^4.

An edge that lies in the other tetrahedron's hyperplane is clipped to that
tetrahedron, and both clip ends are candidate polygon vertices.  Each
triple's segment is crossed with a fourth tetrahedron for the quadruples.

Counts agree exactly with oracle.arrangement_k_counts wherever that is
defined (it raises when the hyperplanes of a triple or a quadruple through
an intersecting pair are dependent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .kernel4d import (
    DegeneratePosition,
    EmptyIntersection,
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    _chart2,
    _dot,
    _segment_clip_in_plane,
    _sign,
    tetra_edges,
    tetra_facets,
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
# per-tetrahedron reduction: triples and quadruples through one tetrahedron


def _fan_triangles(v: Sequence[Point4]):
    return [(v[0], v[k], v[k + 1]) for k in range(1, len(v) - 1)]


def _box(verts):
    return tuple((min(p[k] for p in verts), max(p[k] for p in verts)) for k in range(4))


def _chord(verts, pre: TetraPre):
    """The distinct points where the convex piece with cyclic vertices verts
    meets pre's supporting hyperplane on its boundary: its vertices there
    and its edges' crossings.  At most two, unless a polygon lies in the
    hyperplane."""
    s = [_dot(pre.n, v) - pre.c for v in verts]
    pts = {tuple(v): v for v, sv in zip(verts, s) if sv == 0}
    k = len(verts)
    for i in range(k if k > 2 else k - 1):
        j = (i + 1) % k
        if s[i] * s[j] < 0:
            p = _lerp(verts[i], verts[j], s[i] / (s[i] - s[j]))
            pts[tuple(p)] = p
    return list(pts.values())


def _triple(pa, pb):
    """(witness, ends) of the common part of two contact pieces of t0, or
    None when they miss.  That part is pa ^ tb: the chord of pa on tb's
    hyperplane, clipped to tb."""
    _, _, verts_a, box_a = pa
    _, pre_b, verts_b, box_b = pb
    if any(box_a[k][1] < box_b[k][0] or box_b[k][1] < box_a[k][0] for k in range(4)):
        return None
    chord = _chord(verts_a, pre_b)
    if len(chord) > 2:
        # the three hyperplanes share a 2-plane: the triple is empty unless
        # the pieces meet, and then the oracle is undefined too
        fans = [[Triangle4(*f) for f in _fan_triangles(v)] for v in (verts_a, verts_b)]
        if any(tri_tri_any(fa, fb) is not None for fa in fans[0] for fb in fans[1]):
            raise DegeneratePosition("coplanar polygon pieces")
        return None
    if not chord:
        return None
    u, v = chord[0], chord[-1]
    clip = _segment_clip_in_plane(u, v, pre_b)
    if clip is None:
        return None
    lo, hi = clip
    return _lerp(u, v, (lo + hi) / 2), [_lerp(u, v, lo), _lerp(u, v, hi)]


def per_tetra_reduction(t0: Tetrahedron4, neighbours: Sequence[Tuple[int, Tetrahedron4]],
                        self_index: int = 0):
    """Triples and quadruples through t0.

    Returns (triples, quads): triples maps (i, j, k) index triples containing
    self_index to (witness, endpoints); quads maps 4-index tuples to the
    common point.  Each neighbour's contact piece with t0 is a polygon, a
    segment or a point.  A triple is the smaller piece's chord on the other
    neighbour's hyperplane, clipped to that neighbour; its segment (or
    point) is crossed with a fourth tetrahedron for the quadruples.
    """
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
        pieces.append((idx, pre, verts, _box(verts)))

    triples = {}
    ends_by_pair = {}
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            # chord the piece with fewer vertices, so that a polygon lying in
            # the other hyperplane is only ever met by another polygon
            pa, pb = sorted((pieces[a], pieces[b]), key=lambda p: len(p[2]))
            found = _triple(pa, pb)
            if found is None:
                continue
            triples[tuple(sorted((self_index, pa[0], pb[0])))] = found
            ends_by_pair[(a, b)] = found[1]

    quads = {}
    for (a, b), ends in ends_by_pair.items():
        for c in range(b + 1, len(pieces)):
            if (a, c) not in ends_by_pair or (b, c) not in ends_by_pair:
                continue
            hit = _segment_piece(ends[0], ends[1], pieces[c][1])
            if not hit:
                continue
            if hit[0] != hit[-1]:
                raise DegeneratePosition("four hyperplanes do not meet in a point")
            key = tuple(sorted((self_index, pieces[a][0], pieces[b][0], pieces[c][0])))
            quads[key] = hit[0]
    return triples, quads


def k_counts(tetrahedra: Sequence[Tetrahedron4]):
    """(k2, k3, k4) by the reduction pipeline; equals the oracle counts."""
    witnesses = pairwise(tetrahedra)
    # each tetrahedron is reduced against its larger neighbours only, so
    # every contact, triple and quadruple is computed once, from its
    # smallest member
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
