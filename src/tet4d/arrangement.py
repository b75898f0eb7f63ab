"""Output-sensitive enumeration of intersection entities among tetrahedra.

For n tetrahedra in R^4 the module reports:

* one witness vertex per intersecting pair: a sweep over the tetrahedra's
  closed integer boxes finds the candidate pairs, side signs reject those
  with one tetrahedron strictly on one side of the other's hyperplane, and
  the first edge or 2-face hit of each remaining pair is its witness,
* the full convex intersection polygon of a pair,
* triples with a common point and 4-wise intersection points, found from
  each tetrahedron t0's contact pieces with its larger-index neighbours.
  Each piece t0 ^ t is a polygon, a segment or a point, and t0 ^ ta ^ tb is
  the chord of piece a on tb's hyperplane clipped to tb.  So each pair's
  contact, each triple and each quadruple is computed once, from its
  smallest member, and all of it in R^4.

Every clip is by affine forms (``TetraPre.forms``): a tetrahedron is the
part of its hyperplane where its four facet forms are >= 0.  So ti ^ tj is
ti's section by tj's hyperplane (ti's vertices there and its edges'
crossings) clipped by tj's facet forms, a triple is a chord clipped the
same way, and each triple's segment is crossed with a fourth tetrahedron
for the quadruples.  Points are homogeneous integer rows throughout, so
every step is exact, and Fractions are built only for what is returned.

Counts agree exactly with oracle.arrangement_k_counts wherever that is
defined (it raises when the hyperplanes of a triple or a quadruple through
an intersecting pair are dependent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Sequence, Tuple

from .kernel4d import (
    DegeneratePosition,
    EmptyIntersection,
    Point4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    _PAIRS,
    _box,
    _chart2,
    _dot,
    _dot5,
    _integral,
    _meets,
    _off_plane,
    det3,
    edge_face_witness,
    tri_tri_any,
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
# pairwise witnesses by a box sweep


def _box_pairs(boxes) -> List[Tuple[int, int]]:
    """Every pair (i, j), i < j, whose closed boxes meet, in pair order, by
    a sweep along x (sweep and prune): each box in order of low x against
    the active boxes, those whose high x reaches that low x, by ``_meets``."""
    active = []
    out = []
    for i in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        active = [j for j in active if boxes[j][4] >= boxes[i][0]]
        out += [(min(i, j), max(i, j)) for j in active if _meets(boxes[i], boxes[j])]
        active.append(i)
    return sorted(out)


def _pre(t) -> TetraPre:
    """The TetraPre of t, a tetrahedron or already its TetraPre."""
    return t if isinstance(t, TetraPre) else TetraPre(t)


def pairwise(tetrahedra: Sequence[Tetrahedron4]) -> List[PairWitness]:
    """One witness vertex per intersecting pair, in pair order; the pair set
    equals the oracle's k2 pair set.  The candidates are the pairs whose
    closed integer boxes meet (``_box_pairs``).  A pair with one tetrahedron
    strictly on one side of the other's hyperplane misses (``_off_plane``),
    and each other pair (a, b), a < b, keeps ``edge_face_witness(ta, tb)``.
    A tetrahedron may be given as its TetraPre."""
    pres = [_pre(t) for t in tetrahedra]
    out = []
    for a, b in _box_pairs([_box(p.tet.vertices) for p in pres]):
        pa, pb = pres[a], pres[b]
        ta, tb = pa.tet, pb.tet
        if _off_plane(pb, ta.vertices) or _off_plane(pa, tb.vertices):
            continue
        hit = edge_face_witness(ta, tb, pa, pb)
        if hit is not None:
            out.append(PairWitness((a, b), _canon_point(hit[0]), hit[1]))
    return out


# ---------------------------------------------------------------------------
# the intersection polygon of one pair, on homogeneous integer rows


def _row(p):
    """The row (X, D) = (D*p, D) of a point, D > 0 and gcd 1: each point has
    one row, and an affine form f has the sign of f . (X, D) there."""
    return _integral((*p, 1))


def _point(r) -> Point4:
    return Point4(*(Fraction(x, r[4]) for x in r[:4]))


def _cross(p, sp, q, sq):
    """The row of the point of segment (p, q) where an affine form with
    values sp at p and sq at q vanishes; sp and sq are of opposite signs,
    or one of them is zero."""
    if sp < 0 or sq > 0:
        sp, sq = -sp, -sq
    r = [sp * b - sq * a for a, b in zip(p, q)]
    g = math.gcd(*r)
    return tuple(x // g for x in r)


def _hull2(rows, chart):
    """Extreme points of rows (distinct, in one 2-plane) in cyclic order, by
    the monotone chain in the chart coordinates; the two ends when the
    points are collinear."""
    i, j = chart
    rows = sorted(rows, key=cmp_to_key(lambda a, b: (a[i] * b[4] - b[i] * a[4])
                                       or (a[j] * b[4] - b[j] * a[4])))
    if len(rows) < 3:
        return rows

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                # the turn o -> a -> p, times the three positive D
                if det3((o[i], o[j], o[4]), (a[i], a[j], a[4]), (p[i], p[j], p[4])) > 0:
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(rows) + chain(reversed(rows))


def _on_plane(rows, h, edges):
    """The rows on the hyperplane of the form h, then the crossings of the
    edges (index pairs into rows) whose ends lie strictly on either side."""
    s = [_dot5(h, r) for r in rows]
    return ([r for r, sv in zip(rows, s) if sv == 0]
            + [_cross(rows[a], s[a], rows[b], s[b]) for a, b in edges if s[a] * s[b] < 0])


def _clip_polygon(rows, forms):
    """The convex polygon (or segment, or point) with cyclic vertices rows,
    clipped to where every form is >= 0 (Sutherland-Hodgman)."""
    for f in forms:
        s = [_dot5(f, r) for r in rows]
        k = len(rows)
        out = []
        for a in range(k):
            if s[a] >= 0:
                out.append(rows[a])
            b = (a + 1) % k
            # a segment has one edge, not two
            if s[a] * s[b] < 0 and (k > 2 or b):
                out.append(_cross(rows[a], s[a], rows[b], s[b]))
        rows = out
    return rows


def _contact(ti: Tetrahedron4, tj: Tetrahedron4, pre_i: TetraPre, pre_j: TetraPre):
    """The vertices of the convex set ti ^ tj in cyclic order: three or more
    for a polygon, two for a segment, one for a point, none when the pair is
    disjoint.  None when both lie in one hyperplane.

    ti ^ tj is ti's section by tj's hyperplane, clipped by tj's four facet
    forms: on that hyperplane they are positive multiples of tj's
    barycentric coordinates.  Every step is a sign or a crossing of integer
    rows, so it is exact, and the vertices become Fractions once."""
    # the complement of a nonzero 2x2 minor of the normals charts the common
    # 2-plane one to one
    minor = _chart2(pre_i.n, pre_j.n)
    if minor is None:
        return None if _dot(pre_i.n, tj.v0) == pre_i.c else []
    chart = tuple(k for k in range(4) if k not in minor)
    forms = pre_j.forms
    # ti's section: its vertices on tj's hyperplane and its edges' crossings
    section = _on_plane([_row(v) for v in ti.vertices], forms[4], _PAIRS)
    rows = _clip_polygon(_hull2(section, chart), forms[:4])
    return [_point(r) for r in _hull2(rows, chart)]


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


def _piece_box(verts):
    """The exact box of a piece's vertices, in ``_meets``'s (lo, hi)
    layout; ``_box`` would round it out to integers and let more pairs of
    pieces through."""
    cols = tuple(zip(*verts))
    return tuple(map(min, cols)) + tuple(map(max, cols))


def _chord(rows, pre: TetraPre):
    """The distinct points where the convex piece with cyclic vertices rows
    meets pre's supporting hyperplane on its boundary: its vertices there
    and its edges' crossings.  At most two, unless a polygon lies in the
    hyperplane."""
    k = len(rows)
    return _on_plane(rows, pre.forms[4], [(i, (i + 1) % k) for i in range(k if k > 2 else k - 1)])


def _triple(pa, pb):
    """The rows of the ends of the common part of two contact pieces of t0,
    or None when they miss.  That part is pa ^ tb: the chord of pa on tb's
    hyperplane, clipped by tb's facet forms."""
    _, _, verts_a, rows_a, box_a = pa
    _, pre_b, verts_b, _, box_b = pb
    if not _meets(box_a, box_b):
        return None
    chord = _chord(rows_a, pre_b)
    if len(chord) > 2:
        # the three hyperplanes share a 2-plane: the triple is empty unless
        # the pieces meet, and then the oracle is undefined too
        fans = [[Triangle4(*f) for f in _fan_triangles(v)] for v in (verts_a, verts_b)]
        if any(tri_tri_any(fa, fb) is not None for fa in fans[0] for fb in fans[1]):
            raise DegeneratePosition("coplanar polygon pieces")
        return None
    ends = _clip_polygon(chord, pre_b.forms[:4])
    return (ends[0], ends[-1]) if ends else None


def _quad_row(u, v, pre: TetraPre):
    """The row of the point where the segment (u, v) meets pre's closed
    tetrahedron, or None: (u, v) clipped to where the plane form is >= 0
    and <= 0, then by the facet forms."""
    h = pre.forms[4]
    hit = _clip_polygon([u, v], (h, tuple(-x for x in h), *pre.forms[:4]))
    if len(set(hit)) > 1:
        raise DegeneratePosition("four hyperplanes do not meet in a point")
    return hit[0] if hit else None


def per_tetra_reduction(t0: Tetrahedron4, neighbours: Sequence[Tuple[int, Tetrahedron4]],
                        self_index: int = 0):
    """Triples and quadruples through t0.

    Returns (triples, quads): triples maps (i, j, k) index triples containing
    self_index to (witness, endpoints); quads maps 4-index tuples to the
    common point.  Each neighbour's contact piece with t0 is a polygon, a
    segment or a point (``_contact``).  A triple is the smaller piece's
    chord on the other neighbour's hyperplane, clipped by that neighbour's
    facet forms; its segment (or point) is crossed with a fourth
    tetrahedron for the quadruples.  All of it runs on the pieces'
    homogeneous integer rows, which are exact, and only the witnesses, ends
    and quadruple points become Fractions.  Any tetrahedron may be given as
    its TetraPre.
    """
    pre0 = _pre(t0)
    pieces = []
    for (idx, t) in neighbours:
        pre = _pre(t)
        verts = _contact(pre0.tet, pre.tet, pre0, pre)
        if verts is None:
            # t lies in t0's hyperplane: a triple through both is empty, or
            # its hyperplanes are dependent and the oracle is undefined
            continue
        if not verts:
            raise EmptyIntersection(f"pair {(self_index, idx)} does not intersect")
        pieces.append((idx, pre, verts, [_row(p) for p in verts], _piece_box(verts)))

    triples = {}
    ends_by_pair = {}
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            # chord the piece with fewer vertices, so that a polygon lying in
            # the other hyperplane is only ever met by another polygon
            pa, pb = sorted((pieces[a], pieces[b]), key=lambda p: len(p[2]))
            ends = _triple(pa, pb)
            if ends is None:
                continue
            u, v = ends
            witness = Point4(*(Fraction(u[k] * v[4] + v[k] * u[4], 2 * u[4] * v[4]) for k in range(4)))
            triples[tuple(sorted((self_index, pa[0], pb[0])))] = (witness, [_point(u), _point(v)])
            ends_by_pair[(a, b)] = ends

    quads = {}
    for (a, b), (u, v) in ends_by_pair.items():
        for c in range(b + 1, len(pieces)):
            if (a, c) not in ends_by_pair or (b, c) not in ends_by_pair:
                continue
            hit = _quad_row(u, v, pieces[c][1])
            if hit is not None:
                key = tuple(sorted((self_index, pieces[a][0], pieces[b][0], pieces[c][0])))
                quads[key] = _point(hit)
    return triples, quads


def k_counts(tetrahedra: Sequence[Tetrahedron4]):
    """(k2, k3, k4) by the reduction pipeline; equals the oracle counts.
    Both steps share one TetraPre per tetrahedron."""
    pres = [TetraPre(t) for t in tetrahedra]
    witnesses = pairwise(pres)
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
        triples, quads = per_tetra_reduction(pres[i], [(j, pres[j]) for j in nbrs], i)
        k3 += len(triples)
        for _wit, ends in triples.values():
            vert_keys.update(map(tuple, ends))
        vert_keys.update(map(tuple, quads.values()))
    return len(witnesses), k3, len(vert_keys)
