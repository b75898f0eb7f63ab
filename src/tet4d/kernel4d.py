"""Exact geometric kernel for segments, triangles and tetrahedra in R^4.

Coordinates are exact rationals (plain ``int`` or ``fractions.Fraction``);
every predicate is the sign of an integer/rational determinant, so there are
no tolerances anywhere.  All objects follow the closed-set convention:
touching boundaries count as intersecting.

Sign conventions used by the intersection predicates:

* A segment (a, b) crosses the supporting hyperplane of a tetrahedron iff
  its endpoints do not lie strictly on the same side.
* A line pierces a tetrahedron iff the four 5x5 orientation determinants
  against the facet 2-planes, each multiplied by a per-facet calibration
  sign, are all equal and nonzero.  The calibration is the boundary
  orientation (-1)^i of facet i (opposite vertex i), times one global sign:
  D(v_i, F_i), the determinant of vertex i against its facet, alternates as
  (-1)^i, and an interior probe line only fixes that global sign.  It is
  sign(n[j]) for the integer normal n and its largest entry n[j]; a
  triangle's edges likewise get (s, -s, s), with s the sign of
  det4(q - p, r - p, e_j, e_k) for the first nonzero coordinate pair (j, k).
* Each orientation determinant orient5(a, b, f0, f1, f2) is bilinear: it is
  the dot product of the line's ten Plücker coordinates ``plucker10(a, b)``
  with the facet 2-plane's ten dual coordinates ``dual10(f0, f1, f2)``.
  Scaling a facet's dual vector (or a triangle edge's Plücker vector) by
  its calibration sign turns the calibrated sign into the sign of one
  10-term integer dot product.  The search structure's orientation levels
  store exactly these vectors, so no line or 2-plane parametrization is
  needed and no input direction is special.
* The hyperplane side of a point is the sign of n . p - c for the integer
  ``tetra_plane`` (n, c); multiplied by the sign of the first nonzero entry
  of n it equals the side against the normalized ``hyperplane_of``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

NEG: int = -1
ZERO: int = 0
POS: int = 1
Sign = int


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class DegenerateTetrahedron(GeometryError):
    """Four affinely dependent points where a tetrahedron was required."""


class DegenerateDirection(GeometryError):
    """A parametrization hit a special direction (e.g. constant w)."""


class DegeneratePosition(GeometryError):
    """An exact step met a layout it does not handle, such as hyperplanes
    or 2-planes that are not in general position."""


class EmptyIntersection(GeometryError):
    """A witness of an empty intersection was requested."""


class BudgetOutOfRange(ValueError):
    """Storage parameter outside [n, n^6]."""


def _sign(x) -> Sign:
    if x > 0:
        return POS
    if x < 0:
        return NEG
    return ZERO


def as_exact(x) -> Scalar:
    """Normalize a scalar: integral Fractions become plain ints (much
    faster in the integer determinant paths)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"not an exact scalar: {x!r}")


# ---------------------------------------------------------------------------
# points and scene objects


class Point4(NamedTuple):
    x: Scalar
    y: Scalar
    z: Scalar
    w: Scalar


def _sub(p: Sequence, q: Sequence):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def _dot(p: Sequence, q: Sequence):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + p[3] * q[3]


# index pairs j < k of four, in lexicographic order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_UNIT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _chart2(d1, d2):
    """The first coordinate pair (i, j) on which d1 and d2 have a nonzero
    2x2 minor, so that (x_i, x_j) charts their span; None when d1 and d2
    are dependent."""
    for i, j in _PAIRS:
        if d1[i] * d2[j] - d1[j] * d2[i] != 0:
            return i, j
    return None


@dataclass(frozen=True, slots=True)
class Segment4:
    a: Point4
    b: Point4

    def __post_init__(self):
        if tuple(self.a) == tuple(self.b):
            raise ValueError("degenerate segment: equal endpoints")


@dataclass(frozen=True, slots=True)
class Triangle4:
    p: Point4
    q: Point4
    r: Point4

    def __post_init__(self):
        if _chart2(_sub(self.q, self.p), _sub(self.r, self.p)) is None:
            raise ValueError("degenerate triangle: collinear vertices")

    @property
    def vertices(self):
        return (self.p, self.q, self.r)

    def edges(self):
        """Edge k joins the two vertices other than vertex k."""
        v = self.vertices
        return ((v[1], v[2]), (v[0], v[2]), (v[0], v[1]))


@dataclass(frozen=True, slots=True)
class Tetrahedron4:
    v0: Point4
    v1: Point4
    v2: Point4
    v3: Point4

    def __post_init__(self):
        if _normal(self.vertices) == (0, 0, 0, 0):
            raise DegenerateTetrahedron("affinely dependent vertices")

    @property
    def vertices(self):
        return (self.v0, self.v1, self.v2, self.v3)


# facet i is opposite vertex i, remaining vertices in index order
_FACETS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def tetra_facets(t: Tetrahedron4):
    v = t.vertices
    return tuple(tuple(v[i] for i in f) for f in _FACETS)


def tetra_edges(t: Tetrahedron4):
    v = t.vertices
    return tuple((v[i], v[j]) for i, j in _PAIRS)


def _box(points):
    """Closed integer box (floor lo_0..3, ceil hi_0..3) of 4-D points."""
    cols = tuple(zip(*points))
    return tuple(math.floor(min(c)) for c in cols) + tuple(math.ceil(max(c)) for c in cols)


def _meets(a, b):
    """The closed boxes a and b overlap."""
    return (a[0] <= b[4] and b[0] <= a[4] and a[1] <= b[5] and b[1] <= a[5]
            and a[2] <= b[6] and b[2] <= a[6] and a[3] <= b[7] and b[3] <= a[7])


@dataclass(frozen=True)
class Hyperplane4:
    """a . x = b, normalized so the first nonzero coefficient is +1."""

    coeffs: tuple
    offset: Scalar

    def __post_init__(self):
        if all(c == 0 for c in self.coeffs):
            raise ValueError("zero hyperplane")


@dataclass(frozen=True)
class LineParam:
    """A line by its crossings of w=0 and w=1; point6 is its R^6 image."""

    u0: Point4
    u1: Point4

    def __post_init__(self):
        if self.u0.w != 0 or self.u1.w != 1:
            raise ValueError("anchors must have w=0 and w=1")

    @property
    def point6(self):
        return (self.u0.x, self.u0.y, self.u0.z, self.u1.x, self.u1.y, self.u1.z)


@dataclass(frozen=True)
class TwoPlaneParam:
    """A 2-plane by its meets with the anchor 2-planes {x=y=0}, {x=0,y=1},
    {x=1,y=1}; each meet is recorded as a (z, w) pair."""

    v00: tuple
    v01: tuple
    v11: tuple

    def lifted(self):
        return (
            Point4(0, 0, self.v00[0], self.v00[1]),
            Point4(0, 1, self.v01[0], self.v01[1]),
            Point4(1, 1, self.v11[0], self.v11[1]),
        )

    @property
    def point6(self):
        return (self.v00[0], self.v00[1], self.v01[0], self.v01[1], self.v11[0], self.v11[1])


# ---------------------------------------------------------------------------
# determinants


def det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def det4(r0, r1, r2, r3):
    # Laplace expansion along the first two rows.
    m01 = r0[0] * r1[1] - r0[1] * r1[0]
    m02 = r0[0] * r1[2] - r0[2] * r1[0]
    m03 = r0[0] * r1[3] - r0[3] * r1[0]
    m12 = r0[1] * r1[2] - r0[2] * r1[1]
    m13 = r0[1] * r1[3] - r0[3] * r1[1]
    m23 = r0[2] * r1[3] - r0[3] * r1[2]
    n01 = r2[0] * r3[1] - r2[1] * r3[0]
    n02 = r2[0] * r3[2] - r2[2] * r3[0]
    n03 = r2[0] * r3[3] - r2[3] * r3[0]
    n12 = r2[1] * r3[2] - r2[2] * r3[1]
    n13 = r2[1] * r3[3] - r2[3] * r3[1]
    n23 = r2[2] * r3[3] - r2[3] * r3[2]
    return m01 * n23 - m02 * n13 + m03 * n12 + m12 * n03 - m13 * n02 + m23 * n01


def orient5(p0: Sequence, p1: Sequence, p2: Sequence, p3: Sequence, p4: Sequence) -> Sign:
    """Sign of the 5x5 determinant with rows (p_i, 1)."""
    return _sign(det4(_sub(p1, p0), _sub(p2, p0), _sub(p3, p0), _sub(p4, p0)))


def plucker10(a: Sequence, b: Sequence):
    """Plücker coordinates of the line through a and b: the ten 2x2 minors
    of the rows (a, 1) and (b, 1) on the column pairs (j, k), j < k, of
    (x, y, z, w, 1), in the order (0,1), (0,2), (0,3), (0,4), (1,2), (1,3),
    (1,4), (2,3), (2,4), (3,4).

    Together with ``dual10`` this splits orient5 into a line part and a
    2-flat part (Laplace expansion along the first two rows): the dot
    product plucker10(a, b) . dual10(f0, f1, f2) equals the 5x5
    determinant with rows (a, 1), (b, 1), (f0, 1), (f1, 1), (f2, 1), so

        sign(plucker10(a, b) . dual10(f0, f1, f2)) == orient5(a, b, f0, f1, f2)

    exactly, for int and Fraction coordinates and for degenerate rows alike.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0, a0 - b0,
            a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a1 - b1,
            a2 * b3 - a3 * b2, a2 - b2,
            a3 - b3)


def dual10(f0: Sequence, f1: Sequence, f2: Sequence):
    """Dual Plücker coordinates of the 2-flat through f0, f1, f2: for each
    column pair (j, k) of ``plucker10``, the 3x3 minor of the rows (f_i, 1)
    on the other three columns, times the cofactor sign (-1)^(1+j+k).  See
    ``plucker10`` for the identity with orient5.

    A minor that keeps the column of ones is a 2x2 minor m_pq of the edge
    vectors f1 - f0 and f2 - f0; one on three coordinate columns p, q, r is
    f0_p m_qr - f0_q m_pr + f0_r m_pq."""
    x, y, z, w = f0
    d1, d2 = _sub(f1, f0), _sub(f2, f0)
    m01 = d1[0] * d2[1] - d1[1] * d2[0]
    m02 = d1[0] * d2[2] - d1[2] * d2[0]
    m03 = d1[0] * d2[3] - d1[3] * d2[0]
    m12 = d1[1] * d2[2] - d1[2] * d2[1]
    m13 = d1[1] * d2[3] - d1[3] * d2[1]
    m23 = d1[2] * d2[3] - d1[3] * d2[2]
    return (m23, -m13, m12, -(y * m23 - z * m13 + w * m12),
            m03, -m02, x * m23 - z * m03 + w * m02,
            m01, -(x * m13 - y * m03 + w * m01),
            x * m12 - y * m02 + z * m01)


# ---------------------------------------------------------------------------
# hyperplanes of tetrahedra


def _normal(vertices):
    """Integer-preserving normal of the hyperplane spanned by 4 points:
    n . (x - v0) = det4(x - v0, d1, d2, d3)."""
    v0, v1, v2, v3 = vertices
    d1, d2, d3 = _sub(v1, v0), _sub(v2, v0), _sub(v3, v0)
    n = []
    s = 1
    for j in range(4):
        cols = [k for k in range(4) if k != j]
        m = det3(
            tuple(d1[k] for k in cols),
            tuple(d2[k] for k in cols),
            tuple(d3[k] for k in cols),
        )
        n.append(s * m)
        s = -s
    return tuple(n)


def tetra_plane(t: Tetrahedron4):
    """Unnormalized (n, c) with n . x = c on the supporting hyperplane."""
    n = _normal(t.vertices)
    if n == (0, 0, 0, 0):
        raise DegenerateTetrahedron("affinely dependent vertices")
    return n, _dot(n, t.v0)


def hyperplane_of(t: Tetrahedron4) -> Hyperplane4:
    n, c = tetra_plane(t)
    lead = next(v for v in n if v != 0)
    coeffs = tuple(Fraction(v) / lead for v in n)
    return Hyperplane4(coeffs, Fraction(c) / lead)


# ---------------------------------------------------------------------------
# parametrizations (nothing in the package calls these or the shear below;
# they stay because perfbench's tracer looks them up by name)


def line_param(s: Segment4) -> LineParam:
    a, b = s.a, s.b
    d = b.w - a.w
    if d == 0:
        raise DegenerateDirection("segment has constant w")
    t0 = Fraction(-a.w) / d
    t1 = Fraction(1 - a.w) / d
    u0 = Point4(*(ac + t0 * (bc - ac) for ac, bc in zip(a, b)))
    u1 = Point4(*(ac + t1 * (bc - ac) for ac, bc in zip(a, b)))
    return LineParam(u0, u1)


def twoplane_param(p: Point4, q: Point4, r: Point4) -> TwoPlaneParam:
    d1, d2 = _sub(q, p), _sub(r, p)
    if _chart2(d1, d2) is None:
        raise DegenerateDirection("points do not span a 2-plane")
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det == 0:
        raise DegenerateDirection("2-plane degenerate against the anchor planes")
    anchors = []
    for tx, ty in ((0, 0), (0, 1), (1, 1)):
        # solve p + s d1 + t d2 with x = tx, y = ty
        # (s, t) = (sn, tn) / det; one Fraction per anchor coordinate
        rx, ry = tx - p.x, ty - p.y
        sn = rx * d2[1] - ry * d2[0]
        tn = d1[0] * ry - d1[1] * rx
        anchors.append((Fraction(p.z * det + sn * d1[2] + tn * d2[2], det),
                        Fraction(p.w * det + sn * d1[3] + tn * d2[3], det)))
    return TwoPlaneParam(*anchors)


# ---------------------------------------------------------------------------
# per-tetrahedron precomputation (plane + facet calibration signs)


class TetraPre:
    """Cached exact data for one tetrahedron used by the fast predicates.

    Only the plane and the calibration signs are stored.  The facets are
    rebuilt on access, and the affine forms are built on first use: scenes
    hold many of these (14 per CCD prism), and most never need them.

    eps[i] is the sign that makes eps[i] * orient5(a, b, *facet_i) the same
    for every facet when the line through a and b pierces the tetrahedron:
    the boundary orientation (-1)^i times sign(n[j]), n[j] the largest
    entry of the normal (the first of equal ones)."""

    __slots__ = ("tet", "n", "c", "eps", "_forms")

    def __init__(self, tet: Tetrahedron4):
        self.tet = tet
        self.n, self.c = tetra_plane(tet)
        n = self.n
        j = max(range(4), key=lambda k: (abs(n[k]), -k))
        s = 1 if n[j] > 0 else -1
        self.eps = (s, -s, s, -s)
        self._forms = None

    @property
    def facets(self):
        return tetra_facets(self.tet)

    @property
    def forms(self):
        """The five integer rows of ``_affine_forms``, built once."""
        if self._forms is None:
            self._forms = _affine_forms(self)
        return self._forms

    def contains(self, p: Sequence) -> bool:
        # the hyperplane first, then the facet forms
        if _dot(self.n, p) != self.c:
            return False
        pr = _integral((*p, 1))
        return all(_dot5(f, pr) >= 0 for f in self.forms[:4])


def _affine_forms(pre: TetraPre):
    """Row k < 4 is facet k's form g . x - g0, positive at vertex k, for the
    hyperplane through facet k and the direction n.  It meets the supporting
    hyperplane in the facet's 2-plane, so there the form is a positive
    multiple of the k-th barycentric coordinate.  Row 4 is n . x - c.  Rows
    are scaled to integers by positive factors, so p lies in the closed
    tetrahedron iff, at (p, 1), row 4 is zero and rows 0..3 are >= 0."""
    v, n = pre.tet.vertices, pre.n
    n0, n1, n2, n3 = n
    rows = []
    for k, f in enumerate(_FACETS):
        f0 = v[f[0]]
        # g = _normal((f0, f1, f2, f0 + n)), from the 2x2 minors of the
        # facet's edge vectors that dual10 lists
        m = dual10(*(v[i] for i in f))
        g = (n1 * m[0] + n2 * m[1] + n3 * m[2], -n0 * m[0] + n2 * m[4] + n3 * m[5],
             -n0 * m[1] - n1 * m[4] + n3 * m[7], -n0 * m[2] - n1 * m[5] - n2 * m[7])
        g0 = _dot(g, f0)
        s = 1 if _dot(g, v[k]) > g0 else -1
        rows.append(_integral((*(s * x for x in g), -s * g0)))
    rows.append(_integral((*n, -pre.c)))
    return tuple(rows)


def _dot5(f, r):
    """f . r for rows of five: an affine form at a homogeneous point."""
    return f[0] * r[0] + f[1] * r[1] + f[2] * r[2] + f[3] * r[3] + f[4] * r[4]


def _integral(v):
    """v times the least positive integer that clears its denominators: the
    same sign against every vector, in plain ints.  With v = (p, 1) it is
    the homogeneous integer row (L*p, L) of a rational point."""
    if all(type(x) is int for x in v):
        return tuple(v)
    lam = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (lam // x.denominator) for x in v)


# ---------------------------------------------------------------------------
# segment vs tetrahedron


def _clip(forms, lo, hi):
    """The closed interval of tau inside [lo, hi] on which every form
    c0 + tau * c1 of ``forms`` (pairs (c0, c1)) is >= 0, as (lo, hi); None
    as an end means open on that side, and None is returned when the
    interval is empty."""
    for c0, c1 in forms:
        if c1 == 0:
            if c0 < 0:
                return None
            continue
        bound = Fraction(-c0, c1)
        if c1 > 0:
            if lo is None or bound > lo:
                lo = bound
        elif hi is None or bound < hi:
            hi = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _bary_forms(o, d, pre: TetraPre):
    """The four vertex coordinates of o + tau d in the basis of pre's
    tetrahedron, as forms (c0, c1) in tau, each times its own positive
    factor (which leaves ``_clip``'s bounds unchanged).  Meaningful when o
    and d lie in the supporting hyperplane."""
    v = _integral((*o, 1, *d, 0))
    orow, drow = v[:5], v[5:]
    return [(_dot5(f, orow), _dot5(f, drow)) for f in pre.forms[:4]]


def _seg_tetra_case(e: Segment4, pre: TetraPre):
    """Segment-tetrahedron decided by signs: None on a miss, else (va, vb,
    clip), the endpoint values n . x - c and, when both are 0, the closed
    parameter interval of e in the tetrahedron (else None).  Endpoints
    strictly on one side miss, and a segment in the hyperplane is clipped
    by the facet forms.  Otherwise the line meets the hyperplane in one
    point x of e.  (a, 1) and (b, 1) span (x, 1) and some Y, so
    orient5(a, b, *facet_i) has the sign of det((x, 1), Y, facet_i) times a
    common factor; linear in x and 0 at facet i's vertices, that is
    lam_i(x) det(V_i, Y, facet_i), whose last factor eps[i] makes one sign
    for all four facets (``TetraPre``).  So the calibrated signs are x's
    barycentric signs up to one common factor: a strict + beside a strict -
    puts x outside, and without one x is inside."""
    a, b = e.a, e.b
    va = _dot(pre.n, a) - pre.c
    vb = _dot(pre.n, b) - pre.c
    if va * vb > 0:
        return None
    if va == vb == 0:
        clip = _clip(_bary_forms(a, _sub(b, a), pre), Fraction(0), Fraction(1))
        return None if clip is None else (va, vb, clip)
    v = pre.tet.vertices
    sigs = [eps * orient5(a, b, v[i], v[j], v[k]) for eps, (i, j, k) in zip(pre.eps, _FACETS)]
    return None if 1 in sigs and -1 in sigs else (va, vb, None)


def segment_tetra_direct(e: Segment4, t: Tetrahedron4, pre: Optional[TetraPre] = None) -> Optional[Point4]:
    """Exact closed-set witness of e intersecting t, or None: the crossing
    with the hyperplane, or the midpoint of the in-plane clip when e lies
    in the hyperplane.  The decision is ``_seg_tetra_case``'s."""
    case = _seg_tetra_case(e, pre or TetraPre(t))
    if case is None:
        return None
    va, vb, clip = case
    tm = Fraction(va) / (va - vb) if clip is None else (clip[0] + clip[1]) / 2
    return Point4(*(ac + tm * (bc - ac) for ac, bc in zip(e.a, e.b)))


def seg_tetra_hit(e: Segment4, t: Tetrahedron4, pre: Optional[TetraPre] = None) -> bool:
    """Exact closed-set test of e meeting t, for every layout: the two
    endpoint signs, then the four facet signs (a strict + beside a strict -
    is a miss), or the in-plane clip when both endpoints lie on the
    hyperplane.  ``_seg_tetra_case`` proves each step; only the in-plane
    clip builds Fractions."""
    return _seg_tetra_case(e, pre or TetraPre(t)) is not None


# ---------------------------------------------------------------------------
# triangle vs triangle


class TrianglePre:
    """A triangle and its edge calibration signs: eps[k] * orient5(edge k,
    2-flat) is the same for the three edges when the 2-flat pierces the
    triangle.  They are the boundary orientation (1, -1, 1) times the sign
    s of det4(q - p, r - p, e_j, e_k) for the first coordinate pair (j, k)
    where it is nonzero."""

    __slots__ = ("tri", "eps")

    def __init__(self, tri: Triangle4):
        self.tri = tri
        p, q, r = tri.vertices
        d1, d2 = _sub(q, p), _sub(r, p)
        for j, k in _PAIRS:
            s = _sign(det4(d1, d2, _UNIT[j], _UNIT[k]))
            if s:
                break
        self.eps = (s, -s, s)


def _tri_tri_system(t1: Triangle4, t2: Triangle4):
    """linsolve's (particular solution, null-space basis) of
    p1 + s d11 + t d12 = p2 + u d21 + v d22 in (s, t, u, v), or None when
    the two supporting 2-planes do not meet."""
    p1, p2 = t1.p, t2.p
    d11, d12 = _sub(t1.q, p1), _sub(t1.r, p1)
    d21, d22 = _sub(t2.q, p2), _sub(t2.r, p2)
    A = [[d11[i], d12[i], -d21[i], -d22[i]] for i in range(4)]
    return linsolve(A, [p2[i] - p1[i] for i in range(4)])


def _tri_point(tri: Triangle4, s, t) -> Point4:
    p, q, r = tri.vertices
    return Point4(*(p[i] + s * (q[i] - p[i]) + t * (r[i] - p[i]) for i in range(4)))


def tri_tri_direct(t1: Triangle4, t2: Triangle4) -> Optional[Point4]:
    """The single 2-plane meeting point xi if it lies in both closed
    triangles; DegeneratePosition when the supporting 2-planes are not in
    general position."""
    sol = _tri_tri_system(t1, t2)
    if sol is None:
        raise DegeneratePosition("parallel 2-planes")
    (s, t, u, v), basis = sol
    if basis:
        raise DegeneratePosition("2-planes meet in a line or coincide")
    if s < 0 or t < 0 or s + t > 1 or u < 0 or v < 0 or u + v > 1:
        return None
    return _tri_point(t1, s, t)


def _tri_tri_case(t1: Triangle4, t2: Triangle4, pre1: Optional[TrianglePre] = None,
                  pre2: Optional[TrianglePre] = None) -> Optional[bool]:
    """Triangle-triangle decided by signs: False on a miss, True on a hit,
    None when a zero sign leaves it to ``tri_tri_any``.  Two groups of three
    calibrated edge signs, t2's edges against t1's 2-plane, then t1's
    against t2's.  A group with a strict + beside a strict - is a miss,
    found at the first strict sign that differs from the group's first; with
    no zero sign the pair is a hit.

    Proof, for T = t2 against t1's 2-plane.  On homogeneous rows (x, 1),
    orient5(y, z, *t1) = det(Y, Z, F) is an alternating form w on the
    3-space W of T's vertex rows, zero on L = W & span(F), dim L >= 1.  If
    dim L = 1, a 2-space of W missing L gives w != 0, so w(Y, Z) =
    det_W(Y, Z, k X) with X spanning L and k != 0.  For X = sum lam_i W_i,
    edge i (the vertices other than i) gets k (lam_0, -lam_1, lam_2)_i, and
    the calibration (s, -s, s) leaves sign(k s) sign(lam_i).  If the
    2-planes meet in one point x, then X = (x, 1), sum lam_i = 1, and the
    signs are x's barycentric signs in T up to one common factor: a mixed
    group puts x, the only common point, outside T.  If X is at infinity,
    sum lam_i = 0 forces mixed signs, and the 2-planes do not meet.  If
    dim L >= 2 (a shared line, one 2-plane, or parallel ones), every 2-space
    of W meets L and every sign is 0.  So with no zero sign, dim L = 1 and
    x is inside both triangles: a hit."""
    zero = False
    for tri, pre, flat in ((t2, pre2, t1.vertices), (t1, pre1, t2.vertices)):
        first = 0
        for e, (u, v) in zip((pre or TrianglePre(tri)).eps, tri.edges()):
            s = e * orient5(u, v, *flat)
            if s == 0:
                zero = True
            elif first == 0:
                first = s
            elif s != first:
                return False
    return None if zero else True


def tri_tri_hit(t1: Triangle4, t2: Triangle4,
                pre1: Optional[TrianglePre] = None,
                pre2: Optional[TrianglePre] = None) -> bool:
    """Exact closed-set test of t1 meeting t2, for every layout: the signs
    of ``_tri_tri_case``, which proves each step, and ``tri_tri_any`` where
    a zero sign leaves the pair undecided."""
    case = _tri_tri_case(t1, t2, pre1, pre2)
    return tri_tri_any(t1, t2) is not None if case is None else case


# ---------------------------------------------------------------------------
# exact linear algebra


def linsolve(A, b):
    """Exact solve of A x = b over the rationals.

    Returns (particular_solution, nullspace_basis) or None if inconsistent.
    A is m x n (lists); entries int/Fraction.

    Fraction-free Gauss-Jordan: each row of [A | b] is scaled to integers,
    eliminated with integer row operations and divided by its content, so
    the only Fractions built are the reduced-row-echelon entries read off at
    the end.  That form is unique, so the result does not depend on the
    pivot order.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = []
    for i in range(m):
        row = [*A[i], b[i]]
        den = math.lcm(*(v.denominator for v in row))
        M.append([v.numerator * (den // v.denominator) for v in row])
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        prow = M[row]
        pv = prow[col]
        for r in range(m):
            f = M[r][col]
            if r != row and f != 0:
                new = [pv * a - f * c for a, c in zip(M[r], prow)]
                g = math.gcd(*new)
                M[r] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if M[r][n] != 0:
            return None
    part = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        part[col] = Fraction(M[r][n], M[r][col])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = Fraction(-M[r][fc], M[r][col])
        basis.append(vec)
    return part, basis


# ---------------------------------------------------------------------------
# fully general closed triangle-triangle solver (any relative position)


def _seg_seg_2d(a0, a1, b0, b1):
    """Closed 2D segment intersection; returns one witness point or None."""
    d = (a1[0] - a0[0], a1[1] - a0[1])
    e = (b1[0] - b0[0], b1[1] - b0[1])
    denom = d[0] * e[1] - d[1] * e[0]
    r = (b0[0] - a0[0], b0[1] - a0[1])
    if denom != 0:
        t = Fraction(r[0] * e[1] - r[1] * e[0], denom)
        u = Fraction(r[0] * d[1] - r[1] * d[0], denom)
        if 0 <= t <= 1 and 0 <= u <= 1:
            return (a0[0] + t * d[0], a0[1] + t * d[1])
        return None
    # parallel
    if r[0] * d[1] - r[1] * d[0] != 0:
        return None
    # collinear: overlap of parameter intervals along d
    dd = d[0] * d[0] + d[1] * d[1]
    if dd == 0:
        return None
    proj = lambda p: Fraction((p[0] - a0[0]) * d[0] + (p[1] - a0[1]) * d[1], dd)
    t0, t1 = proj(b0), proj(b1)
    lo, hi = max(Fraction(0), min(t0, t1)), min(Fraction(1), max(t0, t1))
    if lo > hi:
        return None
    tm = (lo + hi) / 2
    return (a0[0] + tm * d[0], a0[1] + tm * d[1])


def _point_in_tri_2d(p, t0, t1, t2):
    s1 = _sign((t1[0] - t0[0]) * (p[1] - t0[1]) - (t1[1] - t0[1]) * (p[0] - t0[0]))
    s2 = _sign((t2[0] - t1[0]) * (p[1] - t1[1]) - (t2[1] - t1[1]) * (p[0] - t1[0]))
    s3 = _sign((t0[0] - t2[0]) * (p[1] - t2[1]) - (t0[1] - t2[1]) * (p[0] - t2[0]))
    return not ((s1 > 0 or s2 > 0 or s3 > 0) and (s1 < 0 or s2 < 0 or s3 < 0))


def tri_tri_any(t1: Triangle4, t2: Triangle4) -> Optional[Point4]:
    """Total closed-set triangle intersection in R^4 (any position).

    One solve of tri_tri_direct's system; the dimension of its null space
    is the case.  None: the single meeting point, as tri_tri_direct.  One:
    the 2-planes share a line, clipped by the six barycentric forms, and the
    witness is the midpoint of the common segment.  Two: the triangles lie
    in one 2-plane."""
    sol = _tri_tri_system(t1, t2)
    if sol is None:
        return None
    (s, t, u, v), basis = sol
    if not basis:
        if s < 0 or t < 0 or s + t > 1 or u < 0 or v < 0 or u + v > 1:
            return None
        return _tri_point(t1, s, t)
    if len(basis) == 1:
        ds, dt, du, dv = basis[0]
        clip = _clip(((s, ds), (t, dt), (1 - s - t, -ds - dt),
                      (u, du), (v, dv), (1 - u - v, -du - dv)), None, None)
        if clip is None:
            return None
        tm = (clip[0] + clip[1]) / 2
        return _tri_point(t1, s + tm * ds, t + tm * dt)
    # coplanar triangles: work in a 2D chart of the common plane
    p = t1.p
    d1, d2 = _sub(t1.q, p), _sub(t1.r, p)
    i, j = _chart2(d1, d2)
    to2 = lambda q: (q[i], q[j])
    u = tuple(to2(v) for v in t1.vertices)
    v = tuple(to2(w) for w in t2.vertices)
    for k in range(3):
        if _point_in_tri_2d(v[k], *u):
            return t2.vertices[k]
        if _point_in_tri_2d(u[k], *v):
            return t1.vertices[k]
    edges_u = ((u[0], u[1]), (u[1], u[2]), (u[2], u[0]))
    edges_v = ((v[0], v[1]), (v[1], v[2]), (v[2], v[0]))
    for (a0, a1) in edges_u:
        for (b0, b1) in edges_v:
            w2 = _seg_seg_2d(a0, a1, b0, b1)
            if w2 is not None:
                # lift back: solve within t1's plane
                rhs = (w2[0] - p[i], w2[1] - p[j])
                det = d1[i] * d2[j] - d1[j] * d2[i]
                s = Fraction(rhs[0] * d2[j] - rhs[1] * d2[i], det)
                t = Fraction(d1[i] * rhs[1] - d1[j] * rhs[0], det)
                return Point4(*(p[k] + s * d1[k] + t * d2[k] for k in range(4)))
    return None


# ---------------------------------------------------------------------------
# line vs 2-flat


def line_2flat_meet(line: Segment4, flat) -> Optional[Point4]:
    """Meet of the full line through `line` with the full 2-flat spanned by
    the three points in `flat`, or None.  Solving line.a + t d = f0 + s g1 +
    u g2 decides every layout: no solution is a miss, one is the meeting
    point, and more put d in span(g1, g2), so the whole line lies in the
    flat and line.a is returned."""
    f0, f1, f2 = flat
    d = _sub(line.b, line.a)
    g1, g2 = _sub(f1, f0), _sub(f2, f0)
    # line.a + t d = f0 + s g1 + u g2
    A = [[d[i], -g1[i], -g2[i]] for i in range(4)]
    b = [f0[i] - line.a[i] for i in range(4)]
    sol = linsolve(A, b)
    if sol is None:
        return None
    part, basis = sol
    if basis:
        return Point4(*line.a)
    t = part[0]
    return Point4(*(line.a[i] + t * d[i] for i in range(4)))


# ---------------------------------------------------------------------------
# tetra vs tetra (the oracle's pair test and the arrangement's witnesses)


def _off_plane(pre: TetraPre, vertices) -> bool:
    """All of `vertices` strictly on one side of pre's hyperplane."""
    sides = [_dot(pre.n, v) - pre.c for v in vertices]
    return all(x > 0 for x in sides) or all(x < 0 for x in sides)


def edge_face_witness(t1: Tetrahedron4, t2: Tetrahedron4, pre1: TetraPre, pre2: TetraPre):
    """The first hit, as (point, kind), of t1's edges against t2, then t2's
    edges against t1 (kind "EDGE_TETRA"), then t1's 2-faces against t2's
    (kind "FACE_FACE"), in ``tetra_edges`` and ``tetra_facets`` order.  Every
    vertex of the intersection polytope lies on an edge of one tetrahedron
    or on a 2-face of each, so None is a miss.  Only face pairs whose signs
    (``_tri_tri_case``) do not miss are solved."""
    for a, b, pre in ((t1, t2, pre2), (t2, t1, pre1)):
        for (u, v) in tetra_edges(a):
            w = segment_tetra_direct(Segment4(u, v), b, pre)
            if w is not None:
                return w, "EDGE_TETRA"
    faces2 = [TrianglePre(Triangle4(*f)) for f in tetra_facets(t2)]
    for f in tetra_facets(t1):
        pa = TrianglePre(Triangle4(*f))
        for pb in faces2:
            if _tri_tri_case(pa.tri, pb.tri, pa, pb) is not False:
                w = tri_tri_any(pa.tri, pb.tri)
                if w is not None:
                    return w, "FACE_FACE"
    return None


def tetra_tetra_intersect(t1: Tetrahedron4, t2: Tetrahedron4,
                          pre1: Optional[TetraPre] = None,
                          pre2: Optional[TetraPre] = None) -> Optional[Point4]:
    """Exact closed intersection witness of two 3-simplices in R^4, or None.

    First a sign reject: when the four vertices of one tetrahedron lie
    strictly on one side of the other's hyperplane (n . v - c all > 0 or
    all < 0), that tetrahedron lies in an open halfspace and the other in
    its boundary hyperplane, so they miss.  A zero sign falls through to
    vertex containment, then ``edge_face_witness``."""
    pre1 = pre1 or TetraPre(t1)
    pre2 = pre2 or TetraPre(t2)
    if _off_plane(pre2, t1.vertices) or _off_plane(pre1, t2.vertices):
        return None
    for t, pre in ((t1, pre2), (t2, pre1)):
        for v in t.vertices:
            if pre.contains(v):
                return Point4(*v)
    hit = edge_face_witness(t1, t2, pre1, pre2)
    return None if hit is None else hit[0]


# ---------------------------------------------------------------------------
# generic shear


def _matmul4(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def shear_matrix(salt: int):
    """Deterministic unimodular integer 4x4 matrix; salt 0 is the identity.

    For salt >= 1 the matrix is a composition of three elementary shears
    whose coefficients are staggered powers of s = 4 + 3*salt.  Any fixed
    degeneracy condition (a constant-w direction, a 2-plane vertical over
    the xy anchor frame, a vanishing calibration determinant) is a nonzero
    polynomial in s, so it survives only finitely many salts.
    """
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    if salt == 0:
        return ident
    s = 4 + 3 * salt

    def elem(i, mix):
        E = [row[:] for row in ident]
        for j, c in mix.items():
            E[i][j] = c
        return E

    # x and y receive z/w mixtures whose six 2x2 projection minors have
    # pairwise distinct polynomial degrees in s (so no 2-plane is vertical
    # over the xy anchor frame for more than finitely many salts); w then
    # receives an x/y/z mixture so no direction has constant w.
    ex = elem(0, {2: s ** 4, 3: s ** 6})
    ey = elem(1, {2: s ** 5, 3: s ** 8})
    ew = elem(3, {0: s, 1: s * s, 2: s ** 3})
    return _matmul4(ew, _matmul4(ey, ex))


def _apply_mat(M, p):
    return Point4(
        M[0][0] * p[0] + M[0][1] * p[1] + M[0][2] * p[2] + M[0][3] * p[3],
        M[1][0] * p[0] + M[1][1] * p[1] + M[1][2] * p[2] + M[1][3] * p[3],
        M[2][0] * p[0] + M[2][1] * p[1] + M[2][2] * p[2] + M[2][3] * p[3],
        M[3][0] * p[0] + M[3][1] * p[1] + M[3][2] * p[2] + M[3][3] * p[3],
    )


def generic_shear(points: Sequence[Point4], salt: int):
    """Apply the deterministic invertible linear map indexed by salt to every
    point; intersection combinatorics are preserved."""
    M = shear_matrix(salt)
    return [_apply_mat(M, p) for p in points]


# ---------------------------------------------------------------------------
# line / tetra interval support (ray shooting, triple clipping)


def line_tetra_interval(o, d, t: Tetrahedron4, pre: Optional[TetraPre] = None):
    """Intersection of the line o + t d with the closed tetrahedron.

    Returns ("point", t*) for a transversal crossing inside, ("interval",
    lo, hi) when the line lies in the supporting hyperplane (bounds may be
    None for unbounded sides before clipping; callers clip), or None.
    """
    pre = pre or TetraPre(t)
    vo = _dot(pre.n, o) - pre.c
    vd = _dot(pre.n, d)
    if vd != 0:
        tc = Fraction(-vo, vd)
        p = tuple(o[i] + tc * d[i] for i in range(4))
        if pre.contains(p):
            return ("point", tc)
        return None
    if vo != 0:
        return None
    clip = _clip(_bary_forms(o, d, pre), None, None)
    return None if clip is None else ("interval", *clip)
