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
  sign (computed once per tetrahedron from an interior probe line), are all
  equal and nonzero.  The probe is the line through the centroid along the
  coordinate axis most transverse to the supporting hyperplane.
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
    """A predicate met a ZERO sub-sign; the caller should fall back to a
    direct solver."""


class Contained(GeometryError):
    """The query line lies entirely inside the target flat."""


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


def _rank_ge_2(d1, d2) -> bool:
    for i in range(4):
        for j in range(i + 1, 4):
            if d1[i] * d2[j] - d1[j] * d2[i] != 0:
                return True
    return False


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
        if not _rank_ge_2(_sub(self.q, self.p), _sub(self.r, self.p)):
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

# tetra edges as vertex index pairs
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def tetra_facets(t: Tetrahedron4):
    v = t.vertices
    return tuple(tuple(v[i] for i in f) for f in _FACETS)


def tetra_edges(t: Tetrahedron4):
    v = t.vertices
    return tuple((v[i], v[j]) for i, j in _TET_EDGES)


@dataclass(frozen=True)
class Hyperplane4:
    """a . x = b, normalized so the first nonzero coefficient is +1."""

    coeffs: tuple
    offset: Scalar

    def __post_init__(self):
        if all(c == 0 for c in self.coeffs):
            raise ValueError("zero hyperplane")

    def side(self, p: Sequence) -> Sign:
        return _sign(_dot(self.coeffs, p) - self.offset)


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


def det2(a, b, c, d):
    return a * d - b * c


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


def det5h(r0, r1, r2, r3, r4):
    """Determinant of five homogeneous rows (x, y, z, w, h).

    Laplace expansion along the first two rows: each 2x2 minor of (r0, r1)
    times the complementary 3x3 minor of (r2, r3, r4), the latter built from
    the ten 2x2 minors of (r3, r4)."""
    a0, a1, a2, a3, a4 = r0
    b0, b1, b2, b3, b4 = r1
    c0, c1, c2, c3, c4 = r2
    d0, d1, d2, d3, d4 = r3
    e0, e1, e2, e3, e4 = r4
    n01 = d0 * e1 - d1 * e0
    n02 = d0 * e2 - d2 * e0
    n03 = d0 * e3 - d3 * e0
    n04 = d0 * e4 - d4 * e0
    n12 = d1 * e2 - d2 * e1
    n13 = d1 * e3 - d3 * e1
    n14 = d1 * e4 - d4 * e1
    n23 = d2 * e3 - d3 * e2
    n24 = d2 * e4 - d4 * e2
    n34 = d3 * e4 - d4 * e3
    return (
        (a0 * b1 - a1 * b0) * (c2 * n34 - c3 * n24 + c4 * n23)
        - (a0 * b2 - a2 * b0) * (c1 * n34 - c3 * n14 + c4 * n13)
        + (a0 * b3 - a3 * b0) * (c1 * n24 - c2 * n14 + c4 * n12)
        - (a0 * b4 - a4 * b0) * (c1 * n23 - c2 * n13 + c3 * n12)
        + (a1 * b2 - a2 * b1) * (c0 * n34 - c3 * n04 + c4 * n03)
        - (a1 * b3 - a3 * b1) * (c0 * n24 - c2 * n04 + c4 * n02)
        + (a1 * b4 - a4 * b1) * (c0 * n23 - c2 * n03 + c3 * n02)
        + (a2 * b3 - a3 * b2) * (c0 * n14 - c1 * n04 + c4 * n01)
        - (a2 * b4 - a4 * b2) * (c0 * n13 - c1 * n03 + c3 * n01)
        + (a3 * b4 - a4 * b3) * (c0 * n12 - c1 * n02 + c2 * n01)
    )


def orient5(p0: Sequence, p1: Sequence, p2: Sequence, p3: Sequence, p4: Sequence) -> Sign:
    """Sign of the 5x5 determinant with rows (p_i, 1)."""
    return _sign(det4(_sub(p1, p0), _sub(p2, p0), _sub(p3, p0), _sub(p4, p0)))


def orient5_value(p0, p1, p2, p3, p4):
    return det4(_sub(p1, p0), _sub(p2, p0), _sub(p3, p0), _sub(p4, p0))


def plucker10(a: Sequence, b: Sequence):
    """Plücker coordinates of the line through a and b: the ten 2x2 minors
    of the rows (a, 1) and (b, 1) on the column pairs (j, k), j < k, of
    (x, y, z, w, 1), in the order (0,1), (0,2), (0,3), (0,4), (1,2), (1,3),
    (1,4), (2,3), (2,4), (3,4).

    Together with ``dual10`` this splits orient5 into a line part and a
    2-flat part (Laplace expansion along the first two rows): the dot
    product plucker10(a, b) . dual10(f0, f1, f2) equals
    orient5_value(a, b, f0, f1, f2), so

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


def side_of_hyperplane(p: Point4, h: Hyperplane4) -> Sign:
    return h.side(p)


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
    if not _rank_ge_2(d1, d2):
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


def facet_orientations(t: Tetrahedron4):
    """Calibration sign per facet: the sign of the orientation determinant of
    an interior probe line against the facet's vertex rows.  A directed line
    meets the closed tetrahedron iff its four calibrated signs contain no
    strict +/- conflict."""
    n, _c = tetra_plane(t)
    j = max(range(4), key=lambda k: (abs(n[k]), -k))
    v = t.vertices
    g4 = tuple(v[0][i] + v[1][i] + v[2][i] + v[3][i] for i in range(4))
    e = tuple(4 if i == j else 0 for i in range(4))
    pa = tuple(g4[i] - e[i] for i in range(4)) + (4,)
    pb = tuple(g4[i] + e[i] for i in range(4)) + (4,)
    eps = []
    for f in _FACETS:
        rows = [v[i] + (1,) for i in f]
        s = _sign(det5h(pa, pb, rows[0], rows[1], rows[2]))
        if s == 0:
            raise DegenerateTetrahedron("probe failed; tetrahedron near-degenerate")
        eps.append(s)
    return tuple(eps)


class TetraPre:
    """Cached exact data for one tetrahedron used by the fast predicates.

    Only the plane and the calibration signs are stored.  The facets are
    rebuilt on access, and the barycentric basis is built on first use:
    scenes hold many of these (14 per CCD prism), and most never need a
    basis."""

    __slots__ = ("tet", "n", "c", "eps", "_basis")

    def __init__(self, tet: Tetrahedron4):
        self.tet = tet
        self.n, self.c = tetra_plane(tet)
        self.eps = facet_orientations(tet)
        self._basis = None

    @property
    def facets(self):
        return tetra_facets(self.tet)

    @property
    def basis_rows(self):
        """Rows (v0, 1) .. (v3, 1), (apex, 1) with apex = v0 + n."""
        return self._basis_data()[0]

    @property
    def basis_det(self):
        return self._basis_data()[1]

    def _basis_data(self):
        if self._basis is None:
            tet = self.tet
            apex = tuple(tet.v0[i] + self.n[i] for i in range(4))
            rows = [v + (1,) for v in tet.vertices] + [apex + (1,)]
            self._basis = (rows, det5h(*rows))
        return self._basis

    def bary_signs(self, p: Sequence):
        """Signs of the five affine coordinates of p in the basis
        (v0..v3, apex), relative to the basis determinant sign."""
        ds = _sign(self.basis_det)
        rows = self.basis_rows
        pr = _scaled_row(p)
        out = []
        for i in range(5):
            rep = rows[:i] + [pr] + rows[i + 1 :]
            out.append(_sign(det5h(*rep)) * ds)
        return out

    def contains(self, p: Sequence) -> bool:
        # the apex coordinate of p is (n.p - c) / |n|^2: test the hyperplane
        # first, then stop at the first negative vertex coordinate
        if _dot(self.n, p) != self.c:
            return False
        ds = _sign(self.basis_det)
        rows = self.basis_rows
        pr = _scaled_row(p)
        for i in range(4):
            if _sign(det5h(*(rows[:i] + [pr] + rows[i + 1 :]))) * ds < 0:
                return False
        return True


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _scaled_row(p: Sequence):
    """Homogeneous integer row (L*p, L) of a rational point (L > 0), so
    determinant signs match the weight-1 row exactly."""
    lam = 1
    for x in p:
        if isinstance(x, Fraction):
            lam = _lcm(lam, x.denominator)
    if lam == 1:
        return tuple(p) + (1,)
    return tuple(x.numerator * (lam // x.denominator) for x in p) + (lam,)


def _scaled_dir_row(d: Sequence):
    """Homogeneous integer direction row (L*d, 0), L > 0."""
    lam = 1
    for x in d:
        if isinstance(x, Fraction):
            lam = _lcm(lam, x.denominator)
    if lam == 1:
        return tuple(d) + (0,), 1
    return tuple(x.numerator * (lam // x.denominator) for x in d) + (0,), lam


def point_in_tetra(p: Point4, t: Tetrahedron4, pre: Optional[TetraPre] = None) -> bool:
    return (pre or TetraPre(t)).contains(p)


# ---------------------------------------------------------------------------
# segment vs tetrahedron


def _facet_signs(a, b, pre: TetraPre):
    v = pre.tet.vertices
    out = []
    for eps, (i, j, k) in zip(pre.eps, _FACETS):
        out.append(eps * orient5(a, b, v[i], v[j], v[k]))
    return out


def segment_tetra_predicate(e: Segment4, t: Tetrahedron4, pre: Optional[TetraPre] = None) -> bool:
    """Six-sign test for e meeting t, valid in generic position only.

    Raises DegeneratePosition whenever a needed sub-sign is ZERO; callers
    fall back to segment_tetra_direct.
    """
    pre = pre or TetraPre(t)
    sa = _sign(_dot(pre.n, e.a) - pre.c)
    sb = _sign(_dot(pre.n, e.b) - pre.c)
    if sa == 0 or sb == 0:
        raise DegeneratePosition("endpoint on the supporting hyperplane")
    if sa == sb:
        return False
    first = 0
    for s in _facet_signs(e.a, e.b, pre):
        if s == 0:
            raise DegeneratePosition("line meets a facet 2-plane")
        if first == 0:
            first = s
        elif s != first:
            return False
    return True


def _segment_clip_in_plane(a, b, pre: TetraPre):
    """Both endpoints on the supporting hyperplane: the closed parameter
    interval (lo, hi), 0 <= lo <= hi <= 1, of a + t (b - a) inside the
    tetrahedron, clipped by exact barycentric intervals; None if empty."""
    rows = pre.basis_rows
    D = Fraction(pre.basis_det)

    def barys(p):
        pr = tuple(p) + (1,)
        return [Fraction(det5h(*(rows[:i] + [pr] + rows[i + 1 :]))) / D for i in range(4)]

    ba = barys(a)
    bb = barys(b)
    lo, hi = Fraction(0), Fraction(1)
    for i in range(4):
        c0, c1 = ba[i], bb[i] - ba[i]
        if c1 == 0:
            if c0 < 0:
                return None
        else:
            bound = -c0 / c1
            if c1 > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
    if lo > hi:
        return None
    return lo, hi


def segment_tetra_direct(e: Segment4, t: Tetrahedron4, pre: Optional[TetraPre] = None) -> Optional[Point4]:
    """Exact closed-set witness of e intersecting t, or None.

    Handles every degenerate layout, including the segment lying inside the
    supporting hyperplane.
    """
    pre = pre or TetraPre(t)
    va = _dot(pre.n, e.a) - pre.c
    vb = _dot(pre.n, e.b) - pre.c
    sa, sb = _sign(va), _sign(vb)
    if sa == sb:
        if sa != 0:
            return None
        clip = _segment_clip_in_plane(e.a, e.b, pre)
        if clip is None:
            return None
        tm = (clip[0] + clip[1]) / 2
        return Point4(*(ac + tm * (bc - ac) for ac, bc in zip(e.a, e.b)))
    sigs = _facet_signs(e.a, e.b, pre)
    if any(s > 0 for s in sigs) and any(s < 0 for s in sigs):
        return None
    tcr = Fraction(va) / (va - vb)
    return Point4(*(ac + tcr * (bc - ac) for ac, bc in zip(e.a, e.b)))


def seg_tetra_hit(e: Segment4, t: Tetrahedron4, pre: Optional[TetraPre] = None) -> bool:
    """Exact boolean intersection test: sign predicate with direct fallback."""
    pre = pre or TetraPre(t)
    try:
        return segment_tetra_predicate(e, t, pre)
    except DegeneratePosition:
        return segment_tetra_direct(e, t, pre) is not None


# ---------------------------------------------------------------------------
# triangle vs triangle


def complete_plane_basis(d1, d2):
    """Two coordinate axes completing span(d1, d2) to a basis of R^4."""
    picked = []
    base = [d1, d2]
    for j in range(4):
        e = tuple(1 if i == j else 0 for i in range(4))
        trial = base + [e]
        if len(picked) == 0:
            ok = any(
                det3(
                    tuple(trial[0][k] for k in cols),
                    tuple(trial[1][k] for k in cols),
                    tuple(trial[2][k] for k in cols),
                )
                != 0
                for cols in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
            )
            if ok:
                picked.append(e)
                base = trial
        else:
            if det4(base[0], base[1], base[2], e) != 0:
                picked.append(e)
                break
    if len(picked) != 2:
        raise DegenerateDirection("cannot complete plane basis")
    return picked[0], picked[1]


def triangle_edge_orientations(tri: Triangle4):
    """Calibration sign per edge: the orientation of the edge line against a
    reference 2-plane through the centroid, transverse to the triangle."""
    p, q, r = tri.vertices
    d1, d2 = _sub(q, p), _sub(r, p)
    f1, f2 = complete_plane_basis(d1, d2)
    g3 = tuple(p[i] + q[i] + r[i] for i in range(4))
    ref = [
        g3 + (3,),
        tuple(g3[i] + 3 * f1[i] for i in range(4)) + (3,),
        tuple(g3[i] + 3 * f2[i] for i in range(4)) + (3,),
    ]
    eps = []
    for u, v in tri.edges():
        s = _sign(det5h(u + (1,), v + (1,), ref[0], ref[1], ref[2]))
        if s == 0:
            raise DegenerateDirection("reference plane hit an edge line")
        eps.append(s)
    return tuple(eps)


class TrianglePre:
    __slots__ = ("tri", "eps")

    def __init__(self, tri: Triangle4):
        self.tri = tri
        self.eps = triangle_edge_orientations(tri)


def _edge_signs_against_plane(tri: Triangle4, eps, plane_pts):
    """Calibrated signs of tri's three edge lines against a 2-plane given by
    three points."""
    a, b, c = plane_pts
    out = []
    for e, (u, v) in zip(eps, tri.edges()):
        out.append(e * orient5(u, v, a, b, c))
    return out


def tri_tri_predicate(t1: Triangle4, t2: Triangle4,
                      pre1: Optional[TrianglePre] = None,
                      pre2: Optional[TrianglePre] = None) -> bool:
    """Six-sign triangle intersection test; generic position only, raising
    DegeneratePosition on any ZERO sub-sign."""
    pre1 = pre1 or TrianglePre(t1)
    pre2 = pre2 or TrianglePre(t2)

    for tri, eps, other in ((t2, pre2.eps, t1), (t1, pre1.eps, t2)):
        first = 0
        for s in _edge_signs_against_plane(tri, eps, other.vertices):
            if s == 0:
                raise DegeneratePosition("edge line meets the other 2-plane")
            if first == 0:
                first = s
            elif s != first:
                return False
    return True


def _plane_equations(pts):
    """Two independent hyperplane equations (n, c) of the 2-plane through
    three points."""
    p = pts[0]
    d1, d2 = _sub(pts[1], p), _sub(pts[2], p)
    # null space of span(d1,d2): solve n . d1 = 0, n . d2 = 0
    sols = linsolve([list(d1), list(d2)], [0, 0])
    assert sols is not None
    _part, basis = sols
    if len(basis) != 2:
        raise DegenerateDirection("degenerate plane")
    return [(tuple(n), _dot(n, p)) for n in basis]


def _tri_bary2(tri: Triangle4, pt):
    """(s, t) with pt = p + s(q-p) + t(r-p); None if pt is off the plane."""
    p = tri.p
    d1, d2 = _sub(tri.q, p), _sub(tri.r, p)
    rhs = _sub(pt, p)
    for i in range(4):
        for j in range(i + 1, 4):
            det = d1[i] * d2[j] - d1[j] * d2[i]
            if det != 0:
                s = Fraction(rhs[i] * d2[j] - rhs[j] * d2[i], det)
                t = Fraction(d1[i] * rhs[j] - d1[j] * rhs[i], det)
                for k in range(4):
                    if p[k] + s * d1[k] + t * d2[k] != pt[k]:
                        return None
                return s, t
    return None


def point_in_triangle(pt, tri: Triangle4) -> bool:
    st = _tri_bary2(tri, pt)
    if st is None:
        return False
    s, t = st
    return s >= 0 and t >= 0 and s + t <= 1


def tri_tri_direct(t1: Triangle4, t2: Triangle4) -> Optional[Point4]:
    """The single 2-plane meeting point xi if it lies in both closed
    triangles; DegeneratePosition when the supporting 2-planes are not in
    general position."""
    p1 = t1.p
    d11, d12 = _sub(t1.q, p1), _sub(t1.r, p1)
    p2 = t2.p
    d21, d22 = _sub(t2.q, p2), _sub(t2.r, p2)
    # p1 + s d11 + t d12 = p2 + u d21 + v d22
    A = [[d11[i], d12[i], -d21[i], -d22[i]] for i in range(4)]
    b = [p2[i] - p1[i] for i in range(4)]
    sol = linsolve(A, b)
    if sol is None:
        raise DegeneratePosition("parallel 2-planes")
    part, basis = sol
    if basis:
        raise DegeneratePosition("2-planes meet in a line or coincide")
    s, t, u, v = part
    if s < 0 or t < 0 or s + t > 1 or u < 0 or v < 0 or u + v > 1:
        return None
    return Point4(*(p1[i] + s * d11[i] + t * d12[i] for i in range(4)))


def tri_tri_hit(t1: Triangle4, t2: Triangle4,
                pre1: Optional[TrianglePre] = None,
                pre2: Optional[TrianglePre] = None) -> bool:
    try:
        return tri_tri_predicate(t1, t2, pre1, pre2)
    except DegeneratePosition:
        return tri_tri_any(t1, t2) is not None


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


def _line_triangle_interval(o, d, tri: Triangle4):
    """For a line o + t d lying in tri's plane: the closed t-interval inside
    the triangle, or None."""
    b0 = _tri_bary2(tri, o)
    od = tuple(o[i] + d[i] for i in range(4))
    b1 = _tri_bary2(tri, od)
    if b0 is None or b1 is None:
        return None
    s0, t0 = b0
    ds, dt = b1[0] - s0, b1[1] - t0
    lo, hi = None, None  # None = unbounded
    # constraints: s >= 0, t >= 0, s + t <= 1
    for c0, c1 in ((s0, ds), (t0, dt), (1 - s0 - t0, -ds - dt)):
        if c1 == 0:
            if c0 < 0:
                return None
        else:
            bound = Fraction(-c0) / c1
            if c1 > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _chart2_indices(d1, d2):
    for i in range(4):
        for j in range(i + 1, 4):
            if d1[i] * d2[j] - d1[j] * d2[i] != 0:
                return i, j
    raise DegenerateDirection("no 2D chart")


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
    """Total closed-set triangle intersection in R^4 (any position)."""
    eqs = _plane_equations(t1.vertices) + _plane_equations(t2.vertices)
    A = [list(n) for n, _c in eqs]
    b = [c for _n, c in eqs]
    sol = linsolve(A, b)
    if sol is None:
        return None
    part, basis = sol
    if not basis:
        xi = Point4(*part)
        if point_in_triangle(xi, t1) and point_in_triangle(xi, t2):
            return xi
        return None
    if len(basis) == 1:
        o, d = tuple(part), tuple(basis[0])
        i1 = _line_triangle_interval(o, d, t1)
        if i1 is None:
            return None
        i2 = _line_triangle_interval(o, d, t2)
        if i2 is None:
            return None
        lo = max(x for x in (i1[0], i2[0]) if x is not None) if (i1[0] is not None or i2[0] is not None) else None
        hi = min(x for x in (i1[1], i2[1]) if x is not None) if (i1[1] is not None or i2[1] is not None) else None
        if lo is None or hi is None:
            # triangles are bounded, so both bounds exist unless degenerate
            lo = lo if lo is not None else hi
            hi = hi if hi is not None else lo
        if lo is None or lo > hi:
            return None
        tm = (lo + hi) / 2
        return Point4(*(o[i] + tm * d[i] for i in range(4)))
    # coplanar triangles: work in a 2D chart of the common plane
    p = t1.p
    d1, d2 = _sub(t1.q, p), _sub(t1.r, p)
    i, j = _chart2_indices(d1, d2)
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
    the three points in `flat`; raises Contained if the line lies inside."""
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
        raise Contained("line lies inside the 2-flat")
    t = part[0]
    return Point4(*(line.a[i] + t * d[i] for i in range(4)))


# ---------------------------------------------------------------------------
# tetra vs tetra (used by CCD and as an oracle primitive)


def tetra_tetra_intersect(t1: Tetrahedron4, t2: Tetrahedron4,
                          pre1: Optional[TetraPre] = None,
                          pre2: Optional[TetraPre] = None) -> Optional[Point4]:
    """Exact closed intersection witness of two 3-simplices in R^4, or None.

    Complete for all positions: vertex containment, edge-vs-body, and
    2-face-vs-2-face cover every vertex of the intersection polytope.
    """
    pre1 = pre1 or TetraPre(t1)
    pre2 = pre2 or TetraPre(t2)
    for v in t1.vertices:
        if pre2.contains(v):
            return Point4(*v)
    for v in t2.vertices:
        if pre1.contains(v):
            return Point4(*v)
    for (u, v) in tetra_edges(t1):
        w = segment_tetra_direct(Segment4(u, v), t2, pre2)
        if w is not None:
            return w
    for (u, v) in tetra_edges(t2):
        w = segment_tetra_direct(Segment4(u, v), t1, pre1)
        if w is not None:
            return w
    faces1 = [Triangle4(*f) for f in tetra_facets(t1)]
    faces2 = [Triangle4(*f) for f in tetra_facets(t2)]
    for fa in faces1:
        for fb in faces2:
            w = tri_tri_any(fa, fb)
            if w is not None:
                return w
    return None


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

def _mat_inverse_unimodular(M):
    """Exact integer inverse of a unimodular integer matrix (adjugate)."""
    d = det4(tuple(M[0]), tuple(M[1]), tuple(M[2]), tuple(M[3]))
    assert d in (1, -1)
    inv = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            rows = [M[r] for r in range(4) if r != j]
            cols = [c for c in range(4) if c != i]
            m = det3(
                tuple(rows[0][c] for c in cols),
                tuple(rows[1][c] for c in cols),
                tuple(rows[2][c] for c in cols),
            )
            inv[i][j] = ((-1) ** (i + j)) * m * d
    return inv


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


def generic_shear_inverse(points: Sequence[Point4], salt: int):
    Minv = _mat_inverse_unimodular(shear_matrix(salt))
    return [_apply_mat(Minv, p) for p in points]


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
    # line inside the hyperplane: clip by barycentric linear forms.  Rows are
    # scaled to integers; the scale factors cancel in the sign logic.
    rows = pre.basis_rows
    sD = _sign(pre.basis_det)
    orow = _scaled_row(o)
    lam = orow[4]
    drow, mu = _scaled_dir_row(d)
    lo, hi = None, None
    for i in range(4):
        a_i = det5h(*(rows[:i] + [orow] + rows[i + 1 :])) * mu * sD
        b_i = det5h(*(rows[:i] + [drow] + rows[i + 1 :])) * lam * sD
        if b_i == 0:
            if a_i < 0:
                return None
        else:
            bound = -Fraction(a_i) / b_i
            if b_i > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return ("interval", lo, hi)
