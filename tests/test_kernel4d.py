import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _rref,
    _tri_bary2,
    bary_signs,
    det5h,
    det_perm,
    facet_orientations,
    lp_seg_tetra_feasible,
    point_in_tetra,
    point_in_triangle,
    simplex_meet_vertices,
    tetra_tetra_reference,
    triangle_edge_orientations,
)
from conftest import rnd_point, rnd_segment, rnd_tetra, rnd_triangle
from tet4d.kernel4d import (
    POS,
    ZERO,
    DegenerateDirection,
    DegeneratePosition,
    DegenerateTetrahedron,
    Point4,
    Segment4,
    TetraPre,
    Tetrahedron4,
    Triangle4,
    TrianglePre,
    det4,
    dual10,
    generic_shear,
    hyperplane_of,
    line_2flat_meet,
    line_param,
    orient5,
    plucker10,
    seg_tetra_hit,
    segment_tetra_direct,
    tetra_tetra_intersect,
    tri_tri_any,
    tri_tri_direct,
    tri_tri_hit,
    twoplane_param,
)
from tet4d.oracle import PROBLEMS, SETUP_LINE_2FLAT

F = Fraction


class TestDeterminants:
    def test_det4_vs_permutation(self, rng):
        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert det4(*map(tuple, rows)) == det_perm(rows)

    def test_det5h_vs_permutation(self, rng):
        def entry(i):
            if i < 100:
                return rng.randint(-9, 9)
            k = rng.random()
            if k < 0.25:
                return 0
            return rng.randint(-9, 9) if k < 0.7 else F(rng.randint(-9, 9), rng.randint(1, 7))

        # integer rows, then rational rows with zeros and singular matrices
        for i in range(300):
            rows = [[entry(i) for _ in range(5)] for _ in range(5)]
            if i >= 100 and i % 4 == 0:
                rows[4] = list(rows[i % 3])
            elif i >= 100 and i % 4 == 1:
                rows[3] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            assert det5h(*map(tuple, rows)) == det_perm(rows)


class TestLinsolve:
    def test_matches_rref_oracle(self, rng):
        from _oracles import _rref
        from tet4d.kernel4d import linsolve

        def entry():
            k = rng.random()
            if k < 0.3:
                return 0
            return rng.randint(-9, 9) if k < 0.8 else F(rng.randint(-9, 9), rng.randint(1, 7))

        solved = 0
        for i in range(400):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = [[entry() for _ in range(n)] for _ in range(m)]
            if m > 1 and i % 3 == 0:
                A[-1] = [2 * a - b for a, b in zip(A[0], A[1 % m])]  # rank drop
            b = [entry() for _ in range(m)]
            got = linsolve(A, b)
            ref = _rref(A, b)
            if ref is None:
                assert got is None
                continue
            solved += 1
            M, piv = ref
            part, basis = got
            assert len(basis) == n - len(piv)
            for r, c in enumerate(piv):
                assert part[c] == M[r][n]
            for row, rhs in zip(A, b):
                assert sum(a * x for a, x in zip(row, part)) == rhs
                for vec in basis:
                    assert sum(a * x for a, x in zip(row, vec)) == 0
            assert all(type(x) is F for x in part)
        assert solved > 100


class TestOrient5:
    def test_equal_points_zero(self, rng):
        p = rnd_point(rng, 9)
        others = [rnd_point(rng, 9) for _ in range(3)]
        assert orient5(p, p, *others) == ZERO

    def test_row_swap_antisymmetry(self, rng):
        for _ in range(50):
            pts = [rnd_point(rng, 9) for _ in range(5)]
            s = orient5(*pts)
            pts[0], pts[1] = pts[1], pts[0]
            assert orient5(*pts) == -s

    def test_basis_vectors_positive(self):
        # determinant +1: verified against the permutation-expansion oracle
        pts = [Point4(0, 0, 0, 0), Point4(1, 0, 0, 0), Point4(0, 1, 0, 0),
               Point4(0, 0, 1, 0), Point4(0, 0, 0, 1)]
        rows = [list(p) + [1] for p in pts]
        assert det_perm(rows) == 1
        assert orient5(*pts) == POS

    def test_scaling_invariance(self, rng):
        for _ in range(30):
            pts = [rnd_point(rng, 9) for _ in range(5)]
            s = orient5(*pts)
            lam = F(7, 3)
            scaled = [Point4(*(lam * c for c in p)) for p in pts]
            assert orient5(*scaled) == s


class TestHyperplanes:
    def test_simplex_hyperplane(self, simplex_tetra):
        h = hyperplane_of(simplex_tetra)
        assert h.coeffs == (1, 1, 1, 1)
        assert h.offset == 1

    def test_w_zero_tetra(self):
        t = Tetrahedron4(Point4(0, 0, 0, 0), Point4(1, 0, 0, 0),
                         Point4(0, 1, 0, 0), Point4(0, 0, 1, 0))
        h = hyperplane_of(t)
        assert h.coeffs == (0, 0, 0, 1)
        assert h.offset == 0

    def test_vertices_satisfy_equation(self, rng):
        for _ in range(30):
            t = rnd_tetra(rng)
            h = hyperplane_of(t)
            for v in t.vertices:
                assert sum(c * x for c, x in zip(h.coeffs, v)) == h.offset

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTetrahedron):
            Tetrahedron4(Point4(0, 0, 0, 0), Point4(1, 0, 0, 0),
                         Point4(2, 0, 0, 0), Point4(3, 0, 0, 0))


class TestTetraContains:
    def test_matches_barycentric_solve(self, rng):
        """contains(p) == p is an affine combination of the vertices with
        nonnegative weights, on points of the hyperplane (inside, on the
        boundary and outside) and points off it."""
        from _oracles import _rref

        inside = 0
        for i in range(300):
            t = rnd_tetra(rng, 6, 5)
            pre = TetraPre(t)
            lam = [F(rng.randint(-2, 6)) for _ in range(4)]
            if i % 5 == 0:
                lam[rng.randrange(4)] = F(0)  # on a facet
            tot = sum(lam) or F(1)
            lam = [x / tot for x in lam]
            p = tuple(sum(lam[k] * t.vertices[k][c] for k in range(4)) for c in range(4))
            if i % 3 == 0:
                p = tuple(x + F(1, 3) * (c == i % 4) for c, x in enumerate(p))
            A = [[t.vertices[k][c] for k in range(4)] for c in range(4)] + [[1, 1, 1, 1]]
            sol = _rref(A, list(p) + [1])
            ref = sol is not None and all(M_row[4] >= 0 for M_row in sol[0][:4])
            assert pre.contains(p) == ref
            s = bary_signs(pre, p)
            assert pre.contains(p) == (s[4] == 0 and all(v >= 0 for v in s[:4]))
            inside += ref
        assert 50 < inside < 250


class TestLineParam:
    def test_endpoints_already_anchored(self):
        lp = line_param(Segment4(Point4(0, 0, 0, 0), Point4(1, 1, 1, 1)))
        assert tuple(lp.u0) == (0, 0, 0, 0)
        assert tuple(lp.u1) == (1, 1, 1, 1)

    def test_w_parallel_line(self):
        lp = line_param(Segment4(Point4(2, 0, 0, 2), Point4(2, 0, 0, 4)))
        assert tuple(lp.u0) == (2, 0, 0, 0)
        assert tuple(lp.u1) == (2, 0, 0, 1)

    def test_constant_w_raises(self):
        with pytest.raises(DegenerateDirection):
            line_param(Segment4(Point4(0, 0, 0, 1), Point4(1, 0, 0, 1)))

    def test_anchors_on_line(self, rng):
        for _ in range(50):
            s = rnd_segment(rng)
            if s.a.w == s.b.w:
                continue
            lp = line_param(s)
            assert lp.u0.w == 0 and lp.u1.w == 1
            # anchors are affine combinations of the endpoints
            d = tuple(s.b[i] - s.a[i] for i in range(4))
            for u in (lp.u0, lp.u1):
                r = tuple(u[i] - s.a[i] for i in range(4))
                for i in range(4):
                    for j in range(i + 1, 4):
                        assert r[i] * d[j] == r[j] * d[i]


class TestTwoPlaneParam:
    def test_xy_plane_anchors_zero(self):
        q = twoplane_param(Point4(0, 0, 0, 0), Point4(1, 0, 0, 0), Point4(0, 1, 0, 0))
        assert q.v00 == (0, 0) and q.v01 == (0, 0) and q.v11 == (0, 0)

    def test_zw_plane_degenerate(self):
        with pytest.raises(DegenerateDirection):
            twoplane_param(Point4(0, 0, 0, 0), Point4(0, 0, 1, 0), Point4(0, 0, 0, 1))

    def test_lifted_points_span_plane(self, rng):
        from tet4d.kernel4d import _sub

        done = 0
        while done < 50:
            tri = rnd_triangle(rng)
            try:
                q = twoplane_param(*tri.vertices)
            except DegenerateDirection:
                continue
            done += 1
            d1 = _sub(tri.q, tri.p)
            d2 = _sub(tri.r, tri.p)
            for pt in q.lifted():
                # pt - p must lie in span(d1, d2): all 3x3 minors vanish
                r = _sub(pt, tri.p)
                for cols in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
                    rows = [tuple(v[c] for c in cols) for v in (d1, d2, r)]
                    from tet4d.kernel4d import det3

                    assert det3(*rows) == 0


class TestSegmentTetra:
    def test_diagonal_hits_simplex(self, simplex_tetra):
        e = Segment4(Point4(0, 0, 0, 0), Point4(1, 1, 1, 1))
        assert seg_tetra_hit(e, simplex_tetra) is True
        w = segment_tetra_direct(e, simplex_tetra)
        assert w == Point4(F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_short_probe_misses(self, simplex_tetra):
        e = Segment4(Point4(0, 0, 0, 0), Point4(F(1, 8), F(1, 8), F(1, 8), F(1, 8)))
        assert seg_tetra_hit(e, simplex_tetra) is False
        assert segment_tetra_direct(e, simplex_tetra) is None

    def test_far_segment_absent(self, simplex_tetra):
        e = Segment4(Point4(5, 5, 5, 5), Point4(6, 5, 5, 5))
        assert segment_tetra_direct(e, simplex_tetra) is None

    def test_predicate_equals_direct_random(self, rng):
        for _ in range(1000):
            t = rnd_tetra(rng)
            e = rnd_segment(rng)
            pre = TetraPre(t)
            direct = segment_tetra_direct(e, t, pre) is not None
            assert seg_tetra_hit(e, t, pre) == direct

    def test_direct_equals_lp_oracle(self, rng):
        for _ in range(400):
            t = rnd_tetra(rng)
            e = rnd_segment(rng)
            assert (segment_tetra_direct(e, t) is not None) == lp_seg_tetra_feasible(e, t)

    def test_witness_membership(self, rng):
        hits = 0
        for _ in range(600):
            t = rnd_tetra(rng, 6, 7)
            e = rnd_segment(rng, 6, 7)
            pre = TetraPre(t)
            w = segment_tetra_direct(e, t, pre)
            if w is None:
                continue
            hits += 1
            assert pre.contains(w)
            d = tuple(e.b[i] - e.a[i] for i in range(4))
            r = tuple(w[i] - e.a[i] for i in range(4))
            for i in range(4):
                for j in range(i + 1, 4):
                    assert r[i] * d[j] == r[j] * d[i]
        assert hits > 0

    def test_boundary_contact_counts(self, simplex_tetra):
        # endpoint exactly on the supporting hyperplane, inside the tetra
        e = Segment4(Point4(F(1, 4), F(1, 4), F(1, 4), F(1, 4)), Point4(0, 0, 0, 0))
        assert seg_tetra_hit(e, simplex_tetra) is True
        assert segment_tetra_direct(e, simplex_tetra) is not None

    def test_mixed_facet_signs_beside_a_zero_miss(self, simplex_tetra):
        # the endpoints straddle x + y + z + w = 1; the line lies in the
        # 2-planes x = 0 and w = 0 of two facets (zero signs), and the other
        # two facet signs are strictly opposite, so the signs decide
        e = Segment4(Point4(0, -1, 1, 0), Point4(0, 1, 2, 0))
        assert seg_tetra_hit(e, simplex_tetra) is False
        assert segment_tetra_direct(e, simplex_tetra) is None

    def test_zero_facet_sign_without_mix_raises(self, simplex_tetra):
        # crosses the hyperplane at (1/2, 1/2, 0, 0), on two facets' 2-planes
        e = Segment4(Point4(F(1, 2), F(1, 2), -1, -1), Point4(F(1, 2), F(1, 2), 1, 1))
        assert seg_tetra_hit(e, simplex_tetra) is True
        assert segment_tetra_direct(e, simplex_tetra) == Point4(F(1, 2), F(1, 2), 0, 0)

    def test_predicate_raises_only_on_undecided_zeros(self, simplex_tetra):
        """On lattice segments against the simplex, where zero signs are
        common, the one sign decision equals the witness's existence on
        every pair, including an endpoint on the hyperplane and a zero facet
        sign; a straddling pair with a zero facet sign beside a strict +
        and a strict - is a miss."""
        rng = random.Random(7)
        pre = TetraPre(simplex_tetra)
        zeros = mixed = 0
        for _ in range(3000):
            a, b = (Point4(*(rng.randint(-1, 2) for _ in range(4))) for _ in range(2))
            if a == b:
                continue
            e = Segment4(a, b)
            direct = segment_tetra_direct(e, simplex_tetra, pre) is not None
            sides = [sum(p) - 1 for p in (a, b)]
            sigs = [eps * orient5(a, b, *f) for eps, f in zip(pre.eps, pre.facets)]
            assert seg_tetra_hit(e, simplex_tetra, pre) == direct
            if 0 in sides or (0 in sigs and not (1 in sigs and -1 in sigs)):
                zeros += 1
            elif sides[0] * sides[1] < 0 and 0 in sigs:
                mixed += 1
                assert 1 in sigs and -1 in sigs and not direct
        assert zeros > 0 and mixed > 0

    def test_segment_inside_hyperplane(self, simplex_tetra):
        # both endpoints on the hyperplane; crosses the tetra
        e = Segment4(Point4(1, 0, 0, 0), Point4(0, 0, 0, 1))
        w = segment_tetra_direct(e, simplex_tetra)
        assert w is not None and point_in_tetra(w, simplex_tetra)
        # and in the plane but outside
        e2 = Segment4(Point4(5, -4, 0, 0), Point4(5, 0, -4, 0))
        assert segment_tetra_direct(e2, simplex_tetra) is None


SPEC_T1 = Triangle4(Point4(0, 0, 0, 0), Point4(2, 0, 0, 0), Point4(0, 2, 0, 0))
SPEC_T2 = Triangle4(
    Point4(F(1, 2), F(1, 2), 1, 0),
    Point4(F(1, 2), F(1, 2), -1, 1),
    Point4(F(1, 2), F(1, 2), -1, -1),
)


class TestTriTri:
    def test_constructed_pair_meets(self):
        assert tri_tri_hit(SPEC_T1, SPEC_T2) is True
        assert tri_tri_direct(SPEC_T1, SPEC_T2) == Point4(F(1, 2), F(1, 2), 0, 0)

    def test_translated_pair_misses(self):
        t2 = Triangle4(*(Point4(p.x + F(5, 2), p.y + F(5, 2), p.z, p.w)
                         for p in SPEC_T2.vertices))
        assert tri_tri_hit(SPEC_T1, t2) is False
        assert tri_tri_direct(SPEC_T1, t2) is None

    def test_predicate_equals_direct_random(self, rng):
        for _ in range(1000):
            a = rnd_triangle(rng, 6, 7)
            b = rnd_triangle(rng, 6, 7)
            try:
                direct = tri_tri_direct(a, b) is not None
            except DegeneratePosition:
                direct = tri_tri_any(a, b) is not None
            assert tri_tri_hit(a, b) == direct

    def test_any_witness_membership(self, rng):
        hits = 0
        for _ in range(500):
            a = rnd_triangle(rng, 5, 7)
            b = rnd_triangle(rng, 5, 7)
            w = tri_tri_any(a, b)
            if w is None:
                continue
            hits += 1
            assert point_in_triangle(w, a) and point_in_triangle(w, b)
        assert hits > 0

    def test_coplanar_triangles(self):
        a = Triangle4(Point4(0, 0, 0, 0), Point4(4, 0, 0, 0), Point4(0, 4, 0, 0))
        b = Triangle4(Point4(1, 1, 0, 0), Point4(5, 1, 0, 0), Point4(1, 5, 0, 0))
        w = tri_tri_any(a, b)
        assert w is not None and point_in_triangle(w, a) and point_in_triangle(w, b)
        far = Triangle4(Point4(10, 10, 0, 0), Point4(11, 10, 0, 0), Point4(10, 11, 0, 0))
        assert tri_tri_any(a, far) is None


class TestLine2Flat:
    FLAT = (Point4(0, 0, 0, 0), Point4(1, 0, 0, 0), Point4(0, 1, 0, 0))

    def test_meeting_line(self):
        line = Segment4(Point4(1, 2, 0, 0), Point4(1, 2, 1, 1))
        assert line_2flat_meet(line, self.FLAT) == Point4(1, 2, 0, 0)

    def test_parallel_line_absent(self):
        line = Segment4(Point4(0, 0, 0, 1), Point4(1, 0, 0, 1))
        assert line_2flat_meet(line, self.FLAT) is None

    def test_contained_line(self):
        line = Segment4(Point4(0, 0, 0, 0), Point4(1, 1, 0, 0))
        assert line_2flat_meet(line, self.FLAT) == line.a

    def test_random_generic_pairs_absent(self, rng):
        # in general position a line and a 2-flat in R^4 do not meet
        misses = 0
        for _ in range(200):
            line = rnd_segment(rng, 20, 10)
            flat = rnd_triangle(rng, 20, 10).vertices
            o5 = orient5(line.a, line.b, *flat)
            if o5 != ZERO:
                assert line_2flat_meet(line, flat) is None
                misses += 1
        assert misses > 150


class TestGenericShear:
    def test_identity_salt_zero(self, rng):
        pts = [rnd_point(rng, 9) for _ in range(5)]
        assert generic_shear(pts, 0) == pts

    def test_heals_constant_w(self):
        seg = Segment4(Point4(0, 0, 0, 1), Point4(1, 0, 0, 1))
        with pytest.raises(DegenerateDirection):
            line_param(seg)
        a, b = generic_shear([seg.a, seg.b], 1)
        line_param(Segment4(a, b))  # must not raise

    def test_intersection_counts_preserved(self, rng):
        from tet4d.oracle import QueryMode, seg_tetra_query

        tets = [rnd_tetra(rng, 6, 7) for _ in range(12)]
        segs = [rnd_segment(rng, 6, 7) for _ in range(12)]
        base = seg_tetra_query(segs, tets, QueryMode.COUNT).count
        for salt in (1, 3):
            stets = [Tetrahedron4(*generic_shear(list(t.vertices), salt)) for t in tets]
            ssegs = [Segment4(*generic_shear([s.a, s.b], salt)) for s in segs]
            assert seg_tetra_query(ssegs, stets, QueryMode.COUNT).count == base


class TestPredicateExactness:
    def test_scaling_leaves_signs_unchanged(self, rng):
        lam = F(13, 7)
        for _ in range(100):
            t = rnd_tetra(rng)
            e = rnd_segment(rng)
            ts = Tetrahedron4(*(Point4(*(lam * c for c in v)) for v in t.vertices))
            es = Segment4(Point4(*(lam * c for c in e.a)), Point4(*(lam * c for c in e.b)))
            assert seg_tetra_hit(e, t) == seg_tetra_hit(es, ts)


# ---------------------------------------------------------------------------
# Plücker / dual split of orient5


_coord = st.integers(-6, 6)
_point = st.tuples(_coord, _coord, _coord, _coord).map(lambda p: Point4(*p))


@st.composite
def _five_rows(draw):
    """Rows a, b, f0, f1, f2, often in one of the degenerate layouts that
    random integer points almost never produce."""
    pts = [draw(_point) for _ in range(5)]
    layout = draw(st.sampled_from(
        ("generic", "repeated", "collinear", "hyperplane", "line_in_flat")))
    k1, k2 = draw(_coord), draw(_coord)
    if layout == "repeated":
        i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        pts[i] = pts[j]
    elif layout == "collinear":
        # the three flat rows on one line
        f0, f1 = pts[2], pts[3]
        pts[4] = Point4(*(f0[c] + k1 * (f1[c] - f0[c]) for c in range(4)))
    elif layout == "hyperplane":
        # all five rows in the hyperplane w = k1
        pts = [Point4(p.x, p.y, p.z, k1) for p in pts]
    elif layout == "line_in_flat":
        # a and b in the 2-flat through f0, f1, f2
        f0, f1, f2 = pts[2:]
        for i, (s1, s2) in enumerate(((k1, k2), (k2, 1 - k1))):
            pts[i] = Point4(*(f0[c] + s1 * (f1[c] - f0[c]) + s2 * (f2[c] - f0[c])
                              for c in range(4)))
    if draw(st.booleans()):
        pts = list(generic_shear(pts, 1))
    if draw(st.booleans()):
        dens = [draw(st.integers(1, 7)) for _ in range(5)]
        pts = [Point4(*(F(x, d) for x in p)) for p, d in zip(pts, dens)]
    return pts


class TestPluckerDual:
    @settings(max_examples=300, deadline=None)
    @given(_five_rows())
    def test_dot_equals_orient5(self, pts):
        a, b, f0, f1, f2 = pts
        v = sum(p * d for p, d in zip(plucker10(a, b), dual10(f0, f1, f2)))
        assert v == det_perm([tuple(p) + (1,) for p in pts])
        assert (v > 0) - (v < 0) == orient5(a, b, f0, f1, f2)


# ---------------------------------------------------------------------------
# calibration signs: the closed forms against the interior probe


@st.composite
def _scaled_points(draw, k):
    """k points with coordinates in [-R, R], R from 1 to 1000, often in a
    thin layout: the last point one lattice step off the affine hull of the
    others, or every point in one coordinate hyperplane (two of them for
    k = 3).  Coordinates are divided by small denominators half the time."""
    R = draw(st.sampled_from((1, 2, 10, 1000)) | st.integers(1, 1000))
    c = st.integers(-R, R)
    pts = [[draw(c) for _ in range(4)] for _ in range(k)]
    layout = draw(st.sampled_from(("generic", "thin", "coordinate")))
    if layout == "thin":
        # the last point one lattice step away from p0 + (p1 - p0) + ...
        last = [pts[0][i] + sum(p[i] - pts[0][i] for p in pts[1:-1]) for i in range(4)]
        last[draw(st.integers(0, 3))] += draw(st.sampled_from((-1, 1)))
        pts[-1] = last
    elif layout == "coordinate":
        for axis in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4 - (k - 1),
                                  unique=True)):
            v = draw(c)
            for p in pts:
                p[axis] = v
    if draw(st.booleans()):
        dens = [draw(st.integers(1, 9)) for _ in range(k)]
        return [Point4(*(F(x, d) for x in p)) for p, d in zip(pts, dens)]
    return [Point4(*p) for p in pts]


class TestCalibrationSigns:
    @settings(max_examples=400, deadline=None)
    @given(_scaled_points(4))
    def test_tetra_eps_equals_probe(self, pts):
        try:
            t = Tetrahedron4(*pts)
        except DegenerateTetrahedron:
            return
        assert TetraPre(t).eps == facet_orientations(t)

    @settings(max_examples=400, deadline=None)
    @given(_scaled_points(3))
    def test_triangle_eps_equals_probe(self, pts):
        try:
            tri = Triangle4(*pts)
        except ValueError:
            return
        assert TrianglePre(tri).eps == triangle_edge_orientations(tri)


# ---------------------------------------------------------------------------
# tri_tri_any against the vertices of the common intersection


@st.composite
def _triangle_pair(draw):
    """Two triangles on a lattice pool of 6 to 12 points, so that they often
    share vertices and edges, or ("apart") on the pool's first six points,
    three each; the pool may lie in one hyperplane or in one 2-plane, and
    may be divided by small denominators."""
    layout = draw(st.sampled_from(("pool", "apart", "hyperplane", "plane")))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = [[rnd.randint(-3, 3) for _ in range(4)] for _ in range(rnd.randint(6, 12))]
    if layout == "hyperplane":
        n = [rnd.randint(-1, 1) for _ in range(3)]
        for p in pool:
            p[3] = n[0] * p[0] + n[1] * p[1] + n[2] * p[2]
    elif layout == "plane":
        for p in pool:
            p[2] = p[0] - p[1]
            p[3] = 2 * p[1]
    if draw(st.booleans()):
        pool = [[F(x, d) for x in p] for p, d in zip(pool, (rnd.randint(1, 4) for _ in pool))]
    pool = [Point4(*p) for p in pool]
    picks = [pool[:3], pool[3:6]] if layout == "apart" else [rnd.sample(pool, 3) for _ in range(2)]
    try:
        return [Triangle4(*pick) for pick in picks]
    except ValueError:
        return None


class TestTriTriAnyReference:
    @settings(max_examples=800, deadline=None)
    @given(_triangle_pair())
    def test_against_meet_vertices(self, pair):
        if pair is None:
            return
        a, b = pair
        w = tri_tri_any(a, b)
        verts = simplex_meet_vertices([a.vertices, b.vertices])
        assert (w is not None) == bool(verts)
        try:
            direct = tri_tri_direct(a, b)
        except DegeneratePosition:
            pass
        else:
            assert direct == w
        if w is None:
            return
        assert point_in_triangle(w, a) and point_in_triangle(w, b)
        if any(_tri_bary2(a, v) is None for v in b.vertices):
            # different 2-planes: the meet is a point or a segment
            assert len(verts) <= 2
            assert tuple(w) == tuple(sum(v[i] for v in verts) / len(verts) for i in range(4))


def _typed(p):
    return None if p is None else tuple((type(c), c) for c in p)


def _tetra_pair(rnd):
    """Two tetrahedra on a lattice pool of 5 to 9 points in [-2, 2]^4, so
    that they often share vertices and facets and zero signs are common.
    Layouts: picks from one pool; two sharing a facet; picks from a pool and
    from its translate, both in one hyperplane (every side sign zero) or
    not.  The pool may be divided by small denominators."""
    layout = rnd.choice(("pool", "facet", "hyperplane", "shifted"))
    pool = [[rnd.randint(-2, 2) for _ in range(4)] for _ in range(rnd.randint(5, 9))]
    shift = [rnd.randint(-3, 3) for _ in range(4)]
    if layout == "hyperplane":
        # the shift stays in the pool's hyperplane
        n = [rnd.randint(-1, 1) for _ in range(3)]
        for p in pool + [shift]:
            p[3] = n[0] * p[0] + n[1] * p[1] + n[2] * p[2]
    if rnd.random() < 0.3:
        pool = [[F(x, d) for x in p] for p, d in zip(pool, (rnd.randint(1, 3) for _ in pool))]
    pool = [Point4(*p) for p in pool]
    first = rnd.sample(pool, 4)
    if layout == "facet":
        second = first[:3] + [rnd.choice(pool[4:] or pool)]
    elif layout in ("shifted", "hyperplane"):
        second = [Point4(*(p[i] + shift[i] for i in range(4))) for p in rnd.sample(pool, 4)]
    else:
        second = rnd.sample(pool, 4)
    rnd.shuffle(second)
    try:
        return Tetrahedron4(*first), Tetrahedron4(*second)
    except DegenerateTetrahedron:
        return None


class TestTetraTetraSignReject:
    def test_equals_reference_on_lattice_scenes(self):
        """The witness equals the enumeration without the reject, typed, and
        agrees with the meet's vertex set on emptiness.  Pairs with a zero
        side sign fall through, meeting and missing ones alike."""
        rnd = random.Random(20)
        rejected = zero_sides = zero_hits = 0
        pairs = 0
        while pairs < 300:
            pair = _tetra_pair(rnd)
            if pair is None:
                continue
            pairs += 1
            a, b = pair
            pa, pb = TetraPre(a), TetraPre(b)
            w = tetra_tetra_intersect(a, b, pa, pb)
            assert _typed(w) == _typed(tetra_tetra_reference(a, b, pa, pb))
            assert (w is None) == (not simplex_meet_vertices([a.vertices, b.vertices]))
            sides = [[(d > 0) - (d < 0) for d in (sum(n * x for n, x in zip(p.n, v)) - p.c
                                                  for v in t.vertices)]
                     for p, t in ((pb, a), (pa, b))]
            if any(len(set(s)) == 1 and s[0] != 0 for s in sides):
                rejected += 1
                assert w is None
            elif any(0 in s for s in sides):
                zero_sides += 1
                zero_hits += w is not None
        assert rejected > 50 and zero_hits > 50 and zero_sides - zero_hits > 50

    def test_separated_pair_calls_no_solver(self, monkeypatch, simplex_tetra):
        import tet4d.kernel4d as k4

        calls = []
        for name in ("segment_tetra_direct", "tri_tri_any"):
            fn = getattr(k4, name)
            monkeypatch.setattr(k4, name, lambda *a, _fn=fn, _n=name: calls.append(_n) or _fn(*a))

        def shifted(d):
            return Tetrahedron4(*(Point4(*(p[i] + d[i] for i in range(4)))
                                  for p in simplex_tetra.vertices))

        # x + y + z + w = 5 at every vertex of the translate: strictly above
        assert tetra_tetra_intersect(simplex_tetra, shifted((1, 1, 1, 1))) is None
        # above the simplex's hyperplane, while its own, x + y + z + 7w = 2,
        # cuts the simplex: one side separates, in either argument order
        above = Tetrahedron4(Point4(2, 0, 0, 0), Point4(0, 2, 0, 0),
                             Point4(0, 0, 2, 0), Point4(3, 3, 3, -1))
        assert tetra_tetra_intersect(simplex_tetra, above) is None
        assert tetra_tetra_intersect(above, simplex_tetra) is None
        assert calls == []
        # a translate inside the same hyperplane: every side sign is zero,
        # so the enumeration runs and finds the miss
        assert tetra_tetra_intersect(simplex_tetra, shifted((5, -5, 0, 0))) is None
        assert "segment_tetra_direct" in calls and "tri_tri_any" in calls


# ---------------------------------------------------------------------------
# each problem's one sign decision against an independent check


@st.composite
def _lattice_pool(draw):
    """A random source and a pool of 5 to 9 lattice points in [-2, 2]^4,
    which may lie in the hyperplane w = x.  Objects picked from the pool
    share vertices, so zero signs are common."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = [[rnd.randint(-2, 2) for _ in range(4)] for _ in range(rnd.randint(5, 9))]
    if draw(st.booleans()):
        for p in pool:
            p[3] = p[0]
    return rnd, [Point4(*p) for p in pool]


def _picks(rnd, pool, make, k, count):
    """Up to `count` objects make(*k pool points); degenerate picks are
    skipped."""
    out = []
    for _ in range(4 * count):
        try:
            out.append(make(*rnd.sample(pool, k)))
        except (ValueError, DegenerateTetrahedron):
            continue
        if len(out) == count:
            break
    return out


def _affine_hulls_meet(p, q):
    """The affine hulls of the point lists p and q share a point: the system
    sum u_i p_i = sum v_k q_k, sum u = sum v = 1 is consistent."""
    rows = [[*(x[c] for x in p), *(-y[c] for y in q)] for c in range(4)]
    rows += [[1] * len(p) + [0] * len(q), [0] * len(p) + [1] * len(q)]
    return _rref(rows, [0, 0, 0, 0, 1, 1]) is not None


class TestSignDecisions:
    @settings(max_examples=300, deadline=None)
    @given(_lattice_pool())
    def test_seg_tetra_hit(self, rp):
        rnd, pool = rp
        for t in _picks(rnd, pool, Tetrahedron4, 4, 2):
            pre = TetraPre(t)
            for e in _picks(rnd, pool, Segment4, 2, 4):
                meet = simplex_meet_vertices([(e.a, e.b), t.vertices])
                assert seg_tetra_hit(e, t, pre) == bool(meet)

    @settings(max_examples=300, deadline=None)
    @given(_lattice_pool())
    def test_tri_tri_hit(self, rp):
        rnd, pool = rp
        tris = _picks(rnd, pool, Triangle4, 3, 6)
        for a, b in zip(tris[::2], tris[1::2]):
            meet = simplex_meet_vertices([a.vertices, b.vertices])
            assert tri_tri_hit(a, b) == bool(meet)

    @settings(max_examples=300, deadline=None)
    @given(_lattice_pool())
    def test_line_flat_hit(self, rp):
        rnd, pool = rp
        problem = PROBLEMS[SETUP_LINE_2FLAT]
        for tri in _picks(rnd, pool, Triangle4, 3, 2):
            flat = problem.prep_input(tri.vertices)
            for line in _picks(rnd, pool, Segment4, 2, 4):
                assert problem.hit(line, flat) == _affine_hulls_meet((line.a, line.b), flat)
