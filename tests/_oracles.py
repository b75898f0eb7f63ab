"""Independent reference implementations used only by tests.

These deliberately avoid the package's own code paths: determinants by
permutation expansion, triangle membership by a 2x2 solve in the triangle's
plane, calibration signs by an interior probe line (the package uses their
closed form), segment/tetrahedron feasibility by a direct rational solve of
the barycentric system.  The CCD references at the end are the exception.
``contains_at`` (3-D membership at one instant) takes the package's det3,
and the lifted prism and ``collision_verified_at`` (both tetrahedra at one
instant, in w = 0) run the package's 4D predicates, which CCD's own pair
test does not use, and ``swept_sat_reference`` is a frozen copy of that
pair test as it was before it ran in integers, with Fraction clips.  Likewise
``tetra_tetra_reference`` is a frozen copy of the tetrahedron pair test as
it was before its sign reject, on the package's own solvers.
"""

from fractions import Fraction
from itertools import permutations

from tet4d.kernel4d import (
    DegenerateDirection,
    DegeneratePosition,
    DegenerateTetrahedron,
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    TrianglePre,
    _FACETS,
    _chart2,
    _clip,
    _dot,
    _integral,
    _sign,
    _sub,
    as_exact,
    det3,
    det4,
    seg_tetra_hit,
    segment_tetra_direct,
    tetra_edges,
    tetra_facets,
    tetra_plane,
    tetra_tetra_intersect,
    tri_tri_any,
    tri_tri_direct,
    tri_tri_hit,
)


def det_perm(rows):
    """Determinant by permutation expansion (exact, O(n!))."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        p = 1 if inv % 2 == 0 else -1
        for i in range(n):
            p *= rows[i][perm[i]]
        total += p
    return total


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


def _rref(A, b):
    m, n = len(A), len(A[0])
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    piv = []
    r = 0
    for c in range(n):
        pr = next((k for k in range(r, m) if M[k][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for k in range(m):
            if k != r and M[k][c] != 0:
                f = M[k][c]
                M[k] = [a - f * d for a, d in zip(M[k], M[r])]
        piv.append(c)
        r += 1
    for k in range(r, m):
        if M[k][n] != 0:
            return None
    return M, piv


# ---------------------------------------------------------------------------
# membership in a triangle, by a direct 2x2 solve in its plane


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


# ---------------------------------------------------------------------------
# membership in a tetrahedron


def bary_signs(pre: TetraPre, p):
    """Signs of the five affine coordinates of p in the basis (v0..v3, apex)
    of pre's tetrahedron, relative to the basis determinant sign, with
    apex = v0 + n."""
    v = pre.tet.vertices
    rows = [q + (1,) for q in v] + [tuple(v[0][i] + pre.n[i] for i in range(4)) + (1,)]
    ds = _sign(det5h(*rows))
    pr = _integral((*p, 1))
    out = []
    for i in range(5):
        rep = rows[:i] + [pr] + rows[i + 1 :]
        out.append(_sign(det5h(*rep)) * ds)
    return out


def point_in_tetra(p, t: Tetrahedron4, pre=None) -> bool:
    return (pre or TetraPre(t)).contains(p)


# ---------------------------------------------------------------------------
# calibration signs by an interior probe: the reference for the closed forms
# in TetraPre.eps and TrianglePre.eps


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


# ---------------------------------------------------------------------------
# segment / tetrahedron feasibility


def lp_seg_tetra_feasible(seg, tet) -> bool:
    """Closed feasibility of seg meeting tet: a + s(b-a) = sum(bi vi),
    sum(bi) = 1, s in [0,1], bi >= 0, solved by exact elimination over the
    (at most one-dimensional) solution family."""
    a, b = seg.a, seg.b
    vs = tet.vertices
    A = [[b[i] - a[i]] + [-vs[j][i] for j in range(4)] for i in range(4)]
    A.append([0, 1, 1, 1, 1])
    rhs = [-a[i] for i in range(4)] + [1]
    sol = _rref(A, rhs)
    if sol is None:
        return False
    M, piv = sol
    n = 5
    free = [c for c in range(n) if c not in piv]
    part = [Fraction(0)] * n
    for r, c in enumerate(piv):
        part[c] = M[r][n]
    if not free:
        s, b0, b1, b2, b3 = part
        return 0 <= s <= 1 and min(b0, b1, b2, b3) >= 0
    # one-parameter family: clip the box constraints along it
    fc = free[0]
    direction = [Fraction(0)] * n
    direction[fc] = Fraction(1)
    for r, c in enumerate(piv):
        direction[c] = -M[r][fc]
    lo, hi = None, None
    bounds = [(part[0], direction[0], Fraction(0), Fraction(1))]
    bounds += [(part[i], direction[i], Fraction(0), None) for i in range(1, 5)]
    for c0, c1, lb, ub in bounds:
        if c1 == 0:
            if c0 < lb or (ub is not None and c0 > ub):
                return False
            continue
        t_lb = (lb - c0) / c1
        if c1 > 0:
            lo = t_lb if lo is None else max(lo, t_lb)
        else:
            hi = t_lb if hi is None else min(hi, t_lb)
        if ub is not None:
            t_ub = (ub - c0) / c1
            if c1 > 0:
                hi = t_ub if hi is None else min(hi, t_ub)
            else:
                lo = t_ub if lo is None else max(lo, t_ub)
    return not (lo is not None and hi is not None and lo > hi)


def brute_k_subsets(tets, contains_fn, common_point_fn):
    """Unpruned exhaustive subset enumeration of pair/triple/quad common
    intersections for tiny n (cross-check of the pruned oracle)."""
    from itertools import combinations

    n = len(tets)
    pairs = [c for c in combinations(range(n), 2) if common_point_fn([tets[i] for i in c])]
    triples = [c for c in combinations(range(n), 3) if common_point_fn([tets[i] for i in c])]
    quads = [c for c in combinations(range(n), 4) if common_point_fn([tets[i] for i in c])]
    return pairs, triples, quads


def simplex_meet_vertices(simplices):
    """Vertices of the common intersection of closed simplices in R^4 (each
    a list of its vertex points), as a set of Fraction 4-tuples.

    Unknowns are each simplex's barycentric weights; the equations say that
    all simplices give the same point and that each weight vector sums to 1.
    A vertex is a basic feasible solution: a set of weights fixed at zero
    that leaves exactly one solution, with every weight nonnegative."""
    from itertools import combinations

    sizes = [len(s) for s in simplices]
    nv = sum(sizes)
    offs = [sum(sizes[:k]) for k in range(len(sizes))]
    rows, rhs = [], []
    for k in range(1, len(simplices)):
        for c in range(4):
            row = [0] * nv
            for i, p in enumerate(simplices[0]):
                row[i] = p[c]
            for i, p in enumerate(simplices[k]):
                row[offs[k] + i] = -p[c]
            rows.append(row)
            rhs.append(0)
    for k, s in enumerate(sizes):
        row = [0] * nv
        for i in range(s):
            row[offs[k] + i] = 1
        rows.append(row)
        rhs.append(1)
    base = _rref(rows, rhs)
    if base is None:
        return set()
    # weight v = part[v] + sum_k coef[v][k] * t_k over the free weights t
    M, piv = base
    free = [c for c in range(nv) if c not in piv]
    part = [Fraction(0)] * nv
    coef = [[Fraction(int(c == f)) for f in free] for c in range(nv)]
    for r, c in enumerate(piv):
        part[c] = M[r][nv]
        coef[c] = [-M[r][f] for f in free]
    out = set()
    for zeros in combinations(range(nv), len(free)):
        t = []
        if free:
            sol = _rref([coef[z] for z in zeros], [-part[z] for z in zeros])
            if sol is None or len(sol[1]) != len(free):
                continue
            t = [sol[0][r][len(free)] for r in range(len(free))]
        lam = [part[v] + sum(c * x for c, x in zip(coef[v], t)) for v in range(nv)]
        if min(lam) < 0:
            continue
        out.add(tuple(sum(lam[i] * Fraction(p[c]) for i, p in enumerate(simplices[0]))
                      for c in range(4)))
    return out


# ---------------------------------------------------------------------------
# arrangement witnesses by plain structure queries: the reference that
# arrangement.pairwise's owned joins are checked against.  It runs the
# package's structure, with none of the joins' owner skip or first-hit
# witness.


def pairwise_reference(tetrahedra):
    """One PairWitness per intersecting pair: every edge queries the
    tetrahedra and every 2-face the 2-faces, each by one structure and a
    REPORT query_batch; hits of an object on its own tetrahedron are
    dropped, and each pair keeps its first hit, edges before faces."""
    from tet4d import rangetree as rt
    from tet4d.arrangement import PairWitness
    from tet4d.oracle import QueryMode, _canon_point

    tets = list(enumerate(tetrahedra))
    edges = [(i, Segment4(u, v)) for i, t in tets for (u, v) in tetra_edges(t)]
    faces = [(i, Triangle4(*f)) for i, t in tets for f in tetra_facets(t)]
    found = {}
    for setup, inputs, queries, kind in ((rt.SETUP_SEG_TETRA, tets, edges, "EDGE_TETRA"),
                                         (rt.SETUP_TRI_TRI, faces, faces, "FACE_FACE")):
        if not inputs:
            continue
        n, m = len(inputs), len(queries)
        st = rt.build([x for _o, x in inputs], setup,
                      rt.StorageBudget(n, rt.batched_storage_parameter(m, n)))
        rep, _total, _per = rt.query_batch(st, [q for _o, q in queries], QueryMode.REPORT)
        for (qi, xj, w) in rep.pairs:
            i, j = queries[qi][0], inputs[xj][0]
            key = (min(i, j), max(i, j))
            if i != j and key not in found:
                found[key] = PairWitness(key, _canon_point(w), kind)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# the contact of two tetrahedra by candidate enumeration: the reference that
# arrangement._contact's section and clip is checked against.  Its in-plane
# clips and memberships read a det5h basis, not TetraPre's facet forms.


def _lerp(u, v, t):
    return Point4(*(Fraction(u[i] + t * (v[i] - u[i])) for i in range(4)))


def _basis_forms(o, d, pre: TetraPre):
    """The four vertex coordinates of o + tau d as forms (c0, c1) in tau,
    from the det5h basis (v0..v3, apex); o and d in the hyperplane."""
    v = pre.tet.vertices
    rows = [q + (1,) for q in v] + [tuple(v[0][i] + pre.n[i] for i in range(4)) + (1,)]
    sd = _sign(det5h(*rows))
    r = _integral((*o, 1, *d, 0))
    orow, drow = r[:5], r[5:]
    return [(sd * det5h(*rows[:i], orow, *rows[i + 1:]),
             sd * det5h(*rows[:i], drow, *rows[i + 1:])) for i in range(4)]


def _edge_piece(u, v, pre: TetraPre):
    """The ends of edge (u, v) clipped to pre's closed tetrahedron."""
    va = _dot(pre.n, u) - pre.c
    vb = _dot(pre.n, v) - pre.c
    if va == 0 and vb == 0:
        clip = _clip(_basis_forms(u, _sub(v, u), pre), Fraction(0), Fraction(1))
        return [] if clip is None else [_lerp(u, v, t) for t in clip]
    if _sign(va) == _sign(vb):
        return []
    p = _lerp(u, v, Fraction(va) / (va - vb))
    s = bary_signs(pre, p)
    return [p] if s[4] == 0 and min(s[:4]) >= 0 else []


def hull2_reference(pts, chart):
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


def contact_reference(ti: Tetrahedron4, tj: Tetrahedron4):
    """The vertices of ti ^ tj in arrangement._contact's order, or None when
    both lie in one hyperplane.  Every vertex of ti ^ tj is an edge of one
    tetrahedron clipped to the other, or the one point where two 2-faces in
    general position meet, so the candidates are the edge clips and the 16
    face-pair points, and the vertices are their extreme points."""
    pre_i, pre_j = TetraPre(ti), TetraPre(tj)
    minor = _chart2(pre_i.n, pre_j.n)
    if minor is None:
        return None if _dot(pre_i.n, tj.v0) == pre_i.c else []
    chart = tuple(k for k in range(4) if k not in minor)
    pts = {}
    for t, pre_other in ((ti, pre_j), (tj, pre_i)):
        for (u, v) in tetra_edges(t):
            for p in _edge_piece(u, v, pre_other):
                pts[tuple(p)] = p
    faces_j = [Triangle4(*f) for f in tetra_facets(tj)]
    for f in tetra_facets(ti):
        for fj in faces_j:
            try:
                w = tri_tri_direct(Triangle4(*f), fj)
            except DegeneratePosition:
                # the face planes meet at most in a line of the common
                # 2-plane, whose ends are ends of clipped edges
                continue
            if w is not None:
                w = Point4(*map(Fraction, w))
                pts[tuple(w)] = w
    return hull2_reference(list(pts.values()), chart)


def tetra_tetra_reference(t1: Tetrahedron4, t2: Tetrahedron4, pre1=None, pre2=None):
    """kernel4d.tetra_tetra_intersect as it was before its hyperplane-side
    reject: vertex containment, then edge-vs-body, then 2-face-vs-2-face,
    with the first witness found returned."""
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
# continuous collision detection by the paper's lifting: the reference that
# tet4d.ccd's swept separating-axis test is checked against.  It shares the
# 4D kernel predicates with the package, but nothing of the CCD pair test.

_SIDE_ORDER = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class LiftedPrism:
    """Lifted prism of a moving tetrahedron, time as the fourth coordinate:
    8 vertices, 14 facet tetrahedra (2 caps + 3 per triangulated side
    prism), the unique 2-faces and edges of those facet tetrahedra, and 6
    outward facet hyperplanes."""

    def __init__(self, mt):
        self.mt = mt
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

        tris, edges = {}, {}
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
        self.tri_pres = tuple(TrianglePre(t) for t in self.triangles)

        planes = [((0, 0, 0, -1), -mt.t0), ((0, 0, 0, 1), mt.t1)]
        for m, side in enumerate(_SIDE_ORDER):
            i, j, k = side
            n, c = tetra_plane(Tetrahedron4(lo[i], lo[j], lo[k], hi[i]))
            s = _dot(n, lo[m]) - c
            assert s != 0
            if s > 0:
                n, c = tuple(-x for x in n), -c
            planes.append((n, c))
        self.hyperplanes = tuple(planes)
        self.bbox = _box4(self.vertices)
        self.tet_boxes = tuple(_box4(t.vertices) for t in self.facet_tets)
        self.tri_boxes = tuple(_box4(t.vertices) for t in self.triangles)
        self.edge_boxes = tuple(_box4((e.a, e.b)) for e in self.edges)

    def contains(self, p) -> bool:
        return all(_dot(n, p) - c <= 0 for n, c in self.hyperplanes)


def _box4(points):
    return tuple((min(p[d] for p in points), max(p[d] for p in points)) for d in range(4))


def _boxes_apart(b1, b2) -> bool:
    return any(h1 < l2 or h2 < l1 for (l1, h1), (l2, h2) in zip(b1, b2))


def lifted_prism_meet(pa, pb):
    """A common point of two lifted prisms, or None: vertex containment,
    then every edge of one against every facet tetrahedron of the other,
    then every triangle pair, each pair of features skipped when their
    boxes are apart.  Complete for closed convex polytopes."""
    if _boxes_apart(pa.bbox, pb.bbox):
        return None
    for (p, q) in ((pa, pb), (pb, pa)):
        for n, c in p.hyperplanes:
            if all(_dot(n, v) - c > 0 for v in q.vertices):
                return None
    for (p, q) in ((pa, pb), (pb, pa)):
        for v in p.vertices:
            if q.contains(v):
                return Point4(*v)
    for (p, q) in ((pa, pb), (pb, pa)):
        for e, eb in zip(p.edges, p.edge_boxes):
            for t, pre, tb in zip(q.facet_tets, q.facet_pres, q.tet_boxes):
                if not _boxes_apart(eb, tb) and seg_tetra_hit(e, t, pre):
                    return segment_tetra_direct(e, t, pre)
    for ta, pra, ba in zip(pa.triangles, pa.tri_pres, pa.tri_boxes):
        for tb, prb, bb in zip(pb.triangles, pb.tri_pres, pb.tri_boxes):
            if not _boxes_apart(ba, bb) and tri_tri_hit(ta, tb, pra, prb):
                return tri_tri_any(ta, tb)
    return None


def lifted_pairs(scene):
    """Pairs (i, j), i < j, of moving tetrahedra whose lifted prisms meet."""
    prisms = [LiftedPrism(mt) for mt in scene]
    return [(i, j) for i in range(len(prisms)) for j in range(i + 1, len(prisms))
            if lifted_prism_meet(prisms[i], prisms[j]) is not None]


def at_time(mt, t):
    """Vertices of the moving tetrahedron mt's instantaneous tetrahedron at
    time t."""
    return tuple(tuple(mt.vertices[i][k] + t * mt.velocity[k] for k in range(3))
                 for i in range(4))


def contains_at(mt, p3, t) -> bool:
    """Exact 3D membership of p3 in the moving tetrahedron mt at time t."""
    if not (mt.t0 <= t <= mt.t1):
        return False
    q = tuple(p3[k] - t * mt.velocity[k] for k in range(3))
    v = mt.vertices
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


def collision_verified_at(scene, i: int, j: int, t) -> bool:
    """Instantaneous check: do tetrahedra i and j intersect at time t?
    Embeds both instantaneous tetrahedra in the hyperplane w = 0 and runs
    the exact 4D tetra-tetra test."""
    va = at_time(scene[i], t)
    vb = at_time(scene[j], t)
    ta = Tetrahedron4(*(Point4(*v, 0) for v in va))
    tb = Tetrahedron4(*(Point4(*v, 0) for v in vb))
    return tetra_tetra_intersect(ta, tb) is not None


# ---------------------------------------------------------------------------
# the swept separating-axis pair test as it was before tet4d.ccd ran it in
# integers: the box of the 8 end vertices, the axes as a generator of
# (gap lo, gap hi, d) triples, and the contact point by Fraction clips.  The
# pair test must return exactly this, typed per coordinate.

_SAT_FACES = ((1, 2, 3, 0), (0, 2, 3, 1), (0, 1, 3, 2), (0, 1, 2, 3))
_SAT_EDGES = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def swept_box_reference(mt):
    """The closed box (lo x, y, z, t, hi x, y, z, t) of the 8 end vertices
    of a moving tetrahedron's lifted prism."""
    vs = [tuple(as_exact(c) for c in v) for v in mt.vertices]
    u = [as_exact(c) for c in mt.velocity]
    ends = [tuple(as_exact(v[k] + t * u[k]) for k in range(3)) + (as_exact(t),)
            for t in (Fraction(mt.t0), Fraction(mt.t1)) for v in vs]
    return (tuple(min(p[d] for p in ends) for d in range(4))
            + tuple(max(p[d] for p in ends) for d in range(4)))


class _SatPrism:
    def __init__(self, mt):
        vs = tuple(tuple(as_exact(c) for c in v) for v in mt.vertices)
        u = tuple(as_exact(c) for c in mt.velocity)
        t0, t1 = Fraction(mt.t0), Fraction(mt.t1)
        self.verts, self.vel = vs, u
        self.window = (t0.numerator, t0.denominator, t1.numerator, t1.denominator)
        self.bbox = swept_box_reference(mt)
        faces = []
        for i, j, k, m in _SAT_FACES:
            a = vs[i]
            n = _cross3(_sub3(vs[j], a), _sub3(vs[k], a))
            if _dot3(n, _sub3(vs[m], a)) > 0:
                n = (-n[0], -n[1], -n[2])
            faces.append(n + (_dot3(n, vs[m]), _dot3(n, a), _dot3(n, u)))
        self.faces = tuple(faces)
        self.edges = tuple(
            (e, _cross3(vs[i], e), _cross3(vs[k], e), _cross3(vs[m], e), _cross3(u, e))
            for i, j, k, m in _SAT_EDGES for e in (_sub3(vs[j], vs[i]),))


def _sat_axis_gaps(pa, pb):
    (a0, a1, a2), (b0, b1, b2) = pa.vel, pb.vel
    qs = pb.verts
    for n0, n1, n2, lo, hi, nu in pa.faces:
        x = [n0 * q[0] + n1 * q[1] + n2 * q[2] for q in qs]
        yield min(x) - hi, max(x) - lo, nu - (n0 * b0 + n1 * b1 + n2 * b2)
    ps = pa.verts
    for n0, n1, n2, lo, hi, nu in pb.faces:
        x = [n0 * p[0] + n1 * p[1] + n2 * p[2] for p in ps]
        yield lo - max(x), hi - min(x), n0 * a0 + n1 * a1 + n2 * a2 - nu
    for e, ca, ck, cm, cu in pa.edges:
        for f, da, dk, dm, du in pb.edges:
            xa = [_dot3(f, c) for c in (ca, ck, cm)]
            xb = [_dot3(e, c) for c in (da, dk, dm)]
            yield -max(xb) - max(xa), -min(xb) - min(xa), _dot3(f, cu) + _dot3(e, du)


def _sat_contact_point(pa, pb, tn, td):
    scaled = [[tuple(td * v[k] + tn * p.vel[k] for k in range(3)) for v in p.verts]
              for p in (pa, pb)]
    for (src, dst) in ((0, 1), (1, 0)):
        vs, other = scaled[src], (pa, pb)[dst]
        planes = [(f[:3], td * f[4] + tn * f[5]) for f in other.faces]
        for i, j, _k, _m in _SAT_EDGES:
            p, q = vs[i], vs[j]
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


def swept_sat_reference(mt_a, mt_b):
    """The point (x, y, z, t*) of first contact of two moving tetrahedra, or
    None, as tet4d.ccd.prism_pair_intersect must return it."""
    pa, pb = _SatPrism(mt_a), _SatPrism(mt_b)
    a, b = pa.bbox, pb.bbox
    if any(a[4 + d] < b[d] or b[4 + d] < a[d] for d in range(4)):
        return None
    an0, ad0, an1, ad1 = pa.window
    bn0, bd0, bn1, bd1 = pb.window
    ln, ld = (an0, ad0) if an0 * bd0 >= bn0 * ad0 else (bn0, bd0)
    hn, hd = (an1, ad1) if an1 * bd1 <= bn1 * ad1 else (bn1, bd1)
    for glo, ghi, d in _sat_axis_gaps(pa, pb):
        if d > 0:
            if glo * ld > ln * d:
                ln, ld = glo, d
            if ghi * hd < hn * d:
                hn, hd = ghi, d
        elif d < 0:
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
    return _sat_contact_point(pa, pb, ln, ld)
