import random
from fractions import Fraction

import pytest

from conftest import cluster_tetra, rnd_flat, rnd_point, rnd_segment, rnd_tetra, rnd_triangle
from tet4d import rangetree as rt
from tet4d.kernel4d import (
    BudgetOutOfRange,
    DegenerateDirection,
    DegenerateTetrahedron,
    Point4,
    Segment4,
    Tetrahedron4,
    Triangle4,
    line_param,
    tetra_facets,
    tetra_plane,
    twoplane_param,
)
from tet4d.oracle import (
    QueryMode,
    line_2flat_query,
    seg_tetra_query,
    tetra_seg_query,
    tri_tri_query,
)
from tet4d.rangetree import (
    CROSSING,
    INSIDE,
    OUTSIDE,
    StorageBudget,
    batched_storage_parameter,
)

F = Fraction
SIGMAS = (1, F(3, 2), 2, 3, 6)
MODES = (QueryMode.DETECT, QueryMode.COUNT, QueryMode.REPORT)


class TestStorageBudget:
    def test_leaf_cutoff_pinned_value(self):
        # 4096^{6/5} / (4096^2)^{1/5} = 4096^{4/5} = 2^{48/5}; ceil is 777
        assert StorageBudget(4096, 4096 ** 2).leaf_cutoff == 777

    def test_extremes(self):
        assert StorageBudget(100, 100).leaf_cutoff == 100
        assert StorageBudget(100, 100 ** 6).leaf_cutoff == 1

    def test_out_of_range(self):
        with pytest.raises(BudgetOutOfRange):
            StorageBudget(10, 9)
        with pytest.raises(BudgetOutOfRange):
            StorageBudget(10, 10 ** 6 + 1)
        with pytest.raises(BudgetOutOfRange):
            StorageBudget.from_sigma(10, 7)

    def test_cutoff_non_increasing_in_s(self):
        n = 321
        cuts = [StorageBudget.from_sigma(n, sg).leaf_cutoff for sg in SIGMAS]
        assert cuts == sorted(cuts, reverse=True)
        assert all(1 <= c <= n for c in cuts)

    def test_from_sigma_endpoints(self):
        assert StorageBudget.from_sigma(50, 1).s == 50
        assert StorageBudget.from_sigma(50, 6).s == 50 ** 6

    def test_from_sigma_large_exponent(self):
        # 100^2001 has no float value; the root stays in integers
        assert StorageBudget.from_sigma(100, F("2.001")).s == 10046

    def test_iroot_exact(self):
        for k in range(1, 8):
            for x in list(range(300)) + [10 ** 30 + 7, 2 ** 200 - 1, 2 ** 200]:
                r = rt._iroot(x, k)
                assert r ** k <= x < (r + 1) ** k, (x, k)
        assert rt._iroot(10 ** 4002, 1000) == 10046


def _equiv_trial(rng, setup, make_inputs, make_queries, oracle_fn, trial):
    n = rng.randint(1, 35)
    m = rng.randint(1, 20)
    inputs = make_inputs(rng, n)
    queries = make_queries(rng, m)
    sigma = SIGMAS[trial % len(SIGMAS)]
    mode = MODES[trial % len(MODES)]
    sin, sq, _salt = rt.prepare_scene(setup, inputs, queries)
    st = rt.build(sin, setup, StorageBudget.from_sigma(n, sigma))
    rep, stats, _per = rt.query_batch(st, sq, mode)
    assert rep == oracle_fn(sq, sin, mode), (setup, trial, sigma, mode)


class TestOracleEquivalence:
    def test_setup_i(self, rng):
        for trial in range(15):
            _equiv_trial(rng, rt.SETUP_SEG_TETRA,
                         lambda r, n: [rnd_tetra(r, 6, 7) for _ in range(n)],
                         lambda r, m: [rnd_segment(r, 6, 7) for _ in range(m)],
                         lambda q, i, md: seg_tetra_query(q, i, md), trial)

    def test_setup_ii(self, rng):
        for trial in range(15):
            _equiv_trial(rng, rt.SETUP_TRI_TRI,
                         lambda r, n: [rnd_triangle(r, 6, 7) for _ in range(n)],
                         lambda r, m: [rnd_triangle(r, 6, 7) for _ in range(m)],
                         lambda q, i, md: tri_tri_query(q, i, md), trial)

    def test_setup_iii(self, rng):
        for trial in range(15):
            _equiv_trial(rng, rt.SETUP_TETRA_SEG,
                         lambda r, n: [rnd_segment(r, 6, 7) for _ in range(n)],
                         lambda r, m: [rnd_tetra(r, 6, 7) for _ in range(m)],
                         lambda q, i, md: tetra_seg_query(q, i, md), trial)

    def test_line_flat(self, rng):
        for trial in range(10):
            n, m = rng.randint(1, 20), rng.randint(1, 10)
            flats = [rnd_flat(rng, 6, 6) for _ in range(n)]
            lines = []
            for k in range(m):
                if k % 2 == 0:
                    f = flats[k % n]
                    p = Point4(*(f[0][i] + (f[2][i] - f[0][i]) for i in range(4)))
                    d = rnd_point(rng, 4)
                    if all(c == 0 for c in d):
                        d = Point4(0, 1, 0, 0)
                    lines.append(Segment4(p, Point4(*(p[i] + d[i] for i in range(4)))))
                else:
                    lines.append(rnd_segment(rng, 6, 6))
            sin, sq, _ = rt.prepare_scene(rt.SETUP_LINE_2FLAT, flats, lines)
            st = rt.build(sin, rt.SETUP_LINE_2FLAT, StorageBudget.from_sigma(n, SIGMAS[trial % 5]))
            rep, _, _ = rt.query_batch(st, sq, MODES[trial % 3])
            assert rep == line_2flat_query(sq, sin, MODES[trial % 3])

    def test_empty_structure(self):
        st = rt.build([], rt.SETUP_SEG_TETRA, StorageBudget(0, 1))
        rep, stats = rt.query(st, Segment4(Point4(0, 0, 0, 0), Point4(1, 1, 1, 1)),
                              QueryMode.COUNT)
        assert rep.count == 0

    def test_single_object_single_leaf(self, rng):
        t = rnd_tetra(rng)
        st = rt.build([t], rt.SETUP_SEG_TETRA, StorageBudget(1, 1))
        assert st.root_tree.root.is_leaf
        assert st.root_tree.root.items == (0,)

    def test_s_extremes_identical_reports(self, rng):
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA,
            [rnd_tetra(rng, 6, 7) for _ in range(25)],
            [rnd_segment(rng, 6, 7) for _ in range(25)])
        n = len(tets)
        st1 = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget(n, n))
        st2 = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget(n, n ** 6))
        r1, s1, _ = rt.query_batch(st1, segs, QueryMode.REPORT)
        r2, s2, _ = rt.query_batch(st2, segs, QueryMode.REPORT)
        assert r1 == r2
        assert (s1.nodes_visited, s1.leaf_items_scanned) != (s2.nodes_visited, s2.leaf_items_scanned)


class TestCanonicalSets:
    def test_disjoint_union_per_query(self, rng):
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA,
            [rnd_tetra(rng, 6, 8) for _ in range(30)],
            [rnd_segment(rng, 6, 8) for _ in range(20)])
        st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(30, 4))
        oracle = seg_tetra_query(segs, tets, QueryMode.REPORT)
        by_query = {}
        for (i, j, _w) in oracle.pairs:
            by_query.setdefault(i, set()).add(j)
        for qi, seg in enumerate(segs):
            audit = {}
            rep, _ = rt.query(st, seg, QueryMode.REPORT, audit=audit)
            got = [j for (_z, j, _w) in rep.pairs]
            # no object is delivered twice, and the union equals the oracle set
            assert len(got) == len(set(got))
            assert set(got) == by_query.get(qi, set())
            absorbed = [j for s in audit.get("canonical", []) for j in s]
            resolved = audit.get("resolved", [])
            assert sorted(absorbed + resolved) == sorted(got)

    def test_leaf_bound_respected(self, rng):
        tets, _, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA, [rnd_tetra(rng, 6, 8) for _ in range(40)], [])
        budget = StorageBudget.from_sigma(40, 2)
        st = rt.build(tets, rt.SETUP_SEG_TETRA, budget)

        def walk(node):
            if node.is_leaf:
                # splittable leaves respect the cutoff; only all-identical
                # point sets may exceed it
                pts = {st.points[0][i] for i in node.items}
                assert len(node.items) <= budget.leaf_cutoff or len(pts) == 1
            else:
                for ch in node.children:
                    walk(ch)

        walk(st.root_tree.root)


class TestDeterminism:
    def test_same_build_same_fingerprint(self, rng):
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA,
            [rnd_tetra(rng, 6, 7) for _ in range(20)],
            [rnd_segment(rng, 6, 7) for _ in range(10)])
        reports = []
        stats = []
        fps = []
        for _rep in range(2):
            st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(20, 3))
            rep, agg, per = rt.query_batch(st, segs, QueryMode.REPORT)
            reports.append(rep)
            stats.append([(q.nodes_visited, q.canonical_sets_touched,
                           q.leaf_items_scanned, q.exact_predicate_calls) for q in per])
            fps.append(st.fingerprint())
        assert reports[0] == reports[1]
        assert stats[0] == stats[1]
        assert fps[0] == fps[1]


ALL_SETUPS = (rt.SETUP_SEG_TETRA, rt.SETUP_TRI_TRI, rt.SETUP_TETRA_SEG, rt.SETUP_LINE_2FLAT)
_MAKERS = {
    rt.SETUP_SEG_TETRA: (rnd_tetra, rnd_segment),
    rt.SETUP_TRI_TRI: (rnd_triangle, rnd_triangle),
    rt.SETUP_TETRA_SEG: (rnd_segment, rnd_tetra),
    rt.SETUP_LINE_2FLAT: (rnd_flat, rnd_segment),
}


def _scene(rng, setup, n, m, crange=6, spread=7):
    make_input, make_query = _MAKERS[setup]
    return ([make_input(rng, crange, spread) for _ in range(n)],
            [make_query(rng, crange, spread) for _ in range(m)])


def _value(form, x):
    return sum(c * v for c, v in zip(form, x))


def _level_trees(st):
    """One tree per level over every object, all of whose nodes are walked."""
    return [rt._Tree(st, level, tuple(range(st.n))) for level in range(len(st.levels))]


def _nodes(node):
    yield node
    for ch in node.children or ():
        yield from _nodes(ch)


def _expected_class(signs, target):
    """The classification a box holding exactly these signs must get."""
    if target == 0:
        return OUTSIDE if 0 not in signs and len(signs) == 1 else CROSSING
    if signs == {target}:
        return INSIDE
    if signs == {-target}:
        return OUTSIDE
    return CROSSING


class TestClassifyBox:
    """Every level is a linear form over an integer box, so its range is
    exact: both ends are values at corners, and nothing else is needed."""

    def test_linear_box_inside(self, rng):
        # a point box takes the sign that sigma gives the object
        for setup in ALL_SETUPS:
            inputs, queries = _scene(rng, setup, 8, 4)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(8, 2))
            for q in queries:
                ctx = st.setup.make_ctx(q)
                for j in range(st.n):
                    sig = st.setup.sigma(ctx, j)
                    for level, spec in enumerate(st.levels):
                        pt = st.points[level][j]
                        assert len(pt) == spec.dim
                        assert all(type(c) is int for c in pt)
                        lo, hi = rt._form_range(ctx.forms[level], pt, pt)
                        assert lo == hi == _value(ctx.forms[level], pt)
                        s = (lo > 0) - (lo < 0)
                        if level < len(sig):
                            assert sig[level] == s, (setup, level)
                        for target in {p[spec.group] * spec.role for p in st.setup.passes}:
                            assert rt._classify(lo, hi, target) == _expected_class({s}, target)

    def test_root_box_crossing_when_mixed(self, rng):
        for setup in ALL_SETUPS:
            inputs, queries = _scene(rng, setup, 30, 3, 8, 8)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(30, 2))
            mixed = 0
            for q in queries:
                ctx = st.setup.make_ctx(q)
                for level, tree in enumerate(_level_trees(st)):
                    form = ctx.forms[level]
                    vals = [_value(form, st.points[level][j]) for j in range(st.n)]
                    lo, hi = rt._form_range(form, tree.root.box_lo, tree.root.box_hi)
                    assert lo <= min(vals) and max(vals) <= hi
                    if min(vals) < 0 < max(vals):
                        mixed += 1
                        for target in (1, -1, 0):
                            assert rt._classify(lo, hi, target) == CROSSING
            assert mixed > 0, setup

    def test_conservative_on_random_boxes(self, rng):
        # INSIDE and OUTSIDE nodes agree with the form's sign at every corner
        # and at random interior points, integer and rational; the range ends
        # are the values at the extreme corners
        checked = 0
        for setup in ALL_SETUPS:
            inputs, queries = _scene(rng, setup, 12, 3)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(12, 6))
            for q in queries:
                ctx = st.setup.make_ctx(q)
                for level, tree in enumerate(_level_trees(st)):
                    form = ctx.forms[level]
                    for node in _nodes(tree.root):
                        box = list(zip(node.box_lo, node.box_hi))
                        lo, hi = rt._form_range(form, node.box_lo, node.box_hi)
                        low_corner = [b[0] if c > 0 else b[1] for c, b in zip(form, box)]
                        high_corner = [b[1] if c > 0 else b[0] for c, b in zip(form, box)]
                        assert (lo, hi) == (_value(form, low_corner), _value(form, high_corner))
                        samples = [low_corner, high_corner]
                        samples += [[rng.choice(b) for b in box] for _ in range(24)]
                        samples += [[rng.randint(*b) for b in box] for _ in range(6)]
                        samples += [[b[0] + (b[1] - b[0]) * F(rng.randint(0, 8), 8) for b in box]
                                    for _ in range(6)]
                        signs = {(v > 0) - (v < 0) for v in (_value(form, x) for x in samples)}
                        for target in (1, -1, 0):
                            cls = rt._classify(lo, hi, target)
                            if cls == CROSSING:
                                continue
                            checked += 1
                            if cls == INSIDE:
                                assert signs == {target}
                            elif target == 0:
                                assert 0 not in signs and len(signs) == 1
                            else:
                                assert signs == {-target}
        assert checked > 100


class TestBatched:
    def test_storage_choice(self):
        # m = n gives s = n^{12/7} before clamping
        n = 2 ** 14
        assert batched_storage_parameter(n, n) == rt._iroot(n ** 12, 7)

    def test_batched_tri_tri_single_pair(self):
        from test_kernel4d import SPEC_T1, SPEC_T2

        rep, _stats = rt._batched(rt.SETUP_TRI_TRI, [SPEC_T2], [SPEC_T1], QueryMode.REPORT)
        assert rep.count == 1

    def test_batched_tri_tri_matches_oracle(self, rng):
        red = [rnd_triangle(rng, 6, 7) for _ in range(40)]
        blue = [rnd_triangle(rng, 6, 7) for _ in range(40)]
        rep, _stats = rt._batched(rt.SETUP_TRI_TRI, blue, red, QueryMode.REPORT)
        assert rep == tri_tri_query(red, blue, QueryMode.REPORT)

    def test_batched_seg_tetra_matches_oracle(self, rng):
        segs = [rnd_segment(rng, 6, 7) for _ in range(30)]
        tets = [rnd_tetra(rng, 6, 7) for _ in range(30)]
        rep, _stats = rt._batched(rt.SETUP_SEG_TETRA, tets, segs, QueryMode.COUNT)
        assert rep.count == seg_tetra_query(segs, tets, QueryMode.COUNT).count


class TestStatsMonotonicity:
    def test_leaf_items_non_increasing_in_s(self, rng):
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA,
            [rnd_tetra(rng, 6, 7) for _ in range(40)],
            [rnd_segment(rng, 6, 7) for _ in range(20)])
        scans = []
        for sg in SIGMAS:
            st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(40, sg))
            _rep, stats, _ = rt.query_batch(st, segs, QueryMode.COUNT)
            scans.append(stats.leaf_items_scanned)
        assert scans == sorted(scans, reverse=True)


def _affine(base, dirs, coeffs):
    return Point4(*(base[c] + sum(k * (d[c] - base[c]) for k, d in zip(coeffs, dirs))
                    for c in range(4)))


def _degenerate_scene(rng, n_tets=10, n_segs=36):
    """Tetrahedra that share vertices, and segments in the layouts a random
    scene almost never holds: an endpoint on a tetrahedron's hyperplane or
    at a vertex, the whole segment inside a facet 2-plane or along an edge,
    and constant w."""
    tets = []
    while len(tets) < n_tets:
        vs = list(rnd_tetra(rng, 5, 6).vertices)
        if tets and rng.random() < 0.6:
            donor = rng.choice(tets).vertices
            for i in rng.sample(range(4), rng.randint(1, 3)):
                vs[i] = donor[rng.randrange(4)]
        try:
            tets.append(Tetrahedron4(*vs))
        except DegenerateTetrahedron:
            continue
    segs = []
    while len(segs) < n_segs:
        t = rng.choice(tets)
        v = t.vertices
        kind = len(segs) % 6
        other = rnd_point(rng, 8)
        k = [rng.randint(-2, 2) for _ in range(3)]
        if kind == 0:      # one endpoint on the hyperplane, maybe outside t
            a, b = _affine(v[0], v[1:], k), other
        elif kind == 1:    # one endpoint at a vertex
            a, b = v[rng.randrange(4)], other
        elif kind == 2:    # inside a facet 2-plane
            f = rng.choice(tetra_facets(t))
            a = _affine(f[0], f[1:], k[:2])
            b = _affine(f[0], f[1:], (k[2], rng.randint(-2, 2)))
        elif kind == 3:    # along an edge, or a whole edge
            i, j = rng.sample(range(4), 2)
            a, b = v[i], _affine(v[i], (v[j],), (rng.choice((1, 2, -1)),))
        elif kind == 4:    # constant w
            a, b = other, Point4(*rnd_point(rng, 8)[:3], other.w)
        else:              # both endpoints on the hyperplane
            a = _affine(v[0], v[1:], k)
            b = _affine(v[0], v[1:], [rng.randint(-2, 2) for _ in range(3)])
        if tuple(a) != tuple(b):
            segs.append(Segment4(a, b))
    return tets, segs


class TestDegenerateLeaves:
    """Structure == oracle on scenes full of zero signs; the oracle evaluates
    orient5 directly, the structure through Plücker/dual dot products."""

    @pytest.mark.parametrize("seed", range(4))
    def test_setup_i(self, seed):
        tets, segs = _degenerate_scene(random.Random(seed))
        sin, sq, _salt = rt.prepare_scene(rt.SETUP_SEG_TETRA, tets, segs)
        for sigma in (1, 2, 6):
            st = rt.build(sin, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(len(sin), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, sq, mode)
                assert rep == seg_tetra_query(sq, sin, mode), (seed, sigma, mode)

    @pytest.mark.parametrize("seed", range(4))
    def test_setup_iii(self, seed):
        tets, segs = _degenerate_scene(random.Random(100 + seed))
        sin, sq, _salt = rt.prepare_scene(rt.SETUP_TETRA_SEG, segs, tets)
        for sigma in (1, 2, 6):
            st = rt.build(sin, rt.SETUP_TETRA_SEG, StorageBudget.from_sigma(len(sin), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, sq, mode)
                assert rep == tetra_seg_query(sq, sin, mode), (seed, sigma, mode)

    def test_scene_has_the_degenerate_layouts(self):
        tets, segs = _degenerate_scene(random.Random(0))
        sides = [_endpoint_sides(t, e) for t in tets for e in segs]
        assert sum(sa == 0 or sb == 0 for sa, sb in sides) > len(segs)
        assert any(sa == sb == 0 for sa, sb in sides)
        assert any(e.a.w == e.b.w for e in segs)


def _endpoint_sides(tet, seg):
    """n . a - c and n . b - c for the tetrahedron's integer hyperplane."""
    n, c = tetra_plane(tet)
    return (sum(x * y for x, y in zip(n, seg.a)) - c,
            sum(x * y for x, y in zip(n, seg.b)) - c)


@pytest.mark.parametrize("setup", (rt.SETUP_SEG_TETRA, rt.SETUP_TETRA_SEG))
def test_facet_tests_only_for_straddling_pairs(monkeypatch, setup):
    # at sigma = 2 every pair reaches a leaf once; only pairs whose endpoints
    # are not strictly on one side of the hyperplane pay four dot products
    rng = random.Random(7)
    tets = [rnd_tetra(rng, 8, 8) for _ in range(40)]
    segs = [rnd_segment(rng, 8, 8) for _ in range(30)]
    seg_tetra = setup == rt.SETUP_SEG_TETRA
    sin, sq = (tets, segs) if seg_tetra else (segs, tets)
    st = rt.build(sin, setup, StorageBudget.from_sigma(len(sin), 2))
    calls = []
    facet_sign = rt._facet_sign
    monkeypatch.setattr(rt, "_facet_sign", lambda p, d: calls.append(1) or facet_sign(p, d))
    _rep, stats, _per = rt.query_batch(st, sq, QueryMode.COUNT)
    assert stats.leaf_items_scanned == len(sin) * len(sq)
    straddling = sum(sa * sb <= 0 for t in tets for e in segs
                     for sa, sb in [_endpoint_sides(t, e)])
    assert 0 < straddling < len(sin) * len(sq)
    assert len(calls) == 4 * straddling


def _xy_triangle(rng, kind, crange=3):
    """A triangle whose 2-plane projects to a point (kind 0) or to a line
    (kind 1) in the (x, y) coordinates."""
    while True:
        x0, y0 = rng.randint(-crange, crange), rng.randint(-crange, crange)
        u, v = (0, 0) if kind == 0 else rng.choice(((1, 0), (0, 1), (1, 1), (2, -1)))
        pts = []
        for _ in range(3):
            t = rng.randint(-2, 2)
            pts.append(Point4(x0 + t * u, y0 + t * v,
                              rng.randint(-crange, crange), rng.randint(-crange, crange)))
        try:
            return Triangle4(*pts)
        except ValueError:
            continue


def _xy_tetra(rng, crange=3):
    """A tetrahedron with a facet from ``_xy_triangle``."""
    while True:
        f = _xy_triangle(rng, rng.randrange(2), crange)
        try:
            return Tetrahedron4(*f.vertices, rnd_point(rng, crange))
        except DegenerateTetrahedron:
            continue


def _flat_w_segment(rng, through, crange=3):
    """A constant-w segment through the point `through` (or a random one)."""
    while True:
        p = through if through is not None else rnd_point(rng, crange)
        d = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2), 0)
        if any(d):
            return Segment4(Point4(*(p[i] - d[i] for i in range(4))),
                            Point4(*(p[i] + d[i] for i in range(4))))


def _centroid(points):
    return Point4(*(F(sum(p[i] for p in points), len(points)) for i in range(4)))


def _direction_scene(rng, n=12, m=12):
    """Tetrahedra, triangles and flats whose 2-planes project to a line or a
    point in (x, y), and constant-w segments through them: the layouts
    that anchor parametrizations reject."""
    tets = [_xy_tetra(rng) for _ in range(n)]
    tris = [_xy_triangle(rng, k % 2) for k in range(n)]
    segs = [_flat_w_segment(rng, _centroid(rng.choice(tets).vertices) if k % 3 else None)
            for k in range(m)]
    for t in tets + tris:
        with pytest.raises(DegenerateDirection):
            twoplane_param(*(tetra_facets(t)[3] if isinstance(t, Tetrahedron4) else t.vertices))
    for s in segs:
        with pytest.raises(DegenerateDirection):
            line_param(s)
    return tets, tris, segs


class TestDegenerateDirections:
    """Structure == oracle, in every mode, on the layouts that used to need
    a shear; the scenes are built directly, with no preparation step."""

    def _check(self, setup, inputs, queries, oracle_fn):
        assert rt.prepare_scene(setup, inputs, queries) == (inputs, queries, 0)
        hits = 0
        for sigma in (1, 2, 6):
            st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, queries, mode)
                assert rep == oracle_fn(queries, inputs, mode), (setup, sigma, mode)
                hits = max(hits, rep.count)
        assert hits > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_setup_i_flat_w_queries(self, seed):
        tets, _tris, segs = _direction_scene(random.Random(seed))
        self._check(rt.SETUP_SEG_TETRA, tets, segs, seg_tetra_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_setup_iii_flat_w_inputs(self, seed):
        tets, _tris, segs = _direction_scene(random.Random(10 + seed))
        self._check(rt.SETUP_TETRA_SEG, segs, tets, tetra_seg_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_setup_ii_xy_degenerate_planes(self, seed):
        rng = random.Random(20 + seed)
        _tets, blue, _segs = _direction_scene(rng)
        red = [_xy_triangle(rng, k % 2) for k in range(8)]
        while len(red) < 14:
            # through a blue centroid, so that some pairs meet
            g = _centroid(rng.choice(blue).vertices)
            try:
                red.append(Triangle4(g, rnd_point(rng, 3), rnd_point(rng, 3)))
            except ValueError:
                continue
        self._check(rt.SETUP_TRI_TRI, blue, red, tri_tri_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_line_flat_xy_degenerate_flats(self, seed):
        rng = random.Random(30 + seed)
        _tets, tris, segs = _direction_scene(rng)
        flats = [t.vertices for t in tris]
        lines = segs + [_flat_w_segment(rng, _centroid(rng.choice(flats))) for _ in range(6)]
        self._check(rt.SETUP_LINE_2FLAT, flats, lines, line_2flat_query)
