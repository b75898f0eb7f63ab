import random
from fractions import Fraction

import pytest

from conftest import cluster_tetra, rnd_flat, rnd_point, rnd_segment, rnd_tetra, rnd_triangle
from tet4d import rangetree as rt
from tet4d.kernel4d import (
    BudgetOutOfRange,
    DegenerateTetrahedron,
    Point4,
    Segment4,
    Tetrahedron4,
    tetra_facets,
    tetra_plane,
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
    batched_seg_tetra,
    batched_storage_parameter,
    batched_tri_tri,
    classify_box,
    exact_ranges,
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
            st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(20, 3), seed=5)
            rep, agg, per = rt.query_batch(st, segs, QueryMode.REPORT)
            reports.append(rep)
            stats.append([(q.nodes_visited, q.canonical_sets_touched,
                           q.leaf_items_scanned, q.exact_predicate_calls) for q in per])
            fps.append(st.fingerprint())
        assert reports[0] == reports[1]
        assert stats[0] == stats[1]
        assert fps[0] == fps[1]


class TestClassifyBox:
    def test_linear_box_inside(self, rng):
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA, [rnd_tetra(rng, 6, 7) for _ in range(5)],
            [rnd_segment(rng, 6, 7) for _ in range(1)])
        st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(5, 2))
        ranges = exact_ranges(st, segs[0], (1, 1))
        lin = ranges[0]
        # a degenerate box at a point strictly inside the positive side
        for j in range(5):
            pt = st.points[0][j]
            box = [(c, c) for c in pt]
            val = st.setup.sigma(st.setup.make_ctx(segs[0]), j)[0]
            cls = classify_box(box, lin)
            if val > 0:
                assert cls == INSIDE
            elif val < 0:
                assert cls == OUTSIDE

    def test_root_box_crossing_when_mixed(self, rng):
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA, [rnd_tetra(rng, 8, 8) for _ in range(30)],
            [rnd_segment(rng, 8, 8) for _ in range(1)])
        st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(30, 2))
        ctx = st.setup.make_ctx(segs[0])
        vals = [st.setup.sigma(ctx, j)[0] for j in range(30)]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            root = st.root_tree.root
            box = list(zip(root.box_lo, root.box_hi))
            assert classify_box(box, exact_ranges(st, segs[0], (1, 1))[0]) == CROSSING

    def test_conservative_on_random_boxes(self, rng):
        # INSIDE implies the predicate holds at all corners and at interior
        # rational sample points; OUTSIDE implies it fails there
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA, [rnd_tetra(rng, 6, 7) for _ in range(8)],
            [rnd_segment(rng, 6, 7) for _ in range(8)])
        st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(8, 2))
        checked = 0
        for seg in segs:
            for pass_t in ((1, 1), (-1, 1)):
                ranges = exact_ranges(st, seg, pass_t)
                for lvl, rngobj in enumerate(ranges):
                    dim = st.levels[lvl].dim
                    for _ in range(6):
                        lo = [F(rng.randint(-60, 50), rng.randint(1, 7)) for _ in range(dim)]
                        box = [(l, l + F(rng.randint(0, 20), rng.randint(1, 5))) for l in lo]
                        cls = classify_box(box, rngobj)
                        if cls == CROSSING:
                            continue
                        checked += 1
                        samples = []
                        import itertools

                        for corner in itertools.product(*(((b[0], b[1]) if b[0] != b[1] else (b[0],))
                                                          for b in box)):
                            samples.append(corner)
                            if len(samples) > 16:
                                break
                        for _s in range(6):
                            samples.append(tuple(
                                b[0] + (b[1] - b[0]) * F(rng.randint(0, 8), 8) for b in box))
                        for pt in samples:
                            val = rngobj.xeval([rt.XInterval(c, c) for c in pt])
                            assert val.lo == val.hi
                            if cls == INSIDE:
                                assert (val.lo > 0) if rngobj.target > 0 else (val.lo < 0)
                            else:
                                assert (val.lo <= 0) if rngobj.target > 0 else (val.lo >= 0)
        assert checked > 20


class TestBatched:
    def test_storage_choice(self):
        # m = n gives s = n^{12/7} before clamping
        n = 2 ** 14
        assert batched_storage_parameter(n, n) == rt._iroot(n ** 12, 7)

    def test_batched_tri_tri_single_pair(self):
        from test_kernel4d import SPEC_T1, SPEC_T2

        rep = batched_tri_tri([SPEC_T1], [SPEC_T2], QueryMode.REPORT)
        assert rep.count == 1

    def test_batched_tri_tri_matches_oracle(self, rng):
        red = [rnd_triangle(rng, 6, 7) for _ in range(40)]
        blue = [rnd_triangle(rng, 6, 7) for _ in range(40)]
        rep = batched_tri_tri(red, blue, QueryMode.REPORT)
        assert rep == tri_tri_query(red, blue, QueryMode.REPORT)

    def test_batched_seg_tetra_matches_oracle(self, rng):
        segs = [rnd_segment(rng, 6, 7) for _ in range(30)]
        tets = [rnd_tetra(rng, 6, 7) for _ in range(30)]
        rep = batched_seg_tetra(segs, tets, QueryMode.COUNT)
        assert rep.count == seg_tetra_query(segs, tets, QueryMode.COUNT).count

    def test_regime_fallback(self, rng):
        # m > n^6 routes to the plain oracle
        blue = [rnd_triangle(rng, 3, 3)]
        red = [rnd_triangle(rng, 3, 3) for _ in range(3)]
        rep = batched_tri_tri(red, blue, QueryMode.COUNT)
        assert rep.count == tri_tri_query(red, blue, QueryMode.COUNT).count


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
    sin, sq, _salt = rt.prepare_scene(setup, *((tets, segs) if seg_tetra else (segs, tets)))
    st = rt.build(sin, setup, StorageBudget.from_sigma(len(sin), 2))
    calls = []
    facet_sign = rt._facet_sign
    monkeypatch.setattr(rt, "_facet_sign", lambda p, d: calls.append(1) or facet_sign(p, d))
    _rep, stats, _per = rt.query_batch(st, sq, QueryMode.COUNT)
    assert stats.leaf_items_scanned == len(sin) * len(sq)
    sheared_tets, sheared_segs = (sin, sq) if seg_tetra else (sq, sin)
    straddling = sum(sa * sb <= 0 for t in sheared_tets for e in sheared_segs
                     for sa, sb in [_endpoint_sides(t, e)])
    assert 0 < straddling < len(sin) * len(sq)
    assert len(calls) == 4 * straddling
