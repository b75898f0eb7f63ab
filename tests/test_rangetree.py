import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from conftest import rnd_flat, rnd_point, rnd_segment, rnd_tetra, rnd_triangle
from tet4d import rangetree as rt
from tet4d.kernel4d import (
    BudgetOutOfRange,
    DegenerateDirection,
    DegenerateTetrahedron,
    Point4,
    Segment4,
    TetraPre,
    Tetrahedron4,
    Triangle4,
    line_param,
    orient5,
    tetra_facets,
    tetra_plane,
    twoplane_param,
)
from tet4d.oracle import (
    PROBLEMS,
    QueryMode,
    brute_query,
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
        assert st.root.children is None
        assert st.root.items == (0,)

    def test_s_extremes_identical_reports(self, rng, monkeypatch):
        # the paper's bare leaf rule, so that s changes the tree's shape
        monkeypatch.setattr(rt, "LEAF_MIN", 1)
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
    def test_disjoint_union_per_query(self, rng, monkeypatch):
        # the paper's bare leaf rule, so that the tree splits these few items
        monkeypatch.setattr(rt, "LEAF_MIN", 1)
        tets, segs, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA,
            [rnd_tetra(rng, 6, 8) for _ in range(30)],
            [rnd_segment(rng, 6, 8) for _ in range(20)])
        st = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(30, 4))
        oracle = seg_tetra_query(segs, tets, QueryMode.REPORT)
        by_query = {}
        for (i, j, _w) in oracle.pairs:
            by_query.setdefault(i, set()).add(j)
        # the items each canonical set delivers, and those resolved one by one
        audit = {}
        real_absorb, real_record = rt._absorb, rt._record

        def absorb(run, items):
            audit.setdefault("canonical", []).append(tuple(items))
            real_absorb(run, items)

        def record(run, j):
            audit.setdefault("resolved", []).append(j)
            real_record(run, j)

        monkeypatch.setattr(rt, "_absorb", absorb)
        monkeypatch.setattr(rt, "_record", record)
        for qi, seg in enumerate(segs):
            audit.clear()
            rep, _ = rt.query(st, seg, QueryMode.REPORT)
            got = [j for (_z, j, _w) in rep.pairs]
            # no object is delivered twice, and the union equals the oracle set
            assert len(got) == len(set(got))
            assert set(got) == by_query.get(qi, set())
            absorbed = [j for s in audit.get("canonical", []) for j in s]
            resolved = audit.get("resolved", [])
            assert sorted(absorbed + resolved) == sorted(got)

    def test_leaf_bound_respected(self, rng, monkeypatch):
        # the paper's bare leaf rule: leaves of at most leaf_cutoff items
        monkeypatch.setattr(rt, "LEAF_MIN", 1)
        tets, _, _ = rt.prepare_scene(
            rt.SETUP_SEG_TETRA, [rnd_tetra(rng, 6, 8) for _ in range(40)], [])
        budget = StorageBudget.from_sigma(40, 2)
        st = rt.build(tets, rt.SETUP_SEG_TETRA, budget)

        def walk(node):
            if node.children is None:
                # splittable leaves respect the cutoff; only all-identical
                # point sets may exceed it
                pts = {st.points[0][i] for i in node.items}
                assert len(node.items) <= budget.leaf_cutoff or len(pts) == 1
            else:
                for ch in node.children:
                    walk(ch)

        walk(st.root)


class TestDeterminism:
    def test_same_build_same_fingerprint(self, rng, monkeypatch):
        # the paper's bare leaf rule, so that the tree splits these few items
        monkeypatch.setattr(rt, "LEAF_MIN", 1)
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
    """The root of one tree per level over every object, all of whose nodes
    are walked."""
    return [rt._build(st, level, tuple(range(st.n)), 0) for level in range(len(st.levels))]


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
                ctx = rt._Run(st, q, QueryMode.REPORT)
                for j in range(st.n):
                    counted_in, zero = ctx.sigma(j)
                    for level, spec in enumerate(st.levels):
                        pt = st.points[level][j]
                        assert len(pt) == spec.dim
                        assert all(type(c) is int for c in pt)
                        lo, hi = rt._form_range(ctx.forms[level], pt, pt)
                        assert lo == hi == _value(ctx.forms[level], pt)
                        s = (lo > 0) - (lo < 0)
                        if counted_in is not None:
                            assert s * spec.role == counted_in if s else zero, (setup, level)
                        for target in {p * spec.role for p in st.passes}:
                            assert rt._classify(lo, hi, target) == _expected_class({s}, target)

    def test_root_box_crossing_when_mixed(self, rng):
        for setup in ALL_SETUPS:
            inputs, queries = _scene(rng, setup, 30, 3, 8, 8)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(30, 2))
            mixed = 0
            for q in queries:
                ctx = rt._Run(st, q, QueryMode.REPORT)
                for level, root in enumerate(_level_trees(st)):
                    form = ctx.forms[level]
                    vals = [_value(form, st.points[level][j]) for j in range(st.n)]
                    lo, hi = rt._form_range(form, root.box_lo, root.box_hi)
                    assert lo <= min(vals) and max(vals) <= hi
                    if min(vals) < 0 < max(vals):
                        mixed += 1
                        for target in (1, -1, 0):
                            assert rt._classify(lo, hi, target) == CROSSING
            assert mixed > 0, setup

    def test_conservative_on_random_boxes(self, rng, monkeypatch):
        # INSIDE and OUTSIDE nodes agree with the form's sign at every corner
        # and at random interior points, integer and rational; the range ends
        # are the values at the extreme corners.  The paper's bare leaf rule
        # splits these small scenes down to single items.
        monkeypatch.setattr(rt, "LEAF_MIN", 1)
        checked = 0
        for setup in ALL_SETUPS:
            inputs, queries = _scene(rng, setup, 12, 3)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(12, 6))
            for q in queries:
                ctx = rt._Run(st, q, QueryMode.REPORT)
                for level, root in enumerate(_level_trees(st)):
                    form = ctx.forms[level]
                    for node in _nodes(root):
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
                        # at most one target is INSIDE, so _visit sends every
                        # INSIDE pass on in one next-level visit
                        assert [t for t in (1, -1, 0)
                                if rt._classify(lo, hi, t) == INSIDE] in ([], [1], [-1])
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

        got, _stats = rt._batched(rt.SETUP_TRI_TRI, [(1, SPEC_T2)], [(0, SPEC_T1)])
        expected = _owner_pairs(tri_tri_query([SPEC_T1], [SPEC_T2], QueryMode.REPORT), 1)
        assert _typed(got) == _typed(expected)
        assert list(got) == [(0, 1)]

    def test_batched_tri_tri_matches_oracle(self, rng):
        red = [rnd_triangle(rng, 6, 7) for _ in range(40)]
        blue = [rnd_triangle(rng, 6, 7) for _ in range(40)]
        got, _stats = rt._batched(rt.SETUP_TRI_TRI, _owned(blue, 40), _owned(red, 0))
        expected = _owner_pairs(tri_tri_query(red, blue, QueryMode.REPORT), 40)
        assert expected and _typed(got) == _typed(expected)

    def test_batched_seg_tetra_matches_oracle(self, rng):
        segs = [rnd_segment(rng, 6, 7) for _ in range(30)]
        tets = [rnd_tetra(rng, 6, 7) for _ in range(30)]
        got, _stats = rt._batched(rt.SETUP_SEG_TETRA, _owned(tets, 30), _owned(segs, 0))
        expected = _owner_pairs(seg_tetra_query(segs, tets, QueryMode.REPORT), 30)
        assert expected and _typed(got) == _typed(expected)


def _owned(objects, first):
    return [(first + k, x) for k, x in enumerate(objects)]


def _owner_pairs(rep, m):
    """The oracle's REPORT pairs as a join's witnesses, with the queries
    owned by 0..m-1 and the inputs by m..: then every hit is its own owner
    pair."""
    return {(i, m + j): w for (i, j, w) in rep.pairs}


def _typed(witnesses):
    """Witnesses with int and Fraction coordinates told apart."""
    return {k: tuple((type(c), c) for c in w) for k, w in witnesses.items()}


class TestStatsMonotonicity:
    def test_leaf_items_non_increasing_in_s(self, rng, monkeypatch):
        # the paper's bare leaf rule, so that the tree splits these few items
        monkeypatch.setattr(rt, "LEAF_MIN", 1)
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


# sigma 1, 2 and 6 at the real leaf bucket, which holds these small scenes
# in one leaf, and at the paper's bare rule, whose sigma = 6 trees forward
# canonical sets down to single items
_LEAF_RULES = tuple((leaf_min, sigma) for leaf_min in (rt.LEAF_MIN, 1) for sigma in (1, 2, 6))


class TestDegenerateLeaves:
    """Structure == oracle on scenes full of zero signs; the oracle evaluates
    orient5 directly, the structure through Plücker/dual dot products."""

    @pytest.mark.parametrize("seed", range(4))
    def test_setup_i(self, seed, monkeypatch):
        tets, segs = _degenerate_scene(random.Random(seed))
        sin, sq, _salt = rt.prepare_scene(rt.SETUP_SEG_TETRA, tets, segs)
        for leaf_min, sigma in _LEAF_RULES:
            monkeypatch.setattr(rt, "LEAF_MIN", leaf_min)
            st = rt.build(sin, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(len(sin), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, sq, mode)
                assert rep == seg_tetra_query(sq, sin, mode), (seed, leaf_min, sigma, mode)

    @pytest.mark.parametrize("seed", range(4))
    def test_setup_iii(self, seed, monkeypatch):
        tets, segs = _degenerate_scene(random.Random(100 + seed))
        sin, sq, _salt = rt.prepare_scene(rt.SETUP_TETRA_SEG, segs, tets)
        for leaf_min, sigma in _LEAF_RULES:
            monkeypatch.setattr(rt, "LEAF_MIN", leaf_min)
            st = rt.build(sin, rt.SETUP_TETRA_SEG, StorageBudget.from_sigma(len(sin), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, sq, mode)
                assert rep == tetra_seg_query(sq, sin, mode), (seed, leaf_min, sigma, mode)

    def test_scene_has_the_degenerate_layouts(self):
        tets, segs = _degenerate_scene(random.Random(0))
        sides = [_endpoint_sides(t, e) for t in tets for e in segs]
        assert sum(sa == 0 or sb == 0 for sa, sb in sides) > len(segs)
        assert any(sa == sb == 0 for sa, sb in sides)
        assert any(e.a.w == e.b.w for e in segs)


def _lattice_triangles(rng, count):
    """Triangles on a pool of 7 lattice points in [-2, 2]^4, so that they
    share vertices and edges and zero edge signs are common."""
    pool = [rnd_point(rng, 2) for _ in range(7)]
    tris = []
    while len(tris) < count:
        try:
            tris.append(Triangle4(*rng.sample(pool, 3)))
        except ValueError:
            continue
    return tris


def _signs_times_roles(run, j):
    """Every level's sign of object j against the run's query, from the
    plain dot product, times the level's role."""
    st = run.struct
    return [((v > 0) - (v < 0)) * spec.role for spec, form, pts in zip(st.levels, run.forms, st.points)
            for v in [_value(form, pts[j])]]


class TestLeafFallbacks:
    """The leaf's direct-solver fallback never gets a sign tuple that the
    problem's sign decision already misses, and the reports still equal the
    oracle's."""

    @pytest.mark.parametrize("seed", range(3))
    def test_no_mixed_group_reaches_the_witness(self, seed, monkeypatch):
        rng = random.Random(seed)
        tets, segs = _degenerate_scene(rng)
        tris = _lattice_triangles(rng, 24)
        witness = rt._Run.witness
        zero_calls = []

        def checked(run, j):
            # no strict + beside a strict - across all levels
            signs = _signs_times_roles(run, j)
            assert not {1, -1} <= set(signs), signs
            zero_calls.append(0 in signs)
            return witness(run, j)

        monkeypatch.setattr(rt._Run, "witness", checked)
        for setup, inputs, queries in ((rt.SETUP_SEG_TETRA, tets, segs),
                                       (rt.SETUP_TETRA_SEG, segs, tets),
                                       (rt.SETUP_TRI_TRI, tris[:12], tris[12:])):
            for leaf_min, sigma in _LEAF_RULES:
                monkeypatch.setattr(rt, "LEAF_MIN", leaf_min)
                st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), sigma))
                for mode in MODES:
                    rep, _stats, _per = rt.query_batch(st, queries, mode)
                    assert rep == brute_query(setup, queries, inputs, mode), \
                        (setup, leaf_min, sigma, mode)
        assert any(zero_calls)


def _piercing_segments(rng, tets, m):
    """Segments through rational interior points of the tetrahedra."""
    segs = []
    while len(segs) < m:
        v = rng.choice(tets).vertices
        w = [rng.randint(1, 4) for _ in range(4)]
        p = [F(sum(k * x[c] for k, x in zip(w, v)), sum(w)) for c in range(4)]
        d = rnd_point(rng, 6)
        if any(d):
            segs.append(Segment4(Point4(*(x - y for x, y in zip(p, d))),
                                 Point4(*(x + y for x, y in zip(p, d)))))
    return segs


@pytest.mark.parametrize("setup", (rt.SETUP_SEG_TETRA, rt.SETUP_TRI_TRI, rt.SETUP_TETRA_SEG))
def test_one_sign_per_hit(setup):
    # every pair that the problem's exact test accepts has one nonzero level
    # sign, times the roles, over all levels: the proofs at _oriented_plane
    # and _tri_vectors, checked on random and lattice scenes
    rng = random.Random(5)
    tets, segs = _degenerate_scene(rng, 12, 120)
    tris = _lattice_triangles(rng, 24)
    rtets = [rnd_tetra(rng, 3, 6) for _ in range(30)]
    rsegs = _piercing_segments(rng, rtets, 80)
    scenes = {rt.SETUP_SEG_TETRA: ((rtets, rsegs), (tets, segs)),
              rt.SETUP_TETRA_SEG: ((rsegs, rtets), (segs, tets)),
              rt.SETUP_TRI_TRI: (_scene(rng, setup, 40, 40, 2, 6), (tris[:12], tris[12:]))}
    hit = PROBLEMS[setup].hit
    hits = []
    for inputs, queries in scenes[setup]:
        st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), 2))
        for q in queries:
            run = rt._Run(st, q, QueryMode.REPORT)
            for j in range(st.n):
                if hit(run.query, st.prepared[j]):
                    signs = _signs_times_roles(run, j)
                    hits.append(0 in signs)
                    assert not {1, -1} <= set(signs), (setup, signs)
    assert len(hits) > 100 and 0 < sum(hits) < len(hits)


def test_setup_iii_is_setup_i_transposed():
    # a tetrahedron's query forms in (iii) are its stored vectors in (i), and
    # a segment's stored vectors in (iii) are its query forms in (i)
    rng = random.Random(11)
    tets = [rnd_tetra(rng, 6, 6) for _ in range(6)]
    segs = [rnd_segment(rng, 6, 6) for _ in range(6)]
    tets.append(Tetrahedron4(*(Point4(*(F(c, k + 2) for c in p)) for k, p in enumerate(tets[0].vertices))))
    segs.append(Segment4(Point4(*(F(c, 3) for c in segs[0].a)), segs[0].b))
    st_i = rt.build(tets, rt.SETUP_SEG_TETRA, StorageBudget.from_sigma(len(tets), 2))
    st_iii = rt.build(segs, rt.SETUP_TETRA_SEG, StorageBudget.from_sigma(len(segs), 2))
    assert st_i.levels == st_iii.levels
    for a, b, objs in ((st_i, st_iii, tets), (st_iii, st_i, segs)):
        for j, x in enumerate(objs):
            stored = tuple(a.points[level][j] for level in range(len(a.levels)))
            assert tuple(rt._Run(b, x, QueryMode.REPORT).forms) == stored


def _endpoint_sides(tet, seg):
    """n . a - c and n . b - c for the tetrahedron's integer hyperplane."""
    n, c = tetra_plane(tet)
    return (sum(x * y for x, y in zip(n, seg.a)) - c,
            sum(x * y for x, y in zip(n, seg.b)) - c)


def _int_box(points):
    """Integer coordinates' box as (lo, hi) corner tuples."""
    cols = list(zip(*points))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _int_boxes_meet(p, q):
    (plo, phi), (qlo, qhi) = _int_box(p), _int_box(q)
    return all(a <= d and c <= b for a, b, c, d in zip(plo, phi, qlo, qhi))


def _facet_products(tet, seg):
    """The facet dot products a leaf takes for the pair: none when both
    endpoints are strictly on one side of the hyperplane, else the facets up
    to and including the first whose calibrated sign opposes the endpoint
    side sign (the strict one of -s sign(va) and s sign(vb), s = eps[0]),
    else all four."""
    sa, sb = _endpoint_sides(tet, seg)
    if sa * sb > 0:
        return 0
    pre = TetraPre(tet)
    side = (-pre.eps[0] * sa) or (pre.eps[0] * sb)
    side = (side > 0) - (side < 0)
    for i, (e, f) in enumerate(zip(pre.eps, pre.facets)):
        if side and e * orient5(seg.a, seg.b, *f) == -side:
            return i + 1
    return 4


@pytest.mark.parametrize("setup", (rt.SETUP_SEG_TETRA, rt.SETUP_TETRA_SEG))
def test_facet_tests_only_for_straddling_pairs(monkeypatch, setup):
    # at sigma = 2 every pair whose boxes meet reaches a leaf once and is
    # scanned; of those, only the pairs whose endpoints are not strictly on
    # one side of the hyperplane pay facet dot products, and each stops at
    # the first facet that opposes the endpoints' side
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
    near = [(t, e) for t in tets for e in segs if _int_boxes_meet(t.vertices, (e.a, e.b))]
    assert stats.leaf_items_scanned == len(near)
    straddling = sum(sa * sb <= 0 for t, e in near for sa, sb in [_endpoint_sides(t, e)])
    assert 0 < straddling < len(sin) * len(sq)
    expected = [_facet_products(t, e) for t, e in near]
    assert len(calls) == sum(expected)
    assert 0 < expected.count(4) < straddling


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

    def _check(self, monkeypatch, setup, inputs, queries, oracle_fn):
        assert rt.prepare_scene(setup, inputs, queries) == (inputs, queries, 0)
        hits = 0
        for leaf_min, sigma in _LEAF_RULES:
            monkeypatch.setattr(rt, "LEAF_MIN", leaf_min)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, queries, mode)
                assert rep == oracle_fn(queries, inputs, mode), (setup, leaf_min, sigma, mode)
                hits = max(hits, rep.count)
        assert hits > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_setup_i_flat_w_queries(self, seed, monkeypatch):
        tets, _tris, segs = _direction_scene(random.Random(seed))
        self._check(monkeypatch, rt.SETUP_SEG_TETRA, tets, segs, seg_tetra_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_setup_iii_flat_w_inputs(self, seed, monkeypatch):
        tets, _tris, segs = _direction_scene(random.Random(10 + seed))
        self._check(monkeypatch, rt.SETUP_TETRA_SEG, segs, tets, tetra_seg_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_setup_ii_xy_degenerate_planes(self, seed, monkeypatch):
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
        self._check(monkeypatch, rt.SETUP_TRI_TRI, blue, red, tri_tri_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_line_flat_xy_degenerate_flats(self, seed, monkeypatch):
        rng = random.Random(30 + seed)
        _tets, tris, segs = _direction_scene(rng)
        flats = [t.vertices for t in tris]
        lines = segs + [_flat_w_segment(rng, _centroid(rng.choice(flats))) for _ in range(6)]
        self._check(monkeypatch, rt.SETUP_LINE_2FLAT, flats, lines, line_2flat_query)


# ---------------------------------------------------------------------------
# primal box pruning

_COORD = hs.builds(F, hs.integers(-6, 6), hs.sampled_from((1, 1, 2, 3)))
_POINT = hs.tuples(_COORD, _COORD, _COORD, _COORD).map(lambda c: Point4(*c))
_STEP = hs.builds(F, hs.integers(1, 6), hs.sampled_from((1, 2, 3)))


def _touching(draw, vertices, arity):
    """A simplex of `arity` points that has one of `vertices` as a vertex
    and otherwise lies strictly beyond it along one axis, on the far side
    from the other vertices: the two meet only in that vertex, which lies on
    a face or at a corner of both boxes."""
    k = draw(hs.integers(0, 3))
    sign = draw(hs.sampled_from((1, -1)))
    v = (max if sign > 0 else min)(vertices, key=lambda p: p[k])
    out = [v]
    while len(out) < arity:
        d = [draw(_COORD) for _ in range(4)]
        d[k] = sign * draw(_STEP)
        out.append(Point4(*(v[i] + d[i] for i in range(4))))
    return out


def _objects(draw, make, arity, pool, others, count):
    """Up to `count` objects from `make`, each on `arity` points: distinct
    points of the shared pool, or touching one of `others` in a vertex.
    Point sets that `make` rejects as degenerate are skipped."""
    out = []
    for _ in range(count):
        if others and draw(hs.booleans()):
            pts = _touching(draw, draw(hs.sampled_from(others)).vertices, arity)
        else:
            pts = draw(hs.lists(hs.sampled_from(pool), min_size=arity, max_size=arity, unique=True))
        try:
            out.append(make(*pts))
        except (ValueError, DegenerateTetrahedron):
            pass
    return out


@hs.composite
def _rational_scene(draw):
    """(setup, inputs, queries) with rational coordinates on a small shared
    point pool, so that objects share vertices, plus objects that touch
    another only at an extreme vertex."""
    setup = draw(hs.sampled_from(ALL_SETUPS))
    pool = draw(hs.lists(_POINT, min_size=5, max_size=8, unique=True))
    n, m = draw(hs.integers(1, 6)), draw(hs.integers(1, 5))
    if setup == rt.SETUP_LINE_2FLAT:
        inputs = [t.vertices for t in _objects(draw, Triangle4, 3, pool, [], n)]
        queries = _objects(draw, Segment4, 2, pool, [], m)
    elif setup == rt.SETUP_TRI_TRI:
        inputs = _objects(draw, Triangle4, 3, pool, [], n)
        queries = _objects(draw, Triangle4, 3, pool, inputs, m)
    else:
        tets = _objects(draw, Tetrahedron4, 4, pool, [], n)
        segs = _objects(draw, Segment4, 2, pool, tets, m)
        inputs, queries = (tets, segs) if setup == rt.SETUP_SEG_TETRA else (segs, tets)
    assume(inputs and queries)
    return setup, inputs, queries


@settings(max_examples=40, deadline=None)
@given(_rational_scene())
def test_box_pruned_structure_equals_oracle(scene):
    setup, inputs, queries = scene
    for leaf_min, sigma in _LEAF_RULES:
        with pytest.MonkeyPatch.context() as mp:
            # next-level trees are built during the queries, so they run here too
            mp.setattr(rt, "LEAF_MIN", leaf_min)
            st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), sigma))
            for mode in MODES:
                rep, _stats, _per = rt.query_batch(st, queries, mode)
                assert rep == brute_query(setup, queries, inputs, mode), (leaf_min, sigma, mode)


def _shift_x(points, dx):
    return [Point4(p.x + dx, p.y, p.z, p.w) for p in points]


def _points_of(x):
    return (x.a, x.b) if isinstance(x, Segment4) else x.vertices


@pytest.mark.parametrize("setup", (rt.SETUP_SEG_TETRA, rt.SETUP_TRI_TRI, rt.SETUP_TETRA_SEG))
def test_boxes_prune_the_far_cluster(monkeypatch, setup):
    # two clusters 100 apart along x; queries in the first one.  The paper's
    # bare leaf rule, so that the 60 inputs split into many nodes.
    monkeypatch.setattr(rt, "LEAF_MIN", 1)
    rng = random.Random(3)
    near, queries = _scene(rng, setup, 30, 20, 6, 6)
    far = [type(x)(*_shift_x(_points_of(x), 100)) for x in _scene(rng, setup, 30, 0, 6, 6)[0]]
    inputs = near + far
    order = list(range(len(inputs)))
    rng.shuffle(order)
    inputs = [inputs[k] for k in order]
    far_ids = {j for j, k in enumerate(order) if k >= len(near)}
    oracle = brute_query(setup, queries, inputs, QueryMode.REPORT)
    assert oracle.count > 0

    scanned = set()
    sigma_fn = rt._Run.sigma
    monkeypatch.setattr(rt._Run, "sigma", lambda self, j: scanned.add(j) or sigma_fn(self, j))
    visited = {}
    for sigma in (2, 6):
        st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), sigma))
        rep, stats, _per = rt.query_batch(st, queries, QueryMode.REPORT)
        assert rep == oracle, sigma
        visited[sigma] = stats.nodes_visited
    assert scanned and not scanned & far_ids

    # the same descent with the query boxes dropped, as without box pruning
    init = rt._Run.__init__

    def boxless(self, *args):
        init(self, *args)
        self.box = None

    monkeypatch.setattr(rt._Run, "__init__", boxless)
    scanned.clear()
    for sigma in (2, 6):
        st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), sigma))
        rep, stats, _per = rt.query_batch(st, queries, QueryMode.REPORT)
        assert rep == oracle, sigma
    assert scanned & far_ids
    assert visited[6] < stats.nodes_visited


# ---------------------------------------------------------------------------
# leaf buckets

_BUCKET_SIZES = ("below", "at", "above", "triple")


def _bucket_n(size):
    k = rt.LEAF_MIN
    return {"below": k - 1, "at": k, "above": k + 1, "triple": 3 * k}[size]


def _through_flat(rng, flat):
    """A line through a point of the flat's 2-plane."""
    k = (rng.randint(-1, 2), rng.randint(-1, 2))
    p = Point4(*(flat[0][i] + k[0] * (flat[1][i] - flat[0][i]) + k[1] * (flat[2][i] - flat[0][i])
                 for i in range(4)))
    d = rnd_point(rng, 3)
    if not any(d):
        d = Point4(1, 0, 0, 0)
    return Segment4(p, Point4(*(p[i] + d[i] for i in range(4))))


def _slab_scene(rng, n, m):
    """n tetrahedra lying in the hyperplanes w = 0..4 and m segments from
    w = 40 down to w = -40 across all of them: every endpoint is strictly on
    one side of every hyperplane, so the endpoint levels are INSIDE at the
    roots of their trees, which are leaves up to LEAF_MIN items."""
    tets = []
    while len(tets) < n:
        w = rng.randint(0, 4)
        try:
            tets.append(Tetrahedron4(*(Point4(*rnd_point(rng, 4)[:3], w) for _ in range(4))))
        except DegenerateTetrahedron:
            continue
    segs = [Segment4(Point4(*rnd_point(rng, 3)[:3], 40), Point4(*rnd_point(rng, 3)[:3], -40))
            for _ in range(m)]
    return tets, segs


def _bucket_scene(rng, setup, kind, n, m=10):
    """n inputs and m queries in close contact: tetrahedra that share
    vertices with segments on their hyperplanes, facets and edges, small
    triangles on a coarse lattice, and lines through the flats; or, for
    kind "slabs", the scene of ``_slab_scene``."""
    if setup in (rt.SETUP_SEG_TETRA, rt.SETUP_TETRA_SEG):
        tets, segs = (_slab_scene if kind == "slabs" else _degenerate_scene)(rng, n, n)
        return (tets, segs[:m]) if setup == rt.SETUP_SEG_TETRA else (segs, tets[:m])
    if setup == rt.SETUP_TRI_TRI:
        return ([rnd_triangle(rng, 3, 3) for _ in range(n)],
                [rnd_triangle(rng, 3, 3) for _ in range(m)])
    flats = [rnd_flat(rng, 3, 3) for _ in range(n)]
    return flats, [_through_flat(rng, rng.choice(flats)) if k % 2 else rnd_segment(rng, 3, 3)
                   for k in range(m)]


_BUCKET_SCENES = tuple((s, "contact") for s in ALL_SETUPS) + (
    (rt.SETUP_SEG_TETRA, "slabs"), (rt.SETUP_TETRA_SEG, "slabs"))


def _typed_report(rep):
    return (rep.detected, rep.count,
            [(i, j, tuple((type(c), c) for c in w)) for (i, j, w) in rep.pairs])


@pytest.mark.parametrize("size", _BUCKET_SIZES)
@pytest.mark.parametrize("setup,kind", _BUCKET_SCENES)
def test_leaf_buckets_equal_oracle(setup, kind, size):
    # at the real LEAF_MIN, around and above one bucket, with int and
    # Fraction witnesses told apart
    n = _bucket_n(size)
    inputs, queries = _bucket_scene(random.Random(n), setup, kind, n)
    expected = {mode: brute_query(setup, queries, inputs, mode) for mode in MODES}
    assert expected[QueryMode.COUNT].count > 0
    for sigma in (1, 2, 6):
        st = rt.build(inputs, setup, StorageBudget.from_sigma(n, sigma))
        for mode in MODES:
            rep, _stats, _per = rt.query_batch(st, queries, mode)
            assert _typed_report(rep) == _typed_report(expected[mode]), (sigma, mode)


def _walk_trees(level, root):
    """(level, root) of the tree under root and of every next-level tree
    materialised below it."""
    yield level, root
    for node in _nodes(root):
        if node._next is not None:
            yield from _walk_trees(level + 1, node._next)


@pytest.mark.parametrize("setup,kind", _BUCKET_SCENES)
def test_leaf_rule_and_no_tree_under_a_leaf(setup, kind):
    # every leaf holds at most max(leaf_cutoff, LEAF_MIN) items unless their
    # level vectors are all equal, every internal node more, and every
    # materialised next-level tree hangs off an internal node
    nexts = 0
    for size in _BUCKET_SIZES:
        n = _bucket_n(size)
        inputs, queries = _bucket_scene(random.Random(n), setup, kind, n)
        for sigma in (1, 2, 6):
            budget = StorageBudget.from_sigma(n, sigma)
            bound = max(budget.leaf_cutoff, rt.LEAF_MIN)
            st = rt.build(inputs, setup, budget)
            rt.query_batch(st, queries, QueryMode.REPORT)
            for level, root in _walk_trees(0, st.root):
                for node in _nodes(root):
                    if node.children is None:
                        assert node._next is None, (size, sigma, level)
                        pts = {st.points[level][i] for i in node.items}
                        assert len(node.items) <= bound or len(pts) == 1
                    else:
                        assert len(node.items) > bound
                        nexts += node._next is not None
    # the slab scenes forward canonical sets; the others may not
    assert nexts > 0 or kind != "slabs"


@pytest.mark.parametrize("leaf_min", (64, 1))
@pytest.mark.parametrize("setup", ALL_SETUPS)
def test_structure_freed_without_the_cycle_collector(monkeypatch, setup, leaf_min):
    # a built and queried structure holds no reference cycle, so reference
    # counting frees it at its last reference; at LEAF_MIN = 1 the queries
    # also build next-level trees
    monkeypatch.setattr(rt, "LEAF_MIN", leaf_min)
    inputs, queries = _scene(random.Random(5), setup, 40, 10)
    st = rt.build(inputs, setup, StorageBudget.from_sigma(len(inputs), 6))
    for mode in MODES:
        rt.query_batch(st, queries, mode)
    nexts = sum(node._next is not None for node in _nodes(st.root))
    assert nexts > 0 or leaf_min > 1 or setup == rt.SETUP_LINE_2FLAT
    ref = weakref.ref(st)
    gc.disable()
    try:
        del st
        assert ref() is None
    finally:
        gc.enable()
