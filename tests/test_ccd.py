from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    LiftedPrism,
    collision_verified_at,
    lifted_pairs,
    lifted_prism_meet,
    simplex_meet_vertices,
    swept_box_reference,
    swept_sat_reference,
)
from tet4d import ccd
from tet4d.ccd import (
    MovingTetrahedron,
    detect_collisions,
    lift,
    prism_pair_intersect,
)
from tet4d.kernel4d import _dot, det3
from tet4d.oracle import QueryMode
from tet4d.scenes import decode_objects, generate

F = Fraction
UNIT = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def rnd_moving(rng, crange=6, spread=4, vmax=3):
    while True:
        c = [rng.randint(-crange, crange) for _ in range(3)]
        vs = tuple(tuple(c[k] + rng.randint(-spread, spread) for k in range(3))
                   for _ in range(4))
        vel = tuple(rng.randint(-vmax, vmax) for _ in range(3))
        try:
            return MovingTetrahedron(vs, vel, F(0), F(1))
        except ValueError:
            continue


def rnd_rational_moving(rng, crange=12, spread=9, vmax=6):
    """Vertices and velocity with denominators 1-3, some velocity components
    zero, and a window that may start, or end, before 0."""
    def q(k):
        return F(rng.randint(-k, k), rng.randint(1, 3))

    while True:
        c = [q(crange) for _ in range(3)]
        vs = tuple(tuple(c[k] + q(spread) for k in range(3)) for _ in range(4))
        vel = tuple(q(vmax) if rng.random() < 0.7 else 0 for _ in range(3))
        t0 = F(rng.randint(-6, 2), rng.randint(1, 3))
        try:
            return MovingTetrahedron(vs, vel, t0, t0 + F(rng.randint(1, 6), rng.randint(1, 3)))
        except ValueError:
            continue


def typed(w):
    """A witness with the type of each coordinate, so that 1 and
    Fraction(1) differ."""
    return None if w is None else tuple((type(c), c) for c in w)


def assert_first_contact(scene, i, j, w):
    """w lies in both moving tetrahedra at time w.w (checked apart from the
    pair test), and both agree that they meet then."""
    assert scene[i].contains_at(w[:3], w.w) and scene[j].contains_at(w[:3], w.w)
    assert collision_verified_at(scene, i, j, w.w)


class TestLift:
    """The lifted prism of the reference in tests/_oracles.py."""

    def test_zero_velocity_right_prism(self):
        p = LiftedPrism(MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1)))
        lo, hi = p.vertices[:4], p.vertices[4:]
        for a, b in zip(lo, hi):
            assert a[:3] == b[:3] and a.w == 0 and b.w == 1

    def test_unit_velocity_cap_offset(self):
        p = LiftedPrism(MovingTetrahedron(UNIT, (1, 0, 0), F(0), F(1)))
        for a, b in zip(p.vertices[:4], p.vertices[4:]):
            assert (b.x - a.x, b.y - a.y, b.z - a.z, b.w - a.w) == (1, 0, 0, 1)

    def test_facet_count_and_planes(self, rng):
        for _ in range(10):
            p = LiftedPrism(rnd_moving(rng))
            assert len(p.facet_tets) == 14
            assert len(p.hyperplanes) == 6
            # every facet tetrahedron lies in one of the facet hyperplanes
            for t in p.facet_tets:
                assert any(all(_dot(n, v) - c == 0 for v in t.vertices)
                           for (n, c) in p.hyperplanes)
            # outward orientation: all prism vertices on the non-positive side
            for (n, c) in p.hyperplanes:
                assert all(_dot(n, v) - c <= 0 for v in p.vertices)

    def test_prism_soundness_sampled(self, rng):
        # (q, t) in the prism iff t in window and q inside the tetra at t
        for _ in range(8):
            mt = rnd_moving(rng)
            p = LiftedPrism(mt)
            for _s in range(40):
                t = F(rng.randint(-2, 10), 8)
                q3 = tuple(F(rng.randint(-80, 80), 8) for _ in range(3))
                inside = mt.contains_at(q3, t)
                assert p.contains(tuple(q3) + (t,)) == inside


class TestFixtures:
    def test_identical_stationary(self):
        a = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1))
        b = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1))
        rep = detect_collisions([a, b], QueryMode.REPORT)
        assert rep.detected and rep.pairs[0][:2] == (0, 1)
        assert rep.pairs[0][2].w == 0  # they meet from the window start on

    def test_far_apart(self):
        a = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1))
        far = tuple(tuple(c + 10 for c in v) for v in UNIT)
        b = MovingTetrahedron(far, (0, 0, 0), F(0), F(1))
        assert not detect_collisions([a, b], QueryMode.DETECT).detected

    def test_fly_through(self):
        # b's vertex (5, 0, 0) reaches a's vertex (1, 0, 0) at t = 2/5
        a = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1))
        moved = tuple((v[0] + 5, v[1], v[2]) for v in UNIT)
        b = MovingTetrahedron(moved, (-10, 0, 0), F(0), F(1))
        rep = detect_collisions([a, b], QueryMode.REPORT)
        assert rep.pairs == [(0, 1, (1, 0, 0, F(2, 5)))]
        assert_first_contact([a, b], 0, 1, rep.pairs[0][2])


class TestEquivalence:
    def test_oracle_equivalence_small(self, rng):
        for _ in range(8):
            n = rng.randint(2, 14)
            scene = [rnd_moving(rng) for _ in range(n)]
            rep = detect_collisions(scene, QueryMode.REPORT)
            assert [(i, j) for (i, j, _w) in rep.pairs] == lifted_pairs(scene)
            for (i, j, w) in rep.pairs:
                assert_first_contact(scene, i, j, w)

    def test_symmetry_under_relabeling(self, rng):
        scene = [rnd_moving(rng) for _ in range(8)]
        rep = detect_collisions(scene, QueryMode.REPORT)
        perm = list(range(8))
        rng.shuffle(perm)
        rep2 = detect_collisions([scene[i] for i in perm], QueryMode.REPORT)
        expect = sorted(tuple(sorted((perm.index(i), perm.index(j))))
                        for (i, j, _w) in rep.pairs)
        assert [(i, j) for (i, j, _w) in rep2.pairs] == expect
        # the first contact time does not depend on the order of the pair
        times = {frozenset((perm.index(i), perm.index(j))): w.w for (i, j, w) in rep.pairs}
        assert {frozenset((i, j)): w.w for (i, j, w) in rep2.pairs} == times

    def test_modes_consistent(self, rng, monkeypatch):
        scene = [rnd_moving(rng) for _ in range(10)]
        c = detect_collisions(scene, QueryMode.COUNT)
        r = detect_collisions(scene, QueryMode.REPORT)
        d = detect_collisions(scene, QueryMode.DETECT)
        assert d.detected == (c.count > 0) == bool(r.pairs)
        assert c.count == len(r.pairs)
        # with pair (0, 1) a hit, DETECT stops there and REPORT tests all
        scene[1] = scene[0]
        calls = []
        leaf = ccd.prism_pair_intersect

        def counting(pa, pb):
            calls.append((pa.mt, pb.mt))
            return leaf(pa, pb)

        monkeypatch.setattr(ccd, "prism_pair_intersect", counting)
        per_mode = {}
        for mode in (QueryMode.DETECT, QueryMode.COUNT, QueryMode.REPORT):
            calls.clear()
            rep = detect_collisions(scene, mode)
            per_mode[mode] = len(calls)
            assert rep.detected and rep.count >= 1
        assert per_mode[QueryMode.DETECT] == 1
        assert per_mode[QueryMode.COUNT] == per_mode[QueryMode.REPORT] == 10 * 9 // 2

    def test_size_above_old_threshold(self):
        # a scene above 64 tetrahedra, where every pair still takes the
        # one pair test
        scene = decode_objects(generate("MOVING_TETRAHEDRA", 66, 10, 5, spread=4))
        rep = detect_collisions(scene, QueryMode.REPORT)
        assert [(i, j) for (i, j, _w) in rep.pairs] == lifted_pairs(scene)
        for (i, j, w) in rep.pairs:
            assert scene[i].contains_at(w[:3], w.w) and scene[j].contains_at(w[:3], w.w)


def _both(a, b):
    """The pair test's witness, checked against the lifted reference."""
    w = prism_pair_intersect(lift(a), lift(b))
    assert (w is None) == (lifted_prism_meet(LiftedPrism(a), LiftedPrism(b)) is None)
    return w


class TestPrismPair:
    def test_grazing_contact_counts(self):
        # two unit tetrahedra sharing exactly one vertex, stationary
        a = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1))
        shifted = tuple(tuple(-v[k] for k in range(3)) for v in UNIT)
        b = MovingTetrahedron(shifted, (0, 0, 0), F(0), F(1))
        assert _both(a, b) == (0, 0, 0, 0)

    def test_window_disjoint_in_time(self):
        a = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(1))
        b = MovingTetrahedron(UNIT, (0, 0, 0), F(2), F(3))
        assert _both(a, b) is None

    def test_contact_at_window_end(self):
        # b reaches a exactly when its window closes, and a moment too late
        a = MovingTetrahedron(UNIT, (0, 0, 0), F(0), F(4))
        b = MovingTetrahedron(tuple((v[0] + 3, v[1], v[2]) for v in UNIT),
                              (-1, 0, 0), F(1), F(2))
        assert _both(a, b) == (1, 0, 0, 2)
        c = MovingTetrahedron(b.vertices, b.velocity, F(1), F(19, 10))
        assert _both(a, c) is None

    def test_rational_input_scales_exactly(self, rng):
        # halving every coordinate and velocity halves every witness point
        # and keeps every first contact time
        scene = [rnd_moving(rng) for _ in range(8)]
        half = [MovingTetrahedron(tuple(tuple(F(c, 2) for c in v) for v in mt.vertices),
                                  tuple(F(c, 2) for c in mt.velocity), mt.t0, mt.t1)
                for mt in scene]
        rep = detect_collisions(scene, QueryMode.REPORT)
        assert rep.count > 0
        assert detect_collisions(half, QueryMode.REPORT).pairs == [
            (i, j, (w.x / 2, w.y / 2, w.z / 2, w.w)) for (i, j, w) in rep.pairs]


# ---------------------------------------------------------------------------
# the pair test against the lifted 4D reference, on generated contacts


_coord = st.integers(-3, 3)
_point = st.tuples(_coord, _coord, _coord)
_vel = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
_time = st.integers(-4, 6).map(lambda k: F(k, 2))


def _add(p, q, s=1):
    return tuple(a + s * b for a, b in zip(p, q))


@st.composite
def moving_pairs(draw):
    """Two moving tetrahedra in a chosen configuration at a time tc: random,
    translates of each other (every edge pair parallel), or touching at a
    shared vertex, edge or face.  Velocities may be equal (zero relative
    velocity) and the windows may be disjoint, nested or partly shared."""
    a = draw(st.tuples(_point, _point, _point, _point).filter(
        lambda v: det3(*(_add(v[i], v[0], -1) for i in (1, 2, 3))) != 0))
    kind = draw(st.sampled_from(("random", "translate", "vertex", "edge", "face")))
    if kind == "random":
        b = draw(st.tuples(_point, _point, _point, _point).filter(
            lambda v: det3(*(_add(v[i], v[0], -1) for i in (1, 2, 3))) != 0))
    elif kind == "translate":
        off = draw(_point)
        b = tuple(_add(p, off) for p in a)
    elif kind == "vertex":     # point reflection through a vertex
        i = draw(st.integers(0, 3))
        b = tuple(_add(_add(a[i], a[i]), p, -1) for p in a)
    elif kind == "edge":       # point reflection through an edge midpoint
        i, j = draw(st.sampled_from(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))))
        b = tuple(_add(_add(a[i], a[j]), p, -1) for p in a)
    else:                      # the face opposite m, with an apex beyond it
        m = draw(st.integers(0, 3))
        i, j, k = (x for x in range(4) if x != m)
        b = (a[i], a[j], a[k], _add(_add(a[i], a[i]), a[m], -1))
    ua = draw(_vel)
    ub = ua if draw(st.booleans()) else draw(_vel)
    tc = draw(_time)
    ta0, ta1, tb0, tb1 = (draw(_time) for _ in range(4))
    if ta0 >= ta1:
        ta0, ta1 = min(ta0, ta1), max(ta0, ta1) + 1
    if tb0 >= tb1:
        tb0, tb1 = min(tb0, tb1), max(tb0, tb1) + 1
    # positions at time 0 of the configuration reached at time tc
    mta = MovingTetrahedron(tuple(_add(p, ua, -tc) for p in a), ua, ta0, ta1)
    mtb = MovingTetrahedron(tuple(_add(p, ub, -tc) for p in b), ub, tb0, tb1)
    return mta, mtb


def _lifted_simplices(mt):
    """The staircase triangulation of the lifted prism into four 4-simplices."""
    v = LiftedPrism(mt).vertices
    lo, hi = v[:4], v[4:]
    return [list(lo[:k + 1]) + list(hi[k:]) for k in range(4)]


class TestSweptSat:
    @settings(max_examples=150, deadline=None)
    @given(moving_pairs())
    def test_verdict_matches_lifted_prisms(self, pair):
        a, b = pair
        w = _both(a, b)
        if w is not None:
            assert_first_contact([a, b], 0, 1, w)
            assert w.w == prism_pair_intersect(lift(b), lift(a)).w

    @settings(max_examples=12, deadline=None)
    @given(moving_pairs())
    def test_first_contact_is_least_time_of_prism_meet(self, pair):
        a, b = pair
        meet = set()
        for sa in _lifted_simplices(a):
            for sb in _lifted_simplices(b):
                if all(min(p[d] for p in sa) <= max(q[d] for q in sb)
                       and min(q[d] for q in sb) <= max(p[d] for p in sa) for d in range(4)):
                    meet |= simplex_meet_vertices([sa, sb])
        w = prism_pair_intersect(lift(a), lift(b))
        assert (w is None) == (not meet)
        if w is not None:
            assert w.w == min(p[3] for p in meet)


class TestIntegerPairTest:
    """The pair test equals the frozen Fraction-clip reference, typed per
    coordinate, and the swept box equals the box of the 8 end vertices."""

    def _assert_scene(self, scene):
        prisms = [lift(mt) for mt in scene]
        hits = 0
        for i in range(len(scene)):
            for j in range(i + 1, len(scene)):
                w = prism_pair_intersect(prisms[i], prisms[j])
                assert typed(w) == typed(swept_sat_reference(scene[i], scene[j])), (i, j)
                hits += w is not None
        return hits

    def test_equals_reference_on_dense_scenes(self):
        for seed in (1, 2, 3):
            scene = decode_objects(generate("MOVING_TETRAHEDRA", 64, 6, seed, spread=4))
            assert self._assert_scene(scene) > 100

    def test_equals_reference_on_rational_scenes(self, rng):
        hits = 0
        for _ in range(10):
            hits += self._assert_scene([rnd_rational_moving(rng) for _ in range(14)])
        assert hits > 20

    @settings(max_examples=150, deadline=None)
    @given(moving_pairs())
    def test_equals_reference_on_generated_contacts(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            assert typed(prism_pair_intersect(lift(x), lift(y))) == typed(swept_sat_reference(x, y))

    def test_box_is_box_of_end_vertices(self, rng):
        scene = [rnd_rational_moving(rng) for _ in range(60)]
        scene.append(MovingTetrahedron(UNIT, (0, F(-1, 2), 0), F(-3), F(-1, 3)))
        assert any(mt.t1 < 0 for mt in scene) and any(0 in mt.velocity for mt in scene)
        for mt in scene:
            box = lift(mt).bbox
            assert typed(box) == typed(swept_box_reference(mt))
