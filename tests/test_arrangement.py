import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_k_subsets, contact_reference, pairwise_reference, simplex_meet_vertices
from conftest import cluster_tetra, rnd_tetra
from tet4d import arrangement, kernel4d
from tet4d import rangetree as rt
from tet4d.arrangement import (
    intersection_polygon,
    k_counts,
    pairwise,
    per_tetra_reduction,
)
from tet4d.kernel4d import (
    DegeneratePosition,
    DegenerateTetrahedron,
    EmptyIntersection,
    GeometryError,
    Point4,
    TetraPre,
    Tetrahedron4,
)
from tet4d.oracle import arrangement_k_counts
from tet4d.scenes import decode_objects, generate

def far_apart_tetra(rng, k):
    out = []
    for i in range(k):
        t = rnd_tetra(rng, 3, 3)
        out.append(Tetrahedron4(*(Point4(p.x + 100 * i, p.y, p.z, p.w)
                                  for p in t.vertices)))
    return out


class TestPairwise:
    def test_disjoint_scene_empty(self, rng):
        assert pairwise(far_apart_tetra(rng, 5)) == []

    def test_pair_set_matches_oracle(self, rng):
        scenes = [cluster_tetra(rng, tuple(rng.randint(-4, 4) for _ in range(4)), rng.randint(4, 7))
                  + [rnd_tetra(rng, 5, 8) for _ in range(5)] for _ in range(4)]
        for tets in scenes + _uniform_scenes():
            kc = arrangement_k_counts(tets)
            got = pairwise(tets)
            assert [w.pair for w in got] == kc.pair_set

    def test_witness_membership(self, rng):
        tets = cluster_tetra(rng, (0, 0, 0, 0), 6)
        pres = [TetraPre(t) for t in tets]
        for w in pairwise(tets):
            i, j = w.pair
            assert pres[i].contains(w.vertex) and pres[j].contains(w.vertex)
            assert w.kind in ("EDGE_TETRA", "FACE_FACE")


_LATTICE = list(itertools.product(range(-3, 4), repeat=4))


def _lattice_scene(rng):
    """3 to 5 tetrahedra on 8 points of the lattice [-3, 3]^4: they share
    vertices, edges and faces, and often lie in one hyperplane."""
    pool = rng.sample(_LATTICE, 8)
    tets = []
    for _ in range(rng.randint(3, 5)):
        try:
            tets.append(_tet(*rng.sample(pool, 4)))
        except DegenerateTetrahedron:
            pass
    return tets


def _seeded_scenes():
    """Four seeded cluster scenes, then 40 seeded lattice scenes."""
    rng = random.Random(0x5EED)
    scenes = [_touching_clusters()]
    for _ in range(3):
        core = tuple(rng.randint(-4, 4) for _ in range(4))
        scenes.append(cluster_tetra(rng, core, rng.randint(6, 9)) + [rnd_tetra(rng, 5, 8)])
    return scenes + [_lattice_scene(rng) for _ in range(40)]


def _uniform_scenes():
    """Two seeded uniform scenes of 200 tetrahedra, most of them apart."""
    return [decode_objects(generate("TETRAHEDRA", 200, 20, seed, spread=6)) for seed in (1, 2)]


def _typed(witnesses):
    """PairWitness fields with int and Fraction coordinates told apart."""
    return [(w.pair, tuple((type(c), c) for c in w.vertex), w.kind) for w in witnesses]


class TestSharedWork:
    """Each exact object of the arrangement is computed once: pairwise
    solves only the pairs that the box sweep and the side signs leave, and
    none after its first hit, and k_counts builds each pair's contact once."""

    def test_pairwise_equals_reference(self):
        for tets in _seeded_scenes() + _uniform_scenes():
            assert _typed(pairwise(tets)) == _typed(pairwise_reference(tets))

    def test_k_counts_equal_oracle(self):
        defined = 0
        for tets in _seeded_scenes():
            try:
                expected = arrangement_k_counts(tets).counts()
            except GeometryError:
                continue  # dependent hyperplanes: the counts are not defined
            defined += 1
            assert k_counts(tets) == expected
        assert defined > 30

    def test_k_counts_build_no_structure(self, monkeypatch):
        def build(*_args):
            raise AssertionError("k_counts built a structure")

        monkeypatch.setattr(rt, "build", build)
        self.test_k_counts_equal_oracle()

    def test_witness_solves(self, monkeypatch):
        current = []    # the two tetrahedra of the running edge_face_witness
        solves = {}     # (id, id) of those two -> each solve's result, in order
        real_witness = arrangement.edge_face_witness

        def witness(t1, t2, *rest):
            current[:] = [t1, t2]
            try:
                return real_witness(t1, t2, *rest)
            finally:
                current.clear()

        def counted(real):
            def solve(*args):
                out = real(*args)
                solves.setdefault(tuple(map(id, current)), []).append(out)
                return out
            return solve

        monkeypatch.setattr(arrangement, "edge_face_witness", witness)
        monkeypatch.setattr(kernel4d, "segment_tetra_direct", counted(kernel4d.segment_tetra_direct))
        monkeypatch.setattr(kernel4d, "tri_tri_any", counted(kernel4d.tri_tri_any))
        by_boxes = by_sides = 0
        for tets in _seeded_scenes():
            solves.clear()
            got = pairwise(tets)
            pres = [TetraPre(t) for t in tets]
            solved = {}
            for key, outs in solves.items():
                # every solve runs for one pair, and none after its first hit
                assert len(key) == 2 and all(o is None for o in outs[:-1])
                a, b = (next(i for i, t in enumerate(tets) if id(t) == k) for k in key)
                assert a < b
                solved[(a, b)] = outs[-1] is not None
            assert [w.pair for w in got] == sorted(p for p, hit in solved.items() if hit)
            for a, b in itertools.combinations(range(len(tets)), 2):
                if not _boxes_meet(tets[a].vertices, tets[b].vertices):
                    by_boxes += 1
                    assert (a, b) not in solved
                elif _separated(pres[a], tets[b]) or _separated(pres[b], tets[a]):
                    by_sides += 1
                    assert (a, b) not in solved
                else:
                    assert (a, b) in solved
        assert by_boxes > 0 and by_sides > 0

    def test_one_contact_per_pair(self, monkeypatch):
        contacts = []
        real_contact = arrangement._contact

        def contact(ti, tj, *rest):
            contacts.append((ti, tj))
            return real_contact(ti, tj, *rest)

        monkeypatch.setattr(arrangement, "_contact", contact)
        for tets in _seeded_scenes()[:4]:
            contacts.clear()
            k2, k3, _k4 = k_counts(tets)
            index = {id(t): i for i, t in enumerate(tets)}
            pairs = sorted(tuple(sorted((index[id(a)], index[id(b)]))) for a, b in contacts)
            assert k3 > 0 and pairs == [w.pair for w in pairwise(tets)] and len(pairs) == k2


class TestIntersectionPolygon:
    def test_empty_raises(self, rng):
        a, b = far_apart_tetra(rng, 2)
        with pytest.raises(EmptyIntersection):
            intersection_polygon(a, b)

    def test_single_point_contact_degenerate(self):
        # two tetrahedra sharing exactly one vertex
        a = Tetrahedron4(Point4(0, 0, 0, 0), Point4(1, 0, 0, 0),
                         Point4(0, 1, 0, 0), Point4(0, 0, 1, 0))
        b = Tetrahedron4(Point4(0, 0, 0, 0), Point4(-1, 0, 0, 0),
                         Point4(0, -1, 0, 0), Point4(0, 0, 0, -1))
        with pytest.raises((DegeneratePosition, EmptyIntersection)):
            intersection_polygon(a, b)

    def test_vertices_in_both_and_convex(self, rng):
        found = 0
        trials = 0
        while found < 12 and trials < 400:
            trials += 1
            tets = cluster_tetra(rng, (0, 1, -1, 0), 2)
            try:
                poly = intersection_polygon(tets[0], tets[1])
            except (EmptyIntersection, DegeneratePosition):
                continue
            found += 1
            assert 3 <= len(poly.ordered_vertices) <= 8
            pres = [TetraPre(t) for t in tets]
            for v in poly.ordered_vertices:
                assert pres[0].contains(v) and pres[1].contains(v)
            # convex position in cyclic order: all cross products same sign
            pts = poly.ordered_vertices
            # project to a planar chart spanned by the polygon itself
            o = pts[0]
            from tet4d.kernel4d import _sub

            d1 = _sub(pts[1], o)
            d2 = _sub(pts[-1], o)
            ci, cj = None, None
            for i in range(4):
                for j in range(i + 1, 4):
                    if d1[i] * d2[j] - d1[j] * d2[i] != 0:
                        ci, cj = i, j
                        break
                if ci is not None:
                    break
            flat = [(p[ci], p[cj]) for p in pts]
            m = len(flat)
            crosses = []
            for k in range(m):
                ax, ay = flat[k]
                bx, by = flat[(k + 1) % m]
                cx, cy = flat[(k + 2) % m]
                crosses.append((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
            pos = [c for c in crosses if c > 0]
            neg = [c for c in crosses if c < 0]
            assert not (pos and neg)
        assert found >= 12


class TestReduction:
    def test_single_neighbour_no_triples(self, rng):
        while True:
            tets = cluster_tetra(rng, (0, 0, 0, 0), 2)
            try:
                triples, quads = per_tetra_reduction(tets[0], [(1, tets[1])], 0)
                break
            except (EmptyIntersection, DegeneratePosition):
                continue
        assert triples == {} and quads == {}

    def test_counts_match_oracle(self, rng):
        for trial in range(5):
            tets = []
            for c in range(rng.randint(1, 2)):
                core = tuple(rng.randint(-4, 4) + 150 * c for _ in range(4))
                tets += cluster_tetra(rng, core, rng.randint(5, 7))
            kc = arrangement_k_counts(tets)
            assert k_counts(tets) == kc.counts()

    def test_monotone_under_additions(self, rng):
        core = (1, -2, 0, 3)
        tets = cluster_tetra(rng, core, 7)
        prev = (0, 0, 0)
        for upto in range(2, 8):
            cur = k_counts(tets[:upto])
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur


class TestChain:
    def test_k4_ge_k3_ge_k2(self, rng):
        for _ in range(5):
            tets = cluster_tetra(rng, tuple(rng.randint(-3, 3) for _ in range(4)),
                                 rng.randint(5, 8))
            k2, k3, k4 = k_counts(tets)
            assert k4 >= k3 >= k2 > 0


# ---------------------------------------------------------------------------
# degenerate contacts


def _tet(*pts):
    return Tetrahedron4(*(Point4(*p) for p in pts))


def _acceptance_scene(index):
    """Scene `index` of test_acceptance.test_arrangement_acceptance."""
    rng = random.Random(0xA44)
    for i in range(index + 1):
        n_clusters = 1 + (i % 3) + (2 if i % 17 == 16 else 0)
        tets = []
        for c in range(n_clusters):
            core = tuple(rng.randint(-4, 4) + 300 * c for _ in range(4))
            g = rng.randint(5, 8)
            if len(tets) + g > 50:
                break
            tets += cluster_tetra(rng, core, g, spread=12)
    return tets


def _touching_clusters():
    tets = []
    for k in range(4):
        tets += decode_objects(generate("TETRAHEDRA", 5, 4, 70 + k, spread=12, style="cluster"))
    return tets


# tetrahedra 4 and 5 of acceptance scene 83; the edge E of t5 lies in the
# hyperplane x + z = 2 of t4 and misses t4, so its clip is empty
T4 = _tet((6, -10, -4, -8), (-4, 3, 6, 1), (-5, 5, 7, 9), (7, -2, -5, 6))
T5 = _tet((-3, 5, 7, 9), (3, 1, -1, -8), (2, 5, -2, 12), (2, -15, 0, -5))
E = (Point4(3, 1, -1, -8), Point4(2, -15, 0, -5))
# a pair whose in-plane edge (the first two vertices of B) crosses A
A = _tet((0, 0, 0, 0), (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0))
B = _tet((1, 1, -2, 0), (1, 1, 6, 0), (0, 0, 2, 2), (3, 0, 2, -2))


class TestInPlaneEdges:
    @pytest.mark.parametrize("ti, tj, edge", [(T4, T5, E), (A, B, B.vertices[:2])])
    def test_polygon_vertices_exact(self, ti, tj, edge):
        pre_i, pre_j = TetraPre(ti), TetraPre(tj)
        assert all(sum(pre_i.n[c] * p[c] for c in range(4)) == pre_i.c for p in edge)
        poly = intersection_polygon(ti, tj)
        verts = set(map(tuple, poly.ordered_vertices))
        for v in poly.ordered_vertices:
            assert pre_i.contains(v) and pre_j.contains(v)
        assert verts == simplex_meet_vertices([ti.vertices, tj.vertices])
        # the ends of the edge clipped to ti are vertices of the polygon
        assert simplex_meet_vertices([edge, ti.vertices]) <= verts

    def test_clip_ends_of_crossing_edge(self):
        verts = set(map(tuple, intersection_polygon(A, B).ordered_vertices))
        assert {(1, 1, 0, 0), (1, 1, 2, 0)} <= verts

    def test_scene83_counts_match_oracle(self):
        tets = _acceptance_scene(83)
        assert len(tets) == 17 and tets[4] == T4 and tets[5] == T5
        assert k_counts(tets) == arrangement_k_counts(tets).counts()


# T0 lies in w = 0, A_SLAB in z = 0 and both B's in z + w = 0, so the three
# hyperplanes share the 2-plane z = w = 0.  A_SLAB and each B meet T0 in a
# triangle there, and the two triangles' boxes meet.  In (x, y), A_SLAB's
# piece is (0, 0), (4, 0), (0, 4); B_APART's lies beyond x + y = 4, and
# B_OVER's reaches inside it
T0 = _tet((-10, -10, -1, 0), (20, -10, -1, 0), (-10, 20, -1, 0), (0, 0, 5, 0))
A_SLAB = _tet((0, 0, 0, -1), (8, 0, 0, 1), (0, 8, 0, 1), (0, 0, 0, 1))
B_APART = _tet((3, 3, 0, 0), (4, 4, 0, 0), (2, 4, 0, 0), (3, 4, 1, -1))
B_OVER = _tet((1, 1, 0, 0), (2, 2, 0, 0), (0, 2, 0, 0), (1, 2, 1, -1))


class TestTouchingContacts:
    def test_segment_contact_degenerate(self):
        # two tetrahedra sharing exactly one edge, in different hyperplanes
        a = _tet((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        b = _tet((0, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1))
        with pytest.raises(DegeneratePosition):
            intersection_polygon(a, b)
        c = _tet((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0), (0, 1, 0, -1))
        assert k_counts([a, b, c]) == arrangement_k_counts([a, b, c]).counts()

    def test_same_hyperplane_pair(self):
        # a and b overlap inside w = 0; c meets a but not b, so no triple
        # holds both and the counts are defined
        a = _tet((0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0))
        b = _tet((1, 0, 0, 0), (3, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0))
        c = _tet((0, 0, 0, 1), (0, 0, 0, -1), (-1, 1, 0, 0), (0, 0, 1, 0))
        with pytest.raises(DegeneratePosition):
            intersection_polygon(a, b)
        tets = [a, b, c]
        assert k_counts(tets) == arrangement_k_counts(tets).counts() == _brute_counts(tets)

    def test_three_hyperplanes_through_one_2plane(self):
        tets = [T0, A_SLAB, B_APART]
        assert k_counts(tets) == arrangement_k_counts(tets).counts() == _brute_counts(tets)

    def test_touching_clusters_match_oracle(self):
        tets = _touching_clusters()
        assert k_counts(tets) == arrangement_k_counts(tets).counts()


def _reductions(tets):
    """(i, neighbours) for each tetrahedron with larger-index neighbours, as
    k_counts reduces them."""
    later = {}
    for w in pairwise(tets):
        later.setdefault(w.pair[0], []).append(w.pair[1])
    return [(i, [(j, tets[j]) for j in nbrs]) for i, nbrs in later.items()]


def _boxes_meet(va, vb):
    return all(min(p[k] for p in va) <= max(p[k] for p in vb)
               and min(p[k] for p in vb) <= max(p[k] for p in va) for k in range(4))


def _separated(pre, t):
    """Every vertex of t strictly on one side of pre's hyperplane."""
    sides = {(d > 0) - (d < 0) for d in (sum(n * x for n, x in zip(pre.n, v)) - pre.c
                                         for v in t.vertices)}
    return sides in ({1}, {-1})


class TestBoxSweep:
    def test_pairs_equal_all_pairs_filter(self):
        rng = random.Random(0xB0C5)
        touching = tied = 0
        for _ in range(300):
            n = rng.randint(0, 12)
            boxes = []
            for _ in range(n):
                lo = [rng.randint(-4, 4) for _ in range(4)]
                boxes.append((*lo, *(x + rng.randint(0, 3) for x in lo)))
            expected = [(i, j) for i, j in itertools.combinations(range(n), 2)
                        if all(boxes[i][k] <= boxes[j][k + 4] and boxes[j][k] <= boxes[i][k + 4]
                               for k in range(4))]
            assert arrangement._box_pairs(boxes) == expected
            for i, j in expected:
                touching += boxes[i][4] == boxes[j][0] or boxes[j][4] == boxes[i][0]
                tied += boxes[i][0] == boxes[j][0]
        assert touching > 0 and tied > 0


class TestTriplesInR4:
    """A triple through t0 is one contact piece's chord on the other
    neighbour's hyperplane, clipped to that neighbour."""

    def test_ends_and_quad_points_in_every_member(self):
        rng = random.Random(0x3C0)
        scenes = _seeded_scenes() + [_lattice_scene(rng) for _ in range(60)]
        triples = quads = 0
        for tets in scenes:
            pres = [TetraPre(t) for t in tets]
            for i, nbrs in _reductions(tets):
                try:
                    got3, got4 = per_tetra_reduction(tets[i], nbrs, i)
                except GeometryError:
                    continue  # dependent hyperplanes
                for key, (wit, ends) in got3.items():
                    assert i in key and len(ends) == 2
                    for p in (wit, *ends):
                        assert all(pres[m].contains(p) for m in key)
                for key, p in got4.items():
                    assert i in key and all(pres[m].contains(p) for m in key)
                triples += len(got3)
                quads += len(got4)
        assert triples > 100 and quads > 10

    @pytest.mark.parametrize("b, meet", [(B_APART, False), (B_OVER, True)], ids=["apart", "overlap"])
    def test_polygon_pieces_in_one_2plane(self, b, meet):
        pre0 = TetraPre(T0)
        pieces = [arrangement._contact(T0, t, pre0, TetraPre(t)) for t in (A_SLAB, b)]
        assert all(len(v) == 3 and all(p.z == p.w == 0 for p in v) for v in pieces)
        assert _boxes_meet(*pieces)
        if meet:
            with pytest.raises(DegeneratePosition, match="coplanar polygon pieces"):
                per_tetra_reduction(T0, [(1, A_SLAB), (2, b)], 0)
        else:
            assert per_tetra_reduction(T0, [(1, A_SLAB), (2, b)], 0) == ({}, {})

    def test_chords_only_pieces_whose_boxes_meet(self, monkeypatch):
        calls = []
        real_chord = arrangement._chord

        def chord(verts, pre):
            calls.append(verts)
            return real_chord(verts, pre)

        monkeypatch.setattr(arrangement, "_chord", chord)
        skipped = 0
        for tets in _seeded_scenes()[:4]:
            for i, nbrs in _reductions(tets):
                pre0 = TetraPre(tets[i])
                pieces = [arrangement._contact(tets[i], t, pre0, TetraPre(t)) for _j, t in nbrs]
                pieces = [v for v in pieces if v]
                pairs = list(itertools.combinations(pieces, 2))
                meeting = sum(_boxes_meet(va, vb) for va, vb in pairs)
                calls.clear()
                per_tetra_reduction(tets[i], nbrs, i)
                assert len(calls) == meeting
                skipped += len(pairs) - meeting
        assert skipped > 0


_lattice = st.tuples(*(st.integers(-3, 3) for _ in range(4)))


@st.composite
def _shared_vertex_scene(draw):
    """3 or 4 tetrahedra on a pool of 6 to 8 lattice points: they share
    vertices, edges and faces, and often lie in one hyperplane."""
    pool = draw(st.lists(_lattice, min_size=6, max_size=8, unique=True))
    tets = []
    for _ in range(draw(st.integers(3, 4))):
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=4, max_size=4, unique=True))
        try:
            tets.append(_tet(*(pool[i] for i in idx)))
        except DegenerateTetrahedron:
            pass
    return tets


def _brute_counts(tets):
    """(k2, k3, k4) from exact vertex enumeration of every subset."""
    meet = lambda ts: simplex_meet_vertices([t.vertices for t in ts])
    pairs, triples, quads = brute_k_subsets(tets, None, lambda ts: bool(meet(ts)))
    verts = set()
    for key in triples + quads:
        verts |= meet([tets[i] for i in key])
    return len(pairs), len(triples), len(verts)


@settings(max_examples=15, deadline=None)
@given(_shared_vertex_scene())
def test_shared_vertices_match_oracle_and_brute_force(tets):
    try:
        expected = arrangement_k_counts(tets).counts()
    except GeometryError:
        return  # dependent hyperplanes: the counts are not defined
    assert k_counts(tets) == expected == _brute_counts(tets)


# ---------------------------------------------------------------------------
# contacts by section and clip


def _deep_report_clusters(seed):
    """The arrangement scene of a deep-report benchmark run with this seed:
    four generated clusters of five, 100 apart along x."""
    tets = []
    for k in range(4):
        scene = generate("TETRAHEDRA", 5, 4, 1000 * seed + 10 + k, spread=12, style="cluster")
        tets += [Tetrahedron4(*(Point4(p.x + 100 * k, p.y, p.z, p.w) for p in t.vertices))
                 for t in decode_objects(scene)]
    return tets


def _typed_contact(verts):
    return None if verts is None else [tuple((type(c), c) for c in p) for p in verts]


def _contact_pair(ti, tj):
    return arrangement._contact(ti, tj, TetraPre(ti), TetraPre(tj))


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_rational_point = st.tuples(*(_rational for _ in range(4)))


@st.composite
def _rational_pair(draw):
    """Two tetrahedra with rational vertices; tj's vertices average to ti's
    centroid unless the draw says otherwise, so most pairs meet."""
    ti = draw(st.lists(_rational_point, min_size=4, max_size=4))
    tj = draw(st.lists(_rational_point, min_size=3, max_size=3))
    if draw(st.booleans()):
        tj.append(tuple(sum(p[c] for p in ti) - sum(p[c] for p in tj) for c in range(4)))
    else:
        tj.append(draw(_rational_point))
    try:
        return _tet(*ti), _tet(*tj)
    except DegenerateTetrahedron:
        return None


class TestSectionAndClip:
    """_contact cuts ti's section by tj's hyperplane with tj's four facet
    forms; contact_reference enumerates edge clips and face-pair points."""

    def test_equals_reference_on_scenes(self):
        rng = random.Random(0x5EC7)
        scenes = [_deep_report_clusters(seed) for seed in (1, 2, 3)]
        scenes += [_lattice_scene(rng) for _ in range(300)]
        sizes = []
        for tets in scenes:
            for ti, tj in itertools.permutations(tets, 2):
                got = _contact_pair(ti, tj)
                assert _typed_contact(got) == _typed_contact(contact_reference(ti, tj))
                sizes.append(-1 if got is None else len(got))
        # polygons, segments, points, misses and shared hyperplanes all occur
        assert {-1, 0, 1, 2, 3, 4, 5, 6} <= set(sizes)

    @settings(max_examples=60, deadline=None)
    @given(_rational_pair())
    def test_equals_reference_on_rational_vertices(self, pair):
        if pair is not None:
            ti, tj = pair
            for a, b in ((ti, tj), (tj, ti)):
                assert _typed_contact(_contact_pair(a, b)) == _typed_contact(contact_reference(a, b))

    # a: the unit simplex in w = 0; each other tetrahedron meets it as named
    _A = _tet((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    HAND_BUILT = {
        "edge in the other hyperplane": (A, B, 5),
        "edge in the other hyperplane, clip empty": (T4, T5, 4),
        "vertex touch": (_A, _tet((0, 0, 0, 0), (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, -1)), 1),
        "segment touch": (_A, _tet((0, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1)), 2),
        "one hyperplane": (_A, _tet((1, 0, 0, 0), (3, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0)), None),
        "parallel hyperplanes": (_A, _tet((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)), 0),
    }

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_contacts(self, name):
        ti, tj, size = self.HAND_BUILT[name]
        for a, b in ((ti, tj), (tj, ti)):
            got = _contact_pair(a, b)
            assert (None if got is None else len(got)) == size
            assert _typed_contact(got) == _typed_contact(contact_reference(a, b))
            if got:
                assert set(map(tuple, got)) == simplex_meet_vertices([a.vertices, b.vertices])


class TestExactWorkCounts:
    """k_counts reads each contact, chord and clip off integer rows: no
    direct solve (and det5h is no longer in the package), and each TetraPre
    builds its forms once."""

    def test_no_solves_in_the_reduction(self, monkeypatch):
        calls = {"linsolve": 0, "tri_tri_direct": 0}
        depth = [0]

        def counted(name):
            real = getattr(kernel4d, name)

            def f(*args):
                calls[name] += depth[0] > 0
                return real(*args)
            return f

        def inside(real):
            def f(*args):
                depth[0] += 1
                try:
                    return real(*args)
                finally:
                    depth[0] -= 1
            return f

        for name in calls:
            monkeypatch.setattr(kernel4d, name, counted(name))
        monkeypatch.setattr(arrangement, "per_tetra_reduction", inside(arrangement.per_tetra_reduction))
        monkeypatch.setattr(arrangement, "_contact", inside(arrangement._contact))
        k3 = 0
        for tets in [_deep_report_clusters(seed) for seed in (1, 2, 3)] + _seeded_scenes()[:4]:
            k3 += k_counts(tets)[1]
        assert k3 > 0 and calls == {"linsolve": 0, "tri_tri_direct": 0}

    def test_forms_built_once_and_held_by_their_tetrapre(self, monkeypatch):
        built = []
        real = kernel4d._affine_forms

        def forms(pre):
            out = real(pre)
            built.append((pre, out))
            return out

        monkeypatch.setattr(kernel4d, "_affine_forms", forms)
        tets = _deep_report_clusters(1)
        k_counts(tets)
        assert built
        assert len({id(pre) for pre, _out in built}) == len(built)
        assert all(pre._forms is out for pre, out in built)
        built.clear()
        count = [0]

        def counted(pre):
            count[0] += 1
            return real(pre)

        def live():
            gc.collect()
            return sum(type(o) is TetraPre for o in gc.get_objects())

        # no cache outside the TetraPre keeps one alive across calls
        monkeypatch.setattr(kernel4d, "_affine_forms", counted)
        before = live()
        k_counts(tets)
        assert count[0] > 0 and live() == before
