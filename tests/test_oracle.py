from fractions import Fraction

import pytest

from _oracles import lp_seg_tetra_feasible
from conftest import cluster_tetra, rnd_flat, rnd_point, rnd_segment, rnd_tetra, rnd_triangle
from tet4d.kernel4d import (
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    generic_shear,
    orient5,
    tetra_tetra_intersect,
)
from tet4d.oracle import (
    PROBLEMS,
    SETUP_LINE_2FLAT,
    IntersectionReport,
    QueryMode,
    arrangement_k_counts,
    brute_query,
    line_2flat_query,
    ray_shoot,
    seg_tetra_query,
    tetra_seg_query,
    tri_tri_query,
)

F = Fraction
MODES = (QueryMode.DETECT, QueryMode.COUNT, QueryMode.REPORT)


class TestSegTetraQuery:
    def test_empty_inputs(self):
        rep = seg_tetra_query([], [], QueryMode.COUNT)
        assert rep == IntersectionReport(False, 0, [])

    def test_single_hit(self, simplex_tetra):
        e = Segment4(Point4(0, 0, 0, 0), Point4(1, 1, 1, 1))
        rep = seg_tetra_query([e], [simplex_tetra], QueryMode.COUNT)
        assert rep.count == 1 and rep.detected

    def test_count_matches_second_brute_force(self, rng):
        segs = [rnd_segment(rng, 6, 7) for _ in range(50)]
        tets = [rnd_tetra(rng, 6, 7) for _ in range(50)]
        rep = seg_tetra_query(segs, tets, QueryMode.COUNT)
        expect = sum(lp_seg_tetra_feasible(e, t) for e in segs for t in tets)
        assert rep.count == expect

    def test_mode_consistency(self, rng):
        segs = [rnd_segment(rng, 5, 7) for _ in range(20)]
        tets = [rnd_tetra(rng, 5, 7) for _ in range(20)]
        rep_c = seg_tetra_query(segs, tets, QueryMode.COUNT)
        rep_r = seg_tetra_query(segs, tets, QueryMode.REPORT)
        rep_d = seg_tetra_query(segs, tets, QueryMode.DETECT)
        assert rep_d.detected == (rep_c.count > 0) == bool(rep_r.pairs)
        assert rep_c.count == len(rep_r.pairs)
        assert rep_r.pairs == sorted(rep_r.pairs)

    def test_shear_invariance(self, rng):
        segs = [rnd_segment(rng, 5, 7) for _ in range(15)]
        tets = [rnd_tetra(rng, 5, 7) for _ in range(15)]
        base = seg_tetra_query(segs, tets, QueryMode.COUNT).count
        ssegs = [Segment4(*generic_shear([s.a, s.b], 2)) for s in segs]
        stets = [Tetrahedron4(*generic_shear(list(t.vertices), 2)) for t in tets]
        assert seg_tetra_query(ssegs, stets, QueryMode.COUNT).count == base

    def test_relabeling_permutes_report(self, rng):
        segs = [rnd_segment(rng, 5, 7) for _ in range(10)]
        tets = [rnd_tetra(rng, 5, 7) for _ in range(10)]
        rep = seg_tetra_query(segs, tets, QueryMode.REPORT)
        perm = list(range(10))
        rng.shuffle(perm)
        rep2 = seg_tetra_query([segs[i] for i in perm], tets, QueryMode.REPORT)
        expect = sorted((perm.index(i), j) for (i, j, _w) in rep.pairs)
        assert [(i, j) for (i, j, _w) in rep2.pairs] == expect


class TestTetraSegQuery:
    def test_roles_flipped(self, rng):
        segs = [rnd_segment(rng, 5, 7) for _ in range(15)]
        tets = [rnd_tetra(rng, 5, 7) for _ in range(15)]
        a = seg_tetra_query(segs, tets, QueryMode.REPORT)
        b = tetra_seg_query(tets, segs, QueryMode.REPORT)
        assert sorted((j, i) for (i, j, _w) in a.pairs) == [(i, j) for (i, j, _w) in b.pairs]


class TestTriTriQuery:
    def test_disjoint_translates(self, rng):
        tri = rnd_triangle(rng, 3, 3)
        far = [type(tri)(*(Point4(p.x + 100 * (k + 1), p.y, p.z, p.w) for p in tri.vertices))
               for k in range(5)]
        rep = tri_tri_query([tri], far, QueryMode.COUNT)
        assert rep.count == 0

    def test_constructed_pair(self):
        from test_kernel4d import SPEC_T1, SPEC_T2

        rep = tri_tri_query([SPEC_T1], [SPEC_T2], QueryMode.COUNT)
        assert rep.count == 1

    def test_random_crosscheck_with_kernel(self, rng):
        from tet4d.kernel4d import tri_tri_hit

        red = [rnd_triangle(rng, 5, 7) for _ in range(30)]
        blue = [rnd_triangle(rng, 5, 7) for _ in range(30)]
        rep = tri_tri_query(red, blue, QueryMode.COUNT)
        expect = sum(tri_tri_hit(a, b) for a in red for b in blue)
        assert rep.count == expect


class TestRayShoot:
    def test_diagonal_ray(self, simplex_tetra):
        got = ray_shoot(Point4(0, 0, 0, 0), (1, 1, 1, 1), [simplex_tetra])
        assert got is not None
        idx, w = got
        assert idx == 0 and w == Point4(F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_ray_away(self, simplex_tetra):
        assert ray_shoot(Point4(0, 0, 0, 0), (-1, -1, -1, -1), [simplex_tetra]) is None

    def test_first_hit_is_minimal(self, rng):
        from tet4d.kernel4d import line_tetra_interval

        for _ in range(25):
            tets = [rnd_tetra(rng, 6, 7) for _ in range(12)]
            o = rnd_point(rng, 6)
            d = tuple(rng.randint(-3, 3) for _ in range(4))
            if not any(d):
                continue
            got = ray_shoot(o, d, tets)
            # exhaustive check over all hit parameters
            best = None
            for j, t in enumerate(tets):
                res = line_tetra_interval(o, d, t)
                if res is None:
                    continue
                if res[0] == "point":
                    th = res[1]
                    if th < 0:
                        continue
                else:
                    _tag, lo, hi = res
                    if hi is not None and hi < 0:
                        continue
                    th = lo if (lo is not None and lo > 0) else F(0)
                if best is None or th < best[0]:
                    best = (th, j)
            if got is None:
                assert best is None
            else:
                assert best is not None and got[0] == best[1]

    def test_ties_break_to_smaller_index(self, simplex_tetra):
        got = ray_shoot(Point4(0, 0, 0, 0), (1, 1, 1, 1),
                        [simplex_tetra, simplex_tetra])
        assert got[0] == 0

    def test_zero_direction_raises(self, simplex_tetra):
        with pytest.raises(ValueError):
            ray_shoot(Point4(0, 0, 0, 0), (0, 0, 0, 0), [simplex_tetra])


class TestLineFlatQuery:
    def test_batch_matches_kernel(self, rng):
        from tet4d.kernel4d import line_2flat_meet

        flats = [rnd_flat(rng, 6, 6) for _ in range(15)]
        lines = []
        for k in range(10):
            f = flats[k % len(flats)]
            p = Point4(*(f[0][i] + 2 * (f[1][i] - f[0][i]) for i in range(4)))
            d = rnd_point(rng, 4)
            if all(c == 0 for c in d):
                d = Point4(1, 0, 0, 0)
            lines.append(Segment4(p, Point4(*(p[i] + d[i] for i in range(4)))))
        rep = line_2flat_query(lines, flats, QueryMode.COUNT)
        expect = 0
        for ln in lines:
            for fl in flats:
                expect += line_2flat_meet(ln, fl) is not None
        assert rep.count == expect and expect >= len(lines)


def _line_flat_scene(rng, n=12):
    """Lattice flats and, per flat, a line inside it, a line parallel to it
    in a common hyperplane, a line through one of its points and a random
    line; coordinates are small so that zero signs are common."""
    flats, lines, kinds = [], [], []
    while len(flats) < n:
        f = rnd_flat(rng, 2, 2)
        g1, g2 = (tuple(f[k][i] - f[0][i] for i in range(4)) for k in (1, 2))
        u, v = (tuple(f[0][i] + c for i, c in enumerate(rnd_point(rng, 2))) for _ in range(2))
        if orient5(*f, u, v) == 0:
            continue  # u - f0 must leave the flat's direction for the parallel line
        p = tuple(f[0][i] + g1[i] - g2[i] for i in range(4))
        d = rnd_point(rng, 2)
        r = rnd_segment(rng, 2, 2)
        flats.append(f)
        for kind, a, b in (
                ("inside", f[1], tuple(f[1][i] + g1[i] + 2 * g2[i] for i in range(4))),
                ("parallel", u, tuple(u[i] + g1[i] - g2[i] for i in range(4))),
                ("meet", tuple(p[i] - d[i] for i in range(4)), tuple(p[i] + 2 * d[i] for i in range(4))),
                ("random", r.a, r.b)):
            if a != b:
                lines.append(Segment4(Point4(*a), Point4(*b)))
                kinds.append((kind, len(flats) - 1))
    return lines, flats, kinds


class TestLineFlatSignFirst:
    def test_hit_equals_witness(self, rng):
        """hit is the witness's existence on every pair, and each built line
        falls where it was built: inside and through-a-point lines meet
        their flat with orient5 zero, parallel ones miss it with orient5
        zero, and nonzero orient5 is a miss."""
        hit, witness = PROBLEMS[SETUP_LINE_2FLAT][2:]
        lines, flats, kinds = _line_flat_scene(rng)
        seen = set()
        for ln, (kind, k) in zip(lines, kinds):
            for j, fl in enumerate(flats):
                zero = orient5(ln.a, ln.b, *fl) == 0
                got = hit(ln, fl)
                assert got == (witness(ln, fl) is not None)
                if j == k and kind != "random":
                    assert zero and got == (kind != "parallel")
                seen.add((zero, got))
        # skew pairs miss; zero signs give hits and misses
        assert seen == {(False, False), (True, True), (True, False)}

    def test_solver_only_on_zero_signs(self, monkeypatch, rng):
        """brute_query solves only the pairs with orient5 zero, then once
        more per hit for its witness."""
        import tet4d.oracle as oracle_mod

        calls = []
        solve = oracle_mod.line_2flat_meet
        monkeypatch.setattr(oracle_mod, "line_2flat_meet",
                            lambda line, flat: calls.append((line, tuple(flat))) or solve(line, flat))
        lines, flats, _kinds = _line_flat_scene(rng, 8)
        rep = brute_query(SETUP_LINE_2FLAT, lines, flats, QueryMode.REPORT)
        zero = [(ln, tuple(f)) for ln in lines for f in flats if orient5(ln.a, ln.b, *f) == 0]
        assert 0 < len(zero) < len(lines) * len(flats)
        assert calls == zero + [(lines[i], tuple(flats[j])) for (i, j, _w) in rep.pairs]


class TestKCounts:
    def test_disjoint_zeros(self, rng):
        tets = []
        for k in range(6):
            t = rnd_tetra(rng, 3, 3)
            tets.append(Tetrahedron4(*(Point4(p.x + 100 * k, p.y, p.z, p.w)
                                       for p in t.vertices)))
        kc = arrangement_k_counts(tets)
        assert kc.counts() == (0, 0, 0)

    def test_matches_unpruned_enumeration(self, rng):
        from itertools import combinations

        from tet4d.kernel4d import line_tetra_interval, linsolve

        tets = cluster_tetra(rng, (0, 1, -1, 2), 6, 10) + [rnd_tetra(rng, 5, 8) for _ in range(4)]
        kc = arrangement_k_counts(tets)
        pres = [TetraPre(t) for t in tets]

        def common(idxs):
            # brute common-point test: solve the hyperplane system, then
            # check membership of the solution family
            A = [list(pres[i].n) for i in idxs]
            b = [pres[i].c for i in idxs]
            sol = linsolve(A, b)
            if sol is None:
                return False
            part, basis = sol
            if not basis:
                return all(pres[i].contains(tuple(part)) for i in idxs)
            assert len(basis) == 1
            o, d = tuple(part), tuple(basis[0])
            lo, hi = None, None
            for i in idxs:
                res = line_tetra_interval(o, d, tets[i], pres[i])
                if res is None:
                    return False
                _tag, l2, h2 = res
                if l2 is not None:
                    lo = l2 if lo is None else max(lo, l2)
                if h2 is not None:
                    hi = h2 if hi is None else min(hi, h2)
            return not (lo is not None and hi is not None and lo > hi)

        n = len(tets)
        pairs = [c for c in combinations(range(n), 2)
                 if tetra_tetra_intersect(tets[c[0]], tets[c[1]], pres[c[0]], pres[c[1]]) is not None]
        triples = [c for c in combinations(range(n), 3) if common(c)]
        quads = [c for c in combinations(range(n), 4) if common(c)]
        assert kc.pair_set == pairs
        assert kc.triple_set == triples
        assert kc.quad_set == quads

    def test_chain_on_cluster_scene(self, rng):
        tets = cluster_tetra(rng, (1, 0, 2, -1), 7, 12)
        kc = arrangement_k_counts(tets)
        assert kc.k4 >= kc.k3 >= kc.k2 > 0

    def test_witnesses_are_members(self, rng):
        tets = cluster_tetra(rng, (0, 0, 0, 0), 6, 10)
        kc = arrangement_k_counts(tets)
        pres = [TetraPre(t) for t in tets]
        for (i, j), w in zip(kc.pair_set, kc.vertices):
            assert pres[i].contains(w) and pres[j].contains(w)
