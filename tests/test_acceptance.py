"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Criteria are exactness and oracle-equivalence based; the
asymptotic claims are checked analytically by the recurrence/tradeoff tests.

Scene sizes are drawn from a small-biased distribution bounded by the stated
maxima so the full protocol fits the stated time budgets in pure Python;
every size up to the maximum occurs.
"""

import csv
import json
import random
import time
import zlib
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import cluster_tetra, rnd_segment, rnd_tetra, rnd_triangle
from tet4d import rangetree as rt
from tet4d.kernel4d import (
    Point4,
    Segment4,
    TetraPre,
    TrianglePre,
    seg_tetra_hit,
    segment_tetra_direct,
    tri_tri_any,
    tri_tri_hit,
)
from tet4d.oracle import (
    QueryMode,
    arrangement_k_counts,
    line_2flat_query,
    seg_tetra_query,
    tetra_seg_query,
    tri_tri_query,
)
from tet4d.rangetree import StorageBudget

pytestmark = pytest.mark.acceptance

F = Fraction
SIGMAS = (1, F(3, 2), 2, 3, 6)
MODES = (QueryMode.DETECT, QueryMode.COUNT, QueryMode.REPORT)
# (coordinate range, object spread) presets; the last one exercises the
# stated 10^3 coordinate bound
PRESETS = ((6, 7), (10, 9), (25, 12), (1000, 400))


@contextmanager
def criterion(name, limit_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.time() - t0:.1f}s)", flush=True)
        raise
    dt = time.time() - t0
    print(f"\nACCEPTANCE {name}: PASS ({dt:.1f}s)", flush=True)
    assert dt <= limit_s, f"{name} exceeded the stated budget ({dt:.0f}s > {limit_s}s)"


def _size(rng, cap=200):
    return 1 + min(cap - 1, int(cap * rng.random() ** 6))


def _equivalence_protocol(name, make_input, make_query, setup, oracle_fn,
                          scenes=1000, limit_s=600, cap=200, big_every=97):
    # crc32, not hash(): string hashes change per process, and a failing
    # scene must be replayable from its index
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    with criterion(name, limit_s):
        for i in range(scenes):
            crange, spread = PRESETS[i % len(PRESETS)]
            if i % big_every == big_every - 1:
                n = m = cap
                crange, spread = 10, 9
            else:
                n, m = _size(rng, cap), _size(rng, cap)
            inputs = [make_input(rng, crange, spread) for _ in range(n)]
            queries = [make_query(rng, crange, spread) for _ in range(m)]
            sigma = SIGMAS[i % 5]
            mode = MODES[i % 3]
            sin, sq, _salt = rt.prepare_scene(setup, inputs, queries)
            st = rt.build(sin, setup, StorageBudget.from_sigma(n, sigma))
            rep, _stats, _per = rt.query_batch(st, sq, mode)
            oracle = oracle_fn(sq, sin, mode)
            assert rep == oracle, (name, i, sigma, mode)


def test_oracle_equivalence_setup_i():
    _equivalence_protocol(
        "setup (i) structure == oracle",
        lambda r, c, s: rnd_tetra(r, c, s),
        lambda r, c, s: rnd_segment(r, c, s),
        rt.SETUP_SEG_TETRA,
        lambda q, i, md: seg_tetra_query(q, i, md),
    )


def test_oracle_equivalence_setup_ii():
    _equivalence_protocol(
        "setup (ii) structure == oracle",
        lambda r, c, s: rnd_triangle(r, c, s),
        lambda r, c, s: rnd_triangle(r, c, s),
        rt.SETUP_TRI_TRI,
        lambda q, i, md: tri_tri_query(q, i, md),
        cap=120,
    )


def test_oracle_equivalence_setup_iii():
    _equivalence_protocol(
        "setup (iii) structure == oracle",
        lambda r, c, s: rnd_segment(r, c, s),
        lambda r, c, s: rnd_tetra(r, c, s),
        rt.SETUP_TETRA_SEG,
        lambda q, i, md: tetra_seg_query(q, i, md),
    )


def test_oracle_equivalence_line_flat():
    rng = random.Random(0x2F1A)
    with criterion("line vs 2-flat structure == oracle", 600):
        for i in range(1000):
            crange, spread = PRESETS[i % len(PRESETS)]
            n, m = _size(rng, 120), _size(rng, 60)
            flats = [rnd_triangle(rng, crange, spread).vertices for _ in range(n)]
            lines = []
            for _ in range(m):
                if rng.random() < 0.35:
                    f = flats[rng.randrange(n)]
                    lam, mu = rng.randint(-2, 2), rng.randint(-2, 2)
                    p = Point4(*(f[0][k] + lam * (f[1][k] - f[0][k])
                                 + mu * (f[2][k] - f[0][k]) for k in range(4)))
                    d = tuple(rng.randint(-spread, spread) for _ in range(4))
                    if not any(d):
                        d = (1, 0, 0, 0)
                    lines.append(Segment4(p, Point4(*(p[k] + d[k] for k in range(4)))))
                else:
                    lines.append(rnd_segment(rng, crange, spread))
            sigma = SIGMAS[i % 5]
            mode = MODES[i % 3]
            sin, sq, _salt = rt.prepare_scene(rt.SETUP_LINE_2FLAT, flats, lines)
            st = rt.build(sin, rt.SETUP_LINE_2FLAT, StorageBudget.from_sigma(n, sigma))
            rep, _stats, _per = rt.query_batch(st, sq, mode)
            assert rep == line_2flat_query(sq, sin, mode), (i, sigma, mode)


def test_predicate_direct_agreement():
    rng = random.Random(0xABCD)
    with criterion("predicate == direct on 1e5 pairs per family", 120):
        # segment / tetrahedron
        tets = [rnd_tetra(rng, 8, 8) for _ in range(250)]
        segs = [rnd_segment(rng, 8, 8) for _ in range(400)]
        pres = [TetraPre(t) for t in tets]
        checked = 0
        for e in segs:
            for t, pre in zip(tets, pres):
                direct = segment_tetra_direct(e, t, pre) is not None
                assert seg_tetra_hit(e, t, pre) == direct
                checked += 1
        assert checked == 100_000
        # a degenerate fixture gets the same single decision
        from tet4d.kernel4d import Tetrahedron4

        simplex = Tetrahedron4(Point4(1, 0, 0, 0), Point4(0, 1, 0, 0),
                               Point4(0, 0, 1, 0), Point4(0, 0, 0, 1))
        graze = Segment4(Point4(1, 0, 0, 0), Point4(2, 0, 0, 0))
        assert seg_tetra_hit(graze, simplex) is True
        assert segment_tetra_direct(graze, simplex) == Point4(1, 0, 0, 0)

        # triangle / triangle
        reds = [rnd_triangle(rng, 8, 8) for _ in range(250)]
        blues = [rnd_triangle(rng, 8, 8) for _ in range(400)]
        rpre = [TrianglePre(t) for t in reds]
        bpre = [TrianglePre(t) for t in blues]
        checked = 0
        for a, pa in zip(reds, rpre):
            for b, pb in zip(blues, bpre):
                direct = tri_tri_any(a, b) is not None
                assert tri_tri_hit(a, b, pa, pb) == direct
                checked += 1
        assert checked == 100_000


def test_ccd_acceptance():
    from _oracles import collision_verified_at, lifted_pairs
    from tet4d.ccd import MovingTetrahedron, detect_collisions

    rng = random.Random(0xCCD)

    def rnd_moving():
        while True:
            c = [rng.randint(-6, 6) for _ in range(3)]
            vs = tuple(tuple(c[k] + rng.randint(-4, 4) for k in range(3))
                       for _ in range(4))
            vel = tuple(rng.randint(-3, 3) for _ in range(3))
            try:
                return MovingTetrahedron(vs, vel, F(0), F(1))
            except ValueError:
                continue

    with criterion("CCD detect == lifted 4D prism reference", 300):
        for i in range(100):
            n = 2 + min(28, int(29 * rng.random() ** 2))
            scene = [rnd_moving() for _ in range(n)]
            rep = detect_collisions(scene, QueryMode.REPORT)
            assert [(a, b) for (a, b, _w) in rep.pairs] == lifted_pairs(scene), i
            for (a, b, w) in rep.pairs:
                assert scene[a].contains_at(w[:3], w.w) and scene[b].contains_at(w[:3], w.w)
                assert collision_verified_at(scene, a, b, w.w)

        unit = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        ident = [MovingTetrahedron(unit, (0, 0, 0), F(0), F(1)) for _ in range(2)]
        rep = detect_collisions(ident, QueryMode.REPORT)
        assert rep.detected and collision_verified_at(ident, 0, 1, rep.pairs[0][2].w)
        far = tuple(tuple(c + 10 for c in v) for v in unit)
        assert not detect_collisions(
            [ident[0], MovingTetrahedron(far, (0, 0, 0), F(0), F(1))],
            QueryMode.DETECT).detected
        flyer = MovingTetrahedron(tuple((v[0] + 5, v[1], v[2]) for v in unit),
                                  (-10, 0, 0), F(0), F(1))
        rep = detect_collisions([ident[0], flyer], QueryMode.REPORT)
        assert rep.detected
        assert collision_verified_at([ident[0], flyer], 0, 1, rep.pairs[0][2].w)


def test_arrangement_acceptance():
    from tet4d.arrangement import k_counts

    rng = random.Random(0xA44)
    with criterion("arrangement counts == exhaustive; k4 >= k3 >= k2", 600):
        for i in range(100):
            n_clusters = 1 + (i % 3) + (2 if i % 17 == 16 else 0)
            tets = []
            for c in range(n_clusters):
                core = tuple(rng.randint(-4, 4) + 300 * c for _ in range(4))
                g = rng.randint(5, 8)
                if len(tets) + g > 50:
                    break
                tets += cluster_tetra(rng, core, g, spread=12)
            oracle = arrangement_k_counts(tets)
            got = k_counts(tets)
            assert got == oracle.counts(), i
            k2, k3, k4 = got
            assert k4 >= k3 >= k2, (i, got)


def test_tradeoff_formulas():
    from tet4d.complexity import batched_cost_exponents, q_tradeoff_exponent

    with criterion("tradeoff closed forms", 60):
        assert q_tradeoff_exponent(2) == F(1, 2)
        assert q_tradeoff_exponent(1) == F(5, 6)
        assert q_tradeoff_exponent(6) == 0
        assert batched_cost_exponents(1) == F(13, 8)
        # crossover of the two batched bounds at mu = 3/2, exactly
        mu = F(3, 2)
        assert F(3) * mu / 4 + F(7, 8) == F(8) * mu / 9 + F(2, 3) == 2
        assert batched_cost_exponents(mu) == 2


def test_recurrence_unfolding():
    from tet4d.complexity import (
        premature_query_exponent,
        q_tradeoff_exponent,
        unfold_wide,
    )

    with criterion("recurrence exponents 2.00/0.50 +- 0.05; premature grid", 60):
        sfit, qfit = unfold_wide()
        assert abs(sfit.exponent - 2.0) <= 0.05, sfit
        assert abs(qfit.exponent - 0.5) <= 0.05, qfit
        for k in range(0, 51):
            sig = 1 + F(k, 10)
            assert abs(premature_query_exponent(sig) - q_tradeoff_exponent(sig)) <= F(1, 50)


def test_structural_monotonicity_and_bench(tmp_path):
    from tet4d.cli import main

    rng = random.Random(0x517)
    with criterion("leafCutoff monotone; bench zero mismatches", 300):
        for n in (17, 60, 200):
            cuts = [StorageBudget.from_sigma(n, sg).leaf_cutoff for sg in SIGMAS]
            assert cuts == sorted(cuts, reverse=True)
            assert cuts[0] == n and cuts[-1] == 1

        def run(args):
            try:
                return main(args)
            except SystemExit as ex:
                return ex.code

        tets = str(tmp_path / "t.json")
        segs = str(tmp_path / "s.json")
        assert run(["gen", "--kind", "TETRAHEDRA", "--n", "25", "--range", "6",
                    "--spread", "7", "--seed", "3", "--out", tets]) == 0
        assert run(["gen", "--kind", "SEGMENTS", "--n", "20", "--range", "6",
                    "--spread", "7", "--seed", "4", "--out", segs]) == 0
        out = str(tmp_path / "b.csv")
        assert run(["bench", "--scene", tets, "--queries", segs, "--setup",
                    "seg-tetra", "--sigma-grid", "1,1.5,2,3,6", "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 5
        assert all(r["mismatch"] == "False" for r in rows)
        cuts = [int(r["leafCutoff"]) for r in rows]
        assert cuts == sorted(cuts, reverse=True)


def test_determinism(tmp_path):
    from tet4d.cli import main

    def run(args):
        try:
            return main(args)
        except SystemExit as ex:
            return ex.code

    with criterion("byte-identical outputs for fixed seeds", 300):
        outs = []
        for rep in range(2):
            d = tmp_path / f"run{rep}"
            d.mkdir()
            t, s, m, c = (str(d / x) for x in ("t.json", "s.json", "m.json", "cl.json"))
            assert run(["gen", "--kind", "TETRAHEDRA", "--n", "15", "--range", "6",
                        "--spread", "7", "--seed", "7", "--out", t]) == 0
            assert run(["gen", "--kind", "SEGMENTS", "--n", "12", "--range", "6",
                        "--spread", "7", "--seed", "8", "--out", s]) == 0
            assert run(["gen", "--kind", "MOVING_TETRAHEDRA", "--n", "6",
                        "--range", "5", "--spread", "4", "--seed", "9", "--out", m]) == 0
            assert run(["gen", "--kind", "TETRAHEDRA", "--n", "10", "--range", "4",
                        "--spread", "12", "--style", "cluster", "--seed", "10",
                        "--out", c]) == 0
            q, b, cc, ar, pr = (str(d / x) for x in
                                ("q.json", "b.csv", "cc.json", "ar.json", "pr.csv"))
            assert run(["query", "--scene", t, "--queries", s, "--setup", "seg-tetra",
                        "--mode", "report", "--sigma", "2", "--engine", "both",
                        "--seed", "1", "--out", q]) == 0
            assert run(["bench", "--scene", t, "--queries", s, "--setup", "seg-tetra",
                        "--sigma-grid", "1,2,6", "--seed", "1", "--out", b]) == 0
            assert run(["ccd", "--scene", m, "--mode", "report", "--out", cc]) == 0
            assert run(["arrange", "--scene", c, "--out", ar]) == 0
            assert run(["predict", "--sigma-grid", "1,1.5,2,3,6", "--out", pr]) == 0
            snap = {}
            for name in ("t.json", "s.json", "m.json", "cl.json", "q.json",
                         "cc.json", "ar.json", "pr.csv"):
                snap[name] = (d / name).read_bytes()
            # bench rows compared without the wall-clock column
            rows = list(csv.DictReader(open(b)))
            snap["b.csv"] = json.dumps(
                [{k: v for k, v in r.items() if k != "wallMillis"} for r in rows])
            # the query payload embeds a timing field as well
            qd = json.load(open(q))
            qd.pop("wallMillis", None)
            snap["q.json"] = json.dumps(qd, sort_keys=True)
            outs.append(snap)
        assert outs[0] == outs[1]
