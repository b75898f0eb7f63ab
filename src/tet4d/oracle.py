"""Brute-force reference implementations of every query setup.

``PROBLEMS`` defines each query problem once, keyed by its setup name: how
a query and an input object are prepared, the exact closed-set test of a
prepared pair, and the pair's witness point.  The structure in
``rangetree`` reads the same table.  ``brute_query`` tests every pair of a
problem; it is deliberately O(n*m) and serves as ground truth for the
structure module and for all acceptance tests.  Each pair test is one
exact decision on every input, degenerate or not, that nothing raises and
retries: ``seg_tetra_hit`` and ``tri_tri_hit`` decide by signs, the latter
solving only pairs with a zero sign and no mixed group, and signs reject
pairs before any solve elsewhere:

* a line and a 2-flat that meet span an affine hull of dimension at most
  1 + 2 = 3, so their five points lie in one hyperplane and
  orient5(a, b, f0, f1, f2) is 0; a nonzero orient5 is a miss, and only a
  zero one reaches ``line_2flat_meet``, which also answers a line in the
  flat;
* two tetrahedra miss when the four vertices of one lie strictly on one
  side of the other's hyperplane (see ``tetra_tetra_intersect``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .kernel4d import (
    DegeneratePosition,
    Point4,
    Segment4,
    Tetrahedron4,
    TetraPre,
    Triangle4,
    TrianglePre,
    line_2flat_meet,
    line_tetra_interval,
    linsolve,
    orient5,
    seg_tetra_hit,
    segment_tetra_direct,
    tetra_tetra_intersect,
    tri_tri_any,
    tri_tri_hit,
)

SETUP_SEG_TETRA = "SEG_QUERY_TETRA_INPUT"
SETUP_TRI_TRI = "TRI_TRI"
SETUP_TETRA_SEG = "TETRA_QUERY_SEG_INPUT"
SETUP_LINE_2FLAT = "LINE_2FLAT"


class QueryMode(str, enum.Enum):
    DETECT = "detect"
    COUNT = "count"
    REPORT = "report"


@dataclass
class IntersectionReport:
    detected: bool
    count: int
    pairs: List[Tuple[int, int, Optional[Point4]]] = field(default_factory=list)

    def __post_init__(self):
        self.pairs.sort(key=lambda p: (p[0], p[1]))


def _assemble(mode: QueryMode, hits, witness_fn) -> IntersectionReport:
    """hits: iterable of (i, j) pairs in any order."""
    hits = list(hits)
    if mode == QueryMode.DETECT:
        det = bool(hits)
        return IntersectionReport(det, 1 if det else 0, [])
    if mode == QueryMode.COUNT:
        return IntersectionReport(bool(hits), len(hits), [])
    pairs = [(i, j, witness_fn(i, j)) for (i, j) in hits]
    return IntersectionReport(bool(pairs), len(pairs), pairs)


# ---------------------------------------------------------------------------
# the query problems
#
# hit and witness look the kernel functions up by their module-global names
# on every call, so that a wrapper patched onto this module sees each call.


class Problem(NamedTuple):
    prep_query: Callable    # query object -> prepared query
    prep_input: Callable    # input object -> prepared input
    hit: Callable           # (prepared query, prepared input) -> bool
    witness: Callable       # (prepared query, prepared input) -> Point4, None on a miss


def _same(x):
    return x


def _flat_points(flat):
    return tuple(Point4(*p) for p in flat)


PROBLEMS = {
    # (i): query segments, input tetrahedra; (iii) swaps the two roles
    SETUP_SEG_TETRA: Problem(
        _same, TetraPre,
        lambda e, pre: seg_tetra_hit(e, pre.tet, pre),
        lambda e, pre: segment_tetra_direct(e, pre.tet, pre)),
    SETUP_TETRA_SEG: Problem(
        TetraPre, _same,
        lambda pre, e: seg_tetra_hit(e, pre.tet, pre),
        lambda pre, e: segment_tetra_direct(e, pre.tet, pre)),
    # (ii): query (red) triangles, input (blue) triangles
    SETUP_TRI_TRI: Problem(
        TrianglePre, TrianglePre,
        lambda r, b: tri_tri_hit(r.tri, b.tri, r, b),
        lambda r, b: tri_tri_any(r.tri, b.tri)),
    # query lines, input 2-flats given by three points; a nonzero orient5
    # puts the five points in general position, so the two miss
    SETUP_LINE_2FLAT: Problem(
        _same, _flat_points,
        lambda line, flat: (orient5(line.a, line.b, *flat) == 0
                            and line_2flat_meet(line, flat) is not None),
        lambda line, flat: line_2flat_meet(line, flat)),
}


def brute_query(setup: str, queries: Sequence, inputs: Sequence,
                mode: QueryMode) -> IntersectionReport:
    """Problem ``setup`` on every (query, input) pair, with indexA the query
    index; DETECT stops at the first hit."""
    problem = PROBLEMS[setup]
    qs = [problem.prep_query(q) for q in queries]
    xs = [problem.prep_input(x) for x in inputs]
    hit = problem.hit
    hits = []
    for i, q in enumerate(qs):
        for j, x in enumerate(xs):
            if hit(q, x):
                if mode == QueryMode.DETECT:
                    return _assemble(mode, [(i, j)], None)
                hits.append((i, j))
    return _assemble(mode, hits, lambda i, j: problem.witness(qs[i], xs[j]))


def seg_tetra_query(segments: Sequence[Segment4], tetrahedra: Sequence[Tetrahedron4],
                    mode: QueryMode) -> IntersectionReport:
    return brute_query(SETUP_SEG_TETRA, segments, tetrahedra, mode)


def tetra_seg_query(tetrahedra: Sequence[Tetrahedron4], segments: Sequence[Segment4],
                    mode: QueryMode) -> IntersectionReport:
    return brute_query(SETUP_TETRA_SEG, tetrahedra, segments, mode)


def tri_tri_query(red: Sequence[Triangle4], blue: Sequence[Triangle4],
                  mode: QueryMode) -> IntersectionReport:
    return brute_query(SETUP_TRI_TRI, red, blue, mode)


def line_2flat_query(lines: Sequence[Segment4], flats, mode: QueryMode) -> IntersectionReport:
    return brute_query(SETUP_LINE_2FLAT, lines, flats, mode)


# ---------------------------------------------------------------------------
# ray shooting


def ray_shoot(origin: Point4, direction, tetrahedra: Sequence[Tetrahedron4]):
    """First tetrahedron hit by origin + t*direction, t >= 0; ties broken by
    the smaller index.  Returns (index, witness) or None."""
    if all(c == 0 for c in direction):
        raise ValueError("zero direction")
    best = None
    for j, t in enumerate(tetrahedra):
        res = line_tetra_interval(origin, direction, t)
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
            th = lo if (lo is not None and lo > 0) else Fraction(0)
        if best is None or th < best[0]:
            best = (th, j)
    if best is None:
        return None
    th, j = best
    witness = Point4(*(origin[i] + th * direction[i] for i in range(4)))
    return j, witness


# ---------------------------------------------------------------------------
# arrangement entity counts (k2 / k3 / k4)


@dataclass
class KCounts:
    k2: int
    k3: int
    k4: int
    vertices: List[Point4]
    pair_set: List[Tuple[int, int]]
    triple_set: List[Tuple[int, int, int]]
    quad_set: List[Tuple[int, int, int, int]]

    def counts(self):
        return (self.k2, self.k3, self.k4)


def _triple_segment(pres, i, j, k):
    """Common intersection of three tetrahedra: a closed segment on the line
    h_i ^ h_j ^ h_k, returned as (origin, direction, lo, hi) or None."""
    A = []
    b = []
    for idx in (i, j, k):
        A.append(list(pres[idx].n))
        b.append(pres[idx].c)
    sol = linsolve(A, b)
    if sol is None:
        return None
    part, basis = sol
    if len(basis) != 1:
        raise DegeneratePosition("hyperplanes not in general position")
    o, d = tuple(part), tuple(basis[0])
    lo, hi = None, None
    for idx in (i, j, k):
        res = line_tetra_interval(o, d, pres[idx].tet, pres[idx])
        if res is None:
            return None
        if res[0] == "point":
            raise DegeneratePosition("triple line transversal to a member hyperplane")
        _tag, l2, h2 = res
        if l2 is not None:
            lo = l2 if lo is None else max(lo, l2)
        if h2 is not None:
            hi = h2 if hi is None else min(hi, h2)
    if lo is None or hi is None or lo > hi:
        return None
    return o, d, lo, hi


def _quad_point(pres, idxs):
    A = [list(pres[i].n) for i in idxs]
    b = [pres[i].c for i in idxs]
    sol = linsolve(A, b)
    if sol is None:
        return None
    part, basis = sol
    if basis:
        raise DegeneratePosition("four hyperplanes do not meet in a point")
    p = tuple(part)
    for i in idxs:
        if not pres[i].contains(p):
            return None
    return Point4(*p)


def _canon_point(p) -> Point4:
    return Point4(*(Fraction(c) for c in p))


def arrangement_k_counts(tetrahedra: Sequence[Tetrahedron4]) -> KCounts:
    """Exhaustive (monotone-pruned) enumeration of intersecting pairs,
    triples with a common point, and arrangement vertices.

    k4 counts the 4-wise intersection points plus the endpoints of every
    triple intersection segment ("triple-face vertices"), deduplicated by
    exact coordinates.
    """
    n = len(tetrahedra)
    pres = [TetraPre(t) for t in tetrahedra]
    pair_set = []
    pair_witness = {}
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = tetra_tetra_intersect(tetrahedra[i], tetrahedra[j], pres[i], pres[j])
            if w is not None:
                pair_set.append((i, j))
                pair_witness[(i, j)] = _canon_point(w)
                adj[i].add(j)
                adj[j].add(i)

    triple_set = []
    triple_data = {}
    for (i, j) in pair_set:
        for k in sorted(adj[i] & adj[j]):
            if k <= j:
                continue
            seg = _triple_segment(pres, i, j, k)
            if seg is not None:
                triple_set.append((i, j, k))
                triple_data[(i, j, k)] = seg

    quad_set = []
    quad_points = []
    seen_quads = set()
    triples = set(triple_set)
    for (i, j, k) in triple_set:
        for l in sorted(adj[i] & adj[j] & adj[k]):
            if l <= k:
                continue
            key = (i, j, k, l)
            if key in seen_quads:
                continue
            seen_quads.add(key)
            if ((i, j, l) not in triples or (i, k, l) not in triples
                    or (j, k, l) not in triples):
                continue
            p = _quad_point(pres, key)
            if p is not None:
                quad_set.append(key)
                quad_points.append(_canon_point(p))

    triple_endpoints = []
    for (i, j, k) in triple_set:
        o, d, lo, hi = triple_data[(i, j, k)]
        for t in {lo, hi}:
            triple_endpoints.append(_canon_point(tuple(o[m] + t * d[m] for m in range(4))))

    uniq = {}
    for p in quad_points + triple_endpoints:
        uniq[tuple(p)] = p
    k4 = len(uniq)
    vertices = [pair_witness[p] for p in pair_set]
    vertices += [
        _canon_point(tuple(o[m] + ((lo + hi) / 2) * d[m] for m in range(4)))
        for (o, d, lo, hi) in (triple_data[t] for t in triple_set)
    ]
    vertices += list(uniq.values())
    return KCounts(
        k2=len(pair_set),
        k3=len(triple_set),
        k4=k4,
        vertices=vertices,
        pair_set=pair_set,
        triple_set=triple_set,
        quad_set=quad_set,
    )
