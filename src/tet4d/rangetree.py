"""Multi-level canonical-set search structure for the four query setups.

The structure realizes the six-level decomposition of the intersection
conditions: two linear levels for the endpoint/hyperplane side conditions
and four orientation levels for the 5x5 determinant conditions (six
orientation levels for triangle-triangle; one zero-set level for lines vs
2-flats).  Every level is linear (Agarwal-Matousek linearization): each
object is one integer vector at that level, each query one integer form,
and the level's sign is the sign of their dot product.  The side levels
pair a hyperplane (n, c) with a point (p, 1); an orientation determinant
orient5(a, b, f0, f1, f2) is the dot product of the line's Plücker vector
``plucker10(a, b)`` with the 2-flat's dual vector ``dual10(f0, f1, f2)``,
with a per-object calibration sign folded into whichever side carries it.
Rational coordinates are scaled to integers by a positive factor, which
keeps every sign.

Each level is a median-split partition tree over its integer vectors.
Descent classifies a node by the exact range of the query's form over the
node's integer bounding box: per coordinate, the coefficient times the
box's low or high end, by the coefficient's sign.  INSIDE nodes forward
their entire item set to the next level as a canonical set, OUTSIDE nodes
are pruned, CROSSING nodes recurse.  A leaf takes the same dot products,
level by level, and stops at a strict + beside a strict - (after the
levels' roles), a miss (``_Run.sigma``); other zero signs go to a
direct-solver fallback.  No parametrization is involved, so no input
direction is special and no shear is needed.
Results are exactly equal to the brute-force oracle on every input.

Leaf buckets.  A node is a leaf when it holds at most
max(leaf_cutoff, LEAF_MIN) items, where leaf_cutoff = ceil(n^{6/5} / s^{1/5})
is the paper's rule for storage parameter s and LEAF_MIN is a constant
below which exact signs are cheaper than descent (the leaf bucket of
partition trees, Matousek 1992; any constant keeps the O*() bounds).  A
leaf never gets a next-level tree: at every level but the last, the passes
it is INSIDE for are resolved at the leaf, together with the CROSSING ones,
by the same sign test.  So s only chooses between cutoffs above LEAF_MIN.

A query runs one shared descent for two passes, +1 and -1; an object is a
hit in pass p when every level's sign times its role is p, since each
object's orientation is folded into its vectors (``_oriented_plane``,
``_tri_vectors``).  An object in degenerate position relative to the query
is counted once, in the pass of its strict signs (the first if it has none),
after the problem's exact closed-set test from ``oracle.PROBLEMS``.

Setup (iii) is setup (i) transposed: both use one six-level layout, with a
segment's vectors (a, -1), (b, -1) and four copies of its Plücker vector,
and a tetrahedron's hyperplane twice and its four calibrated facet duals.
(i) stores the tetrahedron's vectors and queries with the segment's; (iii)
stores the segment's and queries with the tetrahedron's.  Every level's
sign is a dot product, so the two roles give the same signs.

Box pruning.  In the bounded setups (i), (ii) and (iii) every input and
every query also has a closed integer axis-aligned box, (floor lo_0..3,
ceil hi_0..3) over its vertices, and every node of every level stores the
union box of its items, merged bottom-up from its children.  The descent
leaves a node whose box misses the query's box before it takes the node's
form range, and a leaf drops the items whose box misses the query's before
any sign is taken.  Two closed sets that meet have overlapping boxes, so
no report changes.  Lines and 2-flats are unbounded, so the line-2-flat
setup has no boxes and prunes by its zero-set level alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .kernel4d import (
    BudgetOutOfRange,
    Point4,
    Segment4,
    TetraPre,
    TrianglePre,
    _box,
    _integral,
    _meets,
    dual10,
    plucker10,
)
from .oracle import (
    PROBLEMS,
    SETUP_LINE_2FLAT,
    SETUP_SEG_TETRA,
    SETUP_TETRA_SEG,
    SETUP_TRI_TRI,
    IntersectionReport,
    QueryMode,
    _assemble,
)

INSIDE = "INSIDE"
OUTSIDE = "OUTSIDE"
CROSSING = "CROSSING"

# The smallest leaf bucket: a level tree does not split a node of at most
# this many items, and its leaves are resolved by exact signs.  Chosen by a
# sweep of 8, 16, 32 and 64 over setups (ii), (iii) and line-2-flat (see
# CHANGES.md); it stays below 83, the sigma = 2 cutoff at n = 250, so that
# tree keeps its shape.
LEAF_MIN = 64


# ---------------------------------------------------------------------------
# storage budget


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for non-negative integers, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2:
        return x
    # integer Newton from an over-estimate decreases until it reaches the root
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


@dataclass(frozen=True)
class StorageBudget:
    """n objects, storage parameter s with n <= s <= n^6."""

    n: int
    s: int

    def __post_init__(self):
        if self.n >= 1 and not (self.n <= self.s <= self.n ** 6):
            raise BudgetOutOfRange(f"s={self.s} outside [n, n^6] for n={self.n}")

    @staticmethod
    def from_sigma(n: int, sigma) -> "StorageBudget":
        sig = Fraction(sigma)
        if sig < 1 or sig > 6:
            raise BudgetOutOfRange(f"sigma={sigma} outside [1, 6]")
        if n <= 1:
            return StorageBudget(n, max(n, 1))
        p, q = sig.numerator, sig.denominator
        s = _iroot(n ** p, q)
        s = max(n, min(n ** 6, s))
        return StorageBudget(n, s)

    @property
    def leaf_cutoff(self) -> int:
        """ceil(n^{6/5} / s^{1/5}), clamped to [1, n]: smallest k with
        k^5 * s >= n^6.  This is the paper's rule; a level tree's leaves
        hold up to max(leaf_cutoff, LEAF_MIN) items."""
        if self.n <= 1:
            return 1
        target = self.n ** 6
        k = max(1, _iroot(-(-target // self.s), 5))
        while k ** 5 * self.s < target:
            k += 1
        while k > 1 and (k - 1) ** 5 * self.s >= target:
            k -= 1
        return max(1, min(self.n, k))


@dataclass
class QueryStats:
    """Work counters of one query, or a sum of them.

    nodes_visited: level-tree nodes the descent entered, including those
        whose box misses the query's box and are left at once.
    canonical_sets_touched: INSIDE classifications, one per pass, each
        forwarding an internal node's item set to the next level, or a
        last-level node's into the report.
    leaf_items_scanned: leaf items whose box meets the query's box, each of
        which has its level signs taken, up to a miss (``_Run.sigma``).  A
        leaf counts its items once per visit, whether the visit's passes
        found it CROSSING or, at a level before the last, INSIDE.
    exact_predicate_calls: those sign evaluations plus the zero-sign
        fallbacks to the problem's direct solver, so that
        exact_predicate_calls - leaf_items_scanned is the fallback count.
    """

    nodes_visited: int = 0
    canonical_sets_touched: int = 0
    leaf_items_scanned: int = 0
    exact_predicate_calls: int = 0

    def add(self, other: "QueryStats"):
        self.nodes_visited += other.nodes_visited
        self.canonical_sets_touched += other.canonical_sets_touched
        self.leaf_items_scanned += other.leaf_items_scanned
        self.exact_predicate_calls += other.exact_predicate_calls


# ---------------------------------------------------------------------------
# level specification and exact box classification


@dataclass(frozen=True)
class LevelSpec:
    kind: str           # e.g. ENDPOINT_SIDE_A, FACET_ORIENT_2, EDGE_ORIENT_1
    dim: int            # length of the level's integer vectors
    role: int           # +1 / -1: the target sign is pass * role;
                        # 0: a zero-set level (the sign must vanish)


def _form_range(form, lo, hi):
    """Exact (min, max) of the linear form over the integer box [lo, hi]."""
    a = b = 0
    for c, l, h in zip(form, lo, hi):
        if c > 0:
            a += c * l
            b += c * h
        elif c < 0:
            a += c * h
            b += c * l
    return a, b


def _hull(boxes):
    """The smallest box containing every box of ``boxes``."""
    cols = tuple(zip(*boxes))
    return tuple(map(min, cols[:4])) + tuple(map(max, cols[4:]))


def _classify(lo, hi, target: int) -> str:
    """INSIDE if every value in [lo, hi] has the sign `target`, OUTSIDE if
    none can (for target 0: the range misses zero), CROSSING otherwise."""
    if target > 0:
        if lo > 0:
            return INSIDE
        if hi < 0:
            return OUTSIDE
    elif target < 0:
        if hi < 0:
            return INSIDE
        if lo > 0:
            return OUTSIDE
    elif lo > 0 or hi < 0:
        return OUTSIDE
    return CROSSING


# ---------------------------------------------------------------------------
# partition tree


class CanonicalNode:
    """One node of a level tree: a bounding box of its items' level vectors,
    the union of their primal boxes (None in the unbounded setup), the
    canonical item set of its subtree, children for CROSSING descent (None
    at a leaf), and (lazily) the root of the next level's tree built on
    exactly its item set.

    A leaf holds at most max(leaf_cutoff, LEAF_MIN) items, unless their
    level vectors are all equal, and never gets a next-level tree: its items
    are resolved by exact signs."""

    __slots__ = ("items", "box_lo", "box_hi", "aabb", "children", "_next")

    def __init__(self, items, box_lo, box_hi, aabb, children):
        self.items = items
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.aabb = aabb
        self.children = children
        self._next = None


def _build(struct: "MultiLevelStructure", level: int, items: Tuple[int, ...],
           depth: int) -> CanonicalNode:
    """The level tree on ``items``: a median split on a cyclic axis of the
    level's vectors, down to leaves; returns its root."""
    pts = struct.points[level]
    dim = struct.levels[level].dim
    cols = list(zip(*(pts[i] for i in items)))
    lo = tuple(map(min, cols))
    hi = tuple(map(max, cols))
    struct.built_nodes += 1
    axis = None
    if len(items) > max(struct.budget.leaf_cutoff, LEAF_MIN):
        for probe in range(dim):
            d = (depth + probe) % dim
            if lo[d] != hi[d]:
                axis = d
                break
    if axis is None:
        # a small item set, or all points identical: a leaf
        boxes = struct.boxes
        aabb = None if boxes is None else _hull(boxes[i] for i in items)
        return CanonicalNode(items, lo, hi, aabb, None)
    order = sorted(items, key=lambda i: (pts[i][axis], i))
    mid = len(order) // 2
    left = _build(struct, level, tuple(order[:mid]), depth + 1)
    right = _build(struct, level, tuple(order[mid:]), depth + 1)
    aabb = None if left.aabb is None else _hull((left.aabb, right.aabb))
    return CanonicalNode(items, lo, hi, aabb, (left, right))


# ---------------------------------------------------------------------------
# per-setup layout
#
# Every setup's record holds:
#   levels                    tuple[LevelSpec], one per level
#   input_vectors(prepared)   integer vector of a prepared input, per level
#   query_forms(prepared)     integer form of a prepared query, per level
#   input_box, query_box      the closed integer box of a prepared input or
#                             query; None for unbounded objects
# Objects are prepared, tested and witnessed by oracle.PROBLEMS[setup].


@dataclass(frozen=True)
class _Layout:
    levels: Tuple[LevelSpec, ...]
    input_vectors: Callable
    query_forms: Callable
    input_box: Optional[Callable] = None
    query_box: Optional[Callable] = None


def _oriented_plane(pre: TetraPre):
    """The integer (n, c) of the tetrahedron's hyperplane times -eps[0].
    eps[0] = sign(n[j]), n[j] the largest entry, flips with n, so that a
    hyperplane gets the same vector however its vertices are ordered.

    Then a hit in (i) and (iii) has one nonzero level sign times role.  Let
    v = n . x - c at a and b, d = b - a, and x the point of the segment's
    line on the hyperplane.  (a, 1), (b, 1) span (x, 1), (d, 0) with the same
    determinant, and d's part inside the hyperplane adds nothing, so with
    V_k = (v_k, 1) and x = sum lam_k v_k, orient5(a, b, *facet_i) is the sign
    of (n . d / |n|^2) lam_i(x) det(V_i, (n, 0), F_i).  That determinant is
    (-1)^i |n|^2 (``_normal``) and eps[i] = (-1)^i sign(n[j]), so the
    calibrated facet signs are sign(n[j]) sign(vb - va) sign(lam_i(x)).  The
    endpoint levels, times their roles, are -sign(n[j]) sign(va) and
    sign(n[j]) sign(vb): if va vb > 0 they differ, else each nonzero one is
    sign(n[j]) sign(vb - va) and a facet sign opposite to it has
    lam_i(x) < 0.  So a strict + beside a strict - is a miss."""
    sg = -pre.eps[0]
    return _integral(tuple(sg * v for v in pre.n) + (sg * pre.c,))


def _calibrated_duals(pre: TetraPre):
    """Facet i's ``dual10`` times its calibration sign eps[i], the boundary
    orientation (-1)^i times one sign per tetrahedron, so that
    _facet_sign(plucker10(a, b), duals[i]) == eps[i] * orient5(a, b, *facet_i)
    and a line pierces the tetrahedron iff the four signs agree."""
    return tuple(_integral(tuple(e * v for v in dual10(*f))) for e, f in zip(pre.eps, pre.facets))


def _calibrated_edges(pre: TrianglePre):
    """Edge k's ``plucker10`` times the triangle's edge calibration sign
    eps[k], the boundary orientation (1, -1, 1) times one sign per
    triangle, so that its dot product with dual10 of a 2-flat is
    eps[k] * orient5(edge k, flat) and a 2-flat pierces the triangle iff the
    three signs agree."""
    return tuple(_integral(tuple(e * v for v in plucker10(u, w)))
                 for e, (u, w) in zip(pre.eps, pre.tri.edges()))


def _seg_vectors(e: Segment4):
    """A segment at the six levels of setups (i) and (iii): its endpoints
    (a, -1) and (b, -1) against a hyperplane (n, c), then its Plücker vector
    against four facet duals."""
    pl = _integral(plucker10(e.a, e.b))
    return (_integral((*e.a, -1)), _integral((*e.b, -1)), pl, pl, pl, pl)


def _tet_vectors(pre: TetraPre):
    plane = _oriented_plane(pre)
    return (plane, plane, *_calibrated_duals(pre))


def _tri_vectors(pre: TrianglePre):
    """A triangle's three calibrated edges against a 2-flat's dual, then
    three times its calibrated dual, its dual times eps[0], against the
    other triangle's edges.

    Then a hit in (ii) has one nonzero level sign.  Let t have vertex rows
    W_i and t' rows V_c (rows (x, 1)), A_i = (-1)^i det(edge i of t, V_0,
    V_1, V_2) and B_c = (-1)^c det(edge c of t', W_0, W_1, W_2).  Let X =
    sum lam_i W_i = sum mu_c V_c be a common point, lam, mu >= 0.  X in place
    of row V_c of det(edge i of t, V_0, V_1, V_2), expanded both ways, gives
    mu_c A_i = lam_i B_c.  By ``kernel4d._tri_tri_case``, A_i = k lam_i and
    B_c = k' mu_c, so nonzero A_i and B_c have lam_i, mu_c > 0 and one sign:
    both groups have the same factor k.  With t the input and t' the query,
    the levels are eps[0] eps'[0] A_i, then eps[0] eps'[0] B_c."""
    d = _integral(tuple(pre.eps[0] * v for v in dual10(*pre.tri.vertices)))
    return (*_calibrated_edges(pre), d, d, d)


def _tri_forms(pre: TrianglePre):
    """A query triangle's vectors rotated by three levels: its dual against
    the input's edges, then its edges against the input's dual."""
    v = _tri_vectors(pre)
    return v[3:] + v[:3]


def _seg_box(e: Segment4):
    return _box((e.a, e.b))


def _tet_box(pre: TetraPre):
    return _box(pre.tet.vertices)


def _tri_box(pre: TrianglePre):
    return _box(pre.tri.vertices)


_SEG_TETRA_LEVELS = ((LevelSpec("ENDPOINT_SIDE_A", 5, 1), LevelSpec("ENDPOINT_SIDE_B", 5, -1))
                     + tuple(LevelSpec(f"FACET_ORIENT_{i+1}", 10, 1) for i in range(4)))

_LAYOUTS = {
    SETUP_SEG_TETRA: _Layout(_SEG_TETRA_LEVELS, _tet_vectors, _seg_vectors, _tet_box, _seg_box),
    SETUP_TETRA_SEG: _Layout(_SEG_TETRA_LEVELS, _seg_vectors, _tet_vectors, _seg_box, _tet_box),
    SETUP_TRI_TRI: _Layout(
        tuple(LevelSpec(f"EDGE_ORIENT_{k+1}", 10, 1) for k in range(3))
        + tuple(LevelSpec(f"PLANE_ORIENT_{k+1}", 10, 1) for k in range(3)),
        _tri_vectors, _tri_forms, _tri_box, _tri_box),
    # a line can meet a 2-flat only where its Plücker vector is orthogonal
    # to the flat's dual vector; both are unbounded, so neither has a box
    SETUP_LINE_2FLAT: _Layout(
        (LevelSpec("FLAT_MEET", 10, 0),),
        lambda flat: (_integral(dual10(*flat)),),
        lambda line: (_integral(plucker10(line.a, line.b)),)),
}


def _facet_sign(p, d):
    """Sign of the 10-term dot product of a Plücker vector and a dual vector."""
    v = (p[0] * d[0] + p[1] * d[1] + p[2] * d[2] + p[3] * d[3] + p[4] * d[4]
         + p[5] * d[5] + p[6] * d[6] + p[7] * d[7] + p[8] * d[8] + p[9] * d[9])
    return (v > 0) - (v < 0)


def _level_sign(form, x):
    """Sign of a level's form at an object's vector; the 10-term
    orientation products go through ``_facet_sign``."""
    if len(form) == 10:
        return _facet_sign(form, x)
    v = form[0] * x[0] + form[1] * x[1] + form[2] * x[2] + form[3] * x[3] + form[4] * x[4]
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# the structure


class MultiLevelStructure:
    """One setup's input objects, prepared, their vectors per level and
    their boxes, and the level-0 tree over all of them."""

    def __init__(self, setup_name: str, objects, budget: StorageBudget):
        if setup_name not in _LAYOUTS:
            raise ValueError(f"unknown setup {setup_name}")
        n = len(objects)
        if budget.n != n:
            raise ValueError("budget.n must equal the number of objects")
        layout = _LAYOUTS[setup_name]
        self.setup_name = setup_name
        self.budget = budget
        self.n = n
        self.built_nodes = 0
        self.problem = PROBLEMS[setup_name]
        self.levels = layout.levels
        # a zero-set level's target is 0 in every pass, so one pass does
        self.passes = (1,) if any(l.role == 0 for l in self.levels) else (1, -1)
        self.prepared = [self.problem.prep_input(x) for x in objects]
        self.points = list(zip(*map(layout.input_vectors, self.prepared)))
        box = layout.input_box
        self.boxes = None if box is None else [box(x) for x in self.prepared]
        self.root = _build(self, 0, tuple(range(n)), 0) if n else None

    def fingerprint(self):
        """Shape of all materialized trees, for determinism checks."""

        def nd(node):
            kids = None if node.children is None else tuple(nd(c) for c in node.children)
            nxt = None if node._next is None else nd(node._next)
            return (node.box_lo, node.box_hi, node.items, kids, nxt)

        return None if self.root is None else nd(self.root)


def build(objects, setup: str, budget: StorageBudget) -> MultiLevelStructure:
    return MultiLevelStructure(setup, objects, budget)


# ---------------------------------------------------------------------------
# queries


class _DetectHit(Exception):
    pass


class _Run:
    """One query against a structure: the prepared query, its form per
    level and its closed integer box (None if unbounded), the signs taken
    so far, and what the descent found."""

    __slots__ = ("struct", "query", "forms", "box", "signs", "stats", "hits", "witnesses",
                 "detect")

    def __init__(self, struct: MultiLevelStructure, query_object, mode: QueryMode):
        layout = _LAYOUTS[struct.setup_name]
        q = struct.problem.prep_query(query_object)
        self.struct = struct
        self.query = q
        self.forms = layout.query_forms(q)
        self.box = None if layout.query_box is None else layout.query_box(q)
        self.signs = {}           # object -> its (pass, zero)
        self.stats = QueryStats()
        self.hits = []
        self.witnesses = {}       # object -> the point its fallback found
        self.detect = mode == QueryMode.DETECT

    def sigma(self, j: int):
        """(pass, zero) for object j against the query: the pass that counts
        j, None for a miss, and whether a level's sign is 0.  The signs are
        taken level by level, times the level's role, up to a miss: a strict
        + beside a strict - (proved at ``_oriented_plane`` and
        ``_tri_vectors``) or a nonzero zero-set sign (a line that meets a
        2-flat has orient5 zero).  Otherwise the pass is the strict signs'
        one, or the first pass when there is none."""
        res = self.signs.get(j)
        if res is None:
            p, zero = 0, False
            for form, pts, spec in zip(self.forms, self.struct.points, self.struct.levels):
                s = _level_sign(form, pts[j])
                if not s:
                    zero = True
                    continue
                s *= spec.role
                if not s or s == -p:
                    res = (None, zero)
                    break
                p = s
            else:
                res = (p or self.struct.passes[0], zero)
            self.signs[j] = res
        return res

    def witness(self, j: int) -> Optional[Point4]:
        """A point shared by object j and the query, or None if they miss:
        the problem's exact closed-set test by its direct solver."""
        return self.struct.problem.witness(self.query, self.struct.prepared[j])

    def point(self, j: int) -> Point4:
        """The reported point of hit j: its fallback's, or a fresh solve."""
        w = self.witnesses.get(j)
        return self.witness(j) if w is None else w


def _leaf_match(run: _Run, items, passes):
    """Resolve leaf items exactly for the given passes.  Items whose box
    misses the query's are dropped first.  An item counts only in the pass
    that ``_Run.sigma`` gives it: with no zero sign it is a hit, the
    problem's sign rule; with one it goes to the problem's witness, which
    is kept for the report."""
    stats = run.stats
    qbox = run.box
    if qbox is not None:
        boxes = run.struct.boxes
        items = [j for j in items if _meets(qbox, boxes[j])]
    stats.leaf_items_scanned += len(items)
    sigma = run.sigma
    for j in items:
        p, zero = sigma(j)
        stats.exact_predicate_calls += 1
        if p not in passes:
            continue
        if zero:
            stats.exact_predicate_calls += 1
            w = run.witness(j)
            if w is None:
                continue
            run.witnesses[j] = w
        _record(run, j)


def _record(run: _Run, j: int):
    run.hits.append(j)
    if run.detect:
        raise _DetectHit()


def _absorb(run: _Run, items):
    run.hits.extend(items)
    if run.detect and items:
        raise _DetectHit()


def _visit(run: _Run, level: int, node: CanonicalNode, passes):
    struct = run.struct
    run.stats.nodes_visited += 1
    qbox = run.box
    if qbox is not None and not _meets(qbox, node.aabb):
        return

    lo, hi = _form_range(run.forms[level], node.box_lo, node.box_hi)
    spec = struct.levels[level]
    # at most one target is INSIDE a range (+1 needs lo > 0, -1 needs
    # hi < 0, and 0 never is), so every INSIDE pass goes to one visit
    inside = []
    crossing = []
    for p in passes:
        cls = _classify(lo, hi, p * spec.role)
        if cls == INSIDE:
            inside.append(p)
        elif cls == CROSSING:
            crossing.append(p)
    last = level == len(struct.levels) - 1
    if node.children is None and not last:
        # a leaf bucket: every pass not left here is settled by exact signs,
        # which also check this level and the ones below it
        inside, crossing = [], inside + crossing
    if inside:
        run.stats.canonical_sets_touched += len(inside)
        if last:
            _absorb(run, node.items)
        else:
            if node._next is None:
                node._next = _build(struct, level + 1, node.items, 0)
            _visit(run, level + 1, node._next, tuple(inside))
    if crossing:
        crossing = tuple(crossing)
        if node.children is None:
            _leaf_match(run, node.items, crossing)
        else:
            for ch in node.children:
                _visit(run, level, ch, crossing)


def _descend(run: _Run) -> _Run:
    """One shared descent of the structure for every pass; returns run."""
    try:
        _visit(run, 0, run.struct.root, run.struct.passes)
    except _DetectHit:
        pass
    return run


def query(structure: MultiLevelStructure, query_object,
          mode: QueryMode) -> Tuple[IntersectionReport, QueryStats]:
    """Exact query; the report is identical to the oracle's for this single
    query object (indexA is 0)."""
    if structure.n == 0:
        return IntersectionReport(False, 0, []), QueryStats()
    run = _descend(_Run(structure, query_object, mode))
    rep = _assemble(mode, [(0, j) for j in sorted(run.hits)], lambda _i, j: run.point(j))
    return rep, run.stats


def query_batch(structure: MultiLevelStructure, query_objects, mode: QueryMode):
    """Run one query per object and merge reports with indexA = query index.

    Returns (IntersectionReport, aggregated QueryStats, per-query stats)."""
    total = QueryStats()
    per_query = []
    count = 0
    pairs = []
    for qi, q in enumerate(query_objects):
        rep, st = query(structure, q, mode)
        total.add(st)
        per_query.append(st)
        if mode == QueryMode.DETECT and rep.detected:
            return rep, total, per_query
        count += rep.count
        pairs.extend((qi, j, w) for (_z, j, w) in rep.pairs)
    return IntersectionReport(count > 0, count, pairs), total, per_query


# ---------------------------------------------------------------------------
# scene preparation and batched queries


def prepare_scene(setup: str, objects, queries):
    """The objects and queries as lists, and shear salt 0.

    Every level is exact on every input direction, so nothing needs a
    shear.  The function stays because ``perfbench`` calls it and unpacks
    these three values."""
    return list(objects), list(queries), 0


def batched_storage_parameter(m: int, n: int) -> int:
    """s = m^{6/7} n^{6/7}, clamped to [n, n^6] (floor of the real value)."""
    if n == 0:
        return 0
    raw = _iroot((m ** 6) * (n ** 6), 7)
    return max(n, min(n ** 6, raw))


def _batched(setup, inputs, queries):
    """The bichromatic join of owned objects: one structure on the inputs
    with s = batched_storage_parameter(m, n), descended once per query.

    inputs and queries are sequences of (owner, object).  Returns
    (witnesses, aggregated QueryStats): witnesses maps each pair (a, b),
    a < b, of distinct owners that some query hits to the witness of its
    first hit in (query index, input index) order, the only hit solved for
    (a point found by the zero-sign fallback is reused).  Hits on the
    query's own owner are dropped after the descent."""
    m, n = len(queries), len(inputs)
    witnesses = {}
    total = QueryStats()
    if n == 0 or m == 0:
        return witnesses, total
    st = build([x for _o, x in inputs], setup, StorageBudget(n, batched_storage_parameter(m, n)))
    for qo, q in queries:
        run = _descend(_Run(st, q, QueryMode.REPORT))
        total.add(run.stats)
        for j in sorted(run.hits):
            xo = inputs[j][0]
            key = (qo, xo) if qo < xo else (xo, qo)
            if qo != xo and key not in witnesses:
                witnesses[key] = run.point(j)
    return witnesses, total
