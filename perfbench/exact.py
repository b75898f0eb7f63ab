"""Exact rational checks that share no code with tet4d's solvers.

Membership is decided by barycentric (affine) coordinates from a
Gauss-Jordan solve over Fractions; intersection of two convex objects by a
phase-one simplex with Bland's rule over Fractions.  Objects are read only
through their coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

# ---------------------------------------------------------------------------
# linear algebra


def _eliminate(A, b):
    """Reduced row echelon form of [A | b]; returns (rows, pivot columns)."""
    n = len(A[0])
    M = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(A, b)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((k for k in range(r, len(M)) if M[k][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for k in range(len(M)):
            if k != r and M[k][c] != 0:
                f = M[k][c]
                M[k] = [x - f * y for x, y in zip(M[k], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def consistent(A, b) -> bool:
    """Does A x = b have a rational solution?"""
    M, pivots = _eliminate(A, b)
    return all(row[-1] == 0 for row in M[len(pivots):])


def affine_coords(p: Sequence, verts: Sequence[Sequence]) -> Optional[List[Fraction]]:
    """Coordinates l with p = sum l_i v_i and sum l_i = 1, or None when p is
    off the affine hull.  The vertices must be affinely independent."""
    k, d = len(verts), len(p)
    A = [[verts[i][c] for i in range(k)] for c in range(d)] + [[1] * k]
    M, pivots = _eliminate(A, list(p) + [1])
    if len(pivots) != k:
        raise ValueError("affinely dependent vertices")
    if any(row[-1] != 0 for row in M[k:]):
        return None
    return [M[i][-1] for i in range(k)]


def in_simplex(p, verts) -> bool:
    lam = affine_coords(p, verts)
    return lam is not None and all(v >= 0 for v in lam)


def in_affine_hull(p, verts) -> bool:
    return affine_coords(p, verts) is not None


def feasible(A, b) -> bool:
    """Is there x >= 0 with A x = b?  Phase-one simplex over Fractions with
    Bland's rule, so it always terminates."""
    m, n = len(A), len(A[0])
    T = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        # artificial variable n + i is basic in row i
        T.append(row[:n] + [Fraction(int(k == i)) for k in range(m)] + [row[-1]])
    basis = [n + i for i in range(m)]
    width = n + m
    cost = [-sum(T[i][j] for i in range(m)) if j < n else Fraction(0) for j in range(width)]
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:  # cannot happen: the phase-one objective is bounded
            raise ArithmeticError("unbounded phase-one problem")
        pv = T[leave][enter]
        T[leave] = [v / pv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        f = cost[enter]
        cost = [c - f * y for c, y in zip(cost, T[leave][:width])]
        basis[leave] = enter
    return all(T[i][-1] == 0 for i in range(m) if basis[i] >= n)


# ---------------------------------------------------------------------------
# pairwise intersection as linear feasibility


def _convex_pair(P: Sequence[Sequence], Q: Sequence[Sequence]) -> bool:
    """Do the convex hulls of point sets P and Q (in the same R^d) meet?
    sum l_i P_i - sum u_j Q_j = 0, sum l = 1, sum u = 1, l, u >= 0."""
    d = len(P[0])
    A = [[p[c] for p in P] + [-q[c] for q in Q] for c in range(d)]
    A.append([1] * len(P) + [0] * len(Q))
    A.append([0] * len(P) + [1] * len(Q))
    return feasible(A, [0] * d + [1, 1])


def simplices_meet(P, Q) -> bool:
    return _convex_pair(P, Q)


def line_meets_flat(a, b, flat) -> bool:
    """Full line through a, b against the full 2-flat through three points:
    a + t (b - a) = f0 + s (f1 - f0) + u (f2 - f0) for some t, s, u."""
    f0, f1, f2 = flat
    A = [[b[c] - a[c], f0[c] - f1[c], f0[c] - f2[c]] for c in range(4)]
    return consistent(A, [f0[c] - a[c] for c in range(4)])


def _window(mt):
    return Fraction(mt.t0), Fraction(mt.t1)


def moving_contains(mt, p) -> bool:
    """p = (x, y, z, w): w inside mt's time window and (x, y, z) inside the
    tetrahedron mt occupies at time w (vertices translated by w * velocity)."""
    t0, t1 = _window(mt)
    w = Fraction(p[3])
    if not t0 <= w <= t1:
        return False
    verts = [tuple(v[k] + w * mt.velocity[k] for k in range(3)) for v in mt.vertices]
    return in_simplex(tuple(p[:3]), verts)


def moving_pair_meets(ma, mb) -> bool:
    """Is there a time w in both windows at which the two translating
    tetrahedra share a point?  Since sum l = 1, the point
    sum l_i (v_i + w u) equals sum l_i v_i + w u, so the condition is linear:
    sum l_i va_i - sum u_j vb_j + w' (ua - ub) = -lo (ua - ub),
    w = lo + w', 0 <= w' <= hi - lo."""
    lo = max(_window(ma)[0], _window(mb)[0])
    hi = min(_window(ma)[1], _window(mb)[1])
    if lo > hi:
        return False
    du = [Fraction(ma.velocity[k]) - Fraction(mb.velocity[k]) for k in range(3)]
    A = [[v[c] for v in ma.vertices] + [-v[c] for v in mb.vertices] + [du[c], 0]
         for c in range(3)]
    A.append([1] * 4 + [0] * 4 + [0, 0])
    A.append([0] * 4 + [1] * 4 + [0, 0])
    A.append([0] * 8 + [1, 1])
    return feasible(A, [-lo * du[c] for c in range(3)] + [1, 1, hi - lo])


# ---------------------------------------------------------------------------
# bounding boxes: disjoint closed boxes prove that two objects do not meet


def box(points):
    return tuple((min(p[c] for p in points), max(p[c] for p in points))
                 for c in range(len(points[0])))


def moving_box(mt):
    """Box of the swept prism in (x, y, z, w)."""
    t0, t1 = _window(mt)
    pts = [tuple(v[k] + t * mt.velocity[k] for k in range(3)) + (t,)
           for v in mt.vertices for t in (t0, t1)]
    return box(pts)


def boxes_meet(b1, b2) -> bool:
    return all(lo1 <= hi2 and lo2 <= hi1 for (lo1, hi1), (lo2, hi2) in zip(b1, b2))
