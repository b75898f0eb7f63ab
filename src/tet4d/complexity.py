"""Analytic evaluation of the storage/query tradeoff curves and numerical
unfolding of the cost recurrences.

Subpolynomial factors are modeled as 1 throughout: absorbed constants on the
recursive branching are dropped (the analysis absorbs them into the
asymptotic notation), structural branching factors (r0^3 subproblems, the 2
endpoint cells, D^4 partition cells, D cells per query) are kept literally.
Exponent claims are checked by least-squares fits of log-log samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple


@dataclass(frozen=True)
class CostModel:
    """Partition degree D, secondary partition parameter r0 >> D, overhead
    constant c0, exponent slack delta in (0, 1/6)."""

    D: float = 8.0
    r0: float = 64.0
    c0: float = 4.0
    delta: float = 0.01

    def __post_init__(self):
        if not (self.D > 1 and self.r0 >= 4 * self.D):
            raise ValueError("need r0 >= 4*D > 4")
        if not (0 < self.delta < Fraction(1, 6)):
            raise ValueError("delta outside (0, 1/6)")


DEFAULT_MODEL = CostModel()


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    residual: float  # max |log2 deviation| from the fitted line


def _fit(ns, vals) -> ExponentFit:
    """Least-squares line through (log2 n, log2 value), in closed form."""
    lx = [math.log2(n) for n in ns]
    ly = [math.log2(v) for v in vals]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    slope = (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
             / sum((x - mx) ** 2 for x in lx))
    intercept = my - slope * mx
    resid = max(abs(y - (slope * x + intercept)) for x, y in zip(lx, ly))
    return ExponentFit(slope, resid)


# ---------------------------------------------------------------------------
# closed-form tradeoff exponents


def q_tradeoff_exponent(sigma):
    """Query-time exponent for storage s = n^sigma: 7/6 - sigma/3 up to the
    breakpoint sigma = 2, then 3/4 - sigma/8."""
    sig = Fraction(sigma)
    if sig < 1 or sig > 6:
        raise ValueError("sigma outside [1, 6]")
    if sig <= 2:
        return Fraction(7, 6) - sig / 3
    return Fraction(3, 4) - sig / 8


def batched_cost_exponents(mu):
    """Total-cost exponent for m = n^mu batched queries: the piecewise bound
    max(max(3mu/4 + 7/8, 1), max(8mu/9 + 2/3, mu)); the first expression
    governs below the crossover mu = 3/2, the second above."""
    m = Fraction(mu)
    if m < 0:
        raise ValueError("mu must be non-negative")
    return max(3 * m / 4 + Fraction(7, 8), Fraction(1), 8 * m / 9 + Fraction(2, 3), m)


def leaf_size(n, s) -> float:
    """n^{6/5} / s^{1/5} evaluated in log space."""
    return math.exp(1.2 * math.log(n) - 0.2 * math.log(s))


def stop_r_omega(n, s, delta) -> float:
    """(s/n)^{(6/5)/(1 + 6 delta/5)}."""
    e = 1.2 / (1 + 1.2 * float(delta))
    return math.exp(e * (math.log(s) - math.log(n)))


# ---------------------------------------------------------------------------
# recurrence unfolding: the secondary structure (S0 / Q0)


def _combine_levels(levels) -> float:
    """Total of per-level costs with subpolynomial factors dropped: the
    level count is absorbed by taking the dominant level, plus the
    convergent part of strictly decaying tails."""
    if not levels:
        return 0.0
    peak = max(levels)
    k = levels.index(peak)
    tail = 0.0
    prev = peak
    for v in levels[k + 1 :]:
        if v < 0.9 * prev:
            tail += v
        prev = v
    return peak + tail


def _wide_costs(n: float, s: float, model: CostModel) -> Tuple[float, float]:
    """Numeric unfolding of the secondary recursion for n objects with
    storage parameter s: per-level overhead c0 * (storage at the level) for
    storage, c0 + N/s^{1/4} for queries over the r0^3-fold / 2-fold
    branchings, iterated down to subproblems of size n^{3/2}/s^{1/2} that
    are scanned directly."""
    r0, c0 = model.r0, model.c0
    stop = max(1.0, n ** 1.5 / s ** 0.5)
    if n <= stop or n <= 1:
        return n, n
    s_levels, q_levels = [], []
    N, sw = n, s
    nodes_s, nodes_q = 1.0, 1.0
    while N > stop and N > 1 and sw >= 1:
        s_levels.append(c0 * nodes_s * sw)
        q_levels.append(c0 + nodes_q * N / max(sw, 1.0) ** 0.25)
        nodes_s *= r0 ** 3
        nodes_q *= 2
        N /= r0
        sw /= r0 ** 3
    # leaf mass: leaves hold subproblems of the stopping size and are
    # scanned directly; subpolynomial leaf-count growth factors are dropped
    # with the other O* factors
    s_bottom = min(nodes_s * N, s)
    q_bottom = stop
    S0 = _combine_levels(s_levels) + s_bottom
    Q0 = _combine_levels(q_levels) + q_bottom
    return S0, Q0


def unfold_wide(ns=None, model: CostModel = DEFAULT_MODEL) -> Tuple[ExponentFit, ExponentFit]:
    """Fit the storage and query exponents of the secondary structure at
    s = n^2 over a log-spaced sample of n."""
    if ns is None:
        ns = [2 ** k for k in range(10, 25, 2)]
    svals, qvals = [], []
    for n in ns:
        S, Q = _wide_costs(float(n), float(n) ** 2, model)
        svals.append(S)
        qvals.append(Q)
    return _fit(ns, svals), _fit(ns, qvals)


# ---------------------------------------------------------------------------
# recurrence unfolding: the main structure (S / Q)


def _main_costs(n: float, model: CostModel, s1_zero: bool = False) -> Tuple[float, float]:
    """Numeric unfolding of the main recurrences with the D^4-fold partition
    recursion, the secondary structure plugged in at every level, and the
    zero-set plug-ins S1 = N^2, Q1 = N^{1/2}; level combination as in
    _wide_costs."""
    D, c0 = model.D, model.c0
    base = max(D * D, 16.0)
    s_levels, q_levels = [], []
    N = float(n)
    nodes = 1.0
    paths = 1.0
    while N > base:
        s0, q0 = _wide_costs(N / D, (N / D) ** 2, model)
        s1 = 0.0 if s1_zero else N * N
        s_levels.append(nodes * (c0 * s0 + s1))
        q_levels.append(paths * c0 * q0)
        nodes *= D ** 4
        paths *= D
        N /= D * D
    s_bottom = min(nodes * N * N, float(n) ** 2)
    # bottom query cost at the real-valued balance depth D^J = sqrt(n/base):
    # the integer-depth value paths*N oscillates by a factor of D around it
    q_bottom = (float(n) * base) ** 0.5
    S = _combine_levels(s_levels) + s_bottom
    Q = max(_combine_levels(q_levels) + q_bottom, float(n) ** 0.5)
    return S, Q


def unfold_main(ns=None, model: CostModel = DEFAULT_MODEL,
                s1_zero: bool = False) -> Tuple[ExponentFit, ExponentFit]:
    """Fit the exponents of the full structure: storage ~ n^2 and query
    ~ n^{1/2}, with the zero-set plug-ins S1 = n^2 and Q1 = n^{1/2}."""
    if ns is None:
        ns = [2 ** k for k in range(10, 25, 2)]
    svals, qvals = [], []
    for n in ns:
        S, Q = _main_costs(n, model, s1_zero)
        svals.append(S)
        qvals.append(Q)
    return _fit(ns, svals), _fit(ns, qvals)


# ---------------------------------------------------------------------------
# premature-stopping query bound


def premature_query_exponent(sigma):
    """Exponent of the four-term premature-level query bound
    D^k + n^{5/4} D^{k/6} / s^{5/12} + n / s^{1/4} + n / (s^{1/6} D^{k/3}),
    minimized over the two balancing choices D^k = sqrt(s/n) and
    D^k = n^{3/4}/s^{1/8}; each term is floored at exponent 0."""
    sig = Fraction(sigma)
    if sig < 1 or sig > 6:
        raise ValueError("sigma outside [1, 6]")

    def cost(kappa):
        t1 = kappa
        t2 = Fraction(5, 4) + kappa / 6 - Fraction(5, 12) * sig
        t3 = 1 - sig / 4
        t4 = 1 - sig / 6 - kappa / 3
        return max(Fraction(0), t1, t2, t3, t4)

    half = Fraction(1, 2)
    kappas = []
    k1 = (sig - 1) / 2
    kappas.append(min(max(k1, Fraction(0)), half))
    k2 = Fraction(3, 4) - sig / 8
    kappas.append(min(max(k2, Fraction(0)), half))
    return min(cost(k) for k in kappas)


def unfold_premature(n, sigma):
    """Query exponent at storage n^sigma via the premature-stopping bound;
    n is accepted for interface symmetry (the bound is exponent-only)."""
    return premature_query_exponent(sigma)


def tradeoff_samples(sigmas):
    """(sigma, closed-form exponent, premature exponent) rows for the
    tradeoff curve."""
    out = []
    for s in sigmas:
        sig = Fraction(s)
        out.append((sig, q_tradeoff_exponent(sig), premature_query_exponent(sig)))
    return out


def batched_samples(mus):
    return [(Fraction(m), batched_cost_exponents(Fraction(m))) for m in mus]
