"""Subdifferential intervals, boundary indicator, and subgradient selection.

The descent machinery works on the per-vertex subdifferential intervals
of the three convex pieces of Q_r (the arc term, the imbalance term, and
the median term), combines their chi-signed extremes into a boundary
indicator b, and either certifies flip-local optimality (V_b empty) or
assembles a consistent subgradient whose l1 norm exceeds 1, which forces
strict descent of the ratio objective.

All zero tests (x_i + x_j = 0, x_i = +/-||x||_inf, x_i = alpha, J = 0)
use the relative tolerance ZERO_TOL * max(1, ||x||_inf); iterates of the
l1-ball subproblem carry few distinct values, so exact ties are the
common case and must be detected robustly.

The solver evaluates each iterate once, into an IterateState (extremes,
tolerance, median, ratio and, on first use, the classes), and the steps
of an iteration read it instead of recomputing it.

Binary fast path. Nearly every iterate takes exactly the two values
+/-c, and consecutive ones usually differ in one sign. On such an
iterate the pair terms of bounds depend only on the cut: p_i =
sigma_i * own_i and q_i = cut_i, where cut_i is the symmetric weight
from i across the cut and own_i = d_i - cut_i the weight to its own
side, the zero pairs are the cut pairs, and the median and A, B follow
from the two side volumes. A CutState keeps the cut sums: a single flip
moves them in O(deg), other moves recount in O(m). It is used only on
graphs whose sums are all exact (DirectedGraph.exact_sums: weights that
are multiples of one 2^-k with a bounded total), where the updated sums
and d - cut equal a full recount bit for bit, so the fast path gives
the same bounds and medians as the general code; on other graphs and
on iterates that are not binary the general code runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstantVectorError
from .functionals import MedianResult, linf, median_deviation, n_med, ratio
from .graph import DegreeProfile, DirectedGraph

ZERO_TOL = 1e-9


def _sign(t: np.ndarray | float):
    """Sign with Sign(0) = +1."""
    return np.where(np.asarray(t) >= 0, 1.0, -1.0)


@dataclass(frozen=True)
class VertexClasses:
    """Partition of vertices by extremity of x plus the median tie set."""

    s_plus: np.ndarray
    s_minus: np.ndarray
    s_less: np.ndarray
    s_alpha: np.ndarray
    alpha: float


@dataclass(frozen=True)
class SubgradientBounds:
    """Per-vertex subdifferential data for the three pieces of Q_r.

    p/q give the arc-term interval [p-q, p+q]; l_low/l_high the
    imbalance-term interval; a_low/a_high the median-term interval with
    its tie-set aggregates A and B. zero_pairs lists the unordered
    neighbor pairs with x_i + x_j = 0 (symmetric weight attached), which
    the selection step must sign consistently at both endpoints.
    """

    p: np.ndarray
    q: np.ndarray
    l_low: np.ndarray
    l_high: np.ndarray
    a_low: np.ndarray
    a_high: np.ndarray
    A: float
    B: float
    j_is_zero: bool
    j0: float
    zero_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]


class CutState:
    """Cut sums of a binary iterate; a single flip moves them in O(deg).

    side is the mask of the positive side, cut[i] the symmetric weight
    from i across the cut, is_cut flags the cut pairs of g.pairs, and
    vol_neg is the volume of the negative side. The weight from i to its
    own side is d[i] - cut[i], because d = d_out + d_in sums the pair
    weights at each vertex. A move that flips one vertex updates its
    pairs in O(deg); any other move recounts in O(m). g.exact_sums must
    hold: then every update, and d - cut, equals a full recount bit for
    bit.
    """

    def __init__(self, g: DirectedGraph):
        if not g.exact_sums:
            raise ValueError("CutState needs a graph whose sums are exact (g.exact_sums)")
        self.g = g
        self.side: np.ndarray | None = None

    def move_to(self, side: np.ndarray) -> None:
        """Move to the positive-side mask side: one flipped vertex moves
        its pairs and neighbours in O(deg), any other move recounts."""
        flipped = None if self.side is None else np.flatnonzero(side != self.side)
        if flipped is None or flipped.size > 1:
            self._recount(side)
            return
        if flipped.size == 0:
            return
        g, v = self.g, int(flipped[0])
        indptr, nbr, pair_ids = g.pair_adjacency
        at = slice(indptr[v], indptr[v + 1])
        e = pair_ids[at]  # the neighbours nbr[at] are distinct
        w = g.pairs[2][e]
        dw = np.where(self.is_cut[e], -w, w)  # change of the cut weight
        self.is_cut[e] = ~self.is_cut[e]
        self.cut[nbr[at]] += dw
        d = g.degree_profile.d
        self.cut[v] = d[v] - self.cut[v]  # v's own side and cut swap
        self.vol_neg += float(-d[v] if side[v] else d[v])
        self.side[v] = side[v]

    def _recount(self, side: np.ndarray) -> None:
        g = self.g
        pu, pv, w_sym = g.pairs
        self.side = side.copy()
        self.is_cut = side[pu] != side[pv]
        w_cut = w_sym * self.is_cut
        self.cut = np.bincount(pu, weights=w_cut, minlength=g.n)
        self.cut += np.bincount(pv, weights=w_cut, minlength=g.n)
        self.vol_neg = float(g.degree_profile.d[~side].sum())

    def matches_recount(self) -> bool:
        """True iff the maintained sums equal a full recount bit for bit."""
        fresh = CutState(self.g)
        fresh._recount(self.side)
        return (self.is_cut.tobytes() == fresh.is_cut.tobytes()
                and self.cut.tobytes() == fresh.cut.tobytes()
                and self.vol_neg == fresh.vol_neg)

    def median(self, degrees: DegreeProfile, x: np.ndarray) -> MedianResult:
        """n_med at a binary x on this side mask, from vol_neg alone:
        the lower median is -c iff the negative side holds at least
        half the volume, with the tolerance n_med uses."""
        w_total = degrees.vol_total
        half, eps = 0.5 * w_total, 1e-12 * w_total
        c = float(x.max())
        if self.vol_neg >= half - eps:
            low, high = -c, (c if self.vol_neg <= half + eps else -c)
        else:
            low = high = c
        return MedianResult(low, high, median_deviation(degrees, x, low))


@dataclass(frozen=True)
class IterateState:
    """One evaluation of an iterate x, shared by the steps of an iteration.

    Holds x with its extremes and norm = ||x||_inf, the zero-test
    tolerance t = ZERO_TOL * max(1, norm), the degree-weighted median from a
    single n_med call (or, equal to it, from the cut state's volumes),
    and r, the value r_obj returns at x. The vertex
    classes are built on first use, so an iterate that is rejected
    never pays for them (nor raises where classify would). cut is the
    CutState moved to x when x is binary and a CutState was given,
    else None.
    """

    x: np.ndarray
    x_min: float
    x_max: float
    norm: float
    t: float
    median: MedianResult
    r: float
    cut: CutState | None = None

    @cached_property
    def classes(self) -> VertexClasses:
        return _classes(self.x, self.x_max - self.x_min, self.norm, self.t, self.median.alpha_low)


@dataclass(frozen=True)
class BoundaryIndicator:
    """Signed boundary values of the scaled subdifferential of Q_r.

    v_b collects the maximizers of {b_i * chi_i > 0}; emptiness certifies
    that no coordinate admits a descent-forcing boundary subgradient.
    Where the selection step needs an order of vertices by |b|, it
    compares |b| directly.
    """

    b: np.ndarray
    chi: np.ndarray
    a_sel: np.ndarray
    v_b: np.ndarray


@dataclass(frozen=True)
class SelectedSubgradient:
    """A consistent element of the subdifferential of Q_r at x."""

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    i_star: int


@dataclass(frozen=True)
class StopCertificate:
    """Returned instead of a subgradient when V_b is empty."""

    r: float


def _classes(x: np.ndarray, spread: float, hi: float, t: float, alpha: float) -> VertexClasses:
    if spread <= t:
        raise ConstantVectorError("cannot classify a constant vector")
    s_plus = x >= hi - t
    s_minus = x <= -hi + t
    s_alpha = np.abs(x - alpha) <= t
    return VertexClasses(s_plus, s_minus, ~(s_plus | s_minus), s_alpha, alpha)


def classify(degrees: DegreeProfile, x: np.ndarray) -> VertexClasses:
    """Split vertices into extreme-positive, extreme-negative, interior,
    and median-tie classes, with tolerance ZERO_TOL * max(1, ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    hi = linf(x)
    spread = float(np.max(x) - np.min(x))
    return _classes(x, spread, hi, ZERO_TOL * max(1.0, hi), n_med(degrees, x).alpha_low)


def iterate_state(
    g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray, cut: CutState | None = None
) -> IterateState:
    """Evaluate x once: extremes, tolerance, median and r; raises
    ConstantVectorError where r_obj would.

    With a CutState of g (g.exact_sums must hold) and an x that takes
    exactly the values +/-c, the state moves to x and the median comes
    from its side volumes instead of a sort; the result is the same.
    """
    x = np.asarray(x, dtype=float)
    x_min, x_max = float(np.min(x)), float(np.max(x))
    norm = max(x_max, -x_min)  # = ||x||_inf
    t = ZERO_TOL * max(1.0, norm)
    if cut is not None and x_min == -x_max and x_max > t and np.abs(x).min() == x_max:
        cut.move_to(x > 0)
        median = cut.median(degrees, x)
    else:
        cut = None
        median = n_med(degrees, x)
    r = ratio(g, degrees, x, norm, median.n_value)
    return IterateState(x, x_min, x_max, norm, t, median, r, cut)


def bounds(
    g: DirectedGraph,
    degrees: DegreeProfile,
    classes: VertexClasses,
    x: np.ndarray,
    cut: CutState | None = None,
) -> SubgradientBounds:
    """Per-vertex subdifferential intervals of the three pieces of Q_r.

    cut, when given, is the CutState that iterate_state moved to this
    binary x (IterateState.cut); the pair terms and A, B are then read
    from its sums, with the same values as the general code.
    """
    x = np.asarray(x, dtype=float)
    n = g.n
    t = ZERO_TOL * max(1.0, linf(x))
    pu, pv, w_sym = g.pairs

    if cut is None:
        pair_sum = x[pu] + x[pv]
        zero = np.abs(pair_sum) <= t
        # +w on the zero band too; p -= q below takes it back
        contrib = np.where(pair_sum < -t, -w_sym, w_sym)
        p = np.bincount(pu, weights=contrib, minlength=n)
        p += np.bincount(pv, weights=contrib, minlength=n)
        w_zero = w_sym * zero
        q = np.bincount(pu, weights=w_zero, minlength=n)
        q += np.bincount(pv, weights=w_zero, minlength=n)
        p -= q
        iz = zero.nonzero()[0]
    else:
        own = degrees.d - cut.cut
        # 0.0 - own, not -own: the general code gives +0.0 where own is 0
        p = np.where(cut.side, own, 0.0 - own)
        q = cut.cut.copy()
        iz = cut.is_cut.nonzero()[0]

    d_delta = degrees.d_delta
    j0 = float(np.dot(d_delta, x))
    j_is_zero = abs(j0) <= t
    if j_is_zero:
        l_high = np.abs(d_delta)
        l_low = -l_high
    else:
        l_low = l_high = d_delta * _sign(j0)

    d = degrees.d
    in_a = classes.s_alpha
    below = (x < classes.alpha) & ~in_a
    above = (x > classes.alpha) & ~in_a
    if cut is None:
        A = float(d[below].sum() - d[above].sum())
        B = float(d[in_a].sum())
    else:
        # the tie set is one side: the other side is all below or all above
        vol_pos = degrees.vol_total - cut.vol_neg
        A, B = (cut.vol_neg - 0.0, vol_pos) if classes.alpha > 0 else (0.0 - vol_pos, cut.vol_neg)
    a_low = np.where(above, d, -d)
    if np.count_nonzero(in_a) >= 2:
        a_high = np.where(in_a, np.minimum(A + B - d, d), a_low)
        a_low = np.where(in_a, np.maximum(A - B + d, -d), a_low)
    else:
        a_low[in_a] = A
        a_high = a_low.copy()

    return SubgradientBounds(
        p=p,
        q=q,
        l_low=l_low,
        l_high=l_high,
        a_low=a_low,
        a_high=a_high,
        A=A,
        B=B,
        j_is_zero=j_is_zero,
        j0=j0,
        zero_pairs=(pu[iz], pv[iz], w_sym[iz]),
    )


def boundary_indicator(
    g: DirectedGraph,
    degrees: DegreeProfile,
    bnds: SubgradientBounds,
    classes: VertexClasses,
    r: float,
) -> BoundaryIndicator:
    """Boundary values b, signs chi, the chosen median-term endpoint, and
    the stop set V_b = argmax{b_i chi_i : b_i chi_i > 0}."""
    n = g.n
    p, q = bnds.p, bnds.q
    l_pt = bnds.l_low  # point value of the imbalance term when J != 0
    in_a = classes.s_alpha
    base = p + (l_pt if not bnds.j_is_zero else 0.0)

    # median-term endpoint per vertex: a_low is d * Sign(x - alpha) off
    # the tie set and A on a single tie vertex
    a_sel = bnds.a_low.copy()
    if np.count_nonzero(in_a) >= 2:
        pick_high = in_a & classes.s_minus
        a_sel[pick_high] = bnds.a_high[pick_high]
        free = in_a & classes.s_less
        if np.any(free):
            lo, hi, bf = bnds.a_low[free], bnds.a_high[free], base[free]
            take_low = np.abs(bf + 2.0 * r * lo) >= np.abs(bf + 2.0 * r * hi)
            a_sel[free] = np.where(take_low, lo, hi)

    drift = base + 2.0 * r * a_sel
    chi = np.where(classes.s_less, _sign(drift), np.where(classes.s_minus, 1.0, -1.0))

    if bnds.j_is_zero:
        b = p + chi * np.abs(degrees.d_delta) + 2.0 * r * a_sel + chi * q
    else:
        b = drift + chi * q  # = p + l_pt + 2 r a_sel + chi q

    prod = b * chi
    eps = ZERO_TOL * max(1.0, float(np.max(np.abs(b))) if n else 1.0)
    top = float(prod.max()) if n else 0.0
    if top > eps:
        v_b = np.flatnonzero((prod > eps) & (prod >= top - eps))
    else:
        v_b = np.empty(0, dtype=np.int64)
    return BoundaryIndicator(b=b, chi=chi, a_sel=a_sel, v_b=v_b)


def select_subgradient(
    g: DirectedGraph,
    degrees: DegreeProfile,
    bnds: SubgradientBounds,
    indicator: BoundaryIndicator,
    classes: VertexClasses,
    r: float,
) -> SelectedSubgradient | StopCertificate:
    """Assemble the boundary-driven subgradient s = (u + y + 2 r v) / vol.

    Returns a StopCertificate when V_b is empty. The pivot i* is the
    smallest id in V_b; the descent argument allows any member.
    Zero-sum neighbor pairs receive one consistent sign at both
    endpoints: chi(i*) for pairs touching i*, otherwise the chi of the
    endpoint with the larger |b| (the later one in the |b|-ascending
    order with ties by id, so v on a tie, since pairs have u < v).
    """
    if indicator.v_b.size == 0:
        return StopCertificate(r=r)
    i_star = int(indicator.v_b.min())

    chi, abs_b = indicator.chi, np.abs(indicator.b)
    u = bnds.p.copy()
    zu, zv, zw = bnds.zero_pairs
    if zu.size:
        touches = (zu == i_star) | (zv == i_star)
        later = np.where(abs_b[zu] > abs_b[zv], zu, zv)
        zval = np.where(touches, chi[i_star], chi[later])
        np.add.at(u, zu, zw * zval)
        np.add.at(u, zv, zw * zval)

    d = degrees.d
    in_a = classes.s_alpha
    v = indicator.a_sel.copy()
    tie_ids = np.flatnonzero(in_a)
    if tie_ids.size <= 1:
        v[tie_ids] = bnds.A
    else:
        if in_a[i_star]:
            j_star = i_star
        else:
            # the last tie in the |b|-ascending order: largest |b|, then largest id
            ab = abs_b[tie_ids]
            j_star = int(tie_ids[np.flatnonzero(ab == ab.max())[-1]])
        others = tie_ids[tie_ids != j_star]
        denom = bnds.B - d[j_star]
        scale = (bnds.A - indicator.a_sel[j_star]) / denom if denom > 0 else 0.0
        v[others] = scale * d[others]

    if bnds.j_is_zero:
        # one scalar t in [-1,1] scales the whole imbalance vector; the
        # boundary value b_{i*} is attained only with t matching the
        # sign of the i* component, chi_{i*} alone is not enough
        t = chi[i_star] * (1.0 if degrees.d_delta[i_star] >= 0 else -1.0)
        y = t * degrees.d_delta
    else:
        y = _sign(bnds.j0) * degrees.d_delta

    s = (u + y + 2.0 * r * v) / degrees.vol_total
    return SelectedSubgradient(s=s, u=u, v=v, y=np.asarray(y, dtype=float), i_star=i_star)
