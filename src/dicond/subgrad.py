"""Subdifferential intervals, boundary indicator, and subgradient selection.

The descent machinery works on the per-vertex subdifferential intervals
of the three convex pieces of Q_r (the arc term, the imbalance term, and
the median term), combines their chi-signed extremes into a boundary
indicator b with its stop set V_b, and, when V_b is not empty,
assembles a consistent subgradient whose l1 norm exceeds 1, which forces
strict descent of the ratio objective. An empty V_b certifies the stop:
no coordinate admits a descent-forcing boundary subgradient.

All zero tests (x_i + x_j = 0, x_i = +/-||x||_inf, x_i = alpha, J = 0)
use the relative tolerance ZERO_TOL * max(1, ||x||_inf); iterates of the
l1-ball subproblem carry few distinct values, so exact ties are the
common case and must be detected robustly.

The solver evaluates each iterate once, into an IterateState (extremes,
tolerance, the lower median alpha, j0 with its sign and the one J = 0
test, ratio, a binary state's CutState and, on first use, the classes).
The three steps of the general chain, bounds, boundary_indicator and
select_subgradient, take that state and read the degrees from the graph, so x, its tolerance,
classes, ratio and cut sums always belong together; general_step runs
them in turn.

Binary fast path. Nearly every iterate takes exactly the two values
+/-c, and consecutive ones usually differ in one sign. On such an
iterate the chain depends only on the cut: the classes are the two
sides, the pair terms are p_i = -chi_i * own_i and q_i = cut_i, where
cut_i is the symmetric weight from i across the cut and own_i = d_i -
cut_i the weight to its own side, the zero pairs are the cut pairs, and
the median and A, B follow from the two side volumes. A CutState keeps
the cut sums, cut+ + cut- and cut+ - cut-, and the sign array chi: a
single flip moves them in O(deg), other moves recount in O(m). It is
used only on graphs whose sums are all exact
(DirectedGraph.exact_sums: weights that are multiples of one 2^-k with
a bounded total), where the updated sums, d - cut and every sum over
the cut pairs equal the general code's bit for bit. There dsi_run
evaluates each binary move with binary_state, on the side and c that
the move names; it reads alpha off one volume comparison (-c iff the
negative side holds half the volume) and r off the cut sums: at x =
+/-c on S, vol c - I+ - J = 4c min(cut+, cut-) and 2N = 4c min(vol S,
vol S^c), so r = phi(S), which CutState.phi returns as conductance_set
does, bit for bit. binary_step replaces the three steps with one pass:
it returns general_step's V_b and subgradient on the same state without
the O(m) pass over all pairs, the vertex classes or the interval
arrays. Other graphs and non-binary iterates take alpha and N from one
n_med call, r_obj's formula and general_step. The two steps differ only
in the inputs that binary_step reads off the cut state; both compute b
in _boundary, V_b in _stop_set and v, y and s in _assemble.

A binary iteration (its step, subproblem and state) runs about 70
numpy calls on arrays of n or |cut| entries, so the code makes few. Every float operation
keeps its order, since V_b, the lead of each cut pair and k = n follow
the last bits of b and s. Extremes are read by arg-reductions
(a[a.argmax()]), |b| is computed once per step (BoundaryIndicator.abs_b),
the tie set is counted once, and -d, |d_delta| and -d_delta are cached
on the DegreeProfile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstantVectorError
from .functionals import NONCONSTANT_RTOL, i_plus, j_terms, linf, n_med, ratio
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
    zero_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]


class CutState:
    """Cut sums and signs of a binary iterate; a single flip moves them
    in O(deg).

    side is the mask of the positive side S, chi the sign array of the
    DSI steps (-1 on S, +1 off it), cut[i] the symmetric weight from i
    across the cut, is_cut flags the cut pairs of g.pairs, cut_total =
    cut+ + cut-, imbalance = d_delta summed over S = cut+ - cut-, and
    vol_neg the volume of the negative side. The weight from i to its
    own side is d[i] - cut[i], because d = d_out + d_in sums the pair
    weights at each vertex. A move that flips one vertex negates its
    entry of chi and updates its pairs in O(deg); any other move
    recounts in O(m). g.exact_sums must hold: then every update, and
    d - cut, equals a full recount. ends holds the two ends (u, v) of
    each pair as one (P, 2) array, and a flip slices its pair weights
    out of g.pair_adjacency instead of gathering them.
    """

    def __init__(self, g: DirectedGraph):
        if not g.exact_sums:
            raise ValueError("CutState needs a graph whose sums are exact (g.exact_sums)")
        self.g = g
        self.side: np.ndarray | None = None
        pu, pv, _ = g.pairs
        self.ends = np.stack((pu, pv), axis=1)

    def move_to(self, side: np.ndarray) -> None:
        """Move to the positive-side mask side: one flipped vertex moves
        its signs, pairs, neighbours and sums in O(deg), any other move
        recounts."""
        flipped = None if self.side is None else (side != self.side).nonzero()[0]
        if flipped is None or flipped.size > 1:
            self._recount(side)
            return
        if flipped.size == 0:
            return
        g, v = self.g, int(flipped[0])
        indptr, nbr, pair_ids, pair_w = g.pair_adjacency
        at = slice(indptr[v], indptr[v + 1])
        e = pair_ids[at]  # the neighbours nbr[at] are distinct
        w = pair_w[at]
        was_cut = self.is_cut[e]
        dw = np.where(was_cut, -w, w)  # change of the cut weight
        self.is_cut[e] = ~was_cut
        self.cut[nbr[at]] += dw
        d, d_delta = g.degree_profile.d, g.degree_profile.d_delta
        self.cut_total += float(d[v] - 2.0 * self.cut[v])
        self.cut[v] = d[v] - self.cut[v]  # v's own side and cut swap
        self.imbalance += float(d_delta[v] if side[v] else -d_delta[v])
        self.vol_neg += float(-d[v] if side[v] else d[v])
        self.side[v] = side[v]
        self.chi[v] = -self.chi[v]

    def _recount(self, side: np.ndarray) -> None:
        g = self.g
        pu, pv, w_sym = g.pairs
        self.side = side.copy()
        self.chi = np.where(side, -1.0, 1.0)
        self.is_cut = side[pu] != side[pv]
        w_cut = w_sym * self.is_cut
        self.cut = np.bincount(pu, weights=w_cut, minlength=g.n)
        self.cut += np.bincount(pv, weights=w_cut, minlength=g.n)
        self.cut_total = float(w_cut.sum())
        self.imbalance = float(g.degree_profile.d_delta[side].sum())
        self.vol_neg = float(g.degree_profile.d[~side].sum())

    def matches_recount(self) -> bool:
        """True iff the maintained signs and sums equal a full recount bit
        for bit."""
        fresh = CutState(self.g)
        fresh._recount(self.side)
        return (all(getattr(self, name).tobytes() == getattr(fresh, name).tobytes()
                    for name in ("chi", "is_cut", "cut"))
                and (self.cut_total, self.imbalance, self.vol_neg)
                == (fresh.cut_total, fresh.imbalance, fresh.vol_neg))

    def phi(self) -> float:
        """conductance_set(g, side)[0], bit for bit: the sums are exact,
        so the division is its one rounding. Raises ConstantVectorError
        on a zero-volume side, where r_obj is undefined."""
        vol_min = min(self.vol_neg, self.g.degree_profile.vol_total - self.vol_neg)
        if vol_min <= 0:
            raise ConstantVectorError("ratio undefined: a side has zero volume")
        return 0.5 * (self.cut_total - abs(self.imbalance)) / vol_min


@dataclass(frozen=True)
class IterateState:
    """One evaluation of an iterate x, shared by the steps of an iteration.

    Holds x with its extremes and norm = ||x||_inf, the zero-test
    tolerance t = ZERO_TOL * max(1, norm), the lower degree-weighted
    median alpha (n_med's alpha_low, the one median value a step reads),
    the signed imbalance j0 = <d_delta, x>, and r = r_obj(x) (phi of
    the positive side on a binary x with a CutState). The vertex classes
    are built on first use, so an iterate that is rejected never pays
    for them (nor raises where classify would). cut marks a binary
    state (binary_state built it) and is read only for the current
    state, as later moves move it on; the finish reads best.x > 0.
    """

    x: np.ndarray
    x_min: float
    x_max: float
    norm: float
    t: float
    alpha: float
    j0: float
    r: float
    cut: CutState | None = None

    @cached_property
    def classes(self) -> VertexClasses:
        return _classes(self.x, self.x_max - self.x_min, self.norm, self.t, self.alpha)

    @property
    def j_is_zero(self) -> bool:
        """The J = 0 test, |j0| <= t."""
        return abs(self.j0) <= self.t

    @property
    def j_sign(self) -> float:
        """Sign(j0), with Sign(0) = +1."""
        return 1.0 if self.j0 >= 0 else -1.0


@dataclass(frozen=True)
class BoundaryIndicator:
    """Signed boundary values of the scaled subdifferential of Q_r.

    v_b collects the maximizers of {b_i * chi_i > 0}; emptiness certifies
    that no coordinate admits a descent-forcing boundary subgradient.
    Where the selection step needs an order of vertices by |b| (the lead
    of a zero pair, the tie j*), it compares abs_b = |b|, computed once.
    """

    b: np.ndarray
    chi: np.ndarray
    a_sel: np.ndarray
    v_b: np.ndarray
    abs_b: np.ndarray


@dataclass(frozen=True)
class SelectedSubgradient:
    """A consistent element of the subdifferential of Q_r at x."""

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    i_star: int


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


def iterate_state(g: DirectedGraph, x: np.ndarray) -> IterateState:
    """Evaluate x once: extremes, tolerance, median alpha, j0 and r;
    raises ConstantVectorError where is_nonconstant(x) is False or r_obj
    would raise.

    One n_med call gives alpha and the N of r_obj's formula, and each
    extreme is read by an arg-reduction, a[a.argmax()]. The state has
    no CutState: dsi_run evaluates binary moves with binary_state.
    """
    x = np.asarray(x, dtype=float)
    x_min, x_max = float(x[x.argmin()]), float(x[x.argmax()])
    norm = max(x_max, -x_min)  # = ||x||_inf
    if not x_max - x_min > NONCONSTANT_RTOL * max(1.0, norm):  # is_nonconstant(x)
        raise ConstantVectorError("cannot evaluate a constant vector")
    j0, j = j_terms(g, x)
    med = n_med(g.degree_profile, x)
    r = ratio(g.degree_profile, norm, i_plus(g, x), med.n_value, j)
    return IterateState(x, x_min, x_max, norm, ZERO_TOL * max(1.0, norm), med.alpha_low, j0, r)


def binary_state(g: DirectedGraph, x: np.ndarray, side: np.ndarray, c: float, cut: CutState) -> IterateState:
    """The IterateState of an x that is +c on side and -c off it, with
    c > ZERO_TOL * max(1, c) and g.exact_sums, without a scan of x:
    iterate_state's, bit for bit, in every field but r.

    cut moves to side; alpha is -c iff the negative side holds half the
    volume (n_med's test and tolerance, on the exact vol_neg), j0 is
    <d_delta, x>, and r is CutState.phi: r_obj's exact value there,
    conductance_set's bit for bit, in O(1) (r_obj's formula can differ
    in the last bits). Raises ConstantVectorError when a side has zero
    volume (an empty side included). dsi_run, which alone calls it,
    names the side and c of each binary move.
    """
    cut.move_to(side)
    degrees = g.degree_profile
    w_total = degrees.vol_total
    alpha = -c if cut.vol_neg >= 0.5 * w_total - 1e-12 * w_total else c
    j0 = float(np.dot(degrees.d_delta, x))
    return IterateState(x, -c, c, c, ZERO_TOL * max(1.0, c), alpha, j0, cut.phi(), cut)


def bounds(g: DirectedGraph, state: IterateState) -> SubgradientBounds:
    """Per-vertex subdifferential intervals of the three pieces of Q_r
    at the iterate of state, with its tolerance t and classes."""
    x, t, classes = state.x, state.t, state.classes
    degrees = g.degree_profile
    n = g.n
    pu, pv, w_sym = g.pairs

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

    d_delta = degrees.d_delta
    if state.j_is_zero:
        l_high = np.abs(d_delta)
        l_low = -l_high
    else:
        l_low = l_high = d_delta * state.j_sign

    d = degrees.d
    in_a = classes.s_alpha
    below = (x < classes.alpha) & ~in_a
    above = (x > classes.alpha) & ~in_a
    A = float(d[below].sum() - d[above].sum())
    B = float(d[in_a].sum())
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
        zero_pairs=(pu[iz], pv[iz], w_sym[iz]),
    )


def boundary_indicator(
    g: DirectedGraph, state: IterateState, bnds: SubgradientBounds
) -> BoundaryIndicator:
    """Boundary values b, signs chi, the chosen median-term endpoint, and
    the stop set V_b = argmax{b_i chi_i : b_i chi_i > 0} at the iterate
    of state, whose bounds are bnds. An empty V_b certifies the stop."""
    classes, r, p = state.classes, state.r, bnds.p
    in_a = classes.s_alpha
    # l_low is the point value of the imbalance term when J != 0
    base = p + (bnds.l_low if not state.j_is_zero else 0.0)

    # median-term endpoint per vertex: a_low is d * Sign(x - alpha) off
    # the tie set and A on a single tie vertex
    a_sel = bnds.a_low.copy()
    if np.count_nonzero(in_a) >= 2:
        pick_high = in_a & classes.s_minus
        a_sel[pick_high] = bnds.a_high[pick_high]
        free = in_a & classes.s_less
        if free.any():
            lo, hi, bf = bnds.a_low[free], bnds.a_high[free], base[free]
            take_low = np.abs(bf + 2.0 * r * lo) >= np.abs(bf + 2.0 * r * hi)
            a_sel[free] = np.where(take_low, lo, hi)

    drift = base + 2.0 * r * a_sel
    chi = np.where(classes.s_less, _sign(drift), np.where(classes.s_minus, 1.0, -1.0))
    b = _boundary(g, state, p, bnds.q, chi, a_sel)
    return BoundaryIndicator(b=b, chi=chi, a_sel=a_sel, v_b=_stop_set(b, chi), abs_b=np.abs(b))


def _boundary(g: DirectedGraph, state: IterateState, p: np.ndarray, q: np.ndarray,
              chi: np.ndarray, a_sel: np.ndarray) -> np.ndarray:
    """b = p + imbalance + 2 r a_sel + chi q: the chi-signed extremes of
    the arc and imbalance terms plus the selected median-term endpoint.
    The imbalance term is chi |d_delta| at J = 0, else Sign(j0) d_delta."""
    degrees = g.degree_profile
    imb = chi * degrees.abs_d_delta if state.j_is_zero else degrees.signed_d_delta(state.j_sign)
    return p + imb + 2.0 * state.r * a_sel + chi * q


def _stop_set(b: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """V_b = argmax{b_i chi_i : b_i chi_i > 0} in ascending id order,
    with the zero test relative to max |b| = max |b chi|, as |chi| = 1.
    The extremes are read by arg-reductions, prod[prod.argmax()]."""
    prod = b * chi
    top = float(prod[prod.argmax()])
    eps = ZERO_TOL * max(1.0, top, -float(prod[prod.argmin()]))
    if not top > eps:
        return np.empty(0, dtype=np.int64)
    keep = prod >= top - eps
    if not top - eps > eps:  # else prod >= top - eps implies prod > eps
        keep &= prod > eps
    return keep.nonzero()[0]


def select_subgradient(
    g: DirectedGraph, state: IterateState, bnds: SubgradientBounds, indicator: BoundaryIndicator
) -> SelectedSubgradient:
    """Assemble the boundary-driven subgradient s = (u + y + 2 r v) / vol
    at the iterate of state, from its bounds and boundary indicator.

    V_b must not be empty (an empty V_b certifies the stop, and there is
    no subgradient to select): raises ValueError. The pivot i* is the
    smallest id in V_b; the descent argument allows any member.
    Zero-sum neighbor pairs receive one consistent sign at both
    endpoints, the chi of the pair's lead end (_lead).
    """
    if indicator.v_b.size == 0:
        raise ValueError("V_b is empty: the boundary test certifies the stop")
    i_star = int(indicator.v_b[0])

    u = bnds.p.copy()
    zu, zv, zw = bnds.zero_pairs
    in_a = state.classes.s_alpha
    zval = indicator.chi[_lead(np.column_stack((zu, zv)), indicator, i_star)]
    np.add.at(u, zu, zw * zval)
    np.add.at(u, zv, zw * zval)
    return _assemble(g, state, indicator, i_star, u, in_a, np.count_nonzero(in_a) >= 2, bnds.A, bnds.B)


def _lead(ends: np.ndarray, ind: BoundaryIndicator, i_star: int) -> np.ndarray:
    """The lead end of each zero pair, a row (u, v) of ends with u < v,
    whose chi signs the pair at both ends: i* on pairs touching i*, else
    the end with the larger |b|, and v (the later id) on a tie."""
    abs_b = ind.abs_b
    b_star = abs_b[i_star]
    abs_b[i_star] = np.inf  # i* leads; restored after the gather
    ab = abs_b.take(ends)  # both ends in one gather
    abs_b[i_star] = b_star
    return np.where(ab[:, 0] > ab[:, 1], ends[:, 0], ends[:, 1])


def _assemble(g: DirectedGraph, state: IterateState, ind: BoundaryIndicator, i_star: int,
              u: np.ndarray, in_a: np.ndarray, many_ties: bool, A: float, B: float) -> SelectedSubgradient:
    """s = (u + y + 2 r v) / vol from the signed arc term u at the pivot
    i*, the median tie set in_a (many_ties: it holds two or more
    vertices) and its aggregates A and B.

    v is a_sel (A on a single tie). On two or more ties it keeps a_sel
    at j*: i* if i* ties, else the tie with the largest |b| (the largest
    id among equals). It spreads A - a_sel[j*] over the other ties by
    degree. y = Sign(j0) d_delta; at J = 0 one t in [-1, 1] scales
    d_delta, and b_{i*} is attained only with t = chi_{i*} Sign(d_delta_i*).
    """
    degrees = g.degree_profile
    d, d_delta = degrees.d, degrees.d_delta
    v = ind.a_sel
    if many_ties:
        if in_a[i_star]:
            j_star = i_star
        else:  # -1 is below every |b|; the reversed argmax is the last maximum
            ab = np.where(in_a, ind.abs_b, -1.0)
            j_star = g.n - 1 - int(np.argmax(ab[::-1]))
        denom = B - d[j_star]
        scale = (A - v[j_star]) / denom if denom > 0 else 0.0
        v = np.where(in_a, scale * d, v)
        v[j_star] = ind.a_sel[j_star]

    if state.j_is_zero:
        sign = ind.chi[i_star] * (1.0 if d_delta[i_star] >= 0 else -1.0)
    else:
        sign = state.j_sign
    y = degrees.signed_d_delta(sign)
    s = (u + y + 2.0 * state.r * v) / degrees.vol_total
    return SelectedSubgradient(s=s, u=u, v=v, y=y, i_star=i_star)


def general_step(g: DirectedGraph, state: IterateState) -> tuple[np.ndarray, SelectedSubgradient | None]:
    """V_b at the iterate of state and, when V_b is not empty, the
    selected subgradient: bounds, boundary_indicator and
    select_subgradient in turn."""
    bnds = bounds(g, state)
    ind = boundary_indicator(g, state, bnds)
    if ind.v_b.size == 0:
        return ind.v_b, None
    return ind.v_b, select_subgradient(g, state, bnds, ind)


def binary_step(g: DirectedGraph, state: IterateState) -> tuple[np.ndarray, SelectedSubgradient | None]:
    """general_step at a binary iterate, read from its CutState in one
    pass; V_b and the subgradient are the general chain's, bit for bit.

    state.cut must be set: x takes exactly the values +/-c with c > t,
    and g.exact_sums holds. Only the inputs come from the cut state: the
    classes are the sides (no vertex is interior), chi is the state's
    sign array (-1 on the positive side, +1 on the other), the median
    tie set is the side that holds alpha, A and B are side volumes, the
    pair terms are p = -chi * own = chi * (cut - d) and q = cut, and
    the zero pairs are the cut pairs, signed per vertex with bincount
    instead of np.add.at (the same bits, as every such sum is exact).
    b, V_b and the assembly of v, y and s are the general chain's shared
    code.
    """
    cut = state.cut
    degrees = g.degree_profile
    d = degrees.d
    side, chi = cut.side, cut.chi
    p = chi * (cut.cut - d)
    p += 0.0  # the general code gives +0.0, not -0.0, where own is 0

    # median term: off the tie set a_sel = d * Sign(x - alpha); on a tie
    # set of two or more, the endpoint the general chain selects (a_low
    # when the tie set is the positive side, a_high when it is the
    # negative one); on a single tie vertex, A
    vol_pos = degrees.vol_total - cut.vol_neg
    tie_pos = state.alpha > 0
    in_a = side if tie_pos else ~side
    A, B = (cut.vol_neg - 0.0, vol_pos) if tie_pos else (0.0 - vol_pos, cut.vol_neg)
    many_ties = np.count_nonzero(in_a) >= 2
    if many_ties:
        tie = np.maximum(A - B + d, degrees.neg_d) if tie_pos else np.minimum(A + B - d, d)
    else:
        tie = A
    a_sel = np.where(side, tie, degrees.neg_d) if tie_pos else np.where(side, d, tie)

    b = _boundary(g, state, p, cut.cut, chi, a_sel)
    v_b = _stop_set(b, chi)
    if v_b.size == 0:
        return v_b, None
    i_star = int(v_b[0])
    ind = BoundaryIndicator(b=b, chi=chi, a_sel=a_sel, v_b=v_b, abs_b=np.abs(b))

    # each cut pair adds chi(lead) * w at both ends (_lead); its ends have
    # opposite chi, so vertex i gains chi_i * (2 lead_i - cut_i), lead_i
    # the weight of the cut pairs it leads
    iz = cut.is_cut.nonzero()[0]
    lead = _lead(cut.ends.take(iz, axis=0), ind, i_star)
    lead_w = np.bincount(lead, weights=g.pairs[2].take(iz), minlength=g.n)
    u = p + chi * (2.0 * lead_w - cut.cut)
    return v_b, _assemble(g, state, ind, i_star, u, in_a, many_ties, A, B)
