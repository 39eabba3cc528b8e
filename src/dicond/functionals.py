"""Continuous functionals over vertex vectors.

These are the building blocks of the ratio objective whose minimum over
nonconstant vectors equals the digraph conductance: the arc sums I+ and
I, the signed/absolute degree-imbalance terms J0 and J, the
degree-weighted median deviation N, the ratio r itself, and the
parametric combination Q_r driving the iterative solver. A generic
Lovasz-extension evaluator is included for property-testing the
framework on small ground sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstantVectorError, GraphTooLargeError
from .graph import DegreeProfile, DirectedGraph

NONCONSTANT_RTOL = 1e-12


def linf(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def is_nonconstant(x: np.ndarray) -> bool:
    """max - min > NONCONSTANT_RTOL * max(1, ||x||_inf)."""
    return float(np.max(x) - np.min(x)) > NONCONSTANT_RTOL * max(1.0, linf(x))


def i_plus(g: DirectedGraph, x: np.ndarray) -> float:
    """Sum over arcs of w_ij * |x_i + x_j|."""
    return float(np.dot(g.weights, np.abs(x[g.tails] + x[g.heads])))


def i_diff(g: DirectedGraph, x: np.ndarray) -> float:
    """Sum over arcs of w_ij * |x_i - x_j| (the total-variation companion)."""
    return float(np.dot(g.weights, np.abs(x[g.tails] - x[g.heads])))


def j_terms(g: DirectedGraph, x: np.ndarray) -> tuple[float, float]:
    """Signed imbalance j0 = sum_i d_delta_i x_i and its absolute value."""
    j0 = float(np.dot(g.degree_profile.d_delta, x))
    return j0, abs(j0)


@dataclass(frozen=True)
class MedianResult:
    """Weighted-median interval of x under degree weights, with the
    minimal value n_value = min_c sum_i d_i |x_i - c|."""

    alpha_low: float
    alpha_high: float
    n_value: float


def n_med(degrees: DegreeProfile, x: np.ndarray) -> MedianResult:
    """Degree-weighted median interval and deviation minimum.

    alpha_low is the lower weighted median (always an attained data
    value); the interval is nondegenerate exactly when the cumulative
    weight splits the total in half at alpha_low.
    """
    w_total = degrees.vol_total
    if w_total <= 0:
        raise ValueError("median needs positive total volume")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cw = np.cumsum(degrees.d[order])
    half = 0.5 * w_total
    eps = 1e-12 * w_total
    k = int(np.searchsorted(cw, half - eps, side="left"))
    alpha_low = float(xs[k])
    # the interval extends iff the weight at or below alpha_low is exactly half
    group_end = int(np.searchsorted(xs, alpha_low, side="right")) - 1
    if cw[group_end] <= half + eps and group_end + 1 < xs.size:
        alpha_high = float(xs[group_end + 1])
    else:
        alpha_high = alpha_low
    return MedianResult(alpha_low, alpha_high, median_deviation(degrees, x, alpha_low))


def median_deviation(degrees: DegreeProfile, x: np.ndarray, alpha: float) -> float:
    """sum_i d_i |x_i - alpha|, the n_value of n_med at its alpha_low."""
    return float(np.dot(degrees.d, np.abs(x - alpha)))


def r_obj(g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray) -> float:
    """Ratio objective (vol * ||x||_inf - I+ - J) / (2 N); its minimum
    over nonconstant x equals the digraph conductance."""
    return ratio(g, degrees, x, linf(x), n_med(degrees, x).n_value, j_terms(g, x)[1])


def ratio(g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray, norm: float,
          n_value: float, j: float) -> float:
    """r_obj at x from its known ||x||_inf, median deviation N(x) and
    imbalance term J(x) = |j0|."""
    if n_value <= 0:
        raise ConstantVectorError("ratio undefined: zero median deviation")
    return (degrees.vol_total * norm - i_plus(g, x) - j) / (2.0 * n_value)


def q_r(g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray, r: float) -> float:
    """Convex degree-one-homogeneous surrogate (I+ + J + 2 r N) / vol."""
    _, j = j_terms(g, x)
    n_val = n_med(degrees, x).n_value
    return (i_plus(g, x) + j + 2.0 * r * n_val) / degrees.vol_total


def single_directed_ratio(
    g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray, sign: float = 1.0
) -> float:
    """One-sided cut ratio (vol * ||x||_inf - I+ - sign * J0) / (2 N).

    At the +/-1 indicator of a set S, sign=+1 evaluates to the
    in-conductance of S and sign=-1 to the out-conductance (pinned by
    the exhaustive indicator tests); minimizing over nonconstant x gives
    the same graph-level value either way.
    """
    n_val = n_med(degrees, x).n_value
    if n_val <= 0:
        raise ConstantVectorError("ratio undefined: zero median deviation")
    j0, _ = j_terms(g, x)
    return (degrees.vol_total * linf(x) - i_plus(g, x) - sign * j0) / (2.0 * n_val)


@dataclass(frozen=True)
class SetFunctionHandle:
    """Nonnegative set function on a small ground set.

    evaluate takes a bitmask over vertices 0..n-1. Only meant for
    exhaustive testing; n is capped accordingly.
    """

    n: int
    evaluate: Callable[[int], float]

    def __post_init__(self):
        if self.n > 20:
            raise GraphTooLargeError("set-function ground sets are capped at n=20")

    @staticmethod
    def from_table(values) -> "SetFunctionHandle":
        values = np.asarray(values, dtype=float)
        n = int(np.log2(values.size))
        if 1 << n != values.size:
            raise ValueError("table length must be a power of two")
        return SetFunctionHandle(n, lambda mask: float(values[mask]))

    @staticmethod
    def cut_plus(g: DirectedGraph) -> "SetFunctionHandle":
        def f(mask: int) -> float:
            t_in = (mask >> g.tails) & 1
            h_in = (mask >> g.heads) & 1
            return float(g.weights[(t_in == 1) & (h_in == 0)].sum())

        return SetFunctionHandle(g.n, f)

    @staticmethod
    def cut_minus(g: DirectedGraph) -> "SetFunctionHandle":
        def f(mask: int) -> float:
            t_in = (mask >> g.tails) & 1
            h_in = (mask >> g.heads) & 1
            return float(g.weights[(t_in == 0) & (h_in == 1)].sum())

        return SetFunctionHandle(g.n, f)

    @staticmethod
    def cut_min(g: DirectedGraph) -> "SetFunctionHandle":
        fp, fm = SetFunctionHandle.cut_plus(g), SetFunctionHandle.cut_minus(g)
        return SetFunctionHandle(g.n, lambda mask: min(fp.evaluate(mask), fm.evaluate(mask)))

    @staticmethod
    def vol_min(g: DirectedGraph) -> "SetFunctionHandle":
        d = g.degree_profile.d
        vol = g.degree_profile.vol_total

        def f(mask: int) -> float:
            vs = float(d[(mask >> np.arange(g.n)) & 1 == 1].sum())
            return min(vs, vol - vs)

        return SetFunctionHandle(g.n, f)


def _threshold_mask(x: np.ndarray, t: float) -> int:
    mask = 0
    for i in np.flatnonzero(x > t):
        mask |= 1 << int(i)
    return mask


def lovasz_extension(f: SetFunctionHandle, x: np.ndarray, mode: str = "sum") -> float:
    """Evaluate the Lovasz extension of f at x.

    "sum" uses the sorted threshold-set formula with the x_0 := 0
    convention; "integral" integrates f over the strict superlevel sets
    between consecutive distinct values of x (exact piecewise-constant
    integration) and adds f(full set) * min(x). Both agree to rounding
    and coincide with f on indicator vectors.
    """
    x = np.asarray(x, dtype=float)
    if x.size != f.n:
        raise ValueError("vector length does not match ground-set size")
    full = (1 << f.n) - 1
    if mode == "sum":
        order = np.argsort(x, kind="stable")
        xs = x[order]
        total = float(xs[0] - 0.0) * f.evaluate(full)
        for i in range(f.n - 1):
            if xs[i + 1] != xs[i]:
                total += (xs[i + 1] - xs[i]) * f.evaluate(_threshold_mask(x, xs[i]))
        return total
    if mode == "integral":
        levels = np.unique(x)
        total = float(levels[0]) * f.evaluate(full)
        for lo, hi in zip(levels[:-1], levels[1:]):
            total += (hi - lo) * f.evaluate(_threshold_mask(x, lo))
        return total
    raise ValueError(f"unknown mode {mode!r}")
