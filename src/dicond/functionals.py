"""Continuous functionals over vertex vectors.

These are the building blocks of the ratio objective whose minimum over
nonconstant vectors equals the digraph conductance: the arc sum I+,
the signed/absolute degree-imbalance terms J0 and J, the
degree-weighted median deviation N, the ratio r itself, and the
parametric combination Q_r driving the iterative solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantVectorError
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


def j_terms(g: DirectedGraph, x: np.ndarray) -> tuple[float, float]:
    """Signed imbalance j0 = sum_i d_delta_i x_i and its absolute value."""
    j0 = float(np.dot(g.degree_profile.d_delta, x))
    return j0, abs(j0)


@dataclass(frozen=True)
class MedianResult:
    """Lower degree-weighted median alpha_low of x (an attained data
    value) and the minimal value n_value = min_c sum_i d_i |x_i - c|,
    which alpha_low attains."""

    alpha_low: float
    n_value: float


def n_med(degrees: DegreeProfile, x: np.ndarray) -> MedianResult:
    """Lower degree-weighted median and the deviation minimum at it.

    alpha_low is the smallest x_i whose cumulative weight in ascending
    order reaches half the volume, less a 1e-12 relative tolerance.
    """
    w_total = degrees.vol_total
    if w_total <= 0:
        raise ValueError("median needs positive total volume")
    order = np.argsort(x, kind="stable")
    cw = np.cumsum(degrees.d[order])
    k = int(np.searchsorted(cw, 0.5 * w_total - 1e-12 * w_total, side="left"))
    alpha_low = float(x[order[k]])
    return MedianResult(alpha_low, float(np.dot(degrees.d, np.abs(x - alpha_low))))


def r_obj(g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray) -> float:
    """Ratio objective (vol * ||x||_inf - I+ - J) / (2 N); its minimum
    over nonconstant x equals the digraph conductance."""
    return ratio(degrees, linf(x), i_plus(g, x), n_med(degrees, x).n_value, j_terms(g, x)[1])


def ratio(degrees: DegreeProfile, norm: float, i_sum: float, n_value: float, j: float) -> float:
    """r_obj at an x from its known ||x||_inf, arc sum I+(x), median
    deviation N(x) and imbalance term J(x) = |j0|."""
    if n_value <= 0:
        raise ConstantVectorError("ratio undefined: zero median deviation")
    return (degrees.vol_total * norm - i_sum - j) / (2.0 * n_value)


def q_r(g: DirectedGraph, degrees: DegreeProfile, x: np.ndarray, r: float) -> float:
    """Convex degree-one-homogeneous surrogate (I+ + J + 2 r N) / vol."""
    _, j = j_terms(g, x)
    n_val = n_med(degrees, x).n_value
    return (i_plus(g, x) + j + 2.0 * r * n_val) / degrees.vol_total
