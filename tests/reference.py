"""Reference implementations from the paper's derivations, kept as test
oracles.

The Lovasz-extension framework (set functions on small ground sets and
their extensions), the arc sum I, the one-sided ratio, the exhaustive
minimum of the ratio objective over sign vectors, the per-subset scan of
the three conductances and the largest weak component are not part of a
DSI solve, the CLI or the benchmark. They live here so that the package
exports only what runs, while the tests still check the package against
the paper's identities: the ratio's minimum equals the exhaustive
conductance, the one-sided ratios match the one-sided conductances, the
one-sided minima over all subsets equal the two-sided one, and the
numerators dominate the Lovasz extension of the cut. brute_binary_r_min
shares the oracle's subset enumerator and its tie rule
(dicond.oracle._smallest over _keys), so both exhaustive minima walk the
same subsets and break ties alike; scan_minima shares neither. The
component labelling from a COO-built arc matrix is the construction
that the graph's cached arc CSR replaced, and the two-bincount
embedding operator is the product that the embedding's pair CSR
replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator

from dicond.baselines import EmbeddingResult, _EmbeddingOperator, _top_eigenvector
from dicond.errors import ConstantVectorError, DegenerateSubsetError, GraphTooLargeError
from dicond.functionals import i_plus, j_terms, linf, n_med
from dicond.graph import DegreeProfile, DirectedGraph, conductance_set, induced_subgraph, weak_components
from dicond.oracle import LIMIT, _keys, _mask, _smallest, _subsets


def i_diff(g: DirectedGraph, x: np.ndarray) -> float:
    """Sum over arcs of w_ij * |x_i - x_j| (the total-variation companion)."""
    return float(np.dot(g.weights, np.abs(x[g.tails] - x[g.heads])))


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


def brute_binary_r_min(
    g: DirectedGraph, degrees: DegreeProfile, limit: int = LIMIT
) -> tuple[float, np.ndarray]:
    """Exact minimum of the ratio objective over nonconstant +/-1
    vectors (evaluated through the continuous formula, not the cut
    definition, so the two enumerations cross-check each other)."""
    vol_total = degrees.vol_total
    best = None
    for member in _subsets(g.n, limit):
        same_side = member[:, g.tails] == member[:, g.heads]
        i_plus = 2.0 * (same_side @ g.weights)
        j = 2.0 * np.abs(member @ degrees.d_delta)
        vol_s = member @ degrees.d
        n_val = 2.0 * np.minimum(vol_s, vol_total - vol_s)
        valid = n_val > 0
        r = (vol_total - i_plus[valid] - j[valid]) / (2.0 * n_val[valid])
        best = _smallest(best, r, _keys(member[valid]))

    if best is None:
        raise DegenerateSubsetError("every sign vector has zero median deviation")
    return best[0], _mask(best[1], g.n)


def scan_minima(g: DirectedGraph) -> tuple[list[float], list[np.ndarray]]:
    """(values, masks) of phi_d, phi_plus and phi_minus by one
    conductance_set call per nonempty proper subset, complements
    included. The subsets run in lexicographic order of their membership
    vectors, vertex 0 first, so the first set to attain a minimum is the
    lexicographically smallest."""
    values, masks = [np.inf] * 3, [None] * 3
    for key in range(1, (1 << g.n) - 1):
        mask = np.array([(key >> (g.n - 1 - i)) & 1 for i in range(g.n)], dtype=bool)
        try:
            phis = conductance_set(g, mask)
        except DegenerateSubsetError:
            continue
        for k, phi in enumerate(phis):
            if phi < values[k]:
                values[k], masks[k] = phi, mask
    return values, masks


def largest_weak_component(g: DirectedGraph) -> tuple[DirectedGraph, np.ndarray]:
    """Induced subgraph on the largest weakly connected component.

    Ties between equal-size components break toward the one containing
    the smallest original vertex id.
    """
    return induced_subgraph(g, weak_components(g)[0])


def coo_component_labels(g: DirectedGraph, connection: str) -> tuple[int, np.ndarray]:
    """Number of components and each vertex's label from scipy's public
    connected_components on an arc matrix built through COO; connection
    is "weak" or "strong". The graph's own labels call the private
    kernels behind it, so this is what catches them drifting."""
    adj = csr_matrix((np.ones(g.m), (g.tails, g.heads)), shape=(g.n, g.n))
    return connected_components(adj, directed=True, connection=connection)


class BincountEmbeddingOperator(_EmbeddingOperator):
    """The embedding operator with its W_sym product as two np.bincount
    passes over g.pairs, called through LinearOperator.matvec's shape
    checks."""

    matvec = LinearOperator.matvec

    def __init__(self, g: DirectedGraph):
        super().__init__(g)
        self.pairs, self.n = g.pairs, g.n

    def _matvec(self, x):
        self.products += 1
        pu, pv, w = self.pairs
        z = x * self.inv_sqrt
        acc = np.bincount(pu, weights=w * z[pv], minlength=self.n)
        acc += np.bincount(pv, weights=w * z[pu], minlength=self.n)
        y = 1.5 * x + acc * self.inv_sqrt
        y -= np.dot(self.v0, y) * self.v0
        return y


def bincount_embedding(g: DirectedGraph) -> EmbeddingResult:
    """spectral_embedding(g) by the same eigsh call on the
    two-bincount operator."""
    return _top_eigenvector(BincountEmbeddingOperator(g))
