"""Symmetrized spectral embedding and the sweep-cut baseline.

The embedding is the second eigenvector of the normalized Laplacian of
the symmetrized weights, computed by ARPACK's implicitly restarted
Lanczos method (scipy's eigsh) on a shifted, deflated operator whose
product is one pass over the graph's pair CSR; the sweep cut scores
every level set of a vector, the prefixes of its descending order that
end between two distinct values, from one cumulative cut profile.
Together they serve as the comparison baseline and as solver
initialization. The sweep cut is also the package's only
threshold scan: the solver rounds its iterates to a set with it. Note
the comparison methods reported elsewhere for this problem use a
different (nonlinear heat-kernel) embedding; this one is a declared
stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ConstantVectorError, DegenerateSubsetError, DicondError, EmptyGraphError, check_vector
from .functionals import is_nonconstant
from .graph import (DirectedGraph, conductance_set, lift_core, positive_core, prefix_cut_profile,
                    zero_cut)


@dataclass(frozen=True)
class EmbeddingResult:
    """Unit 2-norm vector orthogonal to the degree-weighted trivial
    eigenvector, with its operator residual and the number of operator
    products spent (the eigensolver's plus one for the residual)."""

    vector: np.ndarray
    residual: float
    iterations: int


class _EmbeddingOperator(LinearOperator):
    """(1.5 I + D^{-1/2} W_sym D^{-1/2}) x with v0 = sqrt(d)/|sqrt(d)|
    projected out, counting its products. The spectrum lies in [0.5,
    2.5], so the target is the top eigenvalue and sits above the 0 left
    at v0, even on graphs where lambda_2 of the unshifted operator is
    negative.

    W_sym is applied as one product with a 2n-row CSR over
    g.pair_adjacency: row 2i holds vertex i's pairs (i, v > i) ordered
    by v, row 2i+1 its pairs (u < i, i) ordered by u, so the CSR's
    columns and data are pair_adjacency's own arrays. Each row sums in
    the order of np.bincount over g.pairs, so the two rows of a vertex
    add up to the bincount sums bit for bit. The product is scipy's CSR
    kernel, called directly: building a csr_array costs more than the
    ~10 products of a small graph's embedding save. matvec is the step
    itself, without LinearOperator.matvec's shape checks; eigsh passes
    it length-n vectors only.
    """

    def __init__(self, g: DirectedGraph):
        super().__init__(dtype=np.float64, shape=(g.n, g.n))
        n = g.n
        indptr, nbr, _, pair_w = g.pair_adjacency
        rows = np.empty(2 * n + 1, dtype=indptr.dtype)
        rows[0::2] = indptr
        rows[1::2] = indptr[:-1] + np.bincount(g.pairs[0], minlength=n)  # i's pairs (i, v > i)
        self.pair_csr = (2 * n, n, rows, nbr, pair_w)
        d = g.degree_profile.d
        self.inv_sqrt = 1.0 / np.sqrt(d)
        self.v0 = np.sqrt(d)
        self.v0 /= np.linalg.norm(self.v0)
        self.products = 0

    def matvec(self, x):
        self.products += 1
        halves = np.zeros(self.pair_csr[0])
        csr_matvec(*self.pair_csr, x * self.inv_sqrt, halves)  # adds into halves
        y = 1.5 * x + (halves[0::2] + halves[1::2]) * self.inv_sqrt
        y -= np.dot(self.v0, y) * self.v0
        return y

    _matvec = matvec


def spectral_embedding(g: DirectedGraph) -> EmbeddingResult:
    """Second eigenvector of the symmetrized normalized Laplacian: the
    top eigenvector of the shifted operator with the known leading
    eigenvector projected out, by ARPACK (scipy's eigsh) from a fixed
    start vector. The sign puts the largest-magnitude entry positive."""
    if g.n < 2:
        raise DicondError("embedding needs at least 2 vertices")
    if g.strong_labels[0] != 1 and g.weak_labels[0] != 1:
        raise DicondError("embedding needs a connected graph")
    return _top_eigenvector(_EmbeddingOperator(g))


def _top_eigenvector(op: _EmbeddingOperator) -> EmbeddingResult:
    """eigsh's top eigenvector of op to tolerance 1e-10, from a seeded
    start vector orthogonal to op.v0, with its residual and op's product
    count; the sign puts the largest-magnitude entry positive."""
    start = np.random.default_rng(12345).standard_normal(op.shape[0])
    start -= np.dot(op.v0, start) * op.v0
    _, vecs = eigsh(op, k=1, which="LA", v0=start, tol=1e-10)
    x = vecs[:, 0]
    y = op.matvec(x)
    residual = float(np.linalg.norm(y - np.dot(x, y) * x))
    pivot = int(np.argmax(np.abs(x)))
    if x[pivot] < 0:
        x = -x
    return EmbeddingResult(vector=x, residual=residual, iterations=op.products)


def graph_embedding(g: DirectedGraph) -> EmbeddingResult:
    """spectral_embedding(g), computed once per graph and kept on it with
    a read-only vector: the solver's restarts and spectral_sweep both
    read the embedding from here."""
    emb = g.__dict__.get("_embedding")
    if emb is None:
        emb = spectral_embedding(g)
        emb.vector.flags.writeable = False
        g.__dict__["_embedding"] = emb  # as functools.cached_property stores its values
    return emb


def spectral_sweep(g: DirectedGraph) -> tuple[np.ndarray, float]:
    """Sweep cut of the spectral embedding, tolerant of weakly
    disconnected input. Like every sweep in the package, it cuts only
    between distinct values of the vector (sweep_cut).

    The baseline is blind to direction, so it checks only weak
    components: with two or more that carry volume, one of them is
    itself a zero-conductance answer. Otherwise the embedding and sweep
    run on the positive-degree vertices, and any isolated vertices join
    the complement side. Returns (mask, conductance_set(g, mask)[0]).
    """
    if g.m == 0:
        raise EmptyGraphError("sweep needs at least 1 arc")
    mask = zero_cut(g, strong=False)
    if mask is None:
        sub, _ = positive_core(g)
        mask = lift_core(g, sweep_cut(sub, graph_embedding(sub).vector), False)
    return mask, conductance_set(g, mask)[0]


def sweep_cut(g: DirectedGraph, v) -> np.ndarray:
    """Best-conductance level set {i : v_i >= t} of v.

    Sorts the vertices by v descending and scores, from one
    prefix_cut_profile pass (O(m + n log n)), every prefix that ends
    between two distinct values: a block of equal values is never
    split, so a +/-1 vector reproduces its own sign partition. Prefixes
    with a zero-volume side are skipped, and ties keep the smallest
    prefix. Returns its mask: the scan's cumulative scores can differ
    from conductance_set(g, mask)[0] in the last bits. A v that is not
    n finite values raises ValueError, a constant one
    ConstantVectorError, and one with no level set of positive volume
    on both sides DegenerateSubsetError.
    """
    v = check_vector("sweep vector", v, g.n)
    if not is_nonconstant(v):
        raise ConstantVectorError("sweep vector must be nonconstant")
    order = np.argsort(-v, kind="stable")
    cp, cm, vol = prefix_cut_profile(g, order)
    mv = np.minimum(vol, g.degree_profile.vol_total - vol)[:-1]
    vs = v[order]
    ok = (mv > 0) & (vs[:-1] > vs[1:])
    # cancellation in the cut sums can leave an exact zero cut a few
    # ulps below 0
    cut = np.maximum(np.minimum(cp, cm)[:-1], 0.0)
    phi = np.divide(cut, mv, out=np.full(g.n - 1, np.inf), where=ok)
    k = int(np.argmin(phi))
    if not ok[k]:
        raise DegenerateSubsetError("no level set with positive volume on both sides")
    mask = np.zeros(g.n, dtype=bool)
    mask[order[: k + 1]] = True
    return mask
