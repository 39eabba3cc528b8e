"""Symmetrized spectral embedding and the sweep-cut baseline.

The embedding is the second eigenvector of the normalized Laplacian of
the symmetrized weights, computed by deflated power iteration; the
sweep cut scores every prefix of a vertex ordering from one cumulative
cut profile. Together they serve as the comparison baseline and as
solver initialization. The sweep cut is also the package's only
threshold scan: the solver rounds its iterates to a set with it. Note
the comparison methods reported elsewhere for this problem use a
different (nonlinear heat-kernel) embedding; this one is a declared
stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantVectorError, DegenerateSubsetError, DicondError
from .functionals import is_nonconstant
from .graph import DirectedGraph, prefix_cut_profile, weak_components


@dataclass(frozen=True)
class EmbeddingResult:
    """Unit 2-norm vector orthogonal to the degree-weighted trivial
    eigenvector, with the final operator residual and iteration count."""

    vector: np.ndarray
    residual: float
    iterations: int


def spectral_embedding(g: DirectedGraph, max_iters: int = 1500, tol: float = 1e-10) -> EmbeddingResult:
    """Approximate second eigenvector of the symmetrized normalized
    Laplacian, by power iteration on the shifted operator with the
    known leading eigenvector deflated out."""
    if g.n < 2:
        raise DicondError("embedding needs at least 2 vertices")
    if len(weak_components(g)) != 1:
        raise DicondError("embedding needs a connected graph")
    d = g.degree_profile.d
    n = g.n
    pu, pv, w = g.pairs
    inv_sqrt = 1.0 / np.sqrt(d)

    def shifted(x):
        # (1.5 I + D^{-1/2} W_sym D^{-1/2}) x; spectrum in [0.5, 2.5],
        # top pair (2.5, v0); after deflation the dominant mode is the
        # target and is never annihilated (a plain I + A shift maps the
        # target to zero on bipartite-extremal graphs)
        z = x * inv_sqrt
        acc = np.bincount(pu, weights=w * z[pv], minlength=n)
        acc += np.bincount(pv, weights=w * z[pu], minlength=n)
        return 1.5 * x + acc * inv_sqrt

    v0 = np.sqrt(d)
    v0 /= np.linalg.norm(v0)
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n)
    x -= np.dot(v0, x) * v0
    x /= np.linalg.norm(x)

    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y = shifted(x)
        y -= np.dot(v0, y) * v0
        ny = float(np.linalg.norm(y))
        if ny <= 1e-12:
            x = rng.standard_normal(n)
            x -= np.dot(v0, x) * v0
            x /= np.linalg.norm(x)
            continue
        x = y / ny
        my = shifted(x)
        my -= np.dot(v0, my) * v0
        lam = float(np.dot(x, my))
        residual = float(np.linalg.norm(my - lam * x))
        if residual <= tol:
            break

    pivot = int(np.argmax(np.abs(x)))
    if x[pivot] < 0:
        x = -x
    return EmbeddingResult(vector=x, residual=residual, iterations=iterations)


def spectral_sweep(g: DirectedGraph) -> tuple[np.ndarray, float]:
    """Sweep cut of the spectral embedding, tolerant of weakly
    disconnected input.

    With two or more positive-volume components the component split is
    itself a zero-conductance sweep answer; with isolated vertices the
    embedding and sweep run on the volume-carrying core and the
    leftovers join the complement side (no conductance value changes).
    """
    comps = weak_components(g)
    if len(comps) == 1:
        return sweep_cut(g, spectral_embedding(g).vector)
    d = g.degree_profile.d
    posvol = [c for c in comps if d[c].sum() > 0]
    mask = np.zeros(g.n, dtype=bool)
    if len(posvol) >= 2:
        mask[posvol[0]] = True
        from .graph import conductance_set

        return mask, conductance_set(g, mask)[0]
    from .graph import conductance_set, induced_subgraph

    sub, vmap = induced_subgraph(g, posvol[0])
    sub_mask, _ = sweep_cut(sub, spectral_embedding(sub).vector)
    mask[vmap[sub_mask]] = True
    return mask, conductance_set(g, mask)[0]


def sweep_cut(g: DirectedGraph, v, distinct_only: bool = False) -> tuple[np.ndarray, float]:
    """Best-conductance prefix of vertices sorted by v descending.

    Scores every prefix from one prefix_cut_profile pass (O(m + n log n));
    prefixes with a zero-volume side are skipped, and ties keep the
    smallest prefix. Equal values of v are split by vertex id, unless
    distinct_only is set: then only prefixes that end between two
    distinct values count, so a +/-1 vector reproduces its own sign
    partition. Returns (mask, phi).
    """
    v = np.asarray(v, dtype=float)
    if not is_nonconstant(v):
        raise ConstantVectorError("sweep vector must be nonconstant")
    order = np.lexsort((np.arange(g.n), -v))
    cp, cm, vol = prefix_cut_profile(g, order)
    mv = np.minimum(vol, g.degree_profile.vol_total - vol)[:-1]
    ok = mv > 0
    if distinct_only:
        vs = v[order]
        ok &= vs[:-1] > vs[1:]
    # cancellation in the cut sums can leave an exact zero cut a few
    # ulps below 0
    cut = np.maximum(np.minimum(cp, cm)[:-1], 0.0)
    phi = np.divide(cut, mv, out=np.full(g.n - 1, np.inf), where=ok)
    k = int(np.argmin(phi))
    if not ok[k]:
        raise DegenerateSubsetError("no prefix with positive volume on both sides")
    mask = np.zeros(g.n, dtype=bool)
    mask[order[: k + 1]] = True
    return mask, float(phi[k])
