"""Weighted directed graphs: construction, I/O, degrees, cuts and conductance.

Vertices are dense 0-based ids internally; original labels (arbitrary
strings) are kept for reporting. Arc lists are canonical after
construction: self-loops stripped, parallel arcs aggregated, arcs sorted
by (tail, head), all weights strictly positive.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateSubsetError, EdgeListParseError, EmptyGraphError

COMMENT_PREFIXES = ("#", "%")


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex weighted degrees of a digraph.

    d = d_out + d_in, d_delta = d_out - d_in, vol_total = sum(d).
    """

    d_out: np.ndarray
    d_in: np.ndarray
    d: np.ndarray
    d_delta: np.ndarray
    vol_total: float


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable weighted digraph.

    tails/heads/weights are parallel arrays over arcs; labels maps dense
    ids back to the original vertex names. Derived adjacency structures
    are cached lazily and safe to share across threads.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    labels: tuple[str, ...]
    self_loops_dropped: int = 0

    @property
    def m(self) -> int:
        return self.tails.size

    @cached_property
    def degree_profile(self) -> DegreeProfile:
        d_out = np.bincount(self.tails, weights=self.weights, minlength=self.n)
        d_in = np.bincount(self.heads, weights=self.weights, minlength=self.n)
        d = d_out + d_in
        return DegreeProfile(d_out, d_in, d, d_out - d_in, float(d.sum()))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unordered vertex pairs (u < v) with symmetric weight w_uv + w_vu."""
        u = np.minimum(self.tails, self.heads)
        v = np.maximum(self.tails, self.heads)
        key = u.astype(np.int64) * self.n + v
        uniq, inv = np.unique(key, return_inverse=True)
        w_sym = np.zeros(uniq.size)
        np.add.at(w_sym, inv, self.weights)
        return uniq // self.n, uniq % self.n, w_sym

    @cached_property
    def pair_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR over ``pairs``: (indptr, neighbour, pair id), where the
        pairs of vertex i are entries indptr[i]:indptr[i+1]."""
        pu, pv, _ = self.pairs
        ends = np.concatenate([pu, pv])
        order = np.argsort(ends, kind="stable")
        ids = np.arange(pu.size)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=self.n))])
        return indptr, np.concatenate([pv, pu])[order], np.concatenate([ids, ids])[order]

    @cached_property
    def exact_sums(self) -> bool:
        """True when every partial sum of arc weights, pair weights,
        degrees and volumes is exact in float64, in any order: all
        weights are integer multiples of one 2^-k and the total volume
        (each pair weight counted twice) is below 2^(53-k)."""
        w = self.weights
        if w.size == 0:
            return False
        mant, exp = np.frexp(w)
        ints = (mant * 2.0**53).astype(np.int64)  # w = ints * 2^(exp - 53)
        _, low = np.frexp((ints & -ints).astype(float))  # lowest set bit is 2^(low - 1)
        k = max(0, int(np.max(54 - exp - low)))  # w is a multiple of 2^-k
        return k <= 52 and 2.0 * float(w.sum()) < 2.0 ** (53 - k)


def build_graph(n, tails, heads, weights=None, labels=None) -> DirectedGraph:
    """Canonicalize raw arc arrays into a DirectedGraph.

    Drops self-loops (counted) and zero-weight arcs, aggregates parallel
    arcs by weight sum, and sorts arcs by (tail, head). Raises
    ValueError for an endpoint outside [0, n) and for a weight that is
    negative, NaN or infinite.
    """
    if n <= 0:
        raise EmptyGraphError("graph has no vertices")
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if weights is None:
        weights = np.ones(tails.size)
    else:
        weights = np.asarray(weights, dtype=float)
    ends = np.concatenate([tails, heads])
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError(f"arc endpoint outside the vertex ids [0, {n})")
    if not np.isfinite(weights).all():
        raise ValueError("non-finite arc weight")
    if (weights < 0).any():
        raise ValueError("negative arc weight")
    return _canonical_graph(n, tails, heads, weights, labels)


def _canonical_graph(n, tails, heads, weights, labels) -> DirectedGraph:
    """build_graph after its checks: n >= 1, int64 ids in [0, n) and
    finite weights >= 0."""
    loops = tails == heads
    n_loops = int(loops.sum())
    keep = ~loops & (weights > 0)
    tails, heads, weights = tails[keep], heads[keep], weights[keep]

    key = tails * n + heads
    uniq, inv = np.unique(key, return_inverse=True)
    agg = np.zeros(uniq.size)
    np.add.at(agg, inv, weights)
    nonzero = agg > 0
    uniq, agg = uniq[nonzero], agg[nonzero]

    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("label count does not match vertex count")
    return DirectedGraph(
        n=n,
        tails=uniq // n,
        heads=uniq % n,
        weights=agg,
        labels=labels,
        self_loops_dropped=n_loops,
    )


def _open_text(source):
    """Yield text lines from a path, bytes, or file-like source.

    Gzip content is detected by magic bytes and decompressed
    transparently.
    """
    if isinstance(source, bytes):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
        if isinstance(data, str):
            return data.splitlines()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return data.decode("utf-8").splitlines()


def load_edge_list(source, *, default_weight=1.0) -> DirectedGraph:
    """Parse a "tail head [weight]" edge list into a DirectedGraph.

    Lines starting with '#' or '%' are comments; blank lines are skipped.
    A missing weight defaults to ``default_weight``. Parallel arcs are
    aggregated, self-loops dropped (count kept on the graph), and labels
    densified to 0-based ids in first-appearance order.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    tails, heads, weights = [], [], []

    def vid(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    for line_no, raw in enumerate(_open_text(source), start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(line_no, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            w = float(parts[2]) if len(parts) == 3 else float(default_weight)
        except ValueError:
            raise EdgeListParseError(line_no, f"bad weight {parts[2]!r}") from None
        if not np.isfinite(w):
            raise EdgeListParseError(line_no, f"non-finite weight {parts[2]!r}")
        if w < 0:
            raise EdgeListParseError(line_no, f"negative weight {w}")
        tails.append(vid(parts[0]))
        heads.append(vid(parts[1]))
        weights.append(w)

    if not labels:
        raise EmptyGraphError("edge list defines no vertices")
    # ids and weights are checked above: skip build_graph's checks
    return _canonical_graph(len(labels), np.array(tails, dtype=np.int64),
                            np.array(heads, dtype=np.int64), np.array(weights), labels)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write the canonical edge list (original labels, sorted arcs)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        for t, h, w in zip(g.tails, g.heads, g.weights):
            fh.write(f"{g.labels[t]} {g.labels[h]} {float(w)!r}\n")


def degrees(g: DirectedGraph) -> DegreeProfile:
    """Weighted out/in/total/delta degrees and total volume."""
    return g.degree_profile


def _check_subset(g: DirectedGraph, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=bool)
    if s.shape != (g.n,):
        raise ValueError(f"subset mask must have shape ({g.n},)")
    k = int(s.sum())
    if k == 0 or k == g.n:
        raise DegenerateSubsetError("subset must be a nonempty proper subset")
    return s


def cut_values(g: DirectedGraph, s) -> tuple[float, float, float, float]:
    """Outgoing cut, incoming cut, and volumes of both sides of S."""
    s = _check_subset(g, s)
    t_in, h_in = s[g.tails], s[g.heads]
    cut_plus = float(g.weights[t_in & ~h_in].sum())
    cut_minus = float(g.weights[~t_in & h_in].sum())
    d = g.degree_profile.d
    vol_s = float(d[s].sum())
    return cut_plus, cut_minus, vol_s, g.degree_profile.vol_total - vol_s


def conductance_set(g: DirectedGraph, s) -> tuple[float, float, float]:
    """Directed conductance of S plus its out- and in-variants.

    phi_d = min(cut+, cut-) / min(vol(S), vol(S complement)).
    """
    cut_plus, cut_minus, vol_s, vol_comp = cut_values(g, s)
    denom = min(vol_s, vol_comp)
    if denom <= 0:
        raise DegenerateSubsetError("subset has a zero-volume side")
    return min(cut_plus, cut_minus) / denom, cut_plus / denom, cut_minus / denom


def prefix_cut_profile(g: DirectedGraph, order) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut and volume values for every prefix of a vertex ordering.

    Entry k describes S = order[:k+1]: (outgoing cut, incoming cut,
    vol(S)). Each arc adds its weight to the cut from the position of
    its earlier endpoint in the ordering and removes it at the position
    of its later one, so both cuts are cumulative sums: O(m + n) total.
    """
    order = np.asarray(order, dtype=np.int64)
    n = g.n
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pt, ph, w = pos[g.tails], pos[g.heads], g.weights
    fwd = pt < ph  # tail enters S first: the arc is in cut+ until its head joins
    cut_plus = np.cumsum(
        np.bincount(pt[fwd], weights=w[fwd], minlength=n)
        - np.bincount(ph[fwd], weights=w[fwd], minlength=n)
    )
    cut_minus = np.cumsum(
        np.bincount(ph[~fwd], weights=w[~fwd], minlength=n)
        - np.bincount(pt[~fwd], weights=w[~fwd], minlength=n)
    )
    return cut_plus, cut_minus, np.cumsum(g.degree_profile.d[order])


def _component_labels(g: DirectedGraph, connection: str) -> tuple[int, np.ndarray]:
    """Number of components and the component label of every vertex;
    connection is "weak" or "strong"."""
    adj = csr_matrix((np.ones(g.m), (g.tails, g.heads)), shape=(g.n, g.n))
    return connected_components(adj, directed=True, connection=connection)


def weak_components(g: DirectedGraph) -> list[np.ndarray]:
    """Weakly connected components as sorted vertex-id arrays, largest
    first; ties go to the component holding the smallest vertex id."""
    _, labels = _component_labels(g, "weak")
    comps = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return sorted(comps, key=lambda c: (-c.size, int(c[0])))


def zero_cut(g: DirectedGraph, strong: bool = True) -> np.ndarray | None:
    """If the positive-degree vertices span two or more strong (weak, with
    strong=False) components, the mask of the positive-volume source
    component (no arc enters it) holding the smallest vertex id, a set
    with phi = 0; otherwise None. Every weak component is a source."""
    count, labels = _component_labels(g, "strong" if strong else "weak")
    live = g.degree_profile.d > 0
    if np.unique(labels[live]).size < 2:
        return None
    entered = np.bincount(labels[g.heads][labels[g.tails] != labels[g.heads]], minlength=count) > 0
    first = np.flatnonzero(live & ~entered[labels])[0]
    return labels == labels[first]


def induced_subgraph(g: DirectedGraph, vertices: np.ndarray) -> tuple[DirectedGraph, np.ndarray]:
    """Subgraph on the given vertices; returns (subgraph, original-id map)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    vertices.sort()
    remap = -np.ones(g.n, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    keep = (remap[g.tails] >= 0) & (remap[g.heads] >= 0)
    sub = build_graph(
        vertices.size,
        remap[g.tails[keep]],
        remap[g.heads[keep]],
        g.weights[keep],
        [g.labels[v] for v in vertices],
    )
    return sub, vertices


def largest_weak_component(g: DirectedGraph) -> tuple[DirectedGraph, np.ndarray]:
    """Induced subgraph on the largest weakly connected component.

    Ties between equal-size components break toward the one containing
    the smallest original vertex id.
    """
    return induced_subgraph(g, weak_components(g)[0])


def largest_strong_component(g: DirectedGraph) -> tuple[DirectedGraph, np.ndarray]:
    """Induced subgraph on the largest strongly connected component;
    ties go to the one holding the smallest vertex id."""
    _, labels = _component_labels(g, "strong")
    sizes = np.bincount(labels)
    first = np.flatnonzero(sizes[labels] == sizes.max())[0]
    return induced_subgraph(g, np.flatnonzero(labels == labels[first]))
