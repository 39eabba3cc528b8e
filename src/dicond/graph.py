"""Weighted directed graphs: construction, I/O, degrees, cuts and conductance.

Vertices are dense 0-based ids internally; original labels (arbitrary
strings) are kept for reporting. Arc lists are canonical after
construction: self-loops stripped, parallel arcs aggregated, arcs sorted
by (tail, head), all weights strictly positive.
"""

from __future__ import annotations

import gzip
import io
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse._sparsetools import csr_tocsc
from scipy.sparse.csgraph._traversal import (
    _connected_components_directed,
    _connected_components_undirected,
)

from .errors import DegenerateSubsetError, EdgeListParseError, EmptyGraphError

COMMENT_PREFIXES = ("#", "%")


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex weighted degrees of a digraph.

    d = d_out + d_in, d_delta = d_out - d_in, vol_total = sum(d). The
    negated and absolute arrays that the DSI steps read every iterate
    are built once, read-only, on first use.
    """

    d_out: np.ndarray
    d_in: np.ndarray
    d: np.ndarray
    d_delta: np.ndarray
    vol_total: float

    @cached_property
    def neg_d(self) -> np.ndarray:
        return _frozen(-self.d)[0]

    @cached_property
    def abs_d_delta(self) -> np.ndarray:
        return _frozen(np.abs(self.d_delta))[0]

    @cached_property
    def neg_d_delta(self) -> np.ndarray:
        return _frozen(-self.d_delta)[0]

    def signed_d_delta(self, sign: float) -> np.ndarray:
        """sign * d_delta for sign = +/-1, bit for bit, without a pass."""
        return self.d_delta if sign > 0 else self.neg_d_delta


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable weighted digraph.

    tails/heads/weights are parallel arrays over arcs; labels maps dense
    ids back to the original vertex names. Each derived structure is
    built lazily, once per graph, and kept on it with its arrays
    read-only:

    - degree_profile, the weighted degrees;
    - pairs and pair_adjacency, the symmetrized pairs and their CSR,
      which CutState and the spectral embedding's operator share;
    - exact_sums, whether float64 sums of the weights are exact;
    - arc_index, the int32 CSR of the arcs that both labellings read;
    - strong_labels and weak_labels, the component count and labels;
    - positive_core's subgraph, which the precheck, solve and sweep share;
    - the spectral embedding of baselines.graph_embedding.

    The caches are safe to share across threads.
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
        return DegreeProfile(*_frozen(d_out, d_in, d, d_out - d_in), float(d.sum()))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unordered vertex pairs (u < v) with symmetric weight w_uv + w_vu."""
        u = np.minimum(self.tails, self.heads)
        v = np.maximum(self.tails, self.heads)
        key = u.astype(np.int64) * self.n + v
        uniq, inv = np.unique(key, return_inverse=True)
        w_sym = np.bincount(inv, weights=self.weights, minlength=uniq.size)
        return _frozen(uniq // self.n, uniq % self.n, w_sym)

    @cached_property
    def pair_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR over ``pairs``: (indptr, neighbour, pair id, pair weight),
        where the pairs of vertex i are entries indptr[i]:indptr[i+1]:
        first its pairs (i, v > i) ordered by v, then its pairs (u < i, i)
        ordered by u."""
        pu, pv, w_sym = self.pairs
        ends = np.concatenate([pu, pv])
        order = np.argsort(ends, kind="stable")
        ids = order % max(pu.size, 1)  # entry k of ends is an end of pair k mod P
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
        return _frozen(indptr, np.concatenate([pv, pu])[order], ids, w_sym.take(ids))

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

    @cached_property
    def arc_index(self) -> tuple[np.ndarray, np.ndarray]:
        """int32 CSR of the arcs, (indptr, heads): the arcs are sorted by
        (tail, head) and distinct, so row i is vertex i's heads in order."""
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.tails, minlength=self.n), out=indptr[1:])
        return _frozen(indptr, self.heads.astype(np.int32))

    @cached_property
    def strong_labels(self) -> tuple[int, np.ndarray]:
        """Number of strongly connected components and the component
        label of every vertex, by Pearce's algorithm."""
        indptr, heads = self.arc_index
        return _component_labels(self.n, _connected_components_directed, heads, indptr)

    @cached_property
    def weak_labels(self) -> tuple[int, np.ndarray]:
        """Number of weakly connected components and each vertex's label,
        from a search over the arcs and their transpose."""
        indptr, heads = self.arc_index
        t_indptr, t_tails = np.empty_like(indptr), np.empty_like(heads)
        # the transposed CSR: row j holds the tails of j's in-arcs, in order; its data is discarded
        csr_tocsc(self.n, self.n, indptr, heads, heads, t_indptr, t_tails, np.empty_like(heads))
        return _component_labels(
            self.n, _connected_components_undirected, heads, indptr, t_tails, t_indptr
        )

    @cached_property
    def _core(self) -> tuple[DirectedGraph | None, np.ndarray]:
        """positive_core's subgraph, or None for the graph itself, and ids."""
        sub, ids = None, np.flatnonzero(self.degree_profile.d > 0)
        if ids.size < self.n:  # else None, not self, to keep out a reference cycle
            sub, ids = induced_subgraph(self, ids)
        _frozen(ids)
        return sub, ids


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _component_labels(n: int, kernel, *csr: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and read-only int32 labels from one of scipy's
    csgraph kernels, called as scipy's public labelling calls it."""
    labels = np.full(n, -1, dtype=np.int32)
    count = kernel(*csr, labels)
    return count, _frozen(labels)[0]


def build_graph(n, tails, heads, weights=None, labels=None) -> DirectedGraph:
    """Canonicalize raw arc arrays into a DirectedGraph.

    Drops self-loops (counted) and zero-weight arcs, aggregates parallel
    arcs by weight sum, and sorts arcs by (tail, head); the arc arrays
    are new and read-only, as every cache derived from them is. Each
    label is kept as its str. Raises ValueError for an endpoint outside
    [0, n), for a weight that is negative, NaN or infinite, for weights
    whose volume 2·Σw overflows float64, and for labels that are not n
    distinct strings (two equal labels would write arcs that read back
    as self-loops).
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
    loops = tails == heads
    n_loops = int(loops.sum())
    keep = ~loops & (weights > 0)
    tails, heads, weights = tails[keep], heads[keep], weights[keep]

    key = tails * n + heads
    uniq, inv = np.unique(key, return_inverse=True)
    agg = np.bincount(inv, weights=weights, minlength=uniq.size)
    with np.errstate(over="ignore"):
        volume = 2.0 * float(agg.sum())
    if not math.isfinite(volume):
        raise ValueError("volume (twice the total arc weight) overflows float64")

    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(map(str, labels))
        if len(labels) != n:
            raise ValueError("label count does not match vertex count")
        if len(set(labels)) != n:
            repeated = next(lab for lab, count in Counter(labels).items() if count > 1)
            raise ValueError(f"vertex label {repeated!r} is repeated (labels are compared as strings)")
    return DirectedGraph(
        n, *_frozen(uniq // n, uniq % n, agg), labels=labels, self_loops_dropped=n_loops
    )


def _open_text(source):
    """Yield text lines from a path, bytes, or file-like source.

    Gzip content is detected by magic bytes and decompressed
    transparently; a leading UTF-8 byte-order mark is dropped.
    """
    if isinstance(source, bytes):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
        if isinstance(data, str):
            return data.removeprefix("\ufeff").splitlines()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return data.decode("utf-8-sig").splitlines()


def load_edge_list(source) -> DirectedGraph:
    """Parse a "tail head [weight]" edge list into a DirectedGraph.

    Lines starting with '#' or '%' are comments; blank lines are skipped.
    A missing weight is 1.0. Parallel arcs are aggregated, self-loops
    dropped (count kept on the graph), and labels densified to 0-based
    ids in first-appearance order.
    """
    index: dict[str, int] = {}  # label -> id, in first-appearance order
    new_id = index.setdefault
    tails, heads, weights = [], [], []
    for line_no, raw in enumerate(_open_text(source), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith(COMMENT_PREFIXES):
            continue
        if len(parts) == 2:
            w = 1.0
        elif len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListParseError(line_no, f"bad weight {parts[2]!r}") from None
            if not math.isfinite(w):
                raise EdgeListParseError(line_no, f"non-finite weight {parts[2]!r}")
            if w < 0:
                raise EdgeListParseError(line_no, f"negative weight {w}")
        else:
            raise EdgeListParseError(line_no, f"expected 2 or 3 fields, got {len(parts)}")
        tails.append(new_id(parts[0], len(index)))
        heads.append(new_id(parts[1], len(index)))
        weights.append(w)

    if not index:
        raise EmptyGraphError("edge list defines no vertices")
    return build_graph(len(index), tails, heads, weights, index)


def write_edge_list(g: DirectedGraph, path) -> int:
    """Write the canonical edge list (original labels, sorted arcs). A
    path ending in .gz is gzip-compressed with a zero header time, so a
    rewrite gives the same bytes.

    An edge list holds only vertices with an arc, so the file leaves out
    the isolated vertices and reads back with that many fewer; their
    count is returned.

    Raises ValueError, before the file is created, on a line that would
    not read back: a written label that is empty, holds whitespace or
    starts with a byte-order mark, or an arc tail label that starts a
    comment.
    """
    written = np.unique(np.concatenate((g.tails, g.heads)))
    for v in written:
        label = str(g.labels[v])
        if label.split() != [label] or label.startswith("\ufeff"):
            raise ValueError(f"label {label!r} is empty, holds whitespace or starts with a byte-order mark")
    for t in np.unique(g.tails):
        if str(g.labels[t]).startswith(COMMENT_PREFIXES):
            raise ValueError(f"arc tail label {g.labels[t]!r} would read as a comment")
    if str(path).endswith(".gz"):
        fh = io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0))
    else:
        fh = open(path, "wt")
    with fh:
        for t, h, w in zip(g.tails, g.heads, g.weights):
            fh.write(f"{g.labels[t]} {g.labels[h]} {float(w)!r}\n")
    return g.n - written.size


def cut_values(g: DirectedGraph, s) -> tuple[float, float, float, float]:
    """Outgoing cut, incoming cut, and volumes of both sides of S."""
    s = np.asarray(s, dtype=bool)
    if s.shape != (g.n,):
        raise ValueError(f"subset mask must have shape ({g.n},)")
    k = int(s.sum())
    if k == 0 or k == g.n:
        raise DegenerateSubsetError("subset must be a nonempty proper subset")
    t_in, h_in = s[g.tails], s[g.heads]
    cut_plus = float(g.weights[t_in & ~h_in].sum())
    cut_minus = float(g.weights[~t_in & h_in].sum())
    d = g.degree_profile.d
    vol_s = float(d[s].sum())
    return cut_plus, cut_minus, vol_s, g.degree_profile.vol_total - vol_s


def conductance_set(g: DirectedGraph, s) -> tuple[float, float, float]:
    """Directed conductance of S plus its out- and in-variants.

    phi_d = min(cut+, cut-) / min(vol(S), vol(S complement)). On weights
    whose sums are not exact, S and its complement can read apart in the
    last bits, since vol_total - d[s].sum() and d[~s].sum() round
    differently: at the oracle's argmin they differ on 73 of the 110
    float-weight probe graphs with n <= 12.
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


def weak_components(g: DirectedGraph) -> list[np.ndarray]:
    """Weakly connected components as sorted vertex-id arrays, largest
    first; ties go to the component holding the smallest vertex id."""
    _, labels = g.weak_labels
    comps = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return sorted(comps, key=lambda c: (-c.size, int(c[0])))


def zero_cut(g: DirectedGraph, strong: bool = True) -> np.ndarray | None:
    """If positive_core(g) has two or more strong components (and, with
    strong=False, two or more weak ones), the mask in g of the source
    component (no arc enters it; every weak one is) with the smallest
    vertex id, a set with phi = 0; otherwise None."""
    if g.m == 0:
        return None
    core, _ = positive_core(g)
    count, labels = core.strong_labels
    if count > 1 and not strong:
        count, labels = core.weak_labels
    if count == 1:
        return None
    t, h = labels[core.tails], labels[core.heads]
    entered = np.bincount(h[t != h], minlength=count) > 0
    first = np.flatnonzero(~entered[labels])[0]
    return lift_core(g, labels == labels[first], False)


def induced_subgraph(g: DirectedGraph, vertices: np.ndarray) -> tuple[DirectedGraph, np.ndarray]:
    """Subgraph on the given vertex ids, renumbered in ascending order;
    returns (subgraph, original-id map). The caller's array is not
    changed; ids outside [0, n) and repeated ids raise ValueError."""
    vertices = np.sort(np.asarray(vertices, dtype=np.int64))
    if vertices.size and (vertices[0] < 0 or vertices[-1] >= g.n):
        raise ValueError(f"vertex ids must lie in [0, {g.n})")
    if np.any(vertices[1:] == vertices[:-1]):
        raise ValueError("vertex ids must be distinct")
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


def positive_core(g: DirectedGraph) -> tuple[DirectedGraph, np.ndarray]:
    """Subgraph on the positive-degree vertices, renumbered in ascending
    order, and their ids in g; g itself when no vertex is isolated. It is
    built once per graph, so the precheck, a solve and a sweep of g
    share its caches; it needs an arc."""
    sub, ids = g._core
    return (g if sub is None else sub), ids


def lift_core(g: DirectedGraph, values, fill) -> np.ndarray:
    """values, given on positive_core(g), spread over g: the isolated
    vertices join the complement side, as fill (False in a set, -1.0 in x)."""
    out = np.full(g.n, fill)
    out[positive_core(g)[1]] = values
    return out


def largest_strong_component(g: DirectedGraph) -> tuple[DirectedGraph, np.ndarray]:
    """Induced subgraph on the largest strongly connected component;
    ties go to the one holding the smallest vertex id."""
    _, labels = g.strong_labels
    sizes = np.bincount(labels)
    first = np.flatnonzero(sizes[labels] == sizes.max())[0]
    return induced_subgraph(g, np.flatnonzero(labels == labels[first]))
