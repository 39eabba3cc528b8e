"""Exhaustive ground truth for small digraphs.

Enumerates one representative per complementary subset pair (vertex 0 is
pinned to the complement side) in vectorized chunks, giving exact minima
of the directed conductance and its one-sided variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSubsetError, GraphTooLargeError
from .graph import DirectedGraph

CHUNK = 1 << 15


@dataclass(frozen=True)
class OracleResult:
    phi_d_min: float
    phi_plus_min: float
    phi_minus_min: float
    argmin_d: np.ndarray
    argmin_plus: np.ndarray
    argmin_minus: np.ndarray
    subsets_enumerated: int


class _LexMin:
    """Running (value, lexicographically-smallest membership vector)."""

    def __init__(self):
        self.value = np.inf
        self.mask = None

    def offer(self, values, masks):
        if values.size == 0:
            return
        lo = float(values.min())
        if lo > self.value:
            return
        tied = masks[values == lo]
        if lo == self.value and self.mask is not None:
            tied = np.vstack([self.mask, tied])
        # keys ordered as the membership vectors, vertex 0 most significant
        keys = tied.astype(np.int64) @ (1 << np.arange(tied.shape[1] - 1, -1, -1, dtype=np.int64))
        self.value = lo
        self.mask = tied[int(np.argmin(keys))].copy()


def _subsets(n: int, limit: int):
    """Yield membership matrices (chunk, n) over the 2^(n-1) - 1 nonempty
    subsets that leave out vertex 0, one per complementary pair, CHUNK
    rows at a time."""
    if n > limit:
        raise GraphTooLargeError(f"n={n} exceeds oracle limit {limit}")
    if n < 2:
        raise DegenerateSubsetError("need at least two vertices")
    total = (1 << (n - 1)) - 1
    for start in range(1, total + 1, CHUNK):
        reps = np.arange(start, min(start + CHUNK, total + 1), dtype=np.int64)
        cols = ((reps[:, None] >> np.arange(n - 1)[None, :]) & 1).astype(bool)
        yield np.hstack([np.zeros((reps.size, 1), dtype=bool), cols])


def brute_conductance(g: DirectedGraph, limit: int = 24) -> OracleResult:
    """Exact minima of phi_d, phi_plus, phi_minus over all nonempty
    proper subsets, skipping zero-volume sides."""
    d = g.degree_profile.d
    vol_total = g.degree_profile.vol_total
    w = g.weights

    best_d, best_p, best_m = _LexMin(), _LexMin(), _LexMin()
    for member in _subsets(g.n, limit):
        t_in = member[:, g.tails]
        h_in = member[:, g.heads]
        vol_s = member @ d
        mv = np.minimum(vol_s, vol_total - vol_s)
        valid = mv > 0
        reps = member[valid]
        phi_p = ((t_in & ~h_in) @ w)[valid] / mv[valid]
        phi_m = ((~t_in & h_in) @ w)[valid] / mv[valid]
        best_d.offer(np.minimum(phi_p, phi_m), reps)
        # phi_plus over all subsets = phi_plus on reps plus phi_minus on
        # their complements (cut+ of the complement is cut- of the set)
        best_p.offer(phi_p, reps)
        best_p.offer(phi_m, ~reps)
        best_m.offer(phi_m, reps)
        best_m.offer(phi_p, ~reps)

    if best_d.mask is None:
        raise DegenerateSubsetError("every subset has a zero-volume side")
    return OracleResult(
        phi_d_min=best_d.value,
        phi_plus_min=best_p.value,
        phi_minus_min=best_m.value,
        argmin_d=best_d.mask,
        argmin_plus=best_p.mask,
        argmin_minus=best_m.mask,
        subsets_enumerated=(1 << (g.n - 1)) - 1,
    )
