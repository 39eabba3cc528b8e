"""Exhaustive ground truth for small digraphs.

Enumerates one representative per complementary subset pair (vertex 0 is
pinned to the complement side) in vectorized chunks. As cut+ of a
complement is cut- of the set, the exact minima of phi_d, phi_plus and
phi_minus share one value and differ only in their argmins. Tie rule:
each argmin is the smallest (value, key) pair, where a set's key is its
membership vector as a binary number, vertex 0 most significant.
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


def _keys(member: np.ndarray) -> np.ndarray:
    """The key of each membership row."""
    return member @ (1 << np.arange(member.shape[1] - 1, -1, -1, dtype=np.int64))


def _mask(key: int, n: int) -> np.ndarray:
    """The membership vector of a key."""
    return (key >> np.arange(n - 1, -1, -1)) & 1 == 1


def _smallest(best, values: np.ndarray, keys: np.ndarray):
    """The smallest (value, key) pair among best (None before the first
    pair) and zip(values, keys): the module's tie rule."""
    if values.size == 0:
        return best
    lo = values.min()
    pair = (float(lo), int(keys[values == lo].min()))
    return pair if best is None else min(best, pair)


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
    proper subsets, skipping zero-volume sides: one value, and three
    argmins by the tie rule (argmin_d never holds vertex 0)."""
    d = g.degree_profile.d
    vol_total = g.degree_profile.vol_total
    w = g.weights
    full = (1 << g.n) - 1

    best_d = best_p = best_m = None
    for member in _subsets(g.n, limit):
        t_in = member[:, g.tails]
        h_in = member[:, g.heads]
        vol_s = member @ d
        mv = np.minimum(vol_s, vol_total - vol_s)
        valid = mv > 0
        keys = _keys(member[valid])
        phi_p = ((t_in & ~h_in) @ w)[valid] / mv[valid]
        phi_m = ((~t_in & h_in) @ w)[valid] / mv[valid]
        best_d = _smallest(best_d, np.minimum(phi_p, phi_m), keys)
        # a complement's phi_plus is its representative's phi_minus
        best_p = _smallest(_smallest(best_p, phi_p, keys), phi_m, full - keys)
        best_m = _smallest(_smallest(best_m, phi_m, keys), phi_p, full - keys)

    if best_d is None:
        raise DegenerateSubsetError("every subset has a zero-volume side")
    value = best_d[0]  # best_p and best_m hold the same value
    masks = [_mask(key, g.n) for _, key in (best_d, best_p, best_m)]
    return OracleResult(value, value, value, *masks, subsets_enumerated=(1 << (g.n - 1)) - 1)
