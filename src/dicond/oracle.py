"""Exhaustive ground truth for small digraphs.

Enumerates one representative per complementary subset pair (vertex 0 is
pinned to the complement side) in vectorized chunks and returns the
exact minimum of phi_d with one argmin. As cut+ of a complement is cut-
of the set, the minima of phi_plus and phi_minus over all subsets are
that same value, so the oracle reports it once. Tie rule: the argmin is
the smallest (value, key) pair, where a set's key is its membership
vector as a binary number, vertex 0 most significant; so the argmin
never holds vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSubsetError, GraphTooLargeError
from .graph import DirectedGraph

CHUNK = 1 << 15
LIMIT = 24


@dataclass(frozen=True)
class OracleResult:
    """The exact graph conductance phi_d_min, the set argmin_d that
    attains it by the tie rule, and the number of complementary subset
    pairs enumerated, 2^(n-1) - 1."""

    phi_d_min: float
    argmin_d: np.ndarray
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


def brute_conductance(g: DirectedGraph, limit: int = LIMIT) -> OracleResult:
    """Exact minimum of phi_d over all nonempty proper subsets, skipping
    zero-volume sides, and its argmin by the tie rule."""
    d = g.degree_profile.d
    vol_total = g.degree_profile.vol_total
    w = g.weights

    best = None
    for member in _subsets(g.n, limit):
        t_in = member[:, g.tails]
        h_in = member[:, g.heads]
        vol_s = member @ d
        mv = np.minimum(vol_s, vol_total - vol_s)
        valid = mv > 0
        # division by one positive mv is monotone under rounding, so this
        # is the smaller of the two one-sided quotients bit for bit
        cut = np.minimum((t_in & ~h_in) @ w, (~t_in & h_in) @ w)
        best = _smallest(best, cut[valid] / mv[valid], _keys(member[valid]))

    if best is None:
        raise DegenerateSubsetError("every subset has a zero-volume side")
    return OracleResult(best[0], _mask(best[1], g.n), subsets_enumerated=(1 << (g.n - 1)) - 1)
