"""Exhaustive ground truth for small digraphs.

Enumerates one representative per complementary subset pair (vertex 0 is
pinned to the complement side) in vectorized chunks and returns the
exact minimum of phi_d with one argmin. As cut+ of a complement is cut-
of the set, the minima of phi_plus and phi_minus over all subsets are
that same value, so the oracle reports it once. Tie rule: the argmin is
the smallest (value, key) pair, where a set's key is its membership
vector as a binary number, vertex 0 most significant; so the argmin
never holds vertex 0.

The cut sums of a chunk take one of two forms. On g.exact_sums graphs
they come from one dense quadratic form: with X the chunk's 0/1
membership rows and W the n x n arc-weight matrix, cut+ = X d_out -
rowsum((X W) * X) and cut- = X d_in - rowsum((X W) * X), the arcs
leaving S as the arcs out of S less those inside it. Every partial sum
is exact there, so these equal the masked sums bit for bit. Other
weights keep the masked sums, the weights of the arcs with the tail in
S and the head out of it (and the reverse): the difference form
subtracts two large sums to leave a small cut, and its rounding error
moves phi by up to ~1e-10 relative on graphs whose weights span six
decades.
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


def _smallest(best, values: np.ndarray, member: np.ndarray):
    """The smallest (value, key) pair among best (None before the first
    pair) and the rows of member with their values, skipping rows valued
    inf: the module's tie rule. Only the rows that attain the minimum
    have their keys computed."""
    lo = values.min()
    if lo == np.inf:
        return best
    pair = (float(lo), int(_keys(member[values == lo]).min()))
    return pair if best is None else min(best, pair)


def _subsets(n: int, limit: int):
    """Yield membership matrices (chunk, n) over the 2^(n-1) - 1 nonempty
    subsets that leave out vertex 0, one per complementary pair, CHUNK
    rows at a time: the row of subset r holds r's bits, vertex i at bit
    i - 1."""
    if n > limit:
        raise GraphTooLargeError(f"n={n} exceeds oracle limit {limit}")
    if n < 2:
        raise DegenerateSubsetError("need at least two vertices")
    total = (1 << (n - 1)) - 1
    for start in range(1, total + 1, CHUNK):
        # 2r: subset r's bits moved up one, so vertex 0's bit is clear
        reps = np.arange(2 * start, 2 * min(start + CHUNK, total + 1), 2, dtype="<i8")
        low_bytes = reps.view(np.uint8).reshape(-1, 8)[:, : (n + 7) // 8]
        yield np.unpackbits(low_bytes, axis=1, count=n, bitorder="little").view(bool)


def _masked_cuts(g: DirectedGraph, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cut+, cut-) of each membership row by masked sums over the arcs."""
    t_in, h_in = member[:, g.tails], member[:, g.heads]
    return (t_in & ~h_in) @ g.weights, (~t_in & h_in) @ g.weights


def _quadratic_cuts(g: DirectedGraph, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cut+, cut-) of each membership row X by the dense quadratic form
    X d_out - rowsum((X W) * X) and X d_in - rowsum((X W) * X); equal to
    _masked_cuts bit for bit where g.exact_sums holds."""
    w = np.zeros((g.n, g.n))
    w[g.tails, g.heads] = g.weights  # arcs are distinct (tail, head) pairs
    x = member.astype(float)
    inside = np.einsum("ij,ij->i", x @ w, x)  # weight of the arcs inside S
    return x @ g.degree_profile.d_out - inside, x @ g.degree_profile.d_in - inside


def brute_conductance(g: DirectedGraph, limit: int = LIMIT) -> OracleResult:
    """Exact minimum of phi_d over all nonempty proper subsets, skipping
    zero-volume sides, and its argmin by the tie rule."""
    d = g.degree_profile.d
    vol_total = g.degree_profile.vol_total
    cuts = _quadratic_cuts if g.exact_sums else _masked_cuts

    best = None
    for member in _subsets(g.n, limit):
        vol_s = member @ d
        mv = np.minimum(vol_s, vol_total - vol_s)
        # division by one positive mv is monotone under rounding, so this
        # is the smaller of the two one-sided quotients bit for bit
        cut = np.minimum(*cuts(g, member))
        best = _smallest(best, np.divide(cut, mv, out=np.full(mv.size, np.inf), where=mv > 0), member)

    if best is None:
        raise DegenerateSubsetError("every subset has a zero-volume side")
    return OracleResult(best[0], _mask(best[1], g.n), subsets_enumerated=(1 << (g.n - 1)) - 1)
