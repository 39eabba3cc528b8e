"""Seeded synthetic digraphs: two-block DSBM and canonical fixtures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_int
from .graph import DirectedGraph, build_graph


@dataclass(frozen=True)
class DsbmParams:
    """Two-block directed stochastic block model parameters.

    n vertices per block (N = 2n total). Same-block pairs connect with
    probability p, direction uniform; cross pairs (u in block 1, v in
    block 2) connect with probability q, directed u -> v with
    probability eta, v -> u otherwise. All weights are 1. n and seed are
    integers (numpy integers too), n >= 1 and seed >= 0; other values
    raise ValueError.
    """

    n: int
    p: float
    q: float
    eta: float
    seed: int

    def __post_init__(self):
        check_int("block size n", self.n, 1)
        check_int("seed", self.seed, 0)
        for name in ("p", "q", "eta"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be a probability, got {val}")


def dsbm(params: DsbmParams) -> tuple[DirectedGraph, np.ndarray]:
    """Sample a DSBM digraph; returns (graph, planted block labels).

    Reproducibility scheme: a counter-based Philox generator keyed by
    the seed supplies exactly two uniforms per unordered vertex pair,
    consumed in row-major upper-triangle pair-rank order (draw 2k
    decides presence of pair k, draw 2k+1 its direction), so any pair
    range can be regenerated independently of the others.
    """
    n = params.n
    big_n = 2 * n
    iu, iv = np.triu_indices(big_n, k=1)
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    draws = rng.random((iu.size, 2))

    same_block = (iu < n) == (iv < n)
    present = draws[:, 0] < np.where(same_block, params.p, params.q)
    # cross pairs always have iu in block 1 because iu < iv
    forward = np.where(same_block, draws[:, 1] < 0.5, draws[:, 1] < params.eta)

    tails = np.where(forward, iu, iv)[present]
    heads = np.where(forward, iv, iu)[present]
    labels = [str(i + 1) for i in range(big_n)]
    g = build_graph(big_n, tails, heads, np.ones(tails.size), labels)
    planted = np.repeat([0, 1], n)
    return g, planted


def canonical(kind: str, n: int | None = None) -> DirectedGraph:
    """Named unit-weight fixtures: c3, p2, p3, b2, dicycle(n), dipath(n)."""
    kind = kind.lower()
    if kind == "c3":
        return canonical("dicycle", 3)
    if kind == "p2":
        return canonical("dipath", 2)
    if kind == "p3":
        return canonical("dipath", 3)
    if kind == "b2":
        return build_graph(2, [0, 1], [1, 0], [1.0, 1.0], ["1", "2"])
    if kind == "dicycle":
        if n is None or n < 2:
            raise ValueError("dicycle needs n >= 2")
        v = np.arange(n)
        return build_graph(n, v, (v + 1) % n, np.ones(n), [str(i + 1) for i in range(n)])
    if kind == "dipath":
        if n is None or n < 2:
            raise ValueError("dipath needs n >= 2")
        v = np.arange(n - 1)
        return build_graph(n, v, v + 1, np.ones(n - 1), [str(i + 1) for i in range(n)])
    raise ValueError(f"unknown fixture kind {kind!r}")
