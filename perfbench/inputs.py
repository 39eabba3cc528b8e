"""Seeded benchmark inputs, written as edge-list files.

Inputs depend only on the workload seed and the instance index, never on
timing, so the same seed gives byte-identical files and the first k
instances of a workload do not depend on how many are generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dicond.generators import DsbmParams, dsbm
from dicond.graph import build_graph, induced_subgraph, write_edge_list

DSBM_ETAS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
ORACLE_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class Instance:
    """One edge-list file and the solver seed it is solved with."""

    path: Path
    solver_seed: int


def derived_seed(seed: int, stream: int, index: int) -> int:
    """Independent 32-bit seed for instance ``index`` of a workload stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream, index))
    return int(ss.generate_state(1)[0])


def largest_strong_component(n: int, tails, heads) -> np.ndarray:
    """Sorted vertex ids of the largest strongly connected component;
    ties go to the component found first."""
    adj = csr_matrix((np.ones(len(tails)), (tails, heads)), shape=(n, n))
    _, labels = connected_components(adj, directed=True, connection="strong")
    return np.flatnonzero(labels == np.argmax(np.bincount(labels)))


def dsbm_lscc(seed: int, count: int, out_dir: Path, n: int = 500, p: float = 0.01,
              eta: float = 0.1) -> list[Instance]:
    """Largest strongly connected component of dsbm(n, p=q, eta).

    The default n=500, p=0.01 keeps the mean degree of the n=1000,
    p=0.005 family (about 10) at half the size, so a 30 s run holds
    about ten solves instead of four.
    """
    insts = []
    for i in range(count):
        g, _ = dsbm(DsbmParams(n=n, p=p, q=p, eta=eta, seed=derived_seed(seed, 0, i)))
        sub, _ = induced_subgraph(g, largest_strong_component(g.n, g.tails, g.heads))
        path = out_dir / f"lscc-{i:04d}.el"
        write_edge_list(sub, path)
        insts.append(Instance(path, 0))
    return insts


def dsbm_grid(seed: int, count: int, out_dir: Path, n: int = 200, p: float = 0.02,
              etas=DSBM_ETAS) -> list[Instance]:
    """Full dsbm(n, p=q, eta) graphs, cycling eta over ``etas``; the graph
    seed is also the solver seed, as in one ``dicond bench`` row."""
    insts = []
    for i in range(count):
        s = derived_seed(seed, 1, i)
        g, _ = dsbm(DsbmParams(n=n, p=p, q=p, eta=etas[i % len(etas)], seed=s))
        path = out_dir / f"grid-{i:04d}.el"
        write_edge_list(g, path)
        insts.append(Instance(path, s))
    return insts


def random_weak_digraph(rng: np.random.Generator, n: int, weighted: bool):
    """Random weakly connected digraph: a random spanning chain with
    random orientations plus up to n(n-1)/2 extra random arcs."""
    order = rng.permutation(n)
    tails, heads = [], []
    for a, b in zip(order[:-1], order[1:]):
        if rng.random() < 0.5:
            a, b = b, a
        tails.append(int(a))
        heads.append(int(b))
    for _ in range(int(rng.integers(0, n * (n - 1) // 2 + 1))):
        a, b = rng.integers(0, n, 2)
        if a != b:
            tails.append(int(a))
            heads.append(int(b))
    weights = rng.choice(ORACLE_WEIGHTS, size=len(tails)) if weighted else None
    return tails, heads, weights


def oracle_small(seed: int, count: int, out_dir: Path, n_min: int = 3,
                 n_max: int = 12) -> list[Instance]:
    """Random weakly connected digraphs with n in [n_min, n_max]; every
    fifth one is weighted. Instance i is solved with seed i."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    insts = []
    for i in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        tails, heads, weights = random_weak_digraph(rng, n, weighted=i % 5 == 0)
        path = out_dir / f"oracle-{i:05d}.el"
        write_edge_list(build_graph(n, tails, heads, weights), path)
        insts.append(Instance(path, i))
    return insts
