import numpy as np
import pytest

from dicond import ConstantVectorError, build_graph, conductance_set, degrees, spectral_embedding, sweep_cut
from dicond.baselines import spectral_sweep
from dicond.errors import DicondError
from dicond.graph import prefix_cut_profile

from conftest import random_digraph


def bidirected_path(n):
    v = np.arange(n - 1)
    tails = np.concatenate([v, v + 1])
    heads = np.concatenate([v + 1, v])
    return build_graph(n, tails, heads)


def test_spectral_b2(b2):
    emb = spectral_embedding(b2)
    assert np.allclose(np.abs(emb.vector), 1 / np.sqrt(2), atol=1e-8)
    assert emb.vector[0] * emb.vector[1] < 0
    assert emb.residual <= 1e-10


def test_spectral_path_monotone_and_matches_dense_solve():
    g = bidirected_path(8)
    emb = spectral_embedding(g)
    # sign pattern flips exactly once along the path
    signs = np.sign(emb.vector)
    assert int((np.diff(signs) != 0).sum()) == 1
    # the random-walk coordinate (vector / sqrt(d)) is value-monotone
    f = emb.vector / np.sqrt(degrees(g).d)
    diffs = np.diff(f)
    assert (diffs > 0).all() or (diffs < 0).all()

    # dense eigensolver oracle
    d = degrees(g).d
    pu, pv, w = g.pairs
    a_norm = np.zeros((8, 8))
    for u, v, wv in zip(pu, pv, w):
        a_norm[u, v] = a_norm[v, u] = wv / np.sqrt(d[u] * d[v])
    vals, vecs = np.linalg.eigh(a_norm)
    target = vecs[:, np.argsort(vals)[-2]]  # second-largest eigenvalue
    assert abs(float(emb.vector @ target)) == pytest.approx(1.0, abs=1e-6)


def test_spectral_orthogonal_to_degree_vector():
    rng = np.random.default_rng(51)
    for _ in range(10):
        g = random_digraph(rng, int(rng.integers(3, 30)), weighted=True)
        emb = spectral_embedding(g)
        v0 = np.sqrt(degrees(g).d)
        v0 /= np.linalg.norm(v0)
        assert abs(float(emb.vector @ v0)) <= 1e-8
        assert np.linalg.norm(emb.vector) == pytest.approx(1.0)


def test_spectral_rejects_disconnected():
    g = build_graph(4, [0, 2], [1, 3])
    with pytest.raises(DicondError):
        spectral_embedding(g)


def test_sweep_examples(p3, c3):
    mask, phi = sweep_cut(p3, np.array([0.9, 0.5, 0.1]))
    assert mask.tolist() == [True, False, False]
    assert phi == 0.0

    # all prefixes of C3 tie at 1/2 under any injective ordering
    for v in ([3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [2.0, 1.0, 3.0]):
        _, phi = sweep_cut(c3, np.array(v))
        assert phi == 0.5


def test_sweep_indicator_upper_bound():
    rng = np.random.default_rng(52)
    for _ in range(25):
        g = random_digraph(rng, int(rng.integers(3, 10)))
        k = int(rng.integers(1, g.n))
        s = np.zeros(g.n, dtype=bool)
        s[rng.choice(g.n, k, replace=False)] = True
        if s.all() or not s.any():
            continue
        try:
            phi_s = conductance_set(g, s)[0]
        except Exception:
            continue
        _, phi = sweep_cut(g, np.where(s, 1.0, -1.0))
        assert phi <= phi_s + 1e-12


def test_sweep_constant_raises(c3):
    with pytest.raises(ConstantVectorError):
        sweep_cut(c3, np.ones(3))


def test_sweep_profile_equals_direct_recompute():
    # the cumulative prefix scan is exact on unit weights
    rng = np.random.default_rng(53)
    g = random_digraph(rng, 150)
    v = rng.standard_normal(150)
    order = np.lexsort((np.arange(150), -v))
    cps, cms, vols = prefix_cut_profile(g, order)
    vol_total = degrees(g).vol_total
    best = np.inf
    for k in range(149):
        s = np.zeros(150, dtype=bool)
        s[order[: k + 1]] = True
        phi_d, phi_p, phi_m = conductance_set(g, s)
        mv = min(vols[k], vol_total - vols[k])
        assert min(cps[k], cms[k]) / mv == phi_d
        best = min(best, phi_d)
    _, phi = sweep_cut(g, v)
    assert phi == best


def test_spectral_sweep_disconnected_variants():
    # two volume-carrying components: the zero component cut
    g = build_graph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    mask, phi = spectral_sweep(g)
    assert phi == 0.0
    # one volume-carrying component plus isolated vertices
    g2 = build_graph(5, [0, 1, 2], [1, 2, 0])
    mask, phi = spectral_sweep(g2)
    assert phi == pytest.approx(0.5)
    assert not mask[3] and not mask[4]
