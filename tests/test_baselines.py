import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse._base
import scipy.sparse.csgraph

import dicond.baselines
import dicond.graph
from dicond import (ConstantVectorError, DsbmParams, SolverConfig, build_graph, conductance_set,
                    dsbm, dsi_solve, largest_strong_component, spectral_embedding, sweep_cut)
from dicond.baselines import spectral_sweep
from dicond.errors import DegenerateSubsetError, DicondError, EmptyGraphError
from dicond.graph import positive_core, prefix_cut_profile

from conftest import random_digraph, report_probe
from reference import bincount_embedding


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
    f = emb.vector / np.sqrt(g.degree_profile.d)
    diffs = np.diff(f)
    assert (diffs > 0).all() or (diffs < 0).all()

    # dense eigensolver oracle
    d = g.degree_profile.d
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
        v0 = np.sqrt(g.degree_profile.d)
        v0 /= np.linalg.norm(v0)
        assert abs(float(emb.vector @ v0)) <= 1e-8
        assert np.linalg.norm(emb.vector) == pytest.approx(1.0)


def _dense_reference_graphs(b2):
    yield "b2", b2
    k = np.array([(u, v) for u in range(8) for v in range(8) if u != v])
    yield "bidirected K8", build_graph(8, k[:, 0], k[:, 1])
    leaves = np.arange(1, 501)
    hub = np.zeros(500, dtype=int)
    yield "star", build_graph(501, np.concatenate([hub, leaves]), np.concatenate([leaves, hub]))
    rng = np.random.default_rng(54)
    n = 60
    perm = rng.permutation(n)
    tails = np.concatenate([rng.integers(0, n, 3 * n), perm])
    heads = np.concatenate([rng.integers(0, n, 3 * n), np.roll(perm, -1)])
    yield "wide weights", build_graph(n, tails, heads, 10 ** rng.uniform(-3, 3, 4 * n))
    g, _ = dsbm(DsbmParams(n=200, p=0.02, q=0.02, eta=0.1, seed=3))
    yield "dsbm component", largest_strong_component(g)[0]


def test_spectral_embedding_matches_dense_eigh(b2):
    for name, g in _dense_reference_graphs(b2):
        d = g.degree_profile.d
        pu, pv, w = g.pairs
        a_norm = np.zeros((g.n, g.n))
        a_norm[pu, pv] = a_norm[pv, pu] = w / np.sqrt(d[pu] * d[pv])
        vals, vecs = np.linalg.eigh(a_norm)  # ascending; vals[-1] == 1
        gap = vals[-2] - vals[-3] if g.n > 2 else np.inf

        emb = spectral_embedding(g)
        x = emb.vector
        assert emb.residual <= 1e-9, name
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12), name
        assert abs(float(x @ np.sqrt(d))) <= 1e-8, name
        if gap > 1e-6:
            assert abs(float(x @ vecs[:, -2])) >= 1 - 1e-8, name
        assert emb.iterations > 0, name
        assert np.array_equal(spectral_embedding(g).vector, x), name


def _bincount_reference_graphs(c3):
    yield "c3", c3
    for name, g in _dense_reference_graphs(c3):
        if name in ("bidirected K8", "star", "wide weights"):
            yield name, g
    for eta in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30):  # the report probe's DSBM components
        for seed in range(5):
            g, _ = dsbm(DsbmParams(n=200, p=0.02, q=0.02, eta=eta, seed=seed))
            yield f"dsbm-{eta:.2f}-{seed}", largest_strong_component(g)[0]
    # a core with its isolated vertices 0 and 5 set aside
    g = build_graph(7, [1, 2, 3, 4, 2, 6], [2, 3, 4, 1, 6, 2], [1.0, 2.0, 0.5, 1.0, 3.0, 1.0])
    sub, core = positive_core(g)
    assert core.tolist() == [1, 2, 3, 4, 6]
    yield "core", sub


def test_spectral_embedding_matches_the_bincount_operator_bit_for_bit(c3):
    # the pair CSR sums each vertex's pairs in np.bincount's order, so
    # every product, and so eigsh's whole run, repeats exactly
    for name, g in _bincount_reference_graphs(c3):
        emb, ref = spectral_embedding(g), bincount_embedding(g)
        assert emb.vector.tobytes() == ref.vector.tobytes(), name
        assert repr(emb.residual) == repr(ref.residual), name
        assert emb.iterations == ref.iterations, name


def test_spectral_rejects_disconnected():
    g = build_graph(4, [0, 2], [1, 3])
    with pytest.raises(DicondError):
        spectral_embedding(g)


def test_sweep_examples(p3, c3):
    mask = sweep_cut(p3, np.array([0.9, 0.5, 0.1]))
    assert mask.tolist() == [True, False, False]
    assert conductance_set(p3, mask)[0] == 0.0

    # all prefixes of C3 tie at 1/2 under any injective ordering
    for v in ([3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [2.0, 1.0, 3.0]):
        assert conductance_set(c3, sweep_cut(c3, np.array(v)))[0] == 0.5


def test_sweep_cut_never_splits_a_tied_block(p3):
    # {0} also has conductance 0, but it splits the block {0, 1}, where
    # x ties at 1: only level sets are candidates
    mask = sweep_cut(p3, np.array([1.0, 1.0, -1.0]))
    assert mask.tolist() == [True, True, False] and conductance_set(p3, mask)[0] == 0.0

    # the one level set, {0}, holds only the isolated vertex 0 and has
    # zero volume, and the tied block {1, 2} is not split
    g = build_graph(3, [1, 2], [2, 1])
    with pytest.raises(DegenerateSubsetError, match="no level set"):
        sweep_cut(g, np.array([1.0, 0.0, 0.0]))


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
        phi = conductance_set(g, sweep_cut(g, np.where(s, 1.0, -1.0)))[0]
        assert phi <= phi_s + 1e-12


def test_sweep_constant_raises(c3):
    with pytest.raises(ConstantVectorError):
        sweep_cut(c3, np.ones(3))


@pytest.mark.parametrize(("v", "got"), [
    ([1.0, -1.0], r"got shape \(2,\)"), ([1.0, -1.0, 1.0, -1.0], r"got shape \(4,\)"),
    ([[1.0], [-1.0], [1.0]], r"got shape \(3, 1\)"), ([1.0, np.nan, -1.0], "got nan at index 1"),
    ([1.0, np.inf, -1.0], "got inf at index 1"), ([-np.inf, 0.0, 1.0], "got -inf at index 0")],
    ids=["short", "long", "column", "nan", "inf", "minus-inf"])
def test_sweep_rejects_a_vector_of_the_wrong_shape_or_not_finite(c3, v, got):
    # a wrong shape once failed inside np.lexsort, and a NaN or infinite
    # vector read as a constant one
    with pytest.raises(ValueError, match="n = 3 finite values; " + got) as err:
        sweep_cut(c3, np.array(v))
    assert not isinstance(err.value, ConstantVectorError)


def test_sweep_profile_equals_direct_recompute():
    # the cumulative prefix scan is exact on unit weights
    rng = np.random.default_rng(53)
    g = random_digraph(rng, 150)
    v = rng.standard_normal(150)
    order = np.lexsort((np.arange(150), -v))
    cps, cms, vols = prefix_cut_profile(g, order)
    vol_total = g.degree_profile.vol_total
    best = np.inf
    for k in range(149):
        s = np.zeros(150, dtype=bool)
        s[order[: k + 1]] = True
        phi_d, phi_p, phi_m = conductance_set(g, s)
        mv = min(vols[k], vol_total - vols[k])
        assert min(cps[k], cms[k]) / mv == phi_d
        best = min(best, phi_d)
    assert conductance_set(g, sweep_cut(g, v))[0] == best


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


def test_spectral_sweep_reports_the_conductance_of_its_set():
    # the prefix scan read this set's zero cut as 1.2e-17
    g = report_probe().random_case(1084)
    mask, phi = spectral_sweep(g)
    assert phi == conductance_set(g, mask)[0] == 0.0


def test_spectral_sweep_needs_an_arc():
    # two vertices whose only arcs are self-loops
    with pytest.raises(EmptyGraphError, match="1 arc"):
        spectral_sweep(build_graph(2, [0, 1], [0, 1]))


@pytest.mark.parametrize("isolated", [0, 2])
def test_a_solve_and_a_sweep_of_one_graph_share_one_embedding(monkeypatch, isolated):
    # every embedding runs one eigsh, whichever module calls it
    calls = []
    eigsh = dicond.baselines.eigsh
    monkeypatch.setattr(dicond.baselines, "eigsh",
                        lambda op, **kw: calls.append(op.shape[0]) or eigsh(op, **kw))
    rng = np.random.default_rng(55)
    for n in (5, 12, 40):
        perm = rng.permutation(n)
        tails = np.concatenate([rng.integers(0, n, 2 * n), perm])
        heads = np.concatenate([rng.integers(0, n, 2 * n), np.roll(perm, -1)])
        # strongly connected on its first n vertices, so the solve embeds
        g = build_graph(n + isolated, tails, heads, rng.uniform(0.1, 1.0, 3 * n))
        del calls[:]
        report = dsi_solve(g, SolverConfig(seed=n)).to_dict(with_timings=False)
        mask, phi = spectral_sweep(g)
        assert calls == [n]
        fresh = replace(g)  # same arcs, no caches
        fresh_mask, fresh_phi = spectral_sweep(fresh)
        assert np.array_equal(mask, fresh_mask) and phi == fresh_phi
        fresh_report = dsi_solve(fresh, SolverConfig(seed=n)).to_dict(with_timings=False)
        assert json.dumps(fresh_report) == json.dumps(report)
        assert calls == [n, n]


@pytest.mark.parametrize("strongly_connected, isolated, passes", [
    (True, 0, [(30, "strong")]),
    (True, 2, [(30, "strong")]),
    (False, 0, [(30, "strong"), (30, "weak")]),
    (False, 2, [(30, "strong"), (30, "weak")]),
])
def test_a_solve_and_a_sweep_label_the_positive_core_once(monkeypatch, strongly_connected,
                                                          isolated, passes):
    calls = []
    for connection, kernel in (("strong", "_connected_components_directed"),
                               ("weak", "_connected_components_undirected")):
        def counted(*csr, connection=connection, label=getattr(dicond.graph, kernel)):
            calls.append((csr[-1].size, connection))  # the labels array, one entry a vertex
            return label(*csr)
        monkeypatch.setattr(dicond.graph, kernel, counted)
    rng = np.random.default_rng(7)
    n = 30
    # a chain through all n vertices plus forward arcs: weakly but not
    # strongly connected, until the arc n-1 -> 0 closes a cycle
    tails, heads = np.sort(rng.integers(0, n, (2, 2 * n)), axis=0)
    tails = np.concatenate([np.arange(n - 1), tails] + ([[n - 1]] if strongly_connected else []))
    heads = np.concatenate([np.arange(1, n), heads] + ([[0]] if strongly_connected else []))
    g = build_graph(n + isolated, tails, heads, rng.uniform(0.1, 1.0, tails.size))
    report = dsi_solve(g, SolverConfig(seed=1))
    mask, _ = spectral_sweep(g)
    assert calls == passes
    assert (report.certificate == "stop-by-precheck") != strongly_connected
    assert not mask[n:].any() and not report.best_set[n:].any()
    assert report.best_x[n:].tolist() == [-1.0] * isolated


def test_a_precheck_solve_and_a_disconnected_sweep_build_no_scipy_sparse_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse matrix or connected_components used")

    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", refuse)
    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", refuse)  # every sparse format
    chain = build_graph(4, [0, 1, 2, 3], [1, 2, 3, 1])  # weakly but not strongly connected
    assert dsi_solve(chain).certificate == "stop-by-precheck"
    # two directed triangles and the isolated vertex 6: weakly disconnected
    two = build_graph(7, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    assert dsi_solve(two).certificate == "stop-by-precheck"
    mask, phi = spectral_sweep(two)
    assert mask.tolist() == [True] * 3 + [False] * 4 and phi == 0.0
